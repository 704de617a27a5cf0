import json
import subprocess
import sys
from pathlib import Path

import pytest

from hyperreduce import cli, verifier


def run(argv):
    return cli.main(argv)


def test_eval_log_value(capsys):
    assert run(["eval", "--upper", "1,1", "--lower", "2", "--z", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "1.3862943611" in out
    assert "Converged" in out


def test_eval_chu_vandermonde(capsys):
    assert run(["eval", "--upper=-2,3", "--lower", "5", "--z", "1"]) == 0
    out = capsys.readouterr().out
    assert "value       = 0.2" in out
    assert "Terminated" in out


def test_eval_at_unity_is_extrapolated(capsys):
    # 2F1(1, 1; 5/2; 1) = Gamma(5/2) Gamma(1/2) / Gamma(3/2)^2 = 3
    assert run(["eval", "--upper", "1,1", "--lower", "2.5", "--z", "1"]) == 0
    fields = {
        key.strip(): value
        for key, value in (line.split(" = ") for line in capsys.readouterr().out.split("\n")[:-1])
    }
    assert fields["status"] == "Extrapolated"
    assert abs(float(fields["value"]) - 3.0) <= float(fields["abs_err_est"])
    assert int(fields["terms_used"]) < 4096


def test_eval_divergent_exits_3(capsys):
    assert run(["eval", "--upper", "1,1,1", "--lower", "2", "--z", "0.5"]) == 3
    assert run(["eval", "--upper", "0.5", "--lower=-2", "--z", "0.5"]) == 3  # a lower pole
    capsys.readouterr()
    # The partial sum of e^709.9 leaves the double range while every term is
    # finite: the overflow is named, not the term cap.
    assert run(["eval", "--z", "709.9"]) == 3
    assert capsys.readouterr().err == (
        "error: series term or partial sum overflowed to non-finite value\n"
    )
    # At -709.9 the sum stays finite but sum |t_k| does not.
    assert run(["eval", "--z", "-709.9"]) == 3
    assert capsys.readouterr().err == (
        "error: sum of the terms' magnitudes overflowed to non-finite value\n"
    )


def test_eval_cancelled_value_exits_3(capsys):
    # 1F1(1; 1; -40) = e^-40 = 4.2e-18, but the terms reach 40^40/40! = 1.5e16
    # and their cancellation leaves an estimate far above the value printed.
    assert run(["eval", "--upper", "1", "--lower", "1", "--z", "-40"]) == 3
    captured = capsys.readouterr()
    fields = {key.strip(): value for key, value in (line.split(" = ") for line in captured.out.splitlines())}
    assert float(fields["abs_err_est"]) >= abs(float(fields["value"])) > 0.1
    assert fields["status"] == "Converged"
    assert captured.err == "error: cancellation left no correct digit: abs_err_est >= |value|\n"


def test_eval_usage_errors(capsys):
    assert run(["eval", "--upper", "1,x", "--lower", "2", "--z", "0.5"]) == 2
    assert run(["eval", "--upper", "1", "--lower", "2", "--z", "0.5", "--tol", "-1"]) == 2
    assert run(["eval", "--upper", "1", "--lower", "2", "--z", "0.5", "--tol", "inf"]) == 2
    assert run(["eval", "--upper", "1", "--lower", "2", "--z", "0.5", "--tol", "nan"]) == 2
    assert run(["eval", "--upper", "1", "--lower", "2", "--z", "0.5", "--max-terms", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--upper", "1", "--lower", "2"])  # missing --z
    assert exc.value.code == 2


def test_eval_term_cap_exits_3(capsys):
    assert run(["eval", "--upper", "0.5", "--lower", "", "--z", "0.99", "--max-terms", "10"]) == 3
    assert "MaxTermsReached" in capsys.readouterr().out


def test_reduce_basic(capsys):
    assert run(["reduce", "F32HalfBateman", "--a", "1", "--c", "2.5", "--n", "0"]) == 0
    out = capsys.readouterr().out
    assert "1.3862943611" in out


def test_reduce_check_pass(capsys):
    rc = run(
        ["reduce", "F21Contiguous", "--b", "0.7", "--c", "1.4", "--n", "2",
         "--z", "0.3", "--check"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "check       = pass" in out
    rel = float(out.split("rel_err     = ")[1].split("\n")[0])
    assert rel <= 1e-11


def test_reduce_precondition_violation_exits_2(capsys):
    assert run(["reduce", "F43Unity", "--a", "0.2", "--b", "1.0", "--c", "1.0", "--n", "1"]) == 2
    capsys.readouterr()
    assert run(["reduce", "F43Unity", "--a", "0.5", "--b", "1.0", "--c", "2.0", "--n", "1"]) == 2
    assert "requires 1+b-a, 1+b-c, 1+b-c-n off poles" in capsys.readouterr().err


def test_reduce_unknown_id_and_bad_signature(capsys):
    assert run(["reduce", "NoSuchId", "--a", "1"]) == 2
    assert run(["reduce", "F21Contiguous", "--b", "0.7", "--n", "2", "--z", "0.3"]) == 2
    assert run(["reduce", "F21Contiguous", "--b", "0.7", "--c", "1.4", "--a", "1",
                "--n", "2", "--z", "0.3"]) == 2


def test_reduce_flags_come_from_the_catalog(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["reduce", "--help"])
    assert exc.value.code == 0
    flags = [word for word in capsys.readouterr().out.split() if word.startswith("--")]
    params = [flag for flag in flags if flag not in ("--help", "--z", "--check")]
    assert params == ["--a", "--b", "--c", "--d", "--n", "--m", "--k"]
    # a flag the entry does not take is still a usage error
    assert run(["reduce", "F21Contiguous", "--a", "1", "--b", "0.5", "--c", "1",
                "--n", "0", "--z", "0.3"]) == 2
    assert "unexpected scalars ['a']" in capsys.readouterr().err


def test_reduce_list_parameter(capsys):
    rc = run(["reduce", "Mp1FmIncBeta", "--a", "0.4,1.3", "--b", "-0.5",
              "--z", "0.5", "--check"])
    assert rc == 0
    assert "check       = pass" in capsys.readouterr().out
    # z fixed at 1: the check runs the oracle's extrapolation on the circle.
    assert run(["reduce", "Pp2Fp1Unity", "--a", "0.5,1.5", "--b", "-2", "--c", "1.2",
                "--n", "1", "--check"]) == 0
    assert "check       = pass" in capsys.readouterr().out


def test_verify_only_csv(capsys):
    assert run(["verify", "--only", "F32P0", "--cases", "10", "--format", "csv",
                "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 11


def test_verify_usage_errors(tmp_path, capsys):
    assert run(["verify", "--cases", "0"]) == 2
    assert run(["verify", "--only", "NoSuchId", "--cases", "1"]) == 2
    assert run(["verify", "--only", ",", "--cases", "1"]) == 2
    capsys.readouterr()
    assert run(["verify", "--only", "F01Bessel", "--cases", "1", "--seed", "-1"]) == 2
    assert "seed=-1" in capsys.readouterr().err
    # A repeated id would count its entry's failures twice.
    assert run(["verify", "--only", "F01Bessel,F01Bessel", "--cases", "1"]) == 2
    assert capsys.readouterr().err == "error: entries must be distinct, got F01Bessel more than once\n"
    # An --out that cannot be opened for writing: a missing directory, a directory.
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert run(["verify", "--only", "F01Bessel", "--cases", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err


@pytest.mark.parametrize(
    "argv",
    [["--cases", "0"], ["--seed", "-1"], ["--only", "NoSuchId"], ["--only", "F01Bessel,F01Bessel"]],
)
def test_verify_usage_error_leaves_out_file_as_it_was(argv, tmp_path, capsys):
    out = tmp_path / "keep.json"
    out.write_bytes(b'{"kept": true}\n')
    assert run(["verify", *argv, "--out", str(out)]) == 2
    assert out.read_bytes() == b'{"kept": true}\n'
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_unwritable_out_fails_before_the_run(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(verifier, "run_suite", lambda *args: calls.append(args))
    out = "/nonexistent/dir/r.json"
    assert run(["verify", "--only", "F01Bessel", "--cases", "1", "--out", out]) == 2
    assert calls == []
    assert out in capsys.readouterr().err


def test_verify_json_round_trip(capsys):
    assert run(["verify", "--only", "F12BesselI,F21Contiguous", "--cases", "5",
                "--format", "json", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"summary", "results"}
    for entry_row in payload["summary"]["entries"]:
        rows = [r for r in payload["results"] if r["id"] == entry_row["id"]]
        assert entry_row["passed"] == sum(1 for r in rows if r["pass"])
        assert entry_row["failed"] == sum(
            1 for r in rows if not r["pass"] and r["failure_kind"] == "Mismatch"
        )


def test_verify_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    out_path.write_text("an older, longer report\n" * 10)  # replaced, not appended to
    assert run(["verify", "--only", "F01Bessel", "--cases", "3", "--format", "csv",
                "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert len(out_path.read_text().strip().split("\n")) == 4


def test_verify_table(capsys):
    assert run(["verify", "--only", "F11Laguerre", "--cases", "4"]) == 0
    out = capsys.readouterr().out
    assert "F11Laguerre" in out
    assert "total failures: 0" in out


def test_catalog_listing(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if not l.lstrip().startswith("constraints:")]
    assert len(lines) == 28


def test_catalog_detail(capsys):
    assert run(["catalog", "--id", "F12BesselI"]) == 0
    out = capsys.readouterr().out
    assert "modified Bessel function of the" in out
    assert "signature:" in out
    assert run(["catalog", "--id", "Pp3Fp2H"]) == 0
    assert "a's > m - 1 + 0.05" in capsys.readouterr().out


def test_catalog_unknown_id(capsys):
    assert run(["catalog", "--id", "NoSuchId"]) == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--upper", "1", "--lower", "2", "--z", "0.5", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "F21Contiguous", "--b", "nan", "--c", "1.4", "--n", "2", "--z", "0.3"],
        ["eval", "--upper", "nan", "--lower", "2", "--z", "0.5"],
        ["eval", "--upper", "1", "--lower", "2", "--z", "nan"],
    ],
)
def test_non_finite_input_exits_2(argv, capsys):
    assert run(argv) == 2
    assert "finite" in capsys.readouterr().err


def test_reduce_check_oracle_cap_exits_3(capsys):
    # The oracle stops at its term cap this close to z = 1: verify skips the
    # case, so the check blames neither side.
    assert run(["reduce", "F21Contiguous", "--b", "0.5", "--c", "1", "--n", "0",
                "--z", "0.999999", "--check"]) == 3
    captured = capsys.readouterr()
    assert "check" not in captured.out
    assert "oracle" in captured.err


def test_verify_unknown_id_fails_before_any_entry_runs(capsys):
    assert run(["verify", "--only", "F01Bessel,NoSuchId", "--cases", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NoSuchId" in captured.err


# 1F1(1/2; 3/2; -z) = gamma(1/2, z) / (2 sqrt(z)) from mpmath at 40 digits:
# past z ~ 709 the ascending series of the incomplete gamma overflows.
@pytest.mark.parametrize(
    "z, expected",
    [("720", 0.03302772748005009), ("800", 0.031332853432887504)],
    ids=["720", "800"],
)
def test_reduce_incomplete_gamma_past_series_overflow(z, expected, capsys):
    assert run(["reduce", "F11IncGamma", "--a", "0.5", "--z", z]) == 0
    fields = {
        key.strip(): value
        for key, value in (line.split(" = ") for line in capsys.readouterr().out.splitlines())
    }
    assert float(fields["value"]) == pytest.approx(expected, rel=1e-12)


def test_reduce_gamma_overflow_exits_3(capsys):
    # Gamma(180) overflows a double: a numeric failure (exit 3), not a usage
    # error, with the message naming the argument.
    assert run(["reduce", "F01Bessel", "--b", "180", "--z", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Gamma(180.0) exceeds double range" in captured.err


def test_reduce_bessel_j_past_its_digits_exits_3(capsys):
    # x = 2 sqrt(900) = 60: the alternating series for J once read -7.02e7
    # here and exited 0.
    assert run(["reduce", "F12BesselJ", "--b", "1.5", "--c", "2", "--n", "1", "--z", "900"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Bessel J series at x = 60.0 loses its digits" in captured.err


def test_reduce_check_passes_when_pochhammer_overflows(capsys):
    # (1e200)_2 overflows to inf, which turns a negligible term of the closed
    # form into 0 instead of raising.
    rc = run(["reduce", "F22IncGamma", "--a", "1", "--c", "1e200", "--n", "2", "--z", "1", "--check"])
    assert rc == 0
    assert "check       = pass" in capsys.readouterr().out


# Runs cli.main on each command in a fresh interpreter and prints, after the
# package import and after each command, its exit code and whether NumPy has
# been imported.  First it asserts that importing the package loads neither
# the dataclasses machinery nor the serializers' json and csv, and that the
# serializers then still work.
_NUMPY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import hyperreduce
from hyperreduce import verifier
loaded = [m for m in ("dataclasses", "inspect", "json", "csv") if m in sys.modules]
assert not loaded, loaded
import hyperreduce.cli
assert "json" not in sys.modules  # only verify --format json imports it
request = hyperreduce.ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 1}, 0.3)
report = verifier.Report(0, 1, (), (verifier.run_case(verifier.VerificationCase("c", request)),))
assert verifier.report_to_jsonl(report).startswith('{"case_id": "c", "id": "F21Contiguous"')
assert verifier.report_to_csv(report).startswith("case_id,id,params,z,lhs,rhs,rel_err,pass,failure_kind")
import contextlib, io, json
steps = [["import", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hyperreduce.cli.main(argv)
    steps.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def _numpy_probe(*commands):
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, src, json.dumps([c.split() for c in commands])],
        capture_output=True,
        text=True,
        check=True,
    )
    return [tuple(step) for step in json.loads(proc.stdout)]


def test_numpy_loaded_only_by_circle_oracle_and_sampler():
    assert _numpy_probe(
        "catalog",
        "reduce F21Contiguous --b 0.7 --c 1.4 --n 1 --z 0.3 --check",
        "eval --upper 1,1 --lower 2 --z 0.5",
        "eval --upper 0.5,0.5 --lower 1.2 --z 1",
    ) == [
        ("import", None, False),
        ("catalog", 0, False),
        ("reduce", 0, False),
        ("eval", 0, False),
        ("eval", 0, True),
    ]
    assert _numpy_probe("verify --cases 1") == [("import", None, False), ("verify", 0, True)]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["Mp1FmIncBeta", "--a", "", "--b", "-0.5", "--z", "0.3"], 2,
         "Mp1FmIncBeta: parameter list 'a' is empty"),
        (["F01Bessel", "--b", "1.5", "--z", "200000"], 3,
         "F01Bessel: Bessel argument x = 894.4271909999159 too large for ascending series"),
    ],
    ids=["empty-list", "bessel-argument"],
)
def test_reduce_error_names_the_entry(argv, code, message, capsys):
    assert run(["reduce", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reduce_overflow_names_the_entry(capsys):
    # special.binomial's own message does not say which closed form failed;
    # catalog.reduce puts the entry id in front of it.
    assert run(["reduce", "F21Contiguous", "--b", "0.5", "--c", "1", "--n", "2000", "--z", "0.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: F21Contiguous: " in captured.err


def test_reduce_incomplete_beta_near_unity(capsys):
    # B_z(a, 0.7) at z = 0.999999 by the symmetry B(a, b) - B_{1-z}(b, a):
    # within 1e-14 of 3F2(0.5, 1.5, 0.3; 1.5, 2.5; 0.999999) = 1.09628532976971449
    # (mpmath at 30 digits), where the Gauss series stopped at its term cap.
    assert run(["reduce", "Mp1FmIncBeta", "--a", "0.5,1.5", "--b", "0.3", "--z", "0.999999"]) == 0
    out = capsys.readouterr().out
    assert "value       = 1.09628532976971" in out
    value = float(out.split("value       = ")[1].split()[0])
    assert value == pytest.approx(1.09628532976971448593, rel=1e-14)


def test_reduce_incomplete_beta_negative_b_near_unity(capsys):
    # Mp1FmIncBeta with a = 2, b = 2.5 needs B_z(2, -1.5); at z = 0.99999 its
    # continued fraction does not converge within the step limit, and the
    # value is B(2, -1.5) - B_{1-z}(-1.5, 2), the latter by its own fraction,
    # within 1e-13 of 2F1(2.5, 2; 3; 0.99999) = 42163283.152915545859 (mpmath).
    assert run(["reduce", "Mp1FmIncBeta", "--a", "2", "--b", "2.5", "--z", "0.99999"]) == 0
    out = capsys.readouterr().out
    assert "value       = 42163283.1529" in out
    value = float(out.split("value       = ")[1].split()[0])
    assert value == pytest.approx(42163283.152915545859, rel=1e-13)


def test_reduce_incomplete_beta_fraction_not_converged_exits_3(capsys):
    # Mp1FmIncBeta with a = 2, b = 2.02 needs B_z(2, -1.02), within 0.05 of
    # the pole at -1; at z = 0.99999 its continued fraction does not converge
    # within the step limit, and no symmetric route is taken that near a pole.
    assert run(["reduce", "Mp1FmIncBeta", "--a", "2", "--b", "2.02", "--z", "0.99999"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "z = 0.99999, a = 2.0, b = -1.02 did not converge" in captured.err
