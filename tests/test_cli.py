import json

import pytest

from hyperreduce import cli


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


def test_reduce_unknown_id_and_bad_signature(capsys):
    assert run(["reduce", "NoSuchId", "--a", "1"]) == 2
    assert run(["reduce", "F21Contiguous", "--b", "0.7", "--n", "2", "--z", "0.3"]) == 2
    assert run(["reduce", "F21Contiguous", "--b", "0.7", "--c", "1.4", "--a", "1",
                "--n", "2", "--z", "0.3"]) == 2


def test_reduce_list_parameter(capsys):
    rc = run(["reduce", "Mp1FmIncBeta", "--a", "0.4,1.3", "--b", "-0.5",
              "--z", "0.5", "--check"])
    assert rc == 0
    assert "check       = pass" in capsys.readouterr().out


def test_verify_only_csv(capsys):
    assert run(["verify", "--only", "F32P0", "--cases", "10", "--format", "csv",
                "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")) == 11


def test_verify_usage_errors(capsys):
    assert run(["verify", "--cases", "0"]) == 2
    assert run(["verify", "--only", "NoSuchId", "--cases", "1"]) == 2
    assert run(["verify", "--only", ",", "--cases", "1"]) == 2
    capsys.readouterr()
    assert run(["verify", "--only", "F01Bessel", "--cases", "1", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


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


@pytest.mark.parametrize("z", ["720", "800"])
def test_reduce_incomplete_gamma_overflow_exits_3(z, capsys):
    assert run(["reduce", "F11IncGamma", "--a", "0.5", "--z", z]) == 3
    assert capsys.readouterr().out == ""


def test_reduce_gamma_overflow_exits_3(capsys):
    # Gamma(180) overflows a double: a numeric failure (exit 3), not a usage
    # error, with the message naming the argument.
    assert run(["reduce", "F01Bessel", "--b", "180", "--z", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Gamma(180.0) exceeds double range" in captured.err
