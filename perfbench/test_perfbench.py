"""Tiny-size self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every declared metric is emitted with its unit, that span self
times add up to the traced wall time, that the trace wrappers are gone after
a traced run, and that the exact counts repeat at one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import workloads  # noqa: E402
from hyperreduce import catalog, cli, reductions, series, special, verifier  # noqa: E402

SCALE = 0.01  # 2 cases per entry; about 330 library-mix calls
SECONDS = 0.2
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", str(trace), "--scale", str(SCALE)],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_span_self_times_sum_to_traced_wall():
    outcome = workloads.run("verify-interior", 1, SECONDS, SCALE, traced=True)
    layers = outcome.layers
    overhead = layers["trace.overhead_s"][0]
    assert overhead > 0.0
    assert abs(layers["trace.wall_s"][0] - layers["trace.self_sum_s"][0]) <= overhead
    assert layers["trace.self_sum_s"][0] == pytest.approx(
        sum(layers[f"{layer}.self_s"][0] for layer in layertrace.LAYERS))


def _boundaries() -> dict:
    modules = (cli, verifier, catalog, series, special, reductions)
    attrs = {(m.__name__, name): getattr(m, name) for m in modules for name in dir(m)
             if callable(getattr(m, name))}
    attrs.update({(e, "draw"): catalog.get_entry(e).draw for e in catalog.catalog_ids()})
    return attrs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_are_removed_after_traced_run(workload):
    before = _boundaries()
    outcome = workloads.run(workload, 1, SECONDS, SCALE, traced=True)
    after = _boundaries()
    assert all(after[key] is value for key, value in before.items())
    spans = len(outcome.tracer.spans)
    workloads.run(workload, 1, SECONDS, SCALE, traced=False)
    assert len(outcome.tracer.spans) == spans


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_at_one_seed(workload):
    def counts():
        layers = workloads.run(workload, 3, SECONDS, SCALE, traced=True).layers
        return {k: v for k, (v, unit) in layers.items() if unit == "count"}

    first, second = counts(), counts()
    assert first == second
    assert first["oracle.calls"] > 0 and first["trace.spans"] > 0
