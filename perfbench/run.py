#!/usr/bin/env python3
"""Benchmark of hyperreduce: the verifier CLI and the library, end to end and
layer by layer.

    python3 perfbench/run.py --workload verify-interior --seed 1 --seconds 20 --trace 0

Workloads: verify-interior, verify-unity, library-mix (see NOTES.md).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it adds one
traced repetition after the untraced ones and prints the per-layer metrics,
writing the spans to ``perfbench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (per repetition) and
``metrics``.  Run it from the root of a source checkout; it imports the
package from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify-interior", "verify-unity", "library-mix")
SETUP_RUNS = (8, 7)  # fresh interpreters before and after the workload

# Import time of the package, which registers the catalog, in a fresh
# interpreter; interpreter start-up itself is not counted.
_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import hyperreduce; print(repr(time.perf_counter() - t))"
)


def setup_samples(count: int) -> list[float]:
    """Import times in ``count`` fresh interpreters."""
    cmd = [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)]
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120,
                                 cwd=ROOT).stdout) for _ in range(count)]


def per_layer_zeros() -> dict:
    """Every per-layer metric with its unit, at zero; a workload fills in the
    layers it exercises, and the rest read zero."""
    import layertrace
    import mix
    import workloads

    zeros = layertrace.layer_metrics(layertrace.Tracer())
    zeros.update(workloads.verdict_metrics([]))
    zeros.update(mix.latency_metrics([], []))
    zeros.update(mix.calibration_metrics([], []))
    for name in ("trace.wall_s", "trace.untraced_s", "trace.overhead_s"):
        zeros[name] = (0.0, "s")
    return zeros


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the default (200 cases per entry)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hyperreduce" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'hyperreduce'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperreduce

    if Path(hyperreduce.__file__).resolve().parent != SRC / "hyperreduce":
        print(f"perfbench: imported hyperreduce from {hyperreduce.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    # The setup samples are split around the workload so that they do not
    # all fall into one slow or fast phase of a shared machine.
    setup = [] if args.trace else setup_samples(1 + SETUP_RUNS[0])[1:]  # after one warm-up
    outcome = workloads.run(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
    if not args.trace:
        setup += setup_samples(SETUP_RUNS[1])

    if args.trace:
        metrics = per_layer_zeros()
        metrics.update(outcome.layers)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write_jsonl(spans_path)
        outcome.notes.append(f"{len(outcome.tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
            "cases_per_s": (outcome.attempted / outcome.seconds, "1/s"),
        }

    metrics = {name: (int(v) if unit == "count" else float(v), unit) for name, (v, unit) in metrics.items()}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    reps = outcome.rep_seconds
    outcome.notes.append(f"one repetition: {outcome.seconds:.4g} s from each unit's fastest run; "
                         f"whole repetitions {min(reps):.4g} to {max(reps):.4g} s (median {statistics.median(reps):.4g})")
    for note in outcome.notes + outcome.problems:
        print("  " + note)
    print(f"  fail_share {outcome.failed}/{outcome.attempted} = {outcome.failed / outcome.attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16{'d' if unit == 'count' else '.6g'}} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
