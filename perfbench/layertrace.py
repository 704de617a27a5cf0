"""In-memory span tracer that wraps hyperreduce's module boundaries.

The tracer replaces module attributes (``verifier.eval_pfq``,
``catalog.reduce``, ...) with timing wrappers for the duration of one traced
pass and puts the originals back afterwards, so untraced timings never pass
through a wrapper.  The package source is not modified: the wrappers work
because each caller looks its callee up as a module global at call time.

A span is ``(name, start, end, parent, case_id)``; ``parent`` is the index of
the enclosing span or -1.  Spans are kept in a list and written out once, by
``write_jsonl``, after the pass.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable

from hyperreduce import catalog, cli, reductions, series, special, verifier

UNITY_IDS = tuple(e for e in catalog.catalog_ids() if catalog.get_entry(e).unity)

# Special functions traced as the closed forms in ``reductions`` call them.
# ``ln_gamma`` is not imported into ``reductions``; it is traced where
# ``special`` itself calls it (gamma_ratio, gamma_fn, the Bessel series).
SPECIAL_FNS = (
    "gamma_ratio",
    "ln_gamma",
    "digamma",
    "pochhammer",
    "incomplete_beta",
    "lower_incomplete_gamma",
    "bessel_i",
    "bessel_j",
    "laguerre",
)

SERIALIZERS = ("report_summary", "report_to_jsonl", "report_to_csv", "_result_row")

# Layer of each span name; a layer's self time is the sum of its spans' self
# times.  "bench" is the benchmark's own loop around the calls.
LAYERS = ("bench", "cli", "suite", "sample", "lhs", "reduce", "special", "inner_series",
          "oracle", "generic", "serialize")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.case: str | None = None
        self.case_entry: dict[str, str] = {}
        self.series_results: dict[int, tuple[int, str]] = {}  # span index -> (terms, status)
        self.draws = 0
        self._sampling: list = []  # [entry_id, seed, next index] while sample_cases runs

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, time.perf_counter()

    def _close(self, idx: int, name: str, start: float, case: str | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1, case)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, start = self._open(name)
        try:
            yield
        finally:
            self._close(idx, name, start, self.case)

    def _wrap(self, owner: object, attr: str, name: str,
              set_case: Callable | None = None, keep_result: bool = False) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            saved = tracer.case
            if set_case is not None:
                set_case(args)
            case = tracer.case
            idx, start = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx, name, start, case)
                tracer.case = saved
            if keep_result:
                tracer.series_results[idx] = (result.terms_used, result.status.value)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _set_case(self, args) -> None:
        case = args[0]
        self.case = case.case_id
        self.case_entry[case.case_id] = case.request.id

    def _start_sampling(self, args) -> None:
        entry_id, _count, seed = args[:3]
        self._sampling[:] = [entry_id, seed, 0]

    def _next_sample_case(self, args) -> None:
        if self._sampling:
            entry_id, seed, i = self._sampling
            self._sampling[2] = i + 1
            self.case = f"{entry_id}-{seed}-{i:04d}"
            self.case_entry[self.case] = entry_id

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced boundary; ``remove`` restores the originals."""
        self._wrap(cli, "main", "cli")
        self._wrap(verifier, "run_suite", "suite.run_suite")
        self._wrap(verifier, "sample_cases", "suite.sample_cases", set_case=self._start_sampling)
        self._wrap(verifier, "run_case", "suite.run_case", set_case=self._set_case)
        self._wrap(catalog, "sample_request", "sample", set_case=self._next_sample_case)
        self._wrap(catalog, "lhs_spec", "lhs")
        self._wrap(catalog, "reduce", "reduce")
        self._wrap(verifier, "eval_pfq", "oracle", keep_result=True)
        # A library caller reaches the series through ``series.eval_pfq``.
        self._wrap(series, "eval_pfq", "oracle", keep_result=True)
        self._wrap(special, "eval_pfq", "inner_series", keep_result=True)
        self._wrap(reductions, "eval_pfq", "inner_series", keep_result=True)
        for fn in SPECIAL_FNS:
            self._wrap(special if fn == "ln_gamma" else reductions, fn, f"special.{fn}")
        for fn in ("expand_main", "reduce_corollary"):
            self._wrap(reductions, fn, f"generic.{fn}")
        for fn in SERIALIZERS:
            self._wrap(verifier, fn, f"serialize.{fn}")
        for entry_id in catalog.catalog_ids():
            entry = catalog.get_entry(entry_id)
            original = entry.draw

            def draw(rng, _draw=original):
                self.draws += 1
                return _draw(rng)

            # CatalogEntry is frozen; the draw hook counts rejection-sampling
            # attempts and is removed with the other patches.
            object.__setattr__(entry, "draw", draw)
            self._patches.append((entry, "draw", original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, catalog.CatalogEntry):
                object.__setattr__(owner, attr, original)
            else:
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def tracing(tracer: Tracer):
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.remove()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    Unit ``count`` marks the exact counts, which repeat exactly at a seed.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _case in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]

    by_name: dict[str, list[int]] = defaultdict(list)
    self_by_layer: Counter = Counter()
    for i, (name, *_rest) in enumerate(spans):
        by_name[name].append(i)
        self_by_layer[layer_of(name)] += self_time[i]

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def total(name: str) -> float:
        # Outermost spans only, so recursion (ln_gamma reflection) is not
        # counted twice.
        return sum(dur(i) for i in by_name[name]
                   if spans[i][3] < 0 or spans[spans[i][3]][0] != name)

    def by_layer(layer: str) -> list[int]:
        return [i for n, idx in by_name.items() if layer_of(n) == layer for i in idx]

    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    wall = sum(dur(i) for i in roots)
    m: dict[str, tuple[float, str]] = {}

    oracle = by_name["oracle"]
    results = tracer.series_results
    terms = [results[i][0] for i in oracle if i in results]
    oracle_time = sum(dur(i) for i in oracle)
    m["oracle.calls"] = (len(oracle), "count")
    m["oracle.time_s"] = (oracle_time, "s")
    m["oracle.share"] = (oracle_time / wall if wall else 0.0, "ratio")
    m["oracle.terms"] = (sum(terms), "count")
    m["oracle.terms_p50"] = (_median(terms), "terms")
    m["oracle.terms_max"] = (max(terms, default=0), "terms")
    m["oracle.us_per_term"] = (oracle_time / sum(terms) * 1e6 if sum(terms) else 0.0, "us")
    m["oracle.cap_hits"] = (sum(1 for i in oracle if results.get(i, (0, ""))[1] == "MaxTermsReached"), "count")

    cases = by_name["suite.run_case"]
    samples = by_name["sample"]
    for entry_id in UNITY_IDS:
        mine = [i for i in cases if tracer.case_entry.get(spans[i][4]) == entry_id]
        sampled = [i for i in samples if tracer.case_entry.get(spans[i][4]) == entry_id]
        t = sum(dur(i) for i in mine) + sum(dur(i) for i in sampled)
        entry_terms = [results[i][0] for i in oracle
                       if i in results and tracer.case_entry.get(spans[i][4]) == entry_id]
        m[f"entry.{entry_id}.us_per_case"] = (t / len(mine) * 1e6 if mine else 0.0, "us")
        m[f"entry.{entry_id}.terms_p50"] = (_median(entry_terms), "terms")

    inner = by_name["inner_series"]
    m["inner_series.calls"] = (len(inner), "count")
    m["inner_series.time_s"] = (total("inner_series"), "s")
    m["inner_series.terms"] = (sum(results[i][0] for i in inner if i in results), "count")

    reduce = by_name["reduce"]
    m["reduce.calls"] = (len(reduce), "count")
    m["reduce.us_p50"] = (_median([dur(i) for i in reduce]) * 1e6, "us")
    m["lhs.calls"] = (len(by_name["lhs"]), "count")
    m["lhs.time_s"] = (total("lhs"), "s")
    m["sample.calls"] = (len(samples), "count")
    m["sample.time_s"] = (total("sample"), "s")
    m["sample.accept_ratio"] = (len(samples) / tracer.draws if tracer.draws else 0.0, "ratio")

    for fn in SPECIAL_FNS:
        m[f"special.{fn}.calls"] = (len(by_name[f"special.{fn}"]), "count")
        m[f"special.{fn}.time_s"] = (total(f"special.{fn}"), "s")

    generic = by_layer("generic")
    generic_set = set(generic)
    m["generic.calls"] = (len(generic), "count")
    m["generic.inner_calls"] = (sum(1 for i in inner if spans[i][3] in generic_set), "count")
    m["generic.time_s"] = (sum(dur(i) for i in generic), "s")

    m["serialize.time_s"] = (sum(dur(i) for i in by_layer("serialize")
                                 if spans[i][3] < 0 or layer_of(spans[spans[i][3]][0]) != "serialize"), "s")
    m["cli.overhead_s"] = (sum(dur(i) for i in by_name["cli"])
                           - sum(dur(i) for i in by_name["suite.run_suite"]), "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.self_sum_s"] = (sum(self_time), "s")
    return m
