"""In-memory span tracer for the benchmark's traced run.

The tracer replaces, for the duration of one traced op, each public function
of a layer under the name its caller looks it up by (``pcscreen.pipeline.
rank_features``, not ``pcscreen.screening.rank_features``).  The wrapper
records a span (id, parent, name, start, end) and, after the span has
closed, runs a hook that counts work computed from argument and result
shapes and checks the contracts the result exposes.

Spans nest on one stack: every traced function is called from the thread
that runs the op.  (The kernel calls that ``rank_features`` hands to its
thread pool are not traced; their time is the self time of ``rank_features``.)
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"

# (span name, module the caller looks the function up in, attribute)
PATCH_POINTS = (
    ("harness.run_quantile_experiment", "pcscreen.harness", "run_quantile_experiment"),
    ("harness.run_fdr_experiment", "pcscreen.harness", "run_fdr_experiment"),
    ("cli.cli_main", "pcscreen.cli", "cli_main"),
    ("harness.read_design_csv", "pcscreen.cli", "read_design_csv"),
    ("models.generate_dataset", "pcscreen.harness", "generate_dataset"),
    ("screening.rank_features", "pcscreen.harness", "rank_features"),
    ("screening.rank_features", "pcscreen.pipeline", "rank_features"),
    ("screening.rank_features", "pcscreen.cli", "rank_features"),
    ("screening.pearson_sis_rank", "pcscreen.harness", "pearson_sis_rank"),
    ("kernel.build_response_cache", "pcscreen.screening", "build_response_cache"),
    ("kernel.build_response_cache", "pcscreen.fdr", "build_response_cache"),
    ("pipeline.pc_knockoff_core", "pcscreen.harness", "pc_knockoff_core"),
    ("knockoffs.estimate_covariance", "pcscreen.pipeline", "estimate_covariance"),
    ("knockoffs.sdp_h", "pcscreen.pipeline", "sdp_h"),
    ("knockoffs.build_knockoff_model", "pcscreen.pipeline", "build_knockoff_model"),
    ("knockoffs.sample_knockoffs", "pcscreen.pipeline", "sample_knockoffs"),
    ("fdr.w_statistics", "pcscreen.pipeline", "w_statistics"),
    ("fdr.knockoff_plus_threshold", "pcscreen.pipeline", "knockoff_plus_threshold"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in PATCH_POINTS))


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, op index)
        self.counters = Counter()
        self.problems = []
        self._stack = []
        self._ids = itertools.count()
        self._op = None
        self._survivors = None
        self._originals = []

    # -- patching -----------------------------------------------------------

    def install(self):
        for name, module_name, attr in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, _HOOKS.get(name)))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def op(self, index):
        """Root span of one traced op; every layer span of the op nests in it."""
        self._op = index
        self._survivors = None
        return self.span(ROOT_SPAN)

    @contextlib.contextmanager
    def span(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self._op))

    def take_problems(self):
        problems, self.problems = self.problems, []
        return problems

    # -- aggregation --------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the part of it covered by its
        child spans.  Every traced name has a row, zero if it never ran.
        """
        children = defaultdict(list)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                  for name in (ROOT_SPAN,) + SPAN_NAMES}
        for sid, _, name, start, end, _ in self.spans:
            row = totals[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - _covered(children[sid], start, end)
        return totals

    def dump(self):
        keys = ("id", "parent", "name", "start", "end", "op")
        return [dict(zip(keys, span)) for span in self.spans]


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


# -- hooks: counts from shapes, and contracts the results expose ---------------


def _on_cache(tracer, args, cache):
    slice_bytes = sum(s.nbytes for s in cache.slices) if cache.slices is not None else 0
    tracer.counters["kernel.cache_bytes"] += slice_bytes
    # only multivariate responses read their materialized slices
    if cache.q > 1:
        tracer.counters["kernel.cache_useful_bytes"] += slice_bytes


def _on_ranking(tracer, args, ranking):
    n, p = np.shape(args[0])
    tracer.counters["kernel.feature_slices"] += n * p
    omega = ranking.omega_hat
    if np.any(omega > 1.0):
        tracer.problems.append(f"rank_features: score {float(omega.max())!r} > 1")
    if not np.array_equal(np.sort(ranking.feature), np.arange(p)):
        tracer.problems.append("rank_features: ranking is not a permutation of the features")


def _on_w(tracer, args, w):
    n, d = np.shape(args[0])
    tracer.counters["kernel.feature_slices"] += 2 * n * d
    if np.any(np.abs(w.w_hat) > 2.0):
        tracer.problems.append("w_statistics: |W| > 2")


def _on_core(tracer, args, core):
    tracer._survivors = set(core.survivors)
    if core.fallback_flag:
        tracer.counters["knockoffs.sdp_fallbacks"] += 1


def _on_threshold(tracer, args, selection):
    selected = set(selection.selected)
    if tracer._survivors is not None and not selected <= tracer._survivors:
        tracer.problems.append(f"alpha {selection.alpha}: selection outside the survivors")
    if selected and not selection.fdp_hat <= selection.alpha:
        tracer.problems.append(f"alpha {selection.alpha}: fdp_hat {selection.fdp_hat} > alpha")


def _on_design(tracer, args, design):
    tracer.counters["harness.read_design_csv.cells"] += design.x.size + design.y.size


_HOOKS = {
    "kernel.build_response_cache": _on_cache,
    "screening.rank_features": _on_ranking,
    "fdr.w_statistics": _on_w,
    "pipeline.pc_knockoff_core": _on_core,
    "fdr.knockoff_plus_threshold": _on_threshold,
    "harness.read_design_csv": _on_design,
}
