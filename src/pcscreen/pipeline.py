"""Two-step screen-then-select pipeline: split the sample, rank features on
the first split, then build knockoffs and threshold W statistics on the
second."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumn, InvalidSplit, SolverFailure
from .fdr import WVector, check_alpha, knockoff_plus_threshold, w_statistics
from .kernel import _sample_pair, _seed, _whole
from .knockoffs import (
    build_knockoff_model,
    equicorrelated_h,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
)
from .screening import FeatureRanking, rank_features, select_top_d

# The ways to choose the knockoff diagonal h, and the one used when none is
# named.  "sdp" falls back to "equicorrelated" when its solver fails.
CONSTRUCTIONS = ("sdp", "equicorrelated")
DEFAULT_CONSTRUCTION = "sdp"


@dataclass(frozen=True)
class SplitPlan:
    """A seeded disjoint two-way split of observation indices 0..n-1."""

    n1: int
    perm: np.ndarray

    @property
    def split1(self):
        return self.perm[: self.n1]

    @property
    def split2(self):
        return self.perm[self.n1 :]


@dataclass(frozen=True)
class PcKnockoffCore:
    """Everything up to the W statistics; thresholding at any alpha reuses it.

    ``survivors`` is the screening selection, the top d features of
    ``ranking1``, sorted ascending: the order in which split-2 columns are
    consumed (so ``w.feature`` and a selection's ``selected`` carry original
    feature indices ascending).
    """

    split: SplitPlan
    ranking1: FeatureRanking
    survivors: tuple[int, ...]
    w: WVector
    construction_used: str
    fallback_flag: bool
    jitter_applied: float
    clip_magnitude: float
    timings: dict[str, float]


def split_sample(n, n1, seed):
    """Seeded uniform split: first n1 positions of a random permutation."""
    n = _whole(n, "n")
    n1 = _whole(n1, "n1")
    if not 2 <= n1 <= n - 2:
        raise InvalidSplit(f"need 2 <= n1 <= n - 2, got n1={n1} with n={n}")
    perm = np.random.default_rng(_seed(seed)).permutation(n)
    return SplitPlan(n1=n1, perm=perm)


def split_sizes(n, n1=None, d=None):
    """(n1, d) for n observations, as ints; unless given, n1 = ceil(n / 4) and
    d = min(floor(n2 / 2) - 1, 100).  The n1 range is checked before d."""
    n1 = -(-n // 4) if n1 is None else _whole(n1, "n1")
    if not 2 <= n1 <= n - 2:
        raise InvalidSplit(f"need 2 <= n1 <= n - 2, got n1={n1} with n={n}")
    d = _whole(min((n - n1) // 2 - 1, 100) if d is None else d, "d", 1)
    if not 2 * d < n - n1:
        raise ValueError(f"need 2d < n - n1, got d={d} with n2={n - n1}")
    return n1, d


def check_construction(construction):
    """Refuse a construction name that is not one of :data:`CONSTRUCTIONS`."""
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}; known: {CONSTRUCTIONS}")


def _derive_seeds(seed):
    """Two decoupled child seeds (split, knockoff-noise) from one base seed."""
    children = np.random.SeedSequence(_seed(seed)).spawn(2)
    return tuple(int(c.generate_state(1, np.uint64)[0]) for c in children)


def pc_knockoff_core(x, y, n1=None, d=None, construction=DEFAULT_CONSTRUCTION, seed=0):
    """Run the split / screen / knockoff / W stages once.

    The returned core is alpha-free: sweeping FDR levels only needs
    ``selection_from_core``, which reuses the W statistics.
    """
    xm, ym = _sample_pair(x, y)
    n1, d = split_sizes(xm.shape[0], n1, d)
    check_construction(construction)
    split_seed, knock_seed = _derive_seeds(seed)

    timings = {}
    start = time.perf_counter()
    split = split_sample(xm.shape[0], n1, split_seed)
    timings["split"] = time.perf_counter() - start

    start = time.perf_counter()
    ranking1 = rank_features(xm, ym, rows=split.split1)
    # Consume survivors in ascending index order so that when screening keeps
    # every feature the knockoff step sees split 2 exactly as it would with no
    # screening at all.
    survivors = tuple(sorted(select_top_d(ranking1, d)))
    timings["screen"] = time.perf_counter() - start

    x2 = xm[np.ix_(split.split2, survivors)]
    y2 = ym[split.split2]

    start = time.perf_counter()
    try:
        x2_std, cov = estimate_covariance(x2)
    except DegenerateColumn as exc:
        feature = survivors[exc.column]
        raise DegenerateColumn(f"feature {feature} has zero variance in split 2", feature) from exc
    construction_used = construction
    if construction == "sdp":
        try:
            h = sdp_h(cov)
        except SolverFailure:
            construction_used = "equicorrelated"
    if construction_used == "equicorrelated":
        h = equicorrelated_h(cov)
    model = build_knockoff_model(cov, h)
    x_knock = sample_knockoffs(x2_std, model, knock_seed)
    timings["knockoff"] = time.perf_counter() - start

    start = time.perf_counter()
    w_local = w_statistics(x2_std, x_knock, y2)
    timings["wstat"] = time.perf_counter() - start
    w = WVector(feature=np.asarray(survivors), w_hat=w_local.w_hat)

    return PcKnockoffCore(
        split=split,
        ranking1=ranking1,
        survivors=survivors,
        w=w,
        construction_used=construction_used,
        fallback_flag=construction_used != construction,
        jitter_applied=cov.jitter_applied,
        clip_magnitude=model.clip_magnitude,
        timings=timings,
    )


def selection_from_core(core, alpha):
    """Threshold an existing core's W statistics at FDR level alpha."""
    # perfbench/tracing.py patches this module's knockoff_plus_threshold and
    # checks each selection against the survivors and fdp_hat <= alpha, so
    # callers threshold here, not through fdr.
    return knockoff_plus_threshold(core.w, alpha)


def core_diagnostics(core):
    """A core's knockoff diagnostics, as FDR records and ``selection.json`` carry them."""
    return {
        "jitter": core.jitter_applied, "clip": core.clip_magnitude, "fallback": core.fallback_flag
    }


def selection_fields(selection):
    """A selection as FDR records and ``selection.json`` carry it: ``selected``
    as a list of feature indices, an infinite ``t_alpha`` as None."""
    t_alpha = None if math.isinf(selection.t_alpha) else selection.t_alpha
    return {
        "alpha": selection.alpha, "t_alpha": t_alpha, "selected": list(selection.selected),
        "fdp_hat": selection.fdp_hat,
    }


def pc_knockoff(x, y, alpha, n1=None, d=None, construction=DEFAULT_CONSTRUCTION, seed=0):
    """Screen on split 1, build knockoffs and select on split 2.

    Returns ``(core, selection)``: the alpha-free :class:`PcKnockoffCore`
    and its :class:`~pcscreen.fdr.SelectionResult` at ``alpha``.
    Deterministic given (inputs, seed): the base seed is expanded into
    independent split and knockoff-noise streams.  A failed semidefinite
    search falls back to the equicorrelated construction with the core's
    ``fallback_flag`` set.  An alpha outside (0, 1] is refused before any
    stage runs.
    """
    check_alpha(alpha)
    core = pc_knockoff_core(x, y, n1=n1, d=d, construction=construction, seed=seed)
    return core, selection_from_core(core, alpha)
