"""Two-step screen-then-select pipeline: split the sample, rank features on
the first split, then build knockoffs and threshold W statistics on the
second."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSplit, SolverFailure
from .fdr import SelectionResult, WVector, knockoff_plus_threshold, w_statistics
from .kernel import as_sample_matrix
from .knockoffs import (
    build_knockoff_model,
    equicorrelated_h,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
    standardize,
)
from .screening import ActiveSetEstimate, FeatureRanking, rank_features, select_top_d

MAX_DEFAULT_SURVIVORS = 100


@dataclass(frozen=True)
class SplitPlan:
    """A seeded disjoint two-way split of observation indices 0..n-1."""

    n1: int
    n2: int
    perm: np.ndarray
    seed: int

    @property
    def split1(self):
        return self.perm[: self.n1]

    @property
    def split2(self):
        return self.perm[self.n1 :]


@dataclass(frozen=True)
class PcKnockoffCore:
    """Everything up to the W statistics; thresholding at any alpha reuses it."""

    split: SplitPlan
    ranking1: FeatureRanking
    a_hat_1: ActiveSetEstimate
    survivors: tuple[int, ...]
    w: WVector
    construction_used: str
    fallback_flag: bool
    jitter_applied: float
    clip_magnitude: float
    timings: dict[str, float]


@dataclass(frozen=True)
class PcKnockoffReport:
    """Full pipeline output: all intermediate diagnostics plus the selection.

    ``a_hat_1`` lists screening survivors in rank order; ``survivors`` is the
    same set sorted ascending, the order in which split-2 columns are consumed
    (so ``w.feature`` and ``selection.selected`` carry original feature
    indices ascending).
    """

    split: SplitPlan
    ranking1: FeatureRanking
    a_hat_1: ActiveSetEstimate
    survivors: tuple[int, ...]
    w: WVector
    selection: SelectionResult
    construction_used: str
    fallback_flag: bool
    jitter_applied: float
    clip_magnitude: float
    timings: dict[str, float]


def split_sample(n, n1, seed):
    """Seeded uniform split: first n1 positions of a random permutation."""
    n = int(n)
    n1 = int(n1)
    if not 2 <= n1 <= n - 2:
        raise InvalidSplit(f"need 2 <= n1 <= n - 2, got n1={n1} with n={n}")
    perm = np.random.default_rng(int(seed)).permutation(n)
    return SplitPlan(n1=n1, n2=n - n1, perm=perm, seed=int(seed))


def default_split_size(n):
    """n1 = ceil(n / 4)."""
    return int(math.ceil(n / 4))


def default_survivor_count(n, n1):
    """d = min(floor(n2 / 2) - 1, 100), keeping 2d < n2."""
    return min((n - n1) // 2 - 1, MAX_DEFAULT_SURVIVORS)


def _derive_seeds(seed):
    """Two decoupled child seeds (split, knockoff-noise) from one base seed."""
    children = np.random.SeedSequence(int(seed)).spawn(2)
    return tuple(int(c.generate_state(1, np.uint64)[0]) for c in children)


def pc_knockoff_core(x, y, n1=None, d=None, construction="sdp", seed=0):
    """Run the split / screen / knockoff / W stages once.

    The returned core is alpha-free: sweeping FDR levels only needs
    ``selection_from_core``, which reuses the W statistics.
    """
    xm = as_sample_matrix(x, "x")
    ym = as_sample_matrix(y, "y")
    n = xm.shape[0]
    if n1 is None:
        n1 = default_split_size(n)
    n1 = int(n1)
    if d is None:
        d = default_survivor_count(n, n1)
    d = int(d)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if not 2 * d < n - n1:
        raise ValueError(f"need 2d < n - n1, got d={d} with n2={n - n1}")
    if construction not in ("sdp", "equicorrelated"):
        raise ValueError(f"unknown construction {construction!r}")
    split_seed, knock_seed = _derive_seeds(seed)

    timings = {}
    start = time.perf_counter()
    split = split_sample(n, n1, split_seed)
    timings["split"] = time.perf_counter() - start

    start = time.perf_counter()
    ranking1 = rank_features(xm[split.split1], ym[split.split1])
    a_hat_1 = select_top_d(ranking1, d)
    timings["screen"] = time.perf_counter() - start

    # Consume survivors in ascending index order so that when screening keeps
    # every feature the knockoff step sees split 2 exactly as it would with no
    # screening at all.
    survivors = tuple(sorted(a_hat_1.indices))
    x2 = xm[split.split2][:, survivors]
    y2 = ym[split.split2]

    start = time.perf_counter()
    cov = estimate_covariance(x2)
    x2_std = standardize(x2, cov)
    fallback = False
    construction_used = construction
    if construction == "sdp":
        try:
            h = sdp_h(cov)
        except SolverFailure:
            h = equicorrelated_h(cov)
            construction_used = "equicorrelated"
            fallback = True
    else:
        h = equicorrelated_h(cov)
    model = build_knockoff_model(cov, h, construction=construction_used)
    x_knock = sample_knockoffs(x2_std, model, knock_seed)
    timings["knockoff"] = time.perf_counter() - start

    start = time.perf_counter()
    w_local = w_statistics(x2_std, x_knock, y2)
    timings["wstat"] = time.perf_counter() - start
    w = WVector(feature=np.asarray(survivors), w_hat=w_local.w_hat, n_used=w_local.n_used)

    return PcKnockoffCore(
        split=split,
        ranking1=ranking1,
        a_hat_1=a_hat_1,
        survivors=survivors,
        w=w,
        construction_used=construction_used,
        fallback_flag=fallback,
        jitter_applied=cov.jitter_applied,
        clip_magnitude=model.clip_magnitude,
        timings=timings,
    )


def selection_from_core(core, alpha):
    """Threshold an existing core's W statistics at FDR level alpha."""
    start = time.perf_counter()
    selection = knockoff_plus_threshold(core.w, alpha)
    timings = dict(core.timings)
    timings["select"] = time.perf_counter() - start
    return PcKnockoffReport(
        split=core.split,
        ranking1=core.ranking1,
        a_hat_1=core.a_hat_1,
        survivors=core.survivors,
        w=core.w,
        selection=selection,
        construction_used=core.construction_used,
        fallback_flag=core.fallback_flag,
        jitter_applied=core.jitter_applied,
        clip_magnitude=core.clip_magnitude,
        timings=timings,
    )


def pc_knockoff(x, y, alpha, n1=None, d=None, construction="sdp", seed=0):
    """Screen on split 1, build knockoffs and select on split 2.

    Deterministic given (inputs, seed): the base seed is expanded into
    independent split and knockoff-noise streams.  A failed semidefinite
    search falls back to the equicorrelated construction with
    ``fallback_flag`` set.
    """
    core = pc_knockoff_core(x, y, n1=n1, d=d, construction=construction, seed=seed)
    return selection_from_core(core, alpha)
