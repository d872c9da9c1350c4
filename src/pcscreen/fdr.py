"""Knockoff W-statistics, the knockoff+ threshold, FDP estimates, and the
stopping-probability sequence behind the selection phase transition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatch, InvalidAlpha
from .kernel import as_sample_matrix, column_scores

# perfbench/tracing.py patches this name (its kernel.build_response_cache
# layer) when a traced run starts; W statistics build no response cache, so that
# layer reports 0 calls.
build_response_cache = None

# alpha grid for the active-count rule of thumb: 0.01..0.30 in steps of 0.005
DEFAULT_ACTIVE_COUNT_GRID = tuple(np.linspace(0.01, 0.30, 59).tolist())


@dataclass(frozen=True)
class WVector:
    """Per-feature knockoff statistics with their feature identities."""

    feature: np.ndarray
    w_hat: np.ndarray
    n_used: int

    @property
    def entries(self):
        return list(zip(self.feature.tolist(), self.w_hat.tolist()))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of thresholding a WVector at FDR level alpha.

    ``t_alpha`` is +inf (and ``selected`` empty) when no candidate threshold
    is feasible.  ``candidate_count`` is the number of distinct nonzero |W|
    values considered.
    """

    t_alpha: float
    selected: tuple[int, ...]
    fdp_hat: float
    alpha: float
    candidate_count: int


def w_statistics(x, x_knock, y):
    """W_j = pc(X_j, Y)^2 - pc(Xknock_j, Y)^2 for every feature column j.

    ``[X | X_knock]`` is scored in one :func:`~pcscreen.kernel.column_scores`
    call: the exact-integer sweep for a univariate response, the slice loop
    for a multivariate one.  Large positive values indicate activity, and
    null statistics have symmetric signs.
    """
    xm = as_sample_matrix(x, "x")
    km = as_sample_matrix(x_knock, "x_knock")
    ym = as_sample_matrix(y, "y")
    if xm.shape != km.shape:
        raise DimensionMismatch(f"x has shape {xm.shape} but x_knock has {km.shape}")
    if ym.shape[0] != xm.shape[0]:
        raise DimensionMismatch(f"x has {xm.shape[0]} observations but y has {ym.shape[0]}")
    d = xm.shape[1]
    scores = column_scores(np.hstack([xm, km]), ym)
    w = scores[:d] - scores[d:]
    if np.any(np.abs(w) > 2.0):
        raise ValueError("W statistic outside [-2, 2]; kernel outputs are out of range")
    return WVector(feature=np.arange(d), w_hat=w, n_used=xm.shape[0])


def estimate_fdp(w, t):
    """#{W_j <= -t} / max(1, #{W_j >= t}), with 0/0 = 0."""
    t = float(t)
    if not t > 0:
        raise ValueError(f"threshold must be positive, got {t}")
    values = w.w_hat
    negatives = int(np.count_nonzero(values <= -t))
    positives = int(np.count_nonzero(values >= t))
    return negatives / max(1, positives)


def knockoff_plus_threshold(w, alpha):
    """Smallest candidate t with (1 + #{W <= -t}) / #{W >= t} <= alpha.

    Candidates are the distinct nonzero |W_j|; when none is feasible the
    threshold is +inf and nothing is selected.  Exact-zero statistics are
    never selected.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1], got {alpha}")
    values = w.w_hat
    candidates = np.unique(np.abs(values))
    candidates = candidates[candidates > 0.0]
    t_alpha = math.inf
    for t in candidates:
        positives = int(np.count_nonzero(values >= t))
        if positives == 0:
            continue
        negatives = int(np.count_nonzero(values <= -t))
        if (1 + negatives) / positives <= alpha:
            t_alpha = float(t)
            break
    if math.isinf(t_alpha):
        selected = ()
        fdp_hat = 0.0
    else:
        selected = tuple(int(j) for j in w.feature[values >= t_alpha])
        fdp_hat = estimate_fdp(w, t_alpha)
    return SelectionResult(
        t_alpha=t_alpha,
        selected=selected,
        fdp_hat=fdp_hat,
        alpha=alpha,
        candidate_count=int(candidates.size),
    )


def empirical_fdp(selected, true_active):
    """Fraction of selected features outside the true active set (0 if none selected)."""
    chosen = {int(j) for j in selected}
    if not chosen:
        return 0.0
    active = {int(j) for j in true_active}
    return len(chosen - active) / len(chosen)


def phase_transition_probabilities(s, k_max):
    """Stopping probabilities of the knockoff+ scan over null sign sequences.

    a_k is the chance that k fair signs leave the selection ratio feasible for
    some level below 1/s — a binomial tail: with m minus signs among k, the
    event is m(s+1) < k, so

        a_k = sum_{i=0..floor((k-1)/(s+1))} C(k, i) (1/2)^k,   a_0 = 0,

    and b_k = a_k (1 - a_{k-1} - ... - a_0) chains them into per-k stopping
    mass.  The remainder factor is clamped at zero (the raw partial sums of
    a_k can exceed 1 for large k, e.g. s=10 beyond k=12, which would otherwise
    drive b_k slightly negative); with the clamp every b_k >= 0 and the
    partial sum of b stays at most 1.

    Returns (a, b, partial_sum) with arrays indexed so that a[k], b[k]
    correspond to sequence position k (entry 0 is 0).  Binomial sums are exact
    integer arithmetic for k <= 50 and log-space beyond.
    """
    s = int(s)
    k_max = int(k_max)
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    a = np.zeros(k_max + 1)
    for k in range(1, k_max + 1):
        cutoff = (k - 1) // (s + 1)
        if k <= 50:
            a[k] = float(sum(math.comb(k, i) for i in range(cutoff + 1))) * 0.5**k
        else:
            log_terms = [
                math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
                for i in range(cutoff + 1)
            ]
            a[k] = math.exp(logsumexp(log_terms) - k * math.log(2.0))
    b = np.zeros(k_max + 1)
    partial_a = 0.0
    for k in range(1, k_max + 1):
        b[k] = a[k] * max(0.0, 1.0 - partial_a)
        partial_a += a[k]
    return a, b, min(1.0, float(b.sum()))


def estimate_active_count(w_provider, alpha_grid=None):
    """Rule-of-thumb active-set size from where selections become empty.

    Scans the grid, finds the largest alpha whose selection is empty, and
    returns floor(1/alpha); None when every grid point selects something.
    """
    if alpha_grid is None:
        alpha_grid = DEFAULT_ACTIVE_COUNT_GRID
    grid = [float(a) for a in alpha_grid]
    if any(not 0.0 < a < 1.0 for a in grid):
        raise ValueError("alpha grid values must lie in (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("alpha grid must be strictly increasing")
    last_empty = None
    for alpha in grid:
        result = w_provider(alpha)
        if not result.selected:
            last_empty = alpha
    if last_empty is None:
        return None
    return int(math.floor(1.0 / last_empty))
