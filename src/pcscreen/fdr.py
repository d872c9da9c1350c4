"""Knockoff W-statistics, the knockoff+ threshold with its FDP estimate, and
the empirical FDP of a selection.  The stopping law of the knockoff+ scan,
which the selection phase transition is checked against, is a test oracle
(``tests/reference.py``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidAlpha
from .kernel import _sample_pair, as_sample_matrix, column_scores

# perfbench/tracing.py patches this name (its kernel.build_response_cache
# layer) when a traced run starts; W statistics build no response cache, so that
# layer reports 0 calls.
build_response_cache = None


@dataclass(frozen=True)
class WVector:
    """Per-feature knockoff statistics with their feature identities."""

    feature: np.ndarray
    w_hat: np.ndarray

    @property
    def entries(self):
        return list(zip(self.feature.tolist(), self.w_hat.tolist()))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of thresholding a WVector at FDR level alpha.

    ``t_alpha`` is +inf (and ``selected`` empty) when no candidate threshold
    is feasible.  ``fdp_hat`` is #{W_j <= -t_alpha} / #{W_j >= t_alpha}
    (below ``alpha``), or 0.0 when nothing is selected.
    """

    t_alpha: float
    selected: tuple[int, ...]
    fdp_hat: float
    alpha: float


def w_statistics(x, x_knock, y):
    """W_j = pc(X_j, Y)^2 - pc(Xknock_j, Y)^2 for every feature column j.

    X and X_knock are each scored by one
    :func:`~pcscreen.kernel.column_scores` call, in place, with no joint
    copy: the exact-integer sweep for a univariate response, the slice loop
    for a multivariate one.  Large positive values indicate activity, and
    null statistics have symmetric signs.
    """
    xm, ym = _sample_pair(x, y)
    km = as_sample_matrix(x_knock, "x_knock")
    if xm.shape != km.shape:
        raise DimensionMismatch(f"x has shape {xm.shape} but x_knock has {km.shape}")
    w = column_scores(xm, ym) - column_scores(km, ym)
    if np.any(np.abs(w) > 2.0):
        raise ValueError("W statistic outside [-2, 2]; kernel outputs are out of range")
    return WVector(feature=np.arange(xm.shape[1]), w_hat=w)


def check_alpha(alpha):
    """``alpha`` as a float, or :class:`InvalidAlpha` unless it lies in (0, 1]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def knockoff_plus_threshold(w, alpha):
    """Smallest candidate t with (1 + #{W <= -t}) / #{W >= t} <= alpha.

    Candidates are the distinct nonzero |W_j|; when none is feasible the
    threshold is +inf and nothing is selected.  Exact-zero statistics are
    never selected.
    """
    alpha = check_alpha(alpha)
    values = w.w_hat
    candidates = np.unique(np.abs(values))
    candidates = candidates[candidates > 0.0]
    t_alpha = math.inf
    selected = ()
    fdp_hat = 0.0
    for t in candidates:
        positives = int(np.count_nonzero(values >= t))
        if positives == 0:
            continue
        negatives = int(np.count_nonzero(values <= -t))
        if (1 + negatives) / positives <= alpha:
            t_alpha = float(t)
            selected = tuple(int(j) for j in w.feature[values >= t_alpha])
            fdp_hat = negatives / positives
            break
    return SelectionResult(t_alpha=t_alpha, selected=selected, fdp_hat=fdp_hat, alpha=alpha)


def empirical_fdp(selected, true_active):
    """Fraction of selected features outside the true active set (0 if none selected)."""
    chosen = {int(j) for j in selected}
    if not chosen:
        return 0.0
    active = {int(j) for j in true_active}
    return len(chosen - active) / len(chosen)
