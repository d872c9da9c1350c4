"""Feature ranking by squared projection correlation, with active-set rules,
diagnostics, and a Pearson-correlation baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MultivariateResponseUnsupported, UnknownFeature
from .kernel import _ratio, _sample_pair, _whole, column_scores

# perfbench/tracing.py patches this name (its kernel.build_response_cache
# layer) when a traced run starts; screening builds no response cache, so that
# layer reports 0 calls.
build_response_cache = None


@dataclass(frozen=True)
class FeatureRanking:
    """Features sorted by score, descending, ties broken by ascending index.

    ``feature`` is a permutation of 0..p-1, ``omega_hat`` the aligned
    non-increasing scores and ``n_used`` the number of observations scored
    (``len(rows)`` when :func:`rank_features` is given a row index).  Ties
    are broken on the scores as computed: with a univariate response every
    score is a monotone function of an exact ratio of integers (the signed
    square root of its correctly rounded square), so exactly tied columns
    always score equal and rank by index, and no two columns rank against
    their exact order.  A multivariate response
    is scored in floating point by the slice loop, which can leave exactly
    tied columns some ulps apart (n=5, p=2, q=2, seed 255263: 5 ulps), and
    then the larger one ranks first.
    """

    feature: np.ndarray
    omega_hat: np.ndarray
    n_used: int

    def __len__(self):
        return int(self.feature.size)

    @property
    def entries(self):
        """(feature_index, omega_hat) pairs in rank order."""
        return list(zip(self.feature.tolist(), self.omega_hat.tolist()))


def _ranking_from_scores(scores, n_used):
    p = scores.size
    order = np.lexsort((np.arange(p), -scores))
    return FeatureRanking(feature=order, omega_hat=scores[order], n_used=int(n_used))


def rank_features(x, y, rows=None):
    """Rank every column of ``x`` by squared projection correlation with ``y``.

    All columns are scored in one :func:`~pcscreen.kernel.column_scores`
    call: a univariate response by the exact-integer sweep, a multivariate
    one by the slice loop with the columns on the matrix axis.  ``rows``, a
    1-D integer index into the observations, ranks ``x[rows]`` against
    ``y[rows]`` with the same bits and ``n_used = len(rows)``; with a
    univariate response x is read in place, not copied.
    """
    xm, ym = _sample_pair(x, y)
    scores = column_scores(xm, ym, rows)
    return _ranking_from_scores(scores, xm.shape[0] if rows is None else len(rows))


def pearson_sis_rank(x, y):
    """Rank features by absolute sample Pearson correlation with a scalar response.

    Scores lie in [0, 1], degenerate (constant) columns scoring 0, by the
    kernel's floating-point score rule.  Refuses multivariate responses,
    which this baseline does not define.
    """
    xm, ym = _sample_pair(x, y)
    if ym.shape[1] != 1:
        raise MultivariateResponseUnsupported(
            f"Pearson baseline requires a univariate response, got q={ym.shape[1]}"
        )
    yc = ym[:, 0] - ym[:, 0].mean()
    xc = xm - xm.mean(axis=0)
    scores = _ratio(np.abs(xc.T @ yc), np.einsum("ij,ij->j", xc, xc), float(yc @ yc))
    return _ranking_from_scores(scores, xm.shape[0])


def select_top_d(ranking, d):
    """Indices of the first min(d, p) ranking entries, in rank order."""
    d = _whole(d, "d", 1)
    return tuple(int(j) for j in ranking.feature[:d])


def minimum_model_size(ranking, true_active):
    """Smallest k such that the top-k ranking entries contain every active feature."""
    active = {int(j) for j in true_active}
    if not active:
        raise ValueError("true_active must be non-empty")
    p = len(ranking)
    if any(j < 0 or j >= p for j in active):
        raise UnknownFeature(f"active indices must lie in 0..{p - 1}")
    place = np.empty_like(ranking.feature)
    place[ranking.feature] = np.arange(p)  # feature is a permutation of 0..p-1
    return int(place[list(active)].max()) + 1


def signal_gap_diagnostic(ranking):
    """Sorted scores with successive gaps, for eyeballing the signal/noise elbow.

    Returns (rank, omega_hat, gap) tuples for ranks 1..p-1, where gap is the
    drop from that rank's score to the next one.  Reporting only; no decision.
    """
    p = len(ranking)
    if p < 2:
        raise ValueError("gap diagnostic needs at least 2 features")
    omega = ranking.omega_hat
    return [
        (i + 1, float(omega[i]), float(omega[i] - omega[i + 1]))
        for i in range(p - 1)
    ]
