"""Feature ranking by squared projection correlation, with active-set rules,
diagnostics, and a Pearson-correlation baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MultivariateResponseUnsupported, UnknownFeature
from .kernel import as_sample_matrix, column_scores

# perfbench/tracing.py patches this name (its kernel.build_response_cache
# layer) when a traced run starts; screening builds no response cache, so that
# layer reports 0 calls.
build_response_cache = None


@dataclass(frozen=True)
class FeatureRanking:
    """Features sorted by score, descending, ties broken by ascending index.

    ``feature`` is a permutation of 0..p-1 and ``omega_hat`` the aligned
    non-increasing scores.
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


@dataclass(frozen=True)
class ActiveSetEstimate:
    """Selected feature indices (in rank order) plus the rule that produced them."""

    indices: tuple[int, ...]
    rule: str


def _ranking_from_scores(scores, n_used):
    p = scores.size
    order = np.lexsort((np.arange(p), -scores))
    return FeatureRanking(feature=order, omega_hat=scores[order], n_used=int(n_used))


def rank_features(x, y):
    """Rank every column of ``x`` by squared projection correlation with ``y``.

    All columns are scored in one :func:`~pcscreen.kernel.column_scores`
    call: a univariate response by the exact-integer sweep, a multivariate
    one by the slice loop with the columns on the matrix axis.
    """
    xm = as_sample_matrix(x, "x")
    ym = as_sample_matrix(y, "y")
    if xm.shape[0] != ym.shape[0]:
        raise DimensionMismatch(f"x has {xm.shape[0]} observations but y has {ym.shape[0]}")
    return _ranking_from_scores(column_scores(xm, ym), xm.shape[0])


def pearson_sis_rank(x, y):
    """Rank features by absolute sample Pearson correlation with a scalar response.

    Degenerate (constant) columns get correlation 0.  Refuses multivariate
    responses, which this baseline does not define.
    """
    xm = as_sample_matrix(x, "x")
    ym = as_sample_matrix(y, "y")
    if ym.shape[1] != 1:
        raise MultivariateResponseUnsupported(
            f"Pearson baseline requires a univariate response, got q={ym.shape[1]}"
        )
    if xm.shape[0] != ym.shape[0]:
        raise DimensionMismatch(f"x has {xm.shape[0]} observations but y has {ym.shape[0]}")
    yc = ym[:, 0] - ym[:, 0].mean()
    xc = xm - xm.mean(axis=0)
    num = xc.T @ yc
    denom_sq = np.einsum("ij,ij->j", xc, xc) * float(yc @ yc)
    scores = np.zeros(xm.shape[1])
    ok = denom_sq > 0.0
    scores[ok] = np.abs(num[ok]) / np.sqrt(denom_sq[ok])
    return _ranking_from_scores(scores, xm.shape[0])


def select_by_threshold(ranking, delta):
    """All features whose score reaches ``delta``."""
    delta = float(delta)
    if not np.isfinite(delta):
        raise ValueError(f"threshold must be finite, got {delta}")
    keep = ranking.omega_hat >= delta
    return ActiveSetEstimate(
        indices=tuple(int(j) for j in ranking.feature[keep]),
        rule=f"threshold({delta!r})",
    )


def select_top_d(ranking, d):
    """The first min(d, p) ranking entries."""
    d = int(d)
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    keep = min(d, len(ranking))
    return ActiveSetEstimate(
        indices=tuple(int(j) for j in ranking.feature[:keep]),
        rule=f"top_d({d})",
    )


def minimum_model_size(ranking, true_active):
    """Smallest k such that the top-k ranking entries contain every active feature."""
    active = {int(j) for j in true_active}
    if not active:
        raise ValueError("true_active must be non-empty")
    p = len(ranking)
    if any(j < 0 or j >= p for j in active):
        raise UnknownFeature(f"active indices must lie in 0..{p - 1}")
    remaining = set(active)
    for position, j in enumerate(ranking.feature.tolist()):
        remaining.discard(j)
        if not remaining:
            return position + 1
    return p


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
