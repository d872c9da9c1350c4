"""Screening tests: ranking construction, active-set rules, diagnostics, and
the Pearson baseline."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcscreen.errors import (
    DimensionMismatch,
    MultivariateResponseUnsupported,
    UnknownFeature,
)
from pcscreen.kernel import projection_correlation_sq
from pcscreen.models import ModelSpec, generate_dataset
from pcscreen.screening import (
    FeatureRanking,
    minimum_model_size,
    pearson_sis_rank,
    rank_features,
    select_by_threshold,
    select_top_d,
    signal_gap_diagnostic,
)

from .reference import naive_pcov_stats, pearson_abs_fsum


def _ranking(scores):
    """Hand-build a FeatureRanking from unsorted per-feature scores."""
    scores = np.asarray(scores, dtype=float)
    order = np.lexsort((np.arange(scores.size), -scores))
    return FeatureRanking(feature=order, omega_hat=scores[order], n_used=10)


# ---------------------------------------------------------------------------
# rank_features
# ---------------------------------------------------------------------------


def test_single_feature_equals_direct_kernel_call():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 1))
    y = rng.standard_normal((12, 2))
    ranking = rank_features(x, y)
    assert len(ranking) == 1
    assert ranking.feature[0] == 0
    assert ranking.omega_hat[0] == projection_correlation_sq(x, y)
    assert ranking.n_used == 12


def test_ranking_matches_per_feature_naive_oracle():
    rng = np.random.default_rng(1)
    n, p = 15, 10
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, 1))
    ranking = rank_features(x, y)

    oracle = np.empty(p)
    for j in range(p):
        stats = naive_pcov_stats(x[:, j : j + 1], y)
        oracle[j] = stats.s_xy / math.sqrt(stats.s_xx * stats.s_yy)
    expected_order = np.lexsort((np.arange(p), -oracle))

    npt.assert_array_equal(ranking.feature, expected_order)
    npt.assert_allclose(ranking.omega_hat, oracle[expected_order], atol=1e-10)
    assert np.all(np.diff(ranking.omega_hat) <= 0.0)
    assert sorted(ranking.feature.tolist()) == list(range(p))


def _scores_by_feature(ranking):
    scores = np.empty(len(ranking))
    scores[ranking.feature] = ranking.omega_hat
    return scores


def test_ranking_is_thread_count_invariant():
    # Scoring runs no thread pool; what can vary is how the columns are
    # batched into calls, and that must not change a feature's score: exactly
    # for a univariate response, to rounding (matrix products) otherwise.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((25, 8))
    for q in (1, 2):
        y = rng.standard_normal((25, q))
        whole = rank_features(x, y)
        split = np.concatenate(
            [_scores_by_feature(rank_features(x[:, :3], y)),
             _scores_by_feature(rank_features(x[:, 3:], y))]
        )
        single = [projection_correlation_sq(x[:, j : j + 1], y) for j in range(8)]
        for other in (split, single):
            if q == 1:
                npt.assert_array_equal(_scores_by_feature(whole), other)
            else:
                npt.assert_allclose(_scores_by_feature(whole), other, rtol=0, atol=1e-14)
        npt.assert_array_equal(whole.feature, np.lexsort((np.arange(8), -split)))


def test_exactly_tied_scores_rank_by_ascending_index():
    # Features 262 and 966 of this design have equal exact statistics; a
    # floating-point kernel split them by rounding and ranked 966 first.
    data = generate_dataset(ModelSpec("1f", 100, 1000), 0)
    ranking = rank_features(data.x, data.y)
    position = {j: i for i, j in enumerate(ranking.feature.tolist())}
    assert ranking.omega_hat[position[262]] == ranking.omega_hat[position[966]]
    assert position[966] == position[262] + 1


def test_rank_features_row_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch):
        rank_features(rng.standard_normal((10, 2)), rng.standard_normal((11, 1)))


def test_entries_view_pairs_feature_with_score():
    ranking = _ranking([0.1, 0.7, 0.4])
    assert ranking.entries == [(1, 0.7), (2, 0.4), (0, 0.1)]


# ---------------------------------------------------------------------------
# active-set rules
# ---------------------------------------------------------------------------


def test_threshold_examples():
    ranking = _ranking([0.8, 0.5, 0.1])
    assert select_by_threshold(ranking, -1.0).indices == (0, 1, 2)
    assert select_by_threshold(ranking, 0.5).indices == (0, 1)
    assert select_by_threshold(ranking, 2.0).indices == ()
    assert select_by_threshold(ranking, 0.5).rule == "threshold(0.5)"


def test_threshold_rejects_non_finite():
    ranking = _ranking([0.8, 0.5])
    with pytest.raises(ValueError):
        select_by_threshold(ranking, float("nan"))
    with pytest.raises(ValueError):
        select_by_threshold(ranking, float("inf"))


@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    d1=st.floats(min_value=-0.5, max_value=1.5),
    d2=st.floats(min_value=-0.5, max_value=1.5),
)
@settings(max_examples=60)
def test_threshold_is_monotone(scores, d1, d2):
    lo, hi = sorted((d1, d2))
    ranking = _ranking(scores)
    wide = set(select_by_threshold(ranking, lo).indices)
    narrow = set(select_by_threshold(ranking, hi).indices)
    assert narrow <= wide


def test_top_d_trivial_cases():
    ranking = _ranking([0.3, 0.9, 0.6])
    assert select_top_d(ranking, 1).indices == (1,)
    assert select_top_d(ranking, 3).indices == (1, 2, 0)
    assert select_top_d(ranking, 50).indices == (1, 2, 0)


def test_top_d_is_nested():
    ranking = _ranking(np.random.default_rng(4).uniform(size=9))
    for d in range(1, 9):
        smaller = select_top_d(ranking, d).indices
        larger = select_top_d(ranking, d + 1).indices
        assert larger[:d] == smaller


def test_tied_scores_prefer_lower_index():
    ranking = _ranking([0.5, 0.9, 0.5, 0.5])
    assert ranking.feature.tolist() == [1, 0, 2, 3]
    assert select_top_d(ranking, 2).indices == (1, 0)


def test_top_d_rejects_non_positive():
    with pytest.raises(ValueError):
        select_top_d(_ranking([0.1]), 0)


# ---------------------------------------------------------------------------
# minimum model size
# ---------------------------------------------------------------------------


def test_minimum_model_size_hand_cases():
    ranking = FeatureRanking(
        feature=np.array([3, 1, 4, 0, 2]),
        omega_hat=np.array([0.9, 0.8, 0.7, 0.6, 0.5]),
        n_used=10,
    )
    assert minimum_model_size(ranking, {0, 1}) == 4
    assert minimum_model_size(ranking, {3}) == 1
    assert minimum_model_size(ranking, {3, 1}) == 2  # actives are the top-2
    assert minimum_model_size(ranking, {2}) == 5  # active ranked last
    assert minimum_model_size(ranking, {0, 1, 2, 3, 4}) == 5


def test_minimum_model_size_validation():
    ranking = _ranking([0.4, 0.2, 0.6])
    with pytest.raises(ValueError):
        minimum_model_size(ranking, set())
    with pytest.raises(UnknownFeature):
        minimum_model_size(ranking, {0, 3})
    with pytest.raises(UnknownFeature):
        minimum_model_size(ranking, {-1})


def test_minimum_model_size_equals_count_only_for_top_block():
    ranking = _ranking([0.9, 0.7, 0.5, 0.3])
    assert minimum_model_size(ranking, {0, 1}) == 2
    assert minimum_model_size(ranking, {0, 2}) > 2


# ---------------------------------------------------------------------------
# gap diagnostic
# ---------------------------------------------------------------------------


def test_gap_diagnostic_two_group_elbow():
    scores = np.concatenate([np.full(5, 0.9), np.full(95, 0.01)])
    rows = signal_gap_diagnostic(_ranking(scores))
    assert len(rows) == 99
    ranks = [row[0] for row in rows]
    assert ranks == list(range(1, 100))
    gaps = [row[2] for row in rows]
    assert int(np.argmax(gaps)) + 1 == 5
    npt.assert_allclose(max(gaps), 0.89, rtol=1e-12)


def test_gap_diagnostic_trivial_cases():
    decreasing = signal_gap_diagnostic(_ranking([0.9, 0.5, 0.2]))
    assert all(gap > 0 for _, _, gap in decreasing)
    constant = signal_gap_diagnostic(_ranking([0.3, 0.3, 0.3]))
    assert all(gap == 0 for _, _, gap in constant)
    with pytest.raises(ValueError):
        signal_gap_diagnostic(_ranking([0.3]))


# ---------------------------------------------------------------------------
# Pearson baseline
# ---------------------------------------------------------------------------


def test_pearson_perfect_copy_ranked_first():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 4))
    y = x[:, 2:3].copy()
    ranking = pearson_sis_rank(x, y)
    assert ranking.feature[0] == 2
    npt.assert_allclose(ranking.omega_hat[0], 1.0, rtol=1e-12)


def test_pearson_constant_feature_scores_zero():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 3))
    x[:, 1] = 4.0
    ranking = pearson_sis_rank(x, rng.standard_normal((20, 1)))
    by_feature = dict(ranking.entries)
    assert by_feature[1] == 0.0


def test_pearson_matches_covariance_formula_oracle():
    rng = np.random.default_rng(7)
    n, p = 20, 5
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, 1))
    ranking = pearson_sis_rank(x, y)
    by_feature = dict(ranking.entries)
    for j in range(p):
        assert abs(by_feature[j] - pearson_abs_fsum(x[:, j], y[:, 0])) <= 1e-12


def test_pearson_refuses_multivariate_response():
    rng = np.random.default_rng(8)
    with pytest.raises(MultivariateResponseUnsupported):
        pearson_sis_rank(rng.standard_normal((10, 3)), rng.standard_normal((10, 2)))


# ---------------------------------------------------------------------------
# rank consistency at desk scale
# ---------------------------------------------------------------------------


def test_rank_consistency_linear_model_desk_scale():
    # Model 1a, n=200, p=200: active scores should strictly separate from the
    # noise scores in at least 95 of 100 replications.
    spec = ModelSpec(id="1a", n=200, p=200)
    separated = 0
    for rep in range(100):
        data = generate_dataset(spec, seed=1000 + rep)
        ranking = rank_features(data.x, data.y)
        active = set(data.true_active)
        in_active = np.isin(ranking.feature, sorted(active))
        lowest_active = ranking.omega_hat[in_active].min()
        highest_noise = ranking.omega_hat[~in_active].max()
        if lowest_active > highest_noise:
            separated += 1
    assert separated >= 95
