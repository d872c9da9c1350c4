"""Knockoff-construction tests: covariance estimation, h computation,
model assembly, and conditional sampling moments."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from pcscreen.errors import DegenerateColumn, DimensionMismatch, InfeasibleH, SolverFailure
from pcscreen.knockoffs import (
    CovarianceEstimate,
    build_knockoff_model,
    equicorrelated_h,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
)
from pcscreen.models import generate_dataset, ModelSpec

from .reference import ar_covariance


def _known_cov(sigma):
    sigma = np.asarray(sigma, dtype=float)
    return CovarianceEstimate(
        sigma=sigma, jitter_applied=0.0, lambda_min=float(np.linalg.eigvalsh(sigma)[0])
    )


def _assembled_g(sigma, h):
    off = sigma - np.diag(h)
    return np.block([[sigma, off], [off, sigma]])


# ---------------------------------------------------------------------------
# covariance estimation
# ---------------------------------------------------------------------------


def test_single_column_correlation_is_identity():
    _, cov = estimate_covariance(np.random.default_rng(0).standard_normal((40, 1)))
    npt.assert_array_equal(cov.sigma, [[1.0]])
    assert cov.jitter_applied == 0.0


def test_ar_correlation_recovered_from_data():
    data = generate_dataset(ModelSpec(id="1a", n=2000, p=5), seed=1)
    _, cov = estimate_covariance(data.x)
    npt.assert_allclose(cov.sigma, ar_covariance(5, 0.5), atol=0.08)
    npt.assert_array_equal(np.diag(cov.sigma), 1.0)
    assert np.array_equal(cov.sigma, cov.sigma.T)
    assert cov.jitter_applied == 0.0
    assert cov.lambda_min == float(np.linalg.eigvalsh(cov.sigma)[0])


def test_standardize_centers_and_scales():
    rng = np.random.default_rng(2)
    x = 3.0 + 2.5 * rng.standard_normal((60, 3))
    z, _ = estimate_covariance(x)
    npt.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    npt.assert_allclose(z.var(axis=0, ddof=1), 1.0, rtol=1e-12)


def test_duplicated_column_forces_jitter():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((50, 1))
    x = np.hstack([base, base, rng.standard_normal((50, 1))])
    _, cov = estimate_covariance(x)
    assert cov.jitter_applied > 0.0
    assert np.linalg.eigvalsh(cov.sigma)[0] >= 1e-8 - 1e-15
    # lambda_min is that of the accepted candidate, the sigma returned
    assert cov.lambda_min == float(np.linalg.eigvalsh(cov.sigma)[0])


def test_zero_variance_column_is_rejected():
    x = np.ones((30, 2))
    x[:, 0] = np.arange(30)
    with pytest.raises(DegenerateColumn):
        estimate_covariance(x)
    # the mean of fifty 0.1s is not 0.1, which left sumsq at about 1e-32
    x = np.random.default_rng(0).standard_normal((50, 3))
    x[:, 1] = 0.1
    with pytest.raises(DegenerateColumn, match="column 1 has zero variance") as caught:
        estimate_covariance(x)
    assert caught.value.column == 1


# ---------------------------------------------------------------------------
# h vectors
# ---------------------------------------------------------------------------


def test_equicorrelated_hand_values():
    npt.assert_allclose(equicorrelated_h(_known_cov(np.eye(4))), np.ones(4), rtol=1e-12)
    npt.assert_allclose(
        equicorrelated_h(_known_cov([[1.0, 0.5], [0.5, 1.0]])), [1.0, 1.0], atol=1e-12
    )
    npt.assert_allclose(
        equicorrelated_h(_known_cov([[1.0, 0.9], [0.9, 1.0]])), [0.2, 0.2], atol=1e-12
    )


def test_equicorrelated_is_feasible():
    cov = _known_cov(ar_covariance(8, 0.7))
    h = equicorrelated_h(cov)
    assert np.all(h >= 0.0)
    assert np.linalg.eigvalsh(2.0 * cov.sigma - np.diag(h))[0] >= -1e-10


def test_sdp_identity_reaches_the_unconstrained_optimum():
    h = sdp_h(_known_cov(np.eye(6)))
    npt.assert_allclose(h, np.ones(6), atol=1e-6)


def test_sdp_two_features_half_correlation():
    h = sdp_h(_known_cov([[1.0, 0.5], [0.5, 1.0]]))
    npt.assert_allclose(h, [1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_sdp_feasible_and_dominates_equicorrelated(rho):
    cov = _known_cov(ar_covariance(3, rho))
    h = sdp_h(cov)
    assert np.all(h >= 0.0)
    assert np.all(h <= 1.0 + 1e-12)
    assert np.linalg.eigvalsh(2.0 * cov.sigma - np.diag(h))[0] >= -1e-8
    # objective sum |1-h| means larger sum(h) is better
    assert h.sum() >= equicorrelated_h(cov).sum() - 1e-9


def test_sdp_rejects_singular_sigma():
    with pytest.raises(SolverFailure):
        sdp_h(_known_cov([[1.0, 1.0], [1.0, 1.0]]))


def test_sdp_refuses_a_start_without_a_finite_barrier(monkeypatch):
    monkeypatch.setattr("pcscreen.knockoffs._log_barrier", lambda two_sigma, h: None)
    with pytest.raises(SolverFailure, match="could not find a strictly feasible starting point"):
        sdp_h(_known_cov([[1.0, 0.5], [0.5, 1.0]]))


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


def test_independence_construction_factors():
    model = build_knockoff_model(_known_cov(np.eye(5)), np.ones(5))
    npt.assert_allclose(model.cond_mean_factor, np.zeros((5, 5)), atol=1e-12)
    npt.assert_allclose(
        model.cond_cov_root @ model.cond_cov_root.T, np.eye(5), atol=1e-12
    )
    assert model.g_lambda_min >= -1e-10


def test_copy_construction_is_exact():
    cov = _known_cov(ar_covariance(4, 0.5))
    model = build_knockoff_model(cov, np.zeros(4))
    npt.assert_array_equal(model.cond_mean_factor, np.eye(4))
    npt.assert_array_equal(model.cond_cov_root @ model.cond_cov_root.T, np.zeros((4, 4)))
    x = np.random.default_rng(4).standard_normal((20, 4))
    npt.assert_array_equal(sample_knockoffs(x, model, seed=0), x)


def test_two_feature_joint_covariance_is_psd():
    cov = _known_cov([[1.0, 0.5], [0.5, 1.0]])
    model = build_knockoff_model(cov, equicorrelated_h(cov))
    g = _assembled_g(cov.sigma, model.h)
    assert np.linalg.eigvalsh(g)[0] >= -1e-10
    assert model.g_lambda_min >= -1e-10
    assert model.clip_magnitude >= 0.0


def test_infeasible_h_is_rejected():
    cov = _known_cov(np.eye(3))
    with pytest.raises(InfeasibleH):
        build_knockoff_model(cov, np.array([2.5, 0.5, 0.5]))
    with pytest.raises(InfeasibleH):
        build_knockoff_model(cov, np.array([-0.5, 0.5, 0.5]))


@pytest.mark.parametrize("seed", range(6))
def test_joint_lambda_min_matches_the_assembled_g(seed):
    # lambda_min(G) = min(lambda_min(2 sigma - D), min h); the worst gap to
    # eigvalsh of the assembled G measured on these draws: 7.7e-16
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 40))
    _, cov = estimate_covariance(rng.standard_normal((3 * d, d)) @ rng.standard_normal((d, d)))
    h = equicorrelated_h(cov) * rng.uniform(0.0, 1.0, d)
    h[rng.integers(d)] = 0.0
    model = build_knockoff_model(cov, h)
    expected = np.linalg.eigvalsh(_assembled_g(cov.sigma, h))[0]
    assert abs(model.g_lambda_min - expected) <= 1e-12
    infeasible = equicorrelated_h(cov) + 0.5
    assert np.linalg.eigvalsh(_assembled_g(cov.sigma, infeasible))[0] < -1e-3
    with pytest.raises(InfeasibleH):
        build_knockoff_model(cov, infeasible)


def test_h_length_mismatch_is_rejected():
    with pytest.raises(DimensionMismatch):
        build_knockoff_model(_known_cov(np.eye(3)), np.ones(4))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    cov = _known_cov(ar_covariance(4, 0.5))
    model = build_knockoff_model(cov, equicorrelated_h(cov))
    x = np.random.default_rng(5).standard_normal((30, 4))
    first = sample_knockoffs(x, model, seed=11)
    second = sample_knockoffs(x, model, seed=11)
    npt.assert_array_equal(first, second)
    assert not np.array_equal(first, sample_knockoffs(x, model, seed=12))


def test_sampling_takes_whole_non_negative_seeds_only():
    cov = _known_cov(ar_covariance(3, 0.5))
    model = build_knockoff_model(cov, equicorrelated_h(cov))
    x = np.random.default_rng(5).standard_normal((10, 3))
    for seed in (True, 1.5, -1):
        with pytest.raises(ValueError, match="seed must be"):
            sample_knockoffs(x, model, seed)
    npt.assert_array_equal(sample_knockoffs(x, model, 2.0), sample_knockoffs(x, model, 2))


def test_sampling_rejects_column_mismatch():
    model = build_knockoff_model(_known_cov(np.eye(3)), np.ones(3))
    with pytest.raises(DimensionMismatch):
        sample_knockoffs(np.random.default_rng(6).standard_normal((10, 2)), model, seed=0)


def test_independent_knockoffs_have_no_cross_correlation():
    model = build_knockoff_model(_known_cov(np.eye(3)), np.ones(3))
    x = np.random.default_rng(7).standard_normal((5000, 3))
    tilde = sample_knockoffs(x, model, seed=8)
    cross = (x - x.mean(0)).T @ (tilde - tilde.mean(0)) / (5000 - 1)
    npt.assert_allclose(cross, np.zeros((3, 3)), atol=0.05)


def test_joint_moments_match_the_target():
    # AR(0.5), d=5, n=5000: empirical covariance of [X, Xtilde] within 0.08 of G
    sigma = ar_covariance(5, 0.5)
    cov = _known_cov(sigma)
    h = equicorrelated_h(cov)
    model = build_knockoff_model(cov, h)
    rng = np.random.default_rng(9)
    x = rng.multivariate_normal(np.zeros(5), sigma, size=5000)
    tilde = sample_knockoffs(x, model, seed=10)
    joint = np.hstack([x, tilde])
    emp = np.cov(joint, rowvar=False, ddof=1)
    npt.assert_allclose(emp, _assembled_g(sigma, h), atol=0.08)
    npt.assert_allclose(np.diag(emp[:5, 5:]), 1.0 - h, atol=0.08)


def test_swapped_columns_keep_the_same_joint_moments():
    sigma = ar_covariance(4, 0.5)
    cov = _known_cov(sigma)
    h = equicorrelated_h(cov)
    model = build_knockoff_model(cov, h)
    rng = np.random.default_rng(11)
    x = rng.multivariate_normal(np.zeros(4), sigma, size=5000)
    tilde = sample_knockoffs(x, model, seed=12)
    swapped = np.hstack([x, tilde])
    swapped[:, [1, 5]] = swapped[:, [5, 1]]  # swap X_1 with its knockoff
    emp = np.cov(swapped, rowvar=False, ddof=1)
    npt.assert_allclose(emp, _assembled_g(sigma, h), atol=0.08)
    npt.assert_allclose(swapped.mean(axis=0), np.zeros(8), atol=0.08)
