"""Release gate: eleven end-to-end checks covering kernel exactness and
invariants, desk-scale screening quantiles, FDR control, knockoff exchange-
ability and moments, the semidefinite search contract, the selection phase
transition, and CLI determinism.

Each test prints one ``[A#] ... PASS/FAIL`` line with its measured values
before asserting, so the verdicts survive in captured output either way.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from pcscreen.fdr import w_statistics
from pcscreen.harness import ExperimentConfig, run_fdr_experiment, run_quantile_experiment, write_design_csv
from pcscreen.kernel import projection_correlation_sq
from pcscreen.knockoffs import (
    CovarianceEstimate,
    build_knockoff_model,
    equicorrelated_h,
    estimate_covariance,
    sample_knockoffs,
    sdp_h,
)
from pcscreen.models import ModelSpec, generate_dataset

from .reference import (
    ar_covariance,
    chain_stop_mass,
    coin_flip_feasibility,
    kernel_pcov_stats,
    naive_pcov_stats,
    phase_transition_probabilities,
)


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _desk_quantiles(model_id, methods):
    config = ExperimentConfig(
        models=(model_id,),
        n=100,
        p=1000,
        replications=100,
        methods=methods,
        base_seed=0,
    )
    start = time.perf_counter()
    table, _ = run_quantile_experiment(config)
    elapsed = time.perf_counter() - start
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    medians = {row["method"]: row["q50"] for row in rows}
    return medians, elapsed


@pytest.fixture(scope="module")
def fdr_benchmark():
    """One 100-replication knockoff benchmark shared by the FDR and
    phase-transition criteria: n=600 split 150/450, 50 survivors, p=1000."""
    config = ExperimentConfig(
        models=("4a",),
        n=600,
        p=1000,
        replications=100,
        alphas=(0.02, 0.05, 0.1, 0.2, 0.3),
        n1=150,
        d=50,
        base_seed=0,
    )
    start = time.perf_counter()
    table, records = run_fdr_experiment(config)
    elapsed = time.perf_counter() - start
    return table, records, elapsed


# ---------------------------------------------------------------------------
# A1-A2: kernel exactness and invariants
# ---------------------------------------------------------------------------


def test_a01_kernel_matches_literal_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 21))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal((n, q))
        fast = kernel_pcov_stats(x, y)
        slow = naive_pcov_stats(x, y)
        worst = max(
            worst,
            abs(fast.s_xy - slow.s_xy),
            abs(fast.s_xx - slow.s_xx),
            abs(fast.s_yy - slow.s_yy),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    print(
        f"[A1] fast kernel vs literal triple loop, 100 instances: "
        f"max |delta| {worst:.2e}, {elapsed:.1f}s -> {_verdict(ok)}"
    )
    assert worst <= 1e-10, f"kernel deviates from the literal reference by {worst}"
    assert elapsed < 10.0


def test_a02_kernel_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_similarity = 0.0
    worst_permutation = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 41))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal((n, q))

        assert projection_correlation_sq(x, x) == 1.0
        assert projection_correlation_sq(np.full((n, 1), 3.7), y) == 0.0
        value = projection_correlation_sq(x, y)
        assert abs(value) <= 1.0

        rotation = np.linalg.qr(rng.standard_normal((p, p)))[0]
        scale = float(rng.uniform(0.5, 2.0))
        shift = rng.standard_normal(p)
        transformed = scale * (x @ rotation) + shift
        worst_similarity = max(
            worst_similarity, abs(projection_correlation_sq(transformed, y) - value)
        )

        order = rng.permutation(n)
        worst_permutation = max(
            worst_permutation, abs(projection_correlation_sq(x[order], y[order]) - value)
        )
    elapsed = time.perf_counter() - start
    ok = worst_similarity <= 1e-9 and worst_permutation <= 1e-12 and elapsed < 30.0
    print(
        f"[A2] kernel invariants, 50 instances: similarity drift "
        f"{worst_similarity:.2e}, permutation drift {worst_permutation:.2e}, "
        f"{elapsed:.1f}s -> {_verdict(ok)}"
    )
    assert worst_similarity <= 1e-9
    assert worst_permutation <= 1e-12
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# A3-A5: desk-scale screening quantiles
# ---------------------------------------------------------------------------


def test_a03_linear_model_median_model_size():
    medians, elapsed = _desk_quantiles("1a", ("pc_screen",))
    median = medians["pc_screen"]
    ok = median <= 10 and elapsed < 1200.0
    print(
        f"[A3] linear model, projection-correlation median minimum model size: "
        f"{median} (<= 10), {elapsed:.0f}s -> {_verdict(ok)}"
    )
    assert median <= 10, f"median minimum model size {median} exceeds 10"
    assert elapsed < 1200.0


def test_a04_heavy_tail_dominance_over_marginal_correlation():
    medians, elapsed = _desk_quantiles("1b", ("pc_screen", "pearson_sis"))
    pc = medians["pc_screen"]
    sis = medians["pearson_sis"]
    ok = pc <= 50 and sis >= 10 * pc and elapsed < 1500.0
    print(
        f"[A4] Cauchy-noise model medians: projection {pc} (<= 50), "
        f"marginal-correlation {sis} (>= 10x), {elapsed:.0f}s -> {_verdict(ok)}"
    )
    assert pc <= 50, f"projection-correlation median {pc} exceeds 50"
    assert sis >= 10 * pc, f"marginal median {sis} is below 10x the projection median {pc}"
    assert elapsed < 1500.0


def test_a05_nonlinear_model_median_model_size():
    medians, elapsed = _desk_quantiles("2c", ("pc_screen", "pearson_sis"))
    pc = medians["pc_screen"]
    sis = medians["pearson_sis"]
    ok = pc <= 10 and sis >= 100 and elapsed < 1500.0
    print(
        f"[A5] interaction model medians: projection {pc} (<= 10), "
        f"marginal-correlation {sis} (>= 100), {elapsed:.0f}s -> {_verdict(ok)}"
    )
    # The X4-through-exponent signal in this design sits below the d=1000
    # null-maximum floor at n=100, so the projection ranking cannot place all
    # four active features in a single-digit prefix at this scale.
    assert sis >= 100, f"marginal median {sis} is below 100"
    assert pc <= 10, f"projection-correlation median {pc} exceeds 10"
    assert elapsed < 1500.0


# ---------------------------------------------------------------------------
# A6: FDR control with sure screening
# ---------------------------------------------------------------------------


def test_a06_fdr_control_and_sure_screening(fdr_benchmark):
    table, _, elapsed = fdr_benchmark
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    row = next(r for r in rows if r["alpha"] == 0.2)
    fdr = row["empirical_fdr"]
    sure = row["sure_screening_freq"]
    ok = fdr <= 0.25 and sure >= 0.85 and elapsed < 3600.0
    print(
        f"[A6] knockoff selection at alpha 0.2 over 100 replications: "
        f"empirical FDR {fdr:.3f} (<= 0.25), all-active selection rate "
        f"{sure:.2f} (>= 0.85), {elapsed:.0f}s -> {_verdict(ok)}"
    )
    assert fdr <= 0.25, f"empirical FDR {fdr:.3f} exceeds 0.25"
    # Under estimation noise the semidefinite h comes out uneven; an active
    # feature with h_j near 0 gets W_j near 0, so roughly half the
    # replications drop at least one of the ten active features.
    assert sure >= 0.85, f"all-active selection rate {sure:.2f} is below 0.85"
    assert elapsed < 3600.0


# ---------------------------------------------------------------------------
# A7-A9: knockoff construction contracts
# ---------------------------------------------------------------------------


def test_a07_null_statistics_have_symmetric_signs():
    start = time.perf_counter()
    d = 50
    sigma = ar_covariance(d, 0.5)
    cov = CovarianceEstimate(
        sigma=sigma, jitter_applied=0.0, lambda_min=float(np.linalg.eigvalsh(sigma)[0])
    )
    model = build_knockoff_model(cov, sdp_h(cov))
    chol = np.linalg.cholesky(sigma)
    pooled = []
    for rep in range(40):
        rng = np.random.default_rng(7000 + rep)
        x = rng.standard_normal((100, d)) @ chol.T
        y = rng.standard_normal((100, 1))
        x_knock = sample_knockoffs(x, model, seed=8000 + rep)
        pooled.append(w_statistics(x, x_knock, y).w_hat)
    pooled = np.concatenate(pooled)
    frac = float(np.mean(pooled > 0))
    elapsed = time.perf_counter() - start
    ok = 0.45 <= frac <= 0.55 and elapsed < 600.0
    print(
        f"[A7] null W sign symmetry, {pooled.size} statistics from exact "
        f"knockoffs: positive fraction {frac:.3f} (in [0.45, 0.55]), "
        f"{elapsed:.0f}s -> {_verdict(ok)}"
    )
    assert pooled.size >= 2000
    assert 0.45 <= frac <= 0.55, f"positive fraction {frac:.3f} outside [0.45, 0.55]"
    assert elapsed < 600.0


def test_a08_knockoff_joint_moments():
    start = time.perf_counter()
    ds = generate_dataset(ModelSpec(id="1a", n=5000, p=5), seed=99)
    x_std, cov = estimate_covariance(ds.x)
    h = sdp_h(cov)
    model = build_knockoff_model(cov, h)
    x_knock = sample_knockoffs(x_std, model, seed=123)
    emp = np.cov(np.hstack([x_std, x_knock]), rowvar=False)
    off = cov.sigma - np.diag(h)
    g = np.block([[cov.sigma, off], [off, cov.sigma]])
    dev_g = float(np.abs(emp - g).max())
    dev_cross = float(np.abs(np.diag(emp[:5, 5:]) - (1.0 - h)).max())
    elapsed = time.perf_counter() - start
    ok = dev_g <= 0.08 and dev_cross <= 0.08 and elapsed < 60.0
    print(
        f"[A8] joint second moments at n=5000, d=5: max deviation from target "
        f"{dev_g:.3f}, paired-column deviation {dev_cross:.3f} (<= 0.08), "
        f"{elapsed:.0f}s -> {_verdict(ok)}"
    )
    assert dev_g <= 0.08
    assert dev_cross <= 0.08
    assert elapsed < 60.0


def test_a09_semidefinite_search_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_lambda = 0.0
    min_h = np.inf
    worst_gap = -np.inf
    for _ in range(50):
        d = int(rng.integers(2, 31))
        n = d + int(rng.integers(10, 60))
        raw = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
        _, cov = estimate_covariance(raw)
        h = sdp_h(cov)
        h_eq = equicorrelated_h(cov)
        worst_lambda = min(
            worst_lambda,
            float(np.linalg.eigvalsh(2.0 * cov.sigma - np.diag(h))[0]),
        )
        min_h = min(min_h, float(h.min()))
        worst_gap = max(
            worst_gap,
            float(np.sum(np.abs(1.0 - h)) - np.sum(np.abs(1.0 - h_eq))),
        )
    elapsed = time.perf_counter() - start
    ok = worst_lambda >= -1e-8 and min_h >= 0.0 and worst_gap <= 1e-9 and elapsed < 120.0
    print(
        f"[A9] semidefinite search on 50 random correlation matrices: worst "
        f"feasibility eigenvalue {worst_lambda:.1e}, min h {min_h:.3f}, worst "
        f"objective gap vs equicorrelated {worst_gap:.1e}, "
        f"{elapsed:.0f}s -> {_verdict(ok)}"
    )
    assert worst_lambda >= -1e-8
    assert min_h >= 0.0
    assert worst_gap <= 1e-9, "semidefinite objective exceeds the equicorrelated objective"
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# A10: selection phase transition
# ---------------------------------------------------------------------------


def test_a10_selection_phase_transition(fdr_benchmark):
    _, records, elapsed = fdr_benchmark
    by_alpha = {}
    for rec in records:
        by_alpha.setdefault(rec["alpha"], []).append(rec)
    freq = {
        alpha: {
            e: sum(r["event"] == e for r in group) / len(group)
            for e in ("e1", "e2", "e3")
        }
        for alpha, group in by_alpha.items()
    }
    e1_tight = freq[0.02]["e1"]
    e2_nominal = freq[0.2]["e2"]
    e3_worst = max(f["e3"] for f in freq.values())

    ahat = coin_flip_feasibility(s=10, k_max=40, trials=100_000, seed=7)
    a, b, _ = phase_transition_probabilities(10, k_max=40)
    dev_a = float(np.abs(ahat - a).max())
    dev_b = float(np.abs(chain_stop_mass(ahat) - b).max())

    ok = (
        e1_tight >= 0.9
        and e2_nominal >= 0.85
        and e3_worst <= 0.1
        and dev_a <= 0.02
        and dev_b <= 0.02
        and elapsed < 2700.0
    )
    print(
        f"[A10] phase transition over alphas {sorted(freq)}: empty-selection "
        f"rate at 0.02 = {e1_tight:.2f} (>= 0.9), all-active rate at 0.2 = "
        f"{e2_nominal:.2f} (>= 0.85), worst partial-selection rate = "
        f"{e3_worst:.2f} (<= 0.1), stopping-law deviations {dev_a:.3f}/"
        f"{dev_b:.3f} (<= 0.02) -> {_verdict(ok)}"
    )
    assert e1_tight >= 0.9, f"empty-selection rate {e1_tight:.2f} below 0.9 at alpha 0.02"
    assert dev_a <= 0.02 and dev_b <= 0.02
    # Partial selections dominate at and above alpha 0.2 for the same reason
    # the all-active rate stalls near one half (see the A6 note): thresholds
    # land between the weakest active statistics.
    assert e2_nominal >= 0.85, f"all-active rate {e2_nominal:.2f} below 0.85 at alpha 0.2"
    assert e3_worst <= 0.1, f"partial-selection rate reaches {e3_worst:.2f} on the grid"
    assert elapsed < 2700.0


# ---------------------------------------------------------------------------
# A11: CLI determinism
# ---------------------------------------------------------------------------


def _run_cli(args, outdir):
    result = subprocess.run(
        [sys.executable, "-m", "pcscreen.cli", *args, "--out", str(outdir)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr, result.stderr
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def test_a11_cli_outputs_are_byte_identical(tmp_path):
    start = time.perf_counter()
    ds = generate_dataset(ModelSpec(id="1a", n=120, p=6), seed=6)
    csv_path = tmp_path / "design.csv"
    write_design_csv(csv_path, ds.x, ds.y)

    commands = {
        "screen": ["screen", str(csv_path), "--response-count", "1"],
        "pcknockoff": [
            "pcknockoff", str(csv_path), "--response-count", "1",
            "--alpha", "0.5", "--n1", "40", "--d", "5", "--seed", "3",
        ],
        "simulate": [
            "simulate", "--model", "1a", "--n", "50", "--p", "10",
            "--reps", "2", "--seed", "7",
        ],
        "reproduce": [
            "reproduce", "--table", "3", "--models", "3a", "--reps", "1",
            "--n", "60", "--p", "12", "--seed", "1",
        ],
    }
    mismatches = []
    for name, args in commands.items():
        outputs = {}
        for threads in (1, 8):
            for attempt in ("first", "second"):
                outdir = tmp_path / f"{name}_t{threads}_{attempt}"
                outdir.mkdir()
                outputs[(threads, attempt)] = _run_cli(
                    args + ["--threads", str(threads)], outdir
                )
        for threads in (1, 8):
            if outputs[(threads, "first")] != outputs[(threads, "second")]:
                mismatches.append(f"{name} at {threads} threads")
        if outputs[(1, "first")] != outputs[(8, "first")]:
            mismatches.append(f"{name} across thread counts")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300.0
    print(
        f"[A11] CLI determinism, 4 subcommands x 2 thread counts x 2 runs: "
        f"{'no mismatches' if not mismatches else ', '.join(mismatches)}, "
        f"{elapsed:.0f}s -> {_verdict(ok)}"
    )
    assert not mismatches, f"non-deterministic outputs: {mismatches}"
    assert elapsed < 300.0
