"""Experiment-harness tests: quantile summaries, FDR aggregation audits
(the phase-transition rates included), record persistence, and design CSV
ingestion."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from pcscreen import harness
from pcscreen.errors import (
    DegenerateColumn,
    DimensionMismatch,
    InvalidSplit,
    MissingColumn,
    NonNumericCell,
    ParseError,
    PcScreenError,
)
from pcscreen.fdr import check_alpha
from pcscreen.harness import (
    ExperimentConfig,
    SummaryTable,
    nearest_rank_quantile,
    read_design_csv,
    run_fdr_experiment,
    run_quantile_experiment,
    write_design_csv,
    write_records_jsonl,
    write_summary_csv,
)
from pcscreen.kernel import _sample_pair, as_sample_matrix
from pcscreen.models import ModelSpec, generate_dataset
from pcscreen.pipeline import pc_knockoff_core

from .memory import traced_peak


QUANTILE_COLUMNS = ("q5", "q25", "q50", "q75", "q95")


def _rows(table):
    """The table's rows as {column: value} dicts."""
    return [dict(zip(table.columns, row)) for row in table.rows]


def _quantile_config(**overrides):
    base = dict(
        models=("1a",),
        n=60,
        p=20,
        replications=5,
        base_seed=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _fdr_config(**overrides):
    base = dict(
        models=("4a",),
        n=120,
        p=30,
        replications=6,
        alphas=(0.2, 0.5),
        n1=40,
        d=10,
        base_seed=300,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# nearest-rank quantiles
# ---------------------------------------------------------------------------


def test_nearest_rank_hand_cases():
    values = [3, 1, 2]
    assert nearest_rank_quantile(values, 50) == 2
    assert nearest_rank_quantile(values, 25) == 1
    assert nearest_rank_quantile(values, 95) == 3
    assert nearest_rank_quantile(values, 34) == 2  # ceil(1.02) = 2
    assert nearest_rank_quantile([10], 5) == 10
    assert nearest_rank_quantile([10], 95) == 10


def test_nearest_rank_validation():
    with pytest.raises(ValueError):
        nearest_rank_quantile([1, 2], 0.0)
    with pytest.raises(ValueError):
        nearest_rank_quantile([1, 2], 100.0)
    with pytest.raises(ValueError):
        nearest_rank_quantile([], 50)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        _quantile_config(models=())
    with pytest.raises(ValueError):
        _quantile_config(replications=0)
    with pytest.raises(ValueError):
        _quantile_config(quantile_levels=(5.0, 5.0))
    with pytest.raises(ValueError):
        _quantile_config(quantile_levels=(0.0, 50.0))
    with pytest.raises(ValueError):
        _quantile_config(alphas=(0.0,))
    with pytest.raises(ValueError):
        _quantile_config(alphas=(1.2,))
    with pytest.raises(ValueError):
        _quantile_config(methods=("pc_screen", "lasso"))
    with pytest.raises(ValueError):
        _quantile_config(threads=0)
    with pytest.raises(ValueError, match="unknown construction 'sdpp'"):
        _quantile_config(construction="sdpp")
    for name in ("methods", "quantile_levels", "alphas"):
        with pytest.raises(ValueError, match=f"{name} must not be empty"):
            _quantile_config(**{name: ()})


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_config_and_its_callees_refuse_with_one_message():
    # each rule has one owner, so the config refuses a value with the message
    # of the function that would refuse it during the run
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((40, 5)), rng.standard_normal(40)
    construction = _message(lambda: _quantile_config(construction="sdpp"))
    assert construction == _message(lambda: pc_knockoff_core(x, y, construction="sdpp"))
    assert construction == "unknown construction 'sdpp'; known: ('sdp', 'equicorrelated')"
    for level in (0.0, 100.0, -5.0):
        refused = _message(lambda: _quantile_config(quantile_levels=(level, 50.0)))
        assert refused == _message(lambda: nearest_rank_quantile([1, 2], level))
        assert refused == f"quantile level must lie in (0, 100), got {level}"
    for alpha in (0.0, 1.5, -0.1):
        refused = _message(lambda: _quantile_config(alphas=(alpha,)))
        assert refused == _message(lambda: check_alpha(alpha))
        assert refused == f"alpha must lie in (0, 1], got {alpha}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n1", 40.5, "n1 must be a whole number"),
        ("d", 10.5, "d must be a whole number"),
        ("s", 2.5, "s must be a whole number"),
        ("d", 0, "d must be at least 1"),
        ("rho", 1.5, r"\|rho\| must be below 1"),
        ("rho", -1.0, r"\|rho\| must be below 1"),
        ("rho", float("nan"), r"\|rho\| must be below 1"),
        ("rho", float("inf"), r"\|rho\| must be below 1"),
    ],
)
def test_config_refuses_a_bad_fdr_setting_at_construction(field, value, message):
    # refused before a run exists, so before any dataset is generated
    with pytest.raises(ValueError, match=message):
        _fdr_config(**{field: value})


def test_config_stores_whole_fdr_settings_as_ints_and_rho_as_a_float():
    config = _fdr_config(n1=40.0, d=10.0, s=2.0, rho=0)
    assert (config.n1, config.d, config.s, config.rho) == (40, 10, 2, 0.0)
    types = [type(getattr(config, name)) for name in ("n1", "d", "s", "rho")]
    assert types == [int, int, int, float]
    assert _fdr_config(n1=None, d=None, s=None).n1 is None


def test_config_stores_canonical_model_ids_and_refuses_repeats():
    config = _quantile_config(models=("1A", "4.c"))
    assert config.models == ("1a", "4c")
    assert config.specs == (ModelSpec("1a", 60, 20), ModelSpec("4c", 60, 20))
    # a repeat would run every replication of that model, alpha or method
    # twice and count both runs in one summary row
    for models in (("1a", "1a"), ("1a", "1A")):
        with pytest.raises(ValueError, match="repeated model id"):
            _quantile_config(models=models)
    with pytest.raises(ValueError, match="repeated alpha"):
        _fdr_config(alphas=(0.2, 0.2))
    with pytest.raises(ValueError, match="repeated method"):
        _quantile_config(methods=("pc_screen", "pc_screen"))


def test_sizes_and_seeds_refuse_fractions_and_take_whole_floats_as_ints():
    spec = ModelSpec("1a", n=20, p=8)
    for bad in (
        lambda: generate_dataset(spec, 1.5),
        lambda: ModelSpec("1a", n=20.5, p=8),
        lambda: ModelSpec("1a", n=20, p=8.5),
        lambda: ModelSpec("4a", n=20, p=12, s=2.5),
        lambda: _quantile_config(n=60.5),
        lambda: _quantile_config(p=20.5),
        lambda: _quantile_config(replications=2.5),
        lambda: _quantile_config(base_seed=0.5),
        lambda: _quantile_config(threads=1.5),
        lambda: _quantile_config(n=np.float32(60.5)),
        lambda: _quantile_config(replications=np.bool_(True)),
    ):
        with pytest.raises(ValueError, match="must be a whole number"):
            bad()
    whole = ModelSpec("4a", n=20.0, p=12.0, s=2.0)
    assert (whole.n, whole.p, whole.s) == (20, 12, 2)
    assert all(type(v) is int for v in (whole.n, whole.p, whole.s))
    assert type(ModelSpec("4a", n=20, p=12, rho=0).rho) is float
    ints = generate_dataset(ModelSpec("4a", n=20, p=12, s=2), 7)
    floats = generate_dataset(whole, 7.0)
    npt.assert_array_equal(floats.x, ints.x)
    npt.assert_array_equal(floats.y, ints.y)
    config = _quantile_config(n=60.0, p=20.0, replications=2.0, base_seed=100.0, threads=1.0)
    assert config == _quantile_config(replications=2)
    assert config == _quantile_config(n=np.float32(60.0), p=np.int64(20), replications=np.uint8(2))
    assert all(
        type(getattr(config, name)) is int
        for name in ("n", "p", "replications", "base_seed", "threads")
    )
    records = run_quantile_experiment(config)[1]
    assert records == run_quantile_experiment(_quantile_config(replications=2))[1]
    assert [r["seed"] for r in records] == [100, 100, 101, 101]


# ---------------------------------------------------------------------------
# quantile experiment
# ---------------------------------------------------------------------------


def test_quantile_experiment_is_deterministic():
    first_table, first_records = run_quantile_experiment(_quantile_config())
    second_table, second_records = run_quantile_experiment(_quantile_config())
    assert first_table == second_table
    assert first_records == second_records


@pytest.mark.parametrize(
    ("run", "config"),
    [
        (run_quantile_experiment, _quantile_config()),
        (run_quantile_experiment, _quantile_config(models=("1a", "1c", "3a"), replications=3)),
        (run_fdr_experiment, _fdr_config(models=("4a", "4c"), replications=3)),
    ],
    ids=["quantile-1a", "quantile-1a-1c-3a", "fdr-4a-4c"],
)
def test_quantile_experiment_matches_process_pool(run, config):
    serial, serial_records = run(config)
    pooled, pooled_records = run(replace(config, threads=2))
    assert serial == pooled
    assert serial_records == pooled_records


@pytest.fixture
def started_pools(monkeypatch):
    """The process pools a run starts from here on, in order."""
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return pools


def test_a_pooled_run_starts_one_process_pool(started_pools):
    config = _quantile_config(models=("1a", "1b", "3a"), replications=2, threads=2)
    table, records = run_quantile_experiment(config)
    assert len(started_pools) == 1
    assert [row["model"] for row in _rows(table)] == ["1a", "1a", "1b", "1b", "3a"]
    assert [(r["model"], r["seed"]) for r in records] == sorted(
        (r["model"], r["seed"]) for r in records
    )


@pytest.mark.parametrize(
    ("replications", "workers"), [(1, None), (2, 2)], ids=["one-replication", "two-replications"]
)
def test_a_pool_is_never_larger_than_its_run(replications, workers, started_pools):
    # the pool forks all its workers at its first task, so a fourth worker
    # for one or two replications would be a process that never runs one
    config = _quantile_config(replications=replications)
    serial = run_quantile_experiment(config)
    assert run_quantile_experiment(replace(config, threads=4)) == serial
    assert [pool._max_workers for pool in started_pools] == ([] if workers is None else [workers])


def _refuse_core(*args, **kwargs):
    raise ValueError("the core refuses this replication")


def _refuse_column(*args, **kwargs):
    # an error that takes more than its message must cross the pool whole
    raise DegenerateColumn("the core refuses this replication", 7)


@pytest.mark.parametrize(
    "threads, core",
    [(1, _refuse_core), (2, _refuse_core), (1, _refuse_column), (2, _refuse_column)],
    ids=["1", "2", "column-1", "column-2"],
)
def test_a_failing_replication_names_its_seed_and_model(threads, core, monkeypatch):
    # every replication fails inside the run (the pool forks after the patch);
    # the error is the first one in (model, seed) order
    monkeypatch.setattr(harness, "pc_knockoff_core", core)
    config = _fdr_config(models=("4c", "4a"), threads=threads)
    with pytest.raises(
        (ValueError, DegenerateColumn),
        match=r"^replication seed 300 \(4c\): the core refuses this replication$",
    ) as caught:
        run_fdr_experiment(config)
    if core is _refuse_column:
        assert caught.value.column == 7


def _never_replicate(args):
    raise AssertionError("a replication ran before the config was refused")


@pytest.mark.parametrize(
    "settings, error, message",
    [
        ({"n1": 200}, InvalidSplit, r"need 2 <= n1 <= n - 2, got n1=200 with n=120"),
        ({"n1": 40, "d": 50}, ValueError, r"need 2d < n - n1, got d=50 with n2=80"),
        ({"models": ("2a",), "s": 5}, ValueError, "model 2a has exactly 4 active features"),
        ({"n": 1}, ValueError, "n must be at least 2, got 1"),
        # a quantile run has no split, but a split size it is given is checked
        ({"d": 70}, ValueError, r"need 2d < n - n1, got d=70 with n2=90"),
    ],
)
def test_config_refuses_each_input_rule_at_construction(settings, error, message, monkeypatch):
    monkeypatch.setattr(harness, "_replicate", _never_replicate)
    base = dict(models=("4a",), n=120, p=30, replications=1)
    with pytest.raises(error, match=message):
        ExperimentConfig(**{**base, **settings})


def test_fdr_run_refuses_invalid_default_sizes_before_any_replication(monkeypatch):
    monkeypatch.setattr(harness, "_replicate", _never_replicate)
    # n1 = ceil(5 / 4) = 2 leaves n2 = 3, so the default d is 0
    config = ExperimentConfig(models=("4a",), n=5, p=20, replications=1)
    assert (config.n1, config.d) == (None, None)
    with pytest.raises(ValueError, match="d must be at least 1, got 0"):
        run_fdr_experiment(config)


def test_quantile_rows_are_monotone_and_bounded():
    table, records = run_quantile_experiment(_quantile_config(replications=8))
    assert table.columns == ("model", "method", "replications", *QUANTILE_COLUMNS)
    for row in _rows(table):
        quantiles = [row[q] for q in QUANTILE_COLUMNS]
        assert row["replications"] == 8
        assert all(1 <= q <= 20 for q in quantiles)
        assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))
    assert len(records) == 8 * len(table.rows)


def test_quantile_levels_with_one_column_name_are_refused(monkeypatch):
    # both levels print as q5; the check comes before any replication runs
    calls = []
    monkeypatch.setattr(harness, "generate_dataset", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="share a column name"):
        run_quantile_experiment(_quantile_config(quantile_levels=(5.0, 5.0000001)))
    assert calls == []


def test_single_replication_quantiles_collapse():
    table, records = run_quantile_experiment(_quantile_config(replications=1))
    for row in _rows(table):
        mms = [r["mms"] for r in records if r["method"] == row["method"]]
        assert [row[q] for q in QUANTILE_COLUMNS] == [mms[0]] * 5


def test_quantile_summary_recomputable_from_records():
    config = _quantile_config(replications=7, models=("1a", "1b"))
    table, records = run_quantile_experiment(config)
    for row in _rows(table):
        sizes = [
            r["mms"]
            for r in records
            if r["model"] == row["model"] and r["method"] == row["method"]
        ]
        assert len(sizes) == 7
        expected = [nearest_rank_quantile(sizes, q) for q in config.quantile_levels]
        assert [row[q] for q in QUANTILE_COLUMNS] == expected


def test_bivariate_models_skip_pearson_ranking():
    table, records = run_quantile_experiment(
        _quantile_config(models=("3a",), replications=2)
    )
    assert [row["method"] for row in _rows(table)] == ["pc_screen"]
    assert all(r["method"] == "pc_screen" for r in records)


# ---------------------------------------------------------------------------
# FDR experiments
# ---------------------------------------------------------------------------


def test_fdr_experiment_rejects_non_benchmark_models(monkeypatch):
    with pytest.raises(ValueError):
        run_fdr_experiment(_fdr_config(models=("1a",)))
    # the family is checked before the first replication runs
    calls = []
    monkeypatch.setattr(harness, "pc_knockoff_core", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="4x model family, got 1a"):
        run_fdr_experiment(_fdr_config(models=("4a", "1a"), replications=3))
    assert calls == []


def test_fdr_rows_recomputable_from_records():
    table, records = run_fdr_experiment(_fdr_config())
    rows = _rows(table)
    assert [("4a", 0.2), ("4a", 0.5)] == [(r["model"], r["alpha"]) for r in rows]
    assert table.columns[8:] == tuple(f"freq_X{j + 1}" for j in range(10))
    for row in rows:
        group = [
            r for r in records if r["model"] == row["model"] and r["alpha"] == row["alpha"]
        ]
        assert len(group) == 6
        assert row["replications"] == 6
        assert row["mean_selected"] == sum(r["n_selected"] for r in group) / 6
        assert row["sure_screening_freq"] == sum(r["sure_screening"] for r in group) / 6
        assert row["empirical_fdr"] == sum(r["empirical_fdp"] for r in group) / 6
        assert row["e1_freq"] == sum(r["event"] == "e1" for r in group) / 6
        assert row["e3_freq"] == sum(r["event"] == "e3" for r in group) / 6
        for j in range(10):
            assert row[f"freq_X{j + 1}"] == sum(1 for r in group if j in r["selected"]) / 6


def test_fdr_records_are_internally_consistent():
    _, records = run_fdr_experiment(_fdr_config())
    for rec in records:
        assert rec["record"] == "fdr"
        assert rec["n_selected"] == len(rec["selected"])
        assert rec["selected"] == sorted(rec["selected"])
        assert set(rec["event"]) <= set("e123")
        if rec["event"] == "e1":
            assert rec["selected"] == [] and rec["t_alpha"] is None
        else:
            assert rec["t_alpha"] is not None
        assert 0.0 <= rec["empirical_fdp"] <= 1.0
        if rec["sure_screening"]:
            assert rec["screened_all"]


def test_phase_rows_partition_the_outcomes():
    # empty (e1), all-active (sure screening) and partial (e3) selections
    table, _ = run_fdr_experiment(_fdr_config())
    for row in _rows(table):
        assert row["e1_freq"] + row["sure_screening_freq"] + row["e3_freq"] == pytest.approx(1.0)


def test_phase_extremes_on_an_easy_signal():
    # Tight alpha cannot clear the (1 + neg)/pos floor of 1/d, so selections
    # are empty; a loose alpha on a strong linear signal recovers all ten
    # active features nearly always.
    cfg = ExperimentConfig(
        models=("4a",), n=600, p=30, replications=20,
        alphas=(0.02, 0.9), n1=150, d=12, base_seed=2000,
    )
    table, _ = run_fdr_experiment(cfg)
    by_alpha = {row["alpha"]: row for row in _rows(table)}
    assert by_alpha[0.02]["e1_freq"] >= 0.9
    assert by_alpha[0.9]["sure_screening_freq"] >= 0.9


def test_records_carry_the_generator_overflow_tallies():
    # a 400-term signal pushes Poisson rates past the sampler limit
    wide = dict(n=50, p=400, s=400, replications=1, base_seed=3)
    _, records = run_quantile_experiment(
        ExperimentConfig(models=("1f",), methods=("pc_screen",), **wide)
    )
    assert [rec["clamp_events"] for rec in records] == [
        generate_dataset(ModelSpec(id="1f", n=50, p=400, s=400), seed=3).clamp_events
    ]
    assert records[0]["clamp_events"] > 0
    _, records = run_fdr_experiment(_fdr_config(models=("4e",), p=400, s=400))
    for rec in records:
        data = generate_dataset(ModelSpec(id="4e", n=120, p=400, s=400), seed=rec["seed"])
        assert rec["clamp_events"] == data.clamp_events
        assert rec["extreme_responses"] == data.extreme_responses
    assert any(rec["clamp_events"] > 0 for rec in records)
    _, records = run_quantile_experiment(_quantile_config())
    assert all(rec["clamp_events"] == rec["extreme_responses"] == 0 for rec in records)


def test_fdr_records_carry_the_knockoff_diagnostics(monkeypatch):
    # At 2d < n2 the sample correlation is nonsingular, so the real jitter is
    # 0; the core gets marker values to show which value each record carries.
    cores = []

    def marked_core(*args, **kwargs):
        core = pc_knockoff_core(*args, **kwargs)
        cores.append(replace(core, jitter_applied=0.125, clip_magnitude=0.25))
        return cores[-1]

    monkeypatch.setattr(harness, "pc_knockoff_core", marked_core)
    config = _fdr_config(replications=1)
    _, records = run_fdr_experiment(config)
    [core] = cores
    assert len(records) == len(config.alphas)
    for rec in records:
        assert (rec["jitter"], rec["clip"]) == (core.jitter_applied, core.clip_magnitude)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_records_jsonl_is_sorted_and_order_independent(tmp_path):
    _, records = run_quantile_experiment(_quantile_config(replications=3))
    straight = tmp_path / "straight.jsonl"
    shuffled = tmp_path / "shuffled.jsonl"
    write_records_jsonl(records, straight)
    rng = np.random.default_rng(0)
    write_records_jsonl([records[i] for i in rng.permutation(len(records))], shuffled)
    assert straight.read_bytes() == shuffled.read_bytes()
    lines = straight.read_text().splitlines()
    assert len(lines) == len(records)
    parsed = [json.loads(line) for line in lines]
    keys = [(r["record"], r["model"], r["seed"], r["method"]) for r in parsed]
    assert keys == sorted(keys)


def test_empty_records_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_records_jsonl([], path)
    assert path.read_bytes() == b""


def _summary_line(row):
    """A row's values joined by commas, floats as repr."""
    return ",".join(repr(cell) if isinstance(cell, float) else str(cell) for cell in row)


def test_summary_csv_writer(tmp_path):
    table, _ = run_quantile_experiment(_quantile_config(replications=2))
    qpath = tmp_path / "quantiles.csv"
    write_summary_csv(table, qpath)
    lines = qpath.read_text().splitlines()
    assert lines[0] == "model,method,replications,q5,q25,q50,q75,q95"
    assert len(lines) == 1 + len(table.rows)
    assert lines[1:] == [_summary_line(row) for row in table.rows]

    fdr_table, _ = run_fdr_experiment(_fdr_config(replications=2))
    fpath = tmp_path / "fdr.csv"
    write_summary_csv(fdr_table, fpath)
    lines = fpath.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:8] == [
        "model",
        "alpha",
        "replications",
        "mean_selected",
        "sure_screening_freq",
        "empirical_fdr",
        "e1_freq",
        "e3_freq",
    ]
    assert header[8:] == [f"freq_X{j}" for j in range(1, 11)]
    assert lines[1:] == [_summary_line(row) for row in fdr_table.rows]

    empty = tmp_path / "empty.csv"
    write_summary_csv(SummaryTable(columns=fdr_table.columns, rows=()), empty)
    assert empty.read_bytes() == (",".join(fdr_table.columns) + "\r\n").encode()


# ---------------------------------------------------------------------------
# design CSV ingestion
# ---------------------------------------------------------------------------


def test_design_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((23, 4)) * np.pi
    y = rng.standard_normal((23, 2)) / 3.0
    path = tmp_path / "design.csv"
    write_design_csv(path, x, y)
    assert harness._read_body(path, 6, 1) is not None  # the C reader takes it
    parsed = read_design_csv(path, 2)
    npt.assert_array_equal(parsed.x, x)
    npt.assert_array_equal(parsed.y, y)
    assert parsed.x_names == ("x1", "x2", "x3", "x4")
    assert parsed.y_names == ("y1", "y2")
    # a 1-D x is one feature column
    write_design_csv(path, x[:, 0], y)
    parsed = read_design_csv(path, 2)
    assert parsed.x.shape == (23, 1) and parsed.x.tobytes() == x[:, :1].tobytes()
    assert parsed.y.tobytes() == y.tobytes()
    assert parsed.x_names == ("x1",)


@pytest.mark.parametrize(
    ("processes", "row_wise"),
    [(1, False), (2, False), (1, True)],
    ids=["one-range", "two-ranges", "row-wise"],
)
def test_design_arrays_are_read_in_place(processes, row_wise, tmp_path, monkeypatch):
    rng = np.random.default_rng(39)
    x, y = rng.standard_normal((60, 50)), rng.standard_normal((60, 2))
    path = tmp_path / "design.csv"
    write_design_csv(path, x, y)
    if row_wise:  # a quoted newline in a cell sends the body to the row-wise reader
        lines = path.read_bytes().split(b"\r\n")
        cells, last = lines[1].rsplit(b",", 1)
        lines[1] = cells + b',"' + last + b'\n"'
        path.write_bytes(b"\r\n".join(lines))
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    bodies = []
    read_body = harness._read_body
    monkeypatch.setattr(
        harness, "_read_body", lambda *args: bodies.append(read_body(*args)) or bodies[-1]
    )
    design = read_design_csv(path, 2, processes)
    assert [body is None for body in bodies] == [row_wise]
    assert design.x.tobytes() == x.tobytes() and design.y.tobytes() == y.tobytes()
    assert design.x.flags.c_contiguous and design.y.flags.c_contiguous
    assert as_sample_matrix(design.x) is design.x and as_sample_matrix(design.y) is design.y
    # a copy of x would take all of its bytes; the finiteness check takes one per cell
    assert traced_peak(_sample_pair, design.x, design.y)[1] < design.x.nbytes // 2


def test_design_writer_refuses_mismatched_inputs_before_opening_the_file(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    path = tmp_path / "design.csv"
    for y, names, match in (
        (rng.standard_normal(6), {}, "x has 4 rows but y has 6"),
        (rng.standard_normal(3), {}, "x has 4 rows but y has 3"),
        (rng.standard_normal(4), {"x_names": ["a"]}, "x has 3 columns but 1 names"),
        (rng.standard_normal(4), {"y_names": ["u", "v"]}, "y has 1 columns but 2 names"),
    ):
        with pytest.raises(DimensionMismatch, match=match):
            write_design_csv(path, x, y, **names)
        assert not path.exists()
    write_design_csv(path, x, x[:, 0], x_names=("a", "b", "c"), y_names=["r"])
    parsed = read_design_csv(path, 1)
    assert parsed.x_names == ("a", "b", "c") and parsed.y_names == ("r",)
    npt.assert_array_equal(parsed.x, x)


def test_design_writer_refuses_a_non_finite_cell_before_opening_the_file(tmp_path):
    path = tmp_path / "design.csv"
    x, y = np.arange(8.0).reshape(4, 2), np.arange(4.0)
    x_inf = x.copy()
    x_inf[1, 0] = np.inf
    x_last, y_nan = x.copy(), y.copy()
    x_last[3, 1], y_nan[2] = -np.inf, np.nan
    # the first bad cell in file order, named as read_design_csv names it
    for bad, message in (
        ((x_inf, y), "row 3, column 'x1': non-finite cell inf"),
        ((x_last, y_nan), "row 4, column 'y1': non-finite cell nan"),
    ):
        with pytest.raises(NonNumericCell, match=message):
            write_design_csv(path, *bad)
        assert not path.exists()


def test_design_response_selection_by_name(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    parsed = read_design_csv(path, ["b"])
    npt.assert_array_equal(parsed.x, [[1.0, 3.0], [4.0, 6.0]])
    npt.assert_array_equal(parsed.y, [[2.0], [5.0]])
    assert parsed.x_names == ("a", "c")
    assert parsed.y_names == ("b",)


def test_design_header_drops_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("a,b,c\n1,2,3\n4,5,6\n".encode("utf-8-sig"))
    by_name = read_design_csv(path, ["a"])
    assert (by_name.x_names, by_name.y_names) == (("b", "c"), ("a",))
    npt.assert_array_equal(by_name.y, [[1.0], [4.0]])
    by_count = read_design_csv(path, 2)
    assert (by_count.x_names, by_count.y_names) == (("a",), ("b", "c"))
    npt.assert_array_equal(by_count.x, [[1.0], [4.0]])


def test_design_error_paths(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return p

    with pytest.raises(ParseError):
        read_design_csv(tmp_path / "missing.csv", 1)
    with pytest.raises(ParseError):
        read_design_csv(write("empty.csv", ""), 1)
    with pytest.raises(ParseError):
        read_design_csv(write("dup.csv", "a,a\n1,2\n"), 1)
    with pytest.raises(ParseError):
        read_design_csv(write("count.csv", "a,b\n1,2\n"), 2)
    with pytest.raises(ParseError):
        read_design_csv(write("count0.csv", "a,b\n1,2\n"), 0)
    with pytest.raises(MissingColumn):
        read_design_csv(write("miss.csv", "a,b\n1,2\n"), ["z"])
    with pytest.raises(ParseError):
        read_design_csv(write("repname.csv", "a,b\n1,2\n"), ["b", "b"])
    with pytest.raises(ParseError):
        read_design_csv(write("allresp.csv", "a,b\n1,2\n"), ["a", "b"])
    with pytest.raises(ParseError):
        read_design_csv(write("ragged.csv", "a,b\n1,2\n3\n"), 1)
    with pytest.raises(ParseError, match="no data rows"), warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a body with no data
        read_design_csv(write("norows.csv", "a,b\n"), 1)


@pytest.mark.parametrize(
    ("processes", "message"),
    [
        (0, "processes must be at least 1, got 0"),
        (-5, "processes must be at least 1, got -5"),
        (True, "processes must be a whole number, got True"),
        (2.5, "processes must be a whole number, got 2.5"),
        ("2", None),
    ],
)
def test_design_reader_takes_processes_by_the_one_count_rule(processes, message, tmp_path):
    path = tmp_path / "good.csv"
    if message is not None:  # refused before the file, not yet written, is opened
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_design_csv(path, 1, processes)
        return
    path.write_bytes(b"a,b\n" + b"".join(b"%d.5,%d\n" % (i, i) for i in range(300)))
    assert _outcome(path, processes) == _outcome(path)  # what int() takes is a count


@pytest.mark.parametrize(
    ("count", "message"),
    [
        (True, "trailing response count must be a whole number, got True"),
        (1.5, "trailing response count must be a whole number, got 1.5"),
        (np.bool_(True), "trailing response count must be a whole number, got np.True_"),
        (np.float32(1.5), "trailing response count must be a whole number, got np.float32(1.5)"),
        (2.0, None),
        (np.int64(2), None),
        (np.int32(2), None),
        (np.uint8(2), None),
        (np.float32(2.0), None),
    ],
)
def test_design_reader_takes_a_response_count_by_the_one_count_rule(count, message, tmp_path):
    path = tmp_path / "abc.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    if message is None:
        parsed = read_design_csv(path, count)
        assert (parsed.x_names, parsed.y_names) == (("a",), ("b", "c"))
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_design_csv(path, count)


def test_design_non_numeric_cell_errors(tmp_path):
    # Errors carry 1-based row numbers (header is row 1) and column names.
    for i, cell in enumerate(["abc", "inf", "nan", ""]):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(f"a,b\n1,{cell}\n")
        with pytest.raises(NonNumericCell) as err:
            read_design_csv(path, 1)
        assert "row 2" in str(err.value)
        assert "'b'" in str(err.value)


def _parsed_on_both_paths(path, response, monkeypatch):
    """What read_design_csv makes of a file at 1, 2 and 3 processes, checked
    equal to what it makes of it with the body always read row by row: the
    arrays' bits and shapes, or the error class and message.  The host is
    shown eight usable CPUs, so that 2 and 3 processes cut the body into 2
    and 3 byte ranges on any host."""

    def outcome(processes=1):
        try:
            parsed = read_design_csv(path, response, processes)
        except PcScreenError as exc:
            return type(exc), str(exc)
        return parsed.x.tobytes(), parsed.y.tobytes(), parsed.x.shape, parsed.y.shape

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    chosen = {processes: outcome(processes) for processes in (1, 2, 3)}
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_read_body", lambda path, width, processes: None)
        row_wise = outcome()
    assert chosen == dict.fromkeys(chosen, row_wise), path.name
    return row_wise


@pytest.mark.filterwarnings("error")
def test_design_reports_the_first_fault_in_file_order(tmp_path, monkeypatch):
    cases = {
        # every row one cell too wide: the body parses as a rectangle
        "wide.csv": ("a,b\n1,2,3\n4,5,6\n", ParseError, "row 2 has 3 cells, expected 2"),
        "cell_then_ragged.csv": (
            "a,b\n1,2\n3,x\n4\n", NonNumericCell, "row 3, column 'b': non-numeric cell 'x'"
        ),
        "ragged_then_cell.csv": ("a,b\n1,x\n3\n", NonNumericCell, "row 2, column 'b'"),
        "two_cells.csv": ("a,b\n1,2\nnan,inf\n", NonNumericCell, "row 3, column 'a'"),
        "crlf_cell.csv": ("a,b\r\n1,2\r\n3,x\r\n", NonNumericCell, "row 3, column 'b'"),
        "cr_cell.csv": ("a,b\r1,2\r3,x\r", NonNumericCell, "row 3, column 'b'"),
        # csv keeps the space, so the quote is part of the cell
        "space_quote.csv": (
            'a,b\n1, "1.5"\n', NonNumericCell, "row 2, column 'b': non-numeric cell ' \"1.5\"'"
        ),
        # a balanced quote keeps the line on the C reader, which refuses
        # the comma in the cell
        "quoted_comma.csv": ('a,b\n1,"2,5"\n', NonNumericCell, "row 2, column 'b'"),
        "stray_quote.csv": (
            'a,b\n1,2\n3,4"\n5,6\n', NonNumericCell, "row 3, column 'b': non-numeric cell '4\"'"
        ),
        "quoted_newline.csv": (
            'a,b\n1,2\n3,"1\n5"\n', NonNumericCell, "row 3, column 'b': non-numeric cell '1\\n5'"
        ),
        "overflow.csv": ("a,b\n1,2\n1e500,3\n", NonNumericCell, "row 3, column 'a'"),
        # numpy strips an ASCII separator around a number; float() refuses it
        "separator.csv": ("a,b\n1,\x1c2\n", NonNumericCell, "row 2, column 'b'"),
        "blank_middle.csv": ("a,b\n1,2\n\n3,4\n", ParseError, "row 3 has 0 cells"),
        "blank_end.csv": ("a,b\n1,2\n\n", ParseError, "row 3 has 0 cells"),
        "blank_first.csv": ("a,b\n\n1,2\n", ParseError, "row 2 has 0 cells"),
        "blank_only.csv": ("a,b\n\n", ParseError, "row 2 has 0 cells"),
        "blank_crlf.csv": ("a,b\r\n1,2\r\n\r\n3,4\r\n", ParseError, "row 3 has 0 cells"),
        "blank_cr.csv": ("a,b\r1,2\r\r3,4\r", ParseError, "row 3 has 0 cells"),
        # csv refuses a field past 131,072 characters; the error names the
        # row the field starts in
        "long_field.csv": (
            'a,b\n1,2\n3,"' + "4" * 140_000 + '"\n5,6\n', ParseError,
            "row 3: field larger than field limit",
        ),
        "long_header.csv": ('a,"b\n' + "5,6\n" * 40_000, ParseError, "row 1: field larger"),
        # every byte range but the last parses; the last one holds the fault
        "last_range_fault.csv": (
            "a,b\n" + "1,2\n" * 40 + "3,x\n", NonNumericCell, "row 42, column 'b'"
        ),
        # the body's midpoint falls in the quoted cell, whose newline ends
        # the first of two byte ranges
        "straddling_quote.csv": (
            "a,b\n" + "1,2\n" * 4 + '3,"1\n5"\n' + "1,2\n" * 4, NonNumericCell,
            "row 6, column 'b': non-numeric cell '1\\n5'",
        ),
    }
    for name, (text, error, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(error) as err:
            read_design_csv(path, 1)
        assert message in str(err.value), name
        _parsed_on_both_paths(path, 1, monkeypatch)


def test_design_cells_parse_as_python_floats(tmp_path, monkeypatch):
    cells = ["1_0", " 2 ", "+1e3", "-0.0", "1e-320", "٣", "0.1"]
    path = tmp_path / "cells.csv"
    text = "a,b\n" + "\n".join(f"{cell},{cell}" for cell in cells) + "\n"
    path.write_text(text, encoding="utf-8")
    parsed = read_design_csv(path, 1)
    expected = np.array([float(cell) for cell in cells])
    npt.assert_array_equal(parsed.x[:, 0].view(np.int64), expected.view(np.int64))
    npt.assert_array_equal(parsed.y[:, 0].view(np.int64), expected.view(np.int64))
    # one file per (cell as written, what float() reads, line ending); numpy's
    # reader refuses 1_0 and ٣, which then go through the row-wise path
    written = [(cell, cell) for cell in cells] + [
        ('"1.5"', "1.5"),
        ('"1.5\n"', "1.5\n"),
        ('"1"5', "15"),
        ("\xa01", "\xa01"),
        ("1\u2003", "1\u2003"),
        ("5e-324", "5e-324"),
        ("0.10000000000000000555", "0.10000000000000000555"),
    ]
    for i, (cell, value) in enumerate(written):
        for k, ending in enumerate(("\n", "\r\n", "\r")):
            path = tmp_path / f"cell{i}_{k}.csv"
            path.write_bytes((ending.join(["a,b", f"{cell},{cell}", "1,2"]) + ending).encode())
            x, y, x_shape, y_shape = _parsed_on_both_paths(path, 1, monkeypatch)
            assert (x_shape, y_shape) == ((2, 1), (2, 1))
            assert x == np.array([float(value), 1.0]).tobytes(), (cell, ending)
            assert y == np.array([float(value), 2.0]).tobytes(), (cell, ending)


def test_design_bodies_parse_alike_in_byte_ranges(tmp_path, monkeypatch):
    rows = [f"{i}.25,{-i}e-3" for i in range(30)]
    expected = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    cases = {
        "lf.csv": "a,b\n" + "\n".join(rows) + "\n",
        "no_final_newline.csv": "a,b\n" + "\n".join(rows),
        "crlf.csv": "a,b\r\n" + "\r\n".join(rows) + "\r\n",
        "cr_only.csv": "a,b\r" + "\r".join(rows) + "\r",
        # a whole quoted cell: its line holds two quotes, which numpy reads
        "quoted_cell.csv": "a,b\n" + "\n".join(rows[:5] + ['5.25,"-5e-3"'] + rows[6:]),
        # only the header ends in CR: its first binary line holds a body row
        "cr_header.csv": "a,b\r" + "\n".join(rows) + "\n",
        "bom.csv": "\ufeffa,b\n" + "\n".join(rows) + "\n",
        # a quoted newline at the body's midpoint: the cell reads 1.5
        "straddling_quote.csv": "a,b\n" + "\n".join(rows[:15] + ['0.25,"1.5\n"'] + rows[16:]),
    }
    fork = hasattr(os, "fork")
    bodies, spans = [], []
    read_body, parse_range = harness._read_body, harness._parse_range
    monkeypatch.setattr(
        harness, "_read_body", lambda *args: bodies.append(read_body(*args)) or bodies[-1]
    )
    monkeypatch.setattr(
        harness,
        "_parse_range",
        lambda path, start, end, width: spans.append((start, end))
        or parse_range(path, start, end, width),
    )
    for name, text in cases.items():
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        bodies.clear()
        spans.clear()
        x, y, x_shape, y_shape = _parsed_on_both_paths(path, 1, monkeypatch)
        assert (x_shape, y_shape) == ((30, 1), (30, 1)), name
        want = expected.copy()
        if name == "straddling_quote.csv":
            want[15] = (0.25, 1.5)
        assert (x, y) == (want[:, :1].tobytes(), want[:, 1:].tobytes()), name
        # the C reader takes every LF and CRLF body at 1, 2 and 3 processes;
        # a CR line end or a quoted newline sends it to the row-wise reader
        c_reader = name not in ("cr_only.csv", "cr_header.csv", "straddling_quote.csv")
        assert [part is not None for part in bodies] == [c_reader] * 3, name
        if c_reader:
            # this process parses the whole body at 1 process and only the
            # last of 2 and 3 ranges where it can fork the others
            body, size = len(text.encode("utf-8").split(b"\n", 1)[0]) + 1, path.stat().st_size
            assert spans[0] == (body, size), name
            assert [end for _, end in spans] == [size] * 3, name
            starts = [start for start, _ in spans]
            assert (body < starts[1] < starts[2]) if fork else starts == [body] * 3, name


def _outcome(path, processes=1):
    try:
        parsed = read_design_csv(path, 1, processes)
    except Exception as exc:  # noqa: BLE001 - compared with the serial outcome
        return type(exc), str(exc)
    return parsed.x.tobytes(), parsed.y.tobytes()


def _assert_no_child_left():
    """This process has no child, running or exited and not yet waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_range_reads_serially_and_leaves_no_process(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    rows = b"".join(b"%d.5,%d\n" % (i, i) for i in range(3000))
    bad = tmp_path / "bad_utf8.csv"  # the first of two ranges cannot be decoded
    bad.write_bytes(b"a,b\n" + rows + b"1,\xff\n" + rows + rows + rows)
    good = tmp_path / "good.csv"
    good.write_bytes(b"a,b\n" + rows)
    serial = {path: _outcome(path) for path in (bad, good)}
    assert serial[bad][0] is UnicodeDecodeError
    for processes in (2, 3):
        assert _outcome(bad, processes) == serial[bad]
    parent = os.getpid()
    real = harness._parse_range

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise KeyboardInterrupt  # no Exception: the child still leaves by os._exit
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_parse_range", fails_in_a_child)
        for processes in (2, 3):
            assert _outcome(good, processes) == serial[good]
    _assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_a_child_killed_by_a_signal_refuses_its_range(tmp_path, monkeypatch):
    import signal

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    path = tmp_path / "good.csv"
    path.write_bytes(b"a,b\n" + b"".join(b"%d.5,%d\n" % (i, i) for i in range(3000)))
    serial = _outcome(path)
    parent = os.getpid()
    real = harness._parse_range

    def killed_in_a_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(harness, "_parse_range", killed_in_a_child)
    assert harness._read_body(path, 2, 2) is None
    assert _outcome(path, 2) == serial
    _assert_no_child_left()


def test_a_one_range_read_forks_nothing(tmp_path, monkeypatch):
    path = tmp_path / "good.csv"
    path.write_bytes(b"a,b\n" + b"".join(b"%d.5,%d\n" % (i, i) for i in range(300)))
    span = (4, path.stat().st_size)
    # at 1 process the body is one range, parsed by this process, which
    # imports no multiprocessing and forks nothing
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import os, sys\n"
        "from pcscreen import harness\n"
        "def forked(*args):\n"
        "    raise AssertionError('a process was started')\n"
        "os.fork = os.posix_spawn = forked\n"
        "spans, real = [], harness._parse_range\n"
        "harness._parse_range = lambda *args: spans.append(args[1:3]) or real(*args)\n"
        "design = harness.read_design_csv(sys.argv[1], 1, processes=1)\n"
        "print(spans, design.x.shape, sorted(m for m in sys.modules if 'multiprocessing' in m))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(path)], capture_output=True, text=True, env=env,
        check=True,
    )
    assert result.stdout.strip() == f"[{span}] (300, 1) []"
    # without os.fork 2 processes also read one range here
    spans, real = [], harness._parse_range
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.delattr(harness.os, "fork")
    monkeypatch.setattr(
        harness, "_parse_range", lambda *args: spans.append(args[1:3]) or real(*args)
    )
    assert _outcome(path, 2) == _outcome(path, 1)
    assert spans == [span, span]
    _assert_no_child_left()


def test_a_two_range_read_forks_once_without_multiprocessing(tmp_path):
    path = tmp_path / "good.csv"
    path.write_bytes(b"a,b\n" + b"".join(b"%d.5,%d\n" % (i, i) for i in range(300)))
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import os, sys\n"
        "from pcscreen import harness\n"
        "os.sched_getaffinity = lambda pid: set(range(8))\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "design = harness.read_design_csv(sys.argv[1], 1, processes=2)\n"
        "values = design.x[:, 0].tolist() == [i + 0.5 for i in range(300)]\n"
        "print(len(forks), values, sorted(m for m in sys.modules if 'multiprocessing' in m))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(path)], capture_output=True, text=True, env=env,
        check=True,
    )
    assert result.stdout.strip() == "1 True []"


def test_a_read_that_fails_in_the_parent_leaves_no_child_blocked(tmp_path, monkeypatch):
    import signal

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    path = tmp_path / "long.csv"
    # each child's rows are about 200 kB, more than a pipe holds unread
    path.write_bytes(b"a,b\n" + b"1.5,2\n" * 40_000)
    parent = os.getpid()
    real = harness._parse_range

    def fails_in_the_parent(*args):
        if os.getpid() == parent:
            raise RuntimeError("the parent's range failed")
        return real(*args)

    def hung(signum, frame):
        raise AssertionError("a child was left blocked on its pipe")

    monkeypatch.setattr(harness, "_parse_range", fails_in_the_parent)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="the parent's range failed"):
            read_design_csv(path, 1, processes=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_read_without_a_pipe_or_a_process_reads_serially(call, processes, tmp_path, monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    path = tmp_path / "good.csv"
    path.write_bytes(b"a,b\n" + b"".join(b"%d.5,%d\n" % (i, i) for i in range(3000)))
    serial = _outcome(path)
    real, calls = getattr(os, call), []

    def fails_at_the_last_child(*args):
        # at 3 processes the first child is made, and must still be waited for
        calls.append(args)
        if len(calls) % (processes - 1) == 0:
            raise OSError(f"no {call} could be made")
        return real(*args)

    monkeypatch.setattr(harness.os, call, fails_at_the_last_child)
    assert harness._read_body(path, 2, processes) is None
    assert _outcome(path, processes) == serial
    assert len(calls) == 2 * (processes - 1)
    _assert_no_child_left()


@pytest.mark.parametrize(
    "stat",
    [None, b"", b"1 (python3) R 1", b"1 (python3)" + b" x" * 40],
    ids=["unreadable", "empty", "short", "non-numeric"],
)
def test_no_cpu_is_left_out_where_proc_does_not_say_which_one_runs(stat, monkeypatch):
    def opened(path, mode):
        assert (path, mode) == ("/proc/self/stat", "rb")
        if stat is None:
            raise PermissionError(path)
        return io.BytesIO(stat)

    monkeypatch.setattr(harness, "open", opened, raising=False)
    assert harness._cpus_but_this_one(set(range(8))) is None
