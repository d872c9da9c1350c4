"""Experiment-harness tests: quantile summaries, FDR/phase aggregation
audits, record persistence, and design CSV ingestion."""

from __future__ import annotations

import json

import numpy as np
import numpy.testing as npt
import pytest

from pcscreen.errors import MissingColumn, NonNumericCell, ParseError
from pcscreen.harness import (
    ExperimentConfig,
    nearest_rank_quantile,
    read_design_csv,
    run_fdr_experiment,
    run_phase_transition,
    run_quantile_experiment,
    write_design_csv,
    write_fdr_csv,
    write_phase_csv,
    write_quantile_csv,
    write_records_jsonl,
)


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


# ---------------------------------------------------------------------------
# quantile experiment
# ---------------------------------------------------------------------------


def test_quantile_experiment_is_deterministic():
    first_table, first_records = run_quantile_experiment(_quantile_config())
    second_table, second_records = run_quantile_experiment(_quantile_config())
    assert first_table == second_table
    assert first_records == second_records


def test_quantile_experiment_matches_process_pool():
    serial, serial_records = run_quantile_experiment(_quantile_config())
    pooled, pooled_records = run_quantile_experiment(_quantile_config(threads=2))
    assert serial == pooled
    assert serial_records == pooled_records


def test_quantile_rows_are_monotone_and_bounded():
    table, records = run_quantile_experiment(_quantile_config(replications=8))
    assert table.levels == (5.0, 25.0, 50.0, 75.0, 95.0)
    for row in table.rows:
        assert row.replications == 8
        assert all(1 <= q <= 20 for q in row.quantiles)
        assert all(a <= b for a, b in zip(row.quantiles, row.quantiles[1:]))
    assert len(records) == 8 * len(table.rows)


def test_single_replication_quantiles_collapse():
    table, records = run_quantile_experiment(_quantile_config(replications=1))
    for row in table.rows:
        mms = [r["mms"] for r in records if r["method"] == row.method]
        assert row.quantiles == tuple([mms[0]] * 5)


def test_quantile_summary_recomputable_from_records():
    config = _quantile_config(replications=7, models=("1a", "1b"))
    table, records = run_quantile_experiment(config)
    for row in table.rows:
        sizes = [
            r["mms"]
            for r in records
            if r["model"] == row.model and r["method"] == row.method
        ]
        assert len(sizes) == 7
        expected = tuple(nearest_rank_quantile(sizes, q) for q in table.levels)
        assert row.quantiles == expected


def test_bivariate_models_skip_pearson_ranking():
    table, records = run_quantile_experiment(
        _quantile_config(models=("3a",), replications=2)
    )
    assert [row.method for row in table.rows] == ["pc_screen"]
    assert all(r["method"] == "pc_screen" for r in records)


# ---------------------------------------------------------------------------
# FDR and phase experiments
# ---------------------------------------------------------------------------


def test_fdr_experiment_rejects_non_benchmark_models():
    with pytest.raises(ValueError):
        run_fdr_experiment(_fdr_config(models=("1a",)))


def test_fdr_rows_recomputable_from_records():
    table, records = run_fdr_experiment(_fdr_config())
    assert [("4a", 0.2), ("4a", 0.5)] == [(r.model, r.alpha) for r in table.rows]
    for row in table.rows:
        group = [
            r for r in records if r["model"] == row.model and r["alpha"] == row.alpha
        ]
        assert len(group) == 6
        assert row.replications == 6
        assert row.mean_selected == sum(r["n_selected"] for r in group) / 6
        assert row.sure_screening_freq == sum(r["sure_screening"] for r in group) / 6
        assert row.empirical_fdr == sum(r["empirical_fdp"] for r in group) / 6
        assert len(row.active_selection_freq) == 10
        for j, freq in enumerate(row.active_selection_freq):
            assert freq == sum(1 for r in group if j in r["selected"]) / 6


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
    table, records = run_phase_transition(_fdr_config())
    for row in table.rows:
        assert row.e1_freq + row.e2_freq + row.e3_freq == pytest.approx(1.0)
        group = [
            r for r in records if r["model"] == row.model and r["alpha"] == row.alpha
        ]
        assert row.e1_freq == sum(r["event"] == "e1" for r in group) / len(group)
        assert row.e2_freq == sum(r["event"] == "e2" for r in group) / len(group)


def test_phase_and_fdr_runs_share_identical_records():
    _, fdr_records = run_fdr_experiment(_fdr_config())
    _, phase_records = run_phase_transition(_fdr_config())
    assert fdr_records == phase_records


def test_phase_extremes_on_an_easy_signal():
    # Tight alpha cannot clear the (1 + neg)/pos floor of 1/d, so selections
    # are empty; a loose alpha on a strong linear signal recovers all ten
    # active features nearly always.
    cfg = ExperimentConfig(
        models=("4a",), n=600, p=30, replications=20,
        alphas=(0.02, 0.9), n1=150, d=12, base_seed=2000,
    )
    table, _ = run_phase_transition(cfg)
    by_alpha = {row.alpha: row for row in table.rows}
    assert by_alpha[0.02].e1_freq >= 0.9
    assert by_alpha[0.9].e2_freq >= 0.9


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


def test_summary_csv_writers(tmp_path):
    table, _ = run_quantile_experiment(_quantile_config(replications=2))
    qpath = tmp_path / "quantiles.csv"
    write_quantile_csv(table, qpath)
    lines = qpath.read_text().splitlines()
    assert lines[0] == "model,method,replications,q5,q25,q50,q75,q95"
    assert len(lines) == 1 + len(table.rows)

    fdr_table, _ = run_fdr_experiment(_fdr_config(replications=2))
    fpath = tmp_path / "fdr.csv"
    write_fdr_csv(fdr_table, fpath)
    header = fpath.read_text().splitlines()[0].split(",")
    assert header[:6] == [
        "model",
        "alpha",
        "replications",
        "mean_selected",
        "sure_screening_freq",
        "empirical_fdr",
    ]
    assert header[6:] == [f"freq_X{j}" for j in range(1, 11)]

    phase_table, _ = run_phase_transition(_fdr_config(replications=2))
    ppath = tmp_path / "phase.csv"
    write_phase_csv(phase_table, ppath)
    assert ppath.read_text().splitlines()[0] == (
        "model,alpha,replications,e1_freq,e2_freq,e3_freq"
    )


# ---------------------------------------------------------------------------
# design CSV ingestion
# ---------------------------------------------------------------------------


def test_design_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((23, 4)) * np.pi
    y = rng.standard_normal((23, 2)) / 3.0
    path = tmp_path / "design.csv"
    write_design_csv(path, x, y)
    parsed = read_design_csv(path, 2)
    npt.assert_array_equal(parsed.x, x)
    npt.assert_array_equal(parsed.y, y)
    assert parsed.x_names == ("x1", "x2", "x3", "x4")
    assert parsed.y_names == ("y1", "y2")


def test_design_response_selection_by_name(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    parsed = read_design_csv(path, ["b"])
    npt.assert_array_equal(parsed.x, [[1.0, 3.0], [4.0, 6.0]])
    npt.assert_array_equal(parsed.y, [[2.0], [5.0]])
    assert parsed.x_names == ("a", "c")
    assert parsed.y_names == ("b",)


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
    with pytest.raises(ParseError):
        read_design_csv(write("norows.csv", "a,b\n"), 1)


def test_design_non_numeric_cell_errors(tmp_path):
    # Errors carry 1-based row numbers (header is row 1) and column names.
    for i, cell in enumerate(["abc", "inf", "nan", ""]):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(f"a,b\n1,{cell}\n")
        with pytest.raises(NonNumericCell) as err:
            read_design_csv(path, 1)
        assert "row 2" in str(err.value)
        assert "'b'" in str(err.value)


def test_design_reports_the_first_fault_in_file_order(tmp_path):
    cases = {
        # every row one cell too wide: the body parses as a rectangle
        "wide.csv": ("a,b\n1,2,3\n4,5,6\n", ParseError, "row 2 has 3 cells, expected 2"),
        "cell_then_ragged.csv": (
            "a,b\n1,2\n3,x\n4\n", NonNumericCell, "row 3, column 'b': non-numeric cell 'x'"
        ),
        "ragged_then_cell.csv": ("a,b\n1,x\n3\n", NonNumericCell, "row 2, column 'b'"),
        "two_cells.csv": ("a,b\n1,2\nnan,inf\n", NonNumericCell, "row 3, column 'a'"),
    }
    for name, (text, error, message) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(error) as err:
            read_design_csv(path, 1)
        assert message in str(err.value), name


def test_design_cells_parse_as_python_floats(tmp_path):
    cells = ["1_0", " 2 ", "+1e3", "-0.0", "1e-320", "٣", "0.1"]
    path = tmp_path / "cells.csv"
    text = "a,b\n" + "\n".join(f"{cell},{cell}" for cell in cells) + "\n"
    path.write_text(text, encoding="utf-8")
    parsed = read_design_csv(path, 1)
    expected = np.array([float(cell) for cell in cells])
    npt.assert_array_equal(parsed.x[:, 0].view(np.int64), expected.view(np.int64))
    npt.assert_array_equal(parsed.y[:, 0].view(np.int64), expected.view(np.int64))
