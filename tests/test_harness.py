"""Experiment-harness tests: quantile summaries, FDR/phase aggregation
audits, record persistence, and design CSV ingestion."""

from __future__ import annotations

import json
import warnings
from dataclasses import astuple, replace

import numpy as np
import numpy.testing as npt
import pytest

from pcscreen import harness
from pcscreen.errors import MissingColumn, NonNumericCell, ParseError, PcScreenError
from pcscreen.harness import (
    ExperimentConfig,
    FdrTable,
    nearest_rank_quantile,
    read_design_csv,
    run_fdr_experiment,
    run_phase_transition,
    run_quantile_experiment,
    write_design_csv,
    write_records_jsonl,
    write_summary_csv,
)
from pcscreen.models import ModelSpec, generate_dataset
from pcscreen.pipeline import pc_knockoff_core


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


def test_config_stores_canonical_model_ids_and_refuses_repeats():
    assert _quantile_config(models=("1A", "4.c")).models == ("1a", "4c")
    # a repeat would run every replication of that model, alpha or method
    # twice and count both runs in one summary row
    for models in (("1a", "1a"), ("1a", "1A")):
        with pytest.raises(ValueError, match="repeated model id"):
            _quantile_config(models=models)
    with pytest.raises(ValueError, match="repeated alpha"):
        _fdr_config(alphas=(0.2, 0.2))
    with pytest.raises(ValueError, match="repeated method"):
        _quantile_config(methods=("pc_screen", "pc_screen"))


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


def test_a_pooled_run_starts_one_process_pool(monkeypatch):
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    config = _quantile_config(models=("1a", "1b", "3a"), replications=2, threads=2)
    table, records = run_quantile_experiment(config)
    assert len(pools) == 1
    assert [row.model for row in table.rows] == ["1a", "1a", "1b", "1b", "3a"]
    assert [(r["model"], r["seed"]) for r in records] == sorted(
        (r["model"], r["seed"]) for r in records
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_replication_names_its_seed_and_model(threads):
    # n1 = n leaves no second split, so the core refuses every replication;
    # the error is the first one in (model, seed) order
    config = _fdr_config(models=("4c", "4a"), n1=120, threads=threads)
    with pytest.raises(ValueError, match=r"^replication seed 300 \(4c\): need 2d < n - n1"):
        run_fdr_experiment(config)


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


def test_fdr_experiment_rejects_non_benchmark_models(monkeypatch):
    with pytest.raises(ValueError):
        run_fdr_experiment(_fdr_config(models=("1a",)))
    # the family is checked before the first replication runs
    calls = []
    monkeypatch.setattr(harness, "pc_knockoff_core", lambda *a, **k: calls.append(a))
    for run in (run_fdr_experiment, run_phase_transition):
        with pytest.raises(ValueError, match="4x model family, got 1a"):
            run(_fdr_config(models=("4a", "1a"), replications=3))
    assert calls == []


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


def test_fdr_and_phase_records_carry_the_knockoff_diagnostics(monkeypatch):
    # At 2d < n2 the sample correlation is nonsingular, so the real jitter is
    # 0; the core gets marker values to show which value each record carries.
    cores = []

    def marked_core(*args, **kwargs):
        core = pc_knockoff_core(*args, **kwargs)
        cores.append(replace(core, jitter_applied=0.125, clip_magnitude=0.25))
        return cores[-1]

    monkeypatch.setattr(harness, "pc_knockoff_core", marked_core)
    config = _fdr_config(replications=1)
    for run in (run_fdr_experiment, run_phase_transition):
        cores.clear()
        _, records = run(config)
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
    """A row's fields joined by commas: floats as repr, tuples spread."""
    cells = []
    for value in astuple(row):
        for cell in value if isinstance(value, tuple) else (value,):
            cells.append(repr(cell) if isinstance(cell, float) else str(cell))
    return ",".join(cells)


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
    assert header[:6] == [
        "model",
        "alpha",
        "replications",
        "mean_selected",
        "sure_screening_freq",
        "empirical_fdr",
    ]
    assert header[6:] == [f"freq_X{j}" for j in range(1, 11)]
    assert lines[1:] == [_summary_line(row) for row in fdr_table.rows]

    phase_table, _ = run_phase_transition(_fdr_config(replications=2))
    ppath = tmp_path / "phase.csv"
    write_summary_csv(phase_table, ppath)
    lines = ppath.read_text().splitlines()
    assert lines[0] == "model,alpha,replications,e1_freq,e2_freq,e3_freq"
    assert lines[1:] == [_summary_line(row) for row in phase_table.rows]

    empty = tmp_path / "empty_fdr.csv"
    write_summary_csv(FdrTable(rows=(), base_seed=0), empty)
    assert empty.read_bytes() == (
        b"model,alpha,replications,mean_selected,sure_screening_freq,empirical_fdr\r\n"
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
    with open(path, newline="", encoding="utf-8-sig") as handle:
        handle.readline()
        assert harness._read_body(handle, 6) is not None  # the C reader takes it
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
    """What read_design_csv makes of a file, checked equal to what it makes
    of it with the body always read row by row: the arrays' bits and shapes,
    or the error class and message."""

    def outcome():
        try:
            parsed = read_design_csv(path, response)
        except PcScreenError as exc:
            return type(exc), str(exc)
        return parsed.x.tobytes(), parsed.y.tobytes(), parsed.x.shape, parsed.y.shape

    chosen = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_read_body", lambda handle, width: None)
        row_wise = outcome()
    assert chosen == row_wise, path.name
    return chosen


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
