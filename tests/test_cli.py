"""Command-line interface tests: exit codes, output files and schemas, the
config-file merge, and table presets — all run in-process via cli_main."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcscreen
from pcscreen import cli, errors, harness
from pcscreen.cli import cli_main
from pcscreen.harness import SummaryTable, write_design_csv
from pcscreen.models import ModelSpec, generate_dataset


@pytest.fixture()
def design_csv(tmp_path):
    ds = generate_dataset(ModelSpec(id="1a", n=150, p=8), seed=6)
    path = tmp_path / "design.csv"
    write_design_csv(path, ds.x, ds.y)
    return path


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_no_subcommand_is_a_usage_error(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_module_run_without_a_subcommand_is_a_usage_error():
    src = str(Path(pcscreen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "pcscreen.cli"], capture_output=True, text=True, env=env
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("usage: ")


def test_help_exits_cleanly(capsys):
    assert cli_main(["--help"]) == 0
    assert "pcscreen" in capsys.readouterr().out


def test_bad_flag_value_is_a_usage_error(capsys):
    assert cli_main(["reproduce", "--table", "9"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_screen_requires_a_response_spec(design_csv, capsys):
    assert cli_main(["screen", str(design_csv)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--response-cols" in err


def test_screen_refuses_an_empty_response_name_list(design_csv, capsys):
    assert cli_main(["screen", str(design_csv), "--response-cols", ","]) == 1
    assert capsys.readouterr().err == "usage error: --response-cols is empty\n"


def test_screen_rejects_conflicting_response_specs(design_csv, capsys):
    code = cli_main(
        ["screen", str(design_csv), "--response-cols", "y1", "--response-count", "1"]
    )
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    code = cli_main(
        ["screen", str(tmp_path / "nope.csv"), "--response-count", "1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_pcknockoff_checks_alpha_before_reading_the_csv(tmp_path, capsys):
    code = cli_main(
        ["pcknockoff", str(tmp_path / "missing.csv"), "--response-count", "1", "--alpha", "1.5"]
    )
    assert code == 2
    assert "error: alpha must lie in (0, 1], got 1.5" in capsys.readouterr().err


def test_pcknockoff_checks_the_seed_before_reading_the_csv(tmp_path, capsys):
    code = cli_main(
        ["pcknockoff", str(tmp_path / "missing.csv"), "--response-count", "1", "--seed", "-1"]
    )
    assert code == 2
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err


def test_every_command_refuses_a_thread_count_below_one_alike(tmp_path, capsys, monkeypatch):
    # one rule for --threads; screen and pcknockoff apply it before the CSV is opened
    def never(*args, **kwargs):
        raise AssertionError("the CSV was read before --threads was checked")

    monkeypatch.setattr(cli, "read_design_csv", never)
    missing = str(tmp_path / "missing.csv")
    outcomes = []
    for argv in (
        ["simulate", "--model", "1a", "--n", "40", "--p", "10", "--reps", "1", "--threads", "0"],
        ["screen", missing, "--response-count", "1", "--threads", "0"],
        ["pcknockoff", missing, "--response-count", "1", "--threads", "-1"],
    ):
        code = cli_main(argv + ["--out", str(tmp_path / "out")])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes == [
        (2, "error: threads must be at least 1, got 0\n"),
        (2, "error: threads must be at least 1, got 0\n"),
        (2, "error: threads must be at least 1, got -1\n"),
    ]
    assert not (tmp_path / "out").exists()


def test_non_numeric_cell_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,apple\n")
    assert cli_main(["screen", str(path), "--response-count", "1"]) == 2
    assert "apple" in capsys.readouterr().err


def test_unknown_model_is_a_data_error(tmp_path, capsys):
    code = cli_main(
        [
            "simulate", "--model", "9z", "--n", "40", "--p", "10",
            "--reps", "1", "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "unknown model" in capsys.readouterr().err


def test_invalid_survivor_count_is_a_data_error(design_csv, tmp_path, capsys):
    code = cli_main(
        [
            "pcknockoff", str(design_csv), "--response-count", "1",
            "--n1", "50", "--d", "80", "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "2d" in capsys.readouterr().err


def _error_classes(cls=errors.PcScreenError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_family(design_csv, tmp_path, capsys, monkeypatch, error):
    # a failed knockoff solve is the program's fault; every other package
    # error is a fault of the input
    def fail(*args, **kwargs):
        raise error("synthetic", 0) if error is errors.DegenerateColumn else error("synthetic")

    monkeypatch.setattr(cli, "rank_features", fail)
    code = cli_main(["screen", str(design_csv), "--response-count", "1", "--out", str(tmp_path)])
    internal = error in (errors.SolverFailure, errors.InfeasibleH)
    assert code == (3 if internal else 2)
    assert capsys.readouterr().err == ("internal error" if internal else "error") + ": synthetic\n"


def test_unexpected_exception_is_an_internal_error(design_csv, tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(cli, "pc_knockoff", explode)
    code = cli_main(
        [
            "pcknockoff", str(design_csv), "--response-count", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 3
    assert "internal error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# screen subcommand
# ---------------------------------------------------------------------------


def test_screen_writes_ranking_and_gap_files(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 4))
    y = x[:, [2]]  # exact copy: feature x3 must rank first with omega 1
    path = tmp_path / "in.csv"
    write_design_csv(path, x, y)
    out = tmp_path / "out"
    code = cli_main(["screen", str(path), "--response-cols", "y1", "--out", str(out)])
    assert code == 0

    ranking_lines = (out / "ranking.csv").read_text().splitlines()
    assert ranking_lines[0] == "feature,omega_hat,rank"
    assert len(ranking_lines) == 5
    top_feature, top_omega, top_rank = ranking_lines[1].split(",")
    assert top_feature == "x3"
    assert float(top_omega) == pytest.approx(1.0)
    assert top_rank == "1"

    gap_lines = (out / "gaps.csv").read_text().splitlines()
    assert gap_lines[0] == "rank,omega_hat,gap"
    assert len(gap_lines) == 4  # p - 1 diagnostic rows


def test_screen_quotes_feature_names_that_need_it(tmp_path):
    rng = np.random.default_rng(8)
    rows = [",".join(f"{v!r}" for v in row) for row in rng.standard_normal((20, 4)).tolist()]
    path = tmp_path / "named.csv"
    path.write_text("\n".join(['"dose, mg",b,"c ""q""",y', *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["screen", str(path), "--response-count", "1", "--out", str(out)]) == 0
    with open(out / "ranking.csv", newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    assert table[0] == ["feature", "omega_hat", "rank"]
    assert all(len(row) == 3 for row in table)
    assert sorted(row[0] for row in table[1:]) == sorted(["dose, mg", "b", 'c "q"'])


def test_screen_refuses_a_seed(design_csv, tmp_path, capsys):
    # screen draws no random numbers, so --seed is a usage error, not ignored
    out = tmp_path / "out"
    argv = ["screen", str(design_csv), "--response-count", "1", "--seed", "3", "--out", str(out)]
    assert cli_main(argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_screen_single_feature_emits_header_only_gaps(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 1))
    path = tmp_path / "one.csv"
    write_design_csv(path, x, rng.standard_normal((40, 1)))
    out = tmp_path / "out"
    assert cli_main(["screen", str(path), "--response-count", "1", "--out", str(out)]) == 0
    assert (out / "gaps.csv").read_text() == "rank,omega_hat,gap\n"


# ---------------------------------------------------------------------------
# pcknockoff subcommand
# ---------------------------------------------------------------------------


def test_pcknockoff_selection_schema(design_csv, tmp_path):
    out = tmp_path / "sel"
    code = cli_main(
        [
            "pcknockoff", str(design_csv), "--response-count", "1",
            "--alpha", "0.5", "--n1", "50", "--d", "6", "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "selection.json").read_text())
    assert set(payload) == {
        "alpha", "t_alpha", "selected", "fdp_hat", "survivors", "w", "diagnostics",
    }
    assert payload["alpha"] == 0.5
    assert len(payload["survivors"]) == 6
    assert set(payload["selected"]) <= set(payload["survivors"])
    assert [entry["feature"] for entry in payload["w"]] == payload["survivors"]
    assert all(abs(entry["w_hat"]) <= 2.0 for entry in payload["w"])
    diag = payload["diagnostics"]
    assert set(diag) == {"jitter", "clip", "fallback", "construction"}
    assert diag["construction"] in ("sdp", "equicorrelated")
    if payload["t_alpha"] is not None:
        assert payload["fdp_hat"] < 0.5


def test_pcknockoff_hands_only_its_given_setting_flags_to_pc_knockoff(
    design_csv, tmp_path, monkeypatch
):
    calls = []

    def spy(x, y, **kwargs):
        calls.append(kwargs)
        return pcscreen.pc_knockoff(x, y, **kwargs)

    monkeypatch.setattr(cli, "pc_knockoff", spy)
    out = tmp_path / "out"
    argv = ["pcknockoff", str(design_csv), "--response-count", "1", "--out", str(out)]
    assert cli_main(argv) == 0
    flags = ["--n1", "50", "--d", "4", "--construction", "equicorrelated"]
    assert cli_main(argv + flags) == 0
    payload = json.loads((out / "selection.json").read_text())
    # absent flags leave pc_knockoff's own defaults in force
    assert [sorted(kwargs) for kwargs in calls] == [
        ["alpha", "seed"], ["alpha", "construction", "d", "n1", "seed"]
    ]
    assert (calls[1]["n1"], calls[1]["d"], calls[1]["construction"]) == (50, 4, "equicorrelated")
    assert payload["diagnostics"]["construction"] == "equicorrelated"
    assert len(payload["survivors"]) == 4


def _constant_survivor_args(tmp_path):
    # features 5-7 carry the signal and survive; the one in the CSV column
    # x7 is constant on the rows of split 2
    x = generate_dataset(ModelSpec(id="1a", n=80, p=8), seed=0).x.copy()
    y = x[:, 5:].sum(axis=1)
    core = pcscreen.pc_knockoff_core(x, y, n1=30, d=3, seed=4)
    assert core.survivors == (5, 6, 7)
    x[core.split.split2, 6] = 2.5
    path = tmp_path / "flat.csv"
    write_design_csv(path, x, y)
    args = ["pcknockoff", str(path), "--response-count", "1", "--n1", "30", "--d", "3"]
    return args + ["--seed", "4"]


def test_pcknockoff_names_a_constant_survivor_by_its_header(tmp_path, capsys):
    assert cli_main(_constant_survivor_args(tmp_path) + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: feature 'x7' has zero variance in split 2\n"
    assert not (tmp_path / "out" / "selection.json").exists()


def test_pcknockoff_refuses_a_negative_seed_by_name(design_csv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["pcknockoff", str(design_csv), "--response-count", "1", "--seed", "-1"]
    assert cli_main(argv + ["--out", str(out)]) == 2
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_pcknockoff_runs_are_byte_identical(design_csv, tmp_path):
    args = [
        "pcknockoff", str(design_csv), "--response-count", "1",
        "--alpha", "0.3", "--n1", "50", "--d", "6", "--seed", "11",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "selection.json").read_bytes() == (out_b / "selection.json").read_bytes()


@pytest.mark.parametrize("alpha", [0.02, 0.5])
def test_pcknockoff_and_the_fdr_records_report_one_core_alike(tmp_path, alpha):
    # a one-replication FDR run and `pcknockoff` on its dataset, written out,
    # run the same core: they share every field the core and selection give
    seed, n1, d = 300, 40, 10
    data = generate_dataset(ModelSpec(id="4a", n=120, p=30), seed=seed)
    path = tmp_path / "design.csv"
    write_design_csv(path, data.x, data.y)
    args = ["pcknockoff", str(path), "--response-count", "1", "--seed", str(seed)]
    args += ["--n1", str(n1), "--d", str(d), "--alpha", str(alpha), "--out", str(tmp_path)]
    assert cli_main(args) == 0
    payload = json.loads((tmp_path / "selection.json").read_text())
    config = harness.ExperimentConfig(
        models=("4a",), n=120, p=30, replications=1, alphas=(alpha,), n1=n1, d=d, base_seed=seed
    )
    (record,) = harness.run_fdr_experiment(config)[1]

    assert set(payload) == {
        "alpha", "t_alpha", "selected", "fdp_hat", "survivors", "w", "diagnostics",
    }
    assert set(payload["diagnostics"]) == {"jitter", "clip", "fallback", "construction"}
    assert set(record) == {
        "model", "seed", "clamp_events", "extreme_responses", "record", "screened_all",
        "jitter", "clip", "fallback", "alpha", "t_alpha", "selected", "fdp_hat",
        "n_selected", "empirical_fdp", "sure_screening", "event",
    }
    shared = ("alpha", "t_alpha", "fdp_hat")
    assert {key: payload[key] for key in shared} == {key: record[key] for key in shared}
    assert payload["selected"] == [f"x{j + 1}" for j in record["selected"]]
    diagnostics = ("jitter", "clip", "fallback")
    assert {key: payload["diagnostics"][key] for key in diagnostics} == {
        key: record[key] for key in diagnostics
    }
    assert (record["t_alpha"] is None) == (alpha == 0.02)


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------


def test_simulate_quantile_outputs(tmp_path):
    out = tmp_path / "sim"
    code = cli_main(
        [
            "simulate", "--model", "1a", "--n", "60", "--p", "15",
            "--reps", "3", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    summary = (out / "quantile_summary.csv").read_text().splitlines()
    assert summary[0] == "model,method,replications,q5,q25,q50,q75,q95"
    assert len(summary) == 3  # pc_screen + pearson_sis rows
    records = (out / "quantile_records.jsonl").read_text().splitlines()
    assert len(records) == 6
    assert all(json.loads(line)["model"] == "1a" for line in records)


def test_simulate_is_deterministic_across_runs(tmp_path):
    args = [
        "simulate", "--model", "1b", "--n", "50", "--p", "12",
        "--reps", "3", "--seed", "9",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    for name in ("quantile_summary.csv", "quantile_records.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_requires_core_dimensions(tmp_path, capsys):
    assert cli_main(["simulate", "--model", "1a", "--out", str(tmp_path)]) == 1
    assert "--n, --p and --reps" in capsys.readouterr().err
    assert cli_main(["simulate", "--n", "50", "--p", "10", "--reps", "2"]) == 1
    assert "--model is required" in capsys.readouterr().err


def test_simulate_config_file_with_flag_override(tmp_path):
    config = {
        "kind": "fdr",
        "model": "4a",
        "n": 120,
        "p": 30,
        "reps": 2,
        "alphas": [0.5],
        "n1": 40,
        "d": 10,
        "seed": 4,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))

    out_plain = tmp_path / "plain"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_plain)]) == 0
    summary = (out_plain / "fdr_summary.csv").read_text().splitlines()
    assert summary[1].startswith("4a,0.5,2,")

    # the --reps flag overrides the file value
    out_over = tmp_path / "override"
    code = cli_main(
        ["simulate", "--config", str(cfg_path), "--reps", "3", "--out", str(out_over)]
    )
    assert code == 0
    assert (out_over / "fdr_summary.csv").read_text().splitlines()[1].startswith("4a,0.5,3,")


# one value of every setting that has a flag: its flag text and its config-file value
_SETTING_VALUES = {
    "model": ("1b,1c", ["1b", "1c"]),
    "n": ("50", 50),
    "p": ("12", 12),
    "reps": ("2", 2),
    "rho": ("0.3", 0.3),
    "s": ("2", 2),
    "methods": ("pc_screen", ["pc_screen"]),
    "levels": ("10,90", [10, 90]),
    "alphas": ("0.1,0.3", [0.1, 0.3]),
    "n1": ("15", 15),
    "d": ("5", 5),
    "construction": ("equicorrelated", "equicorrelated"),
}


@pytest.mark.parametrize("key", [key for key, entry in cli._FIELDS.items() if entry[2]])
def test_simulate_flag_and_config_key_build_the_same_config(tmp_path, captured_runs, key):
    flag, value = _SETTING_VALUES[key]
    base = {"model": "1a", "n": 40, "p": 10, "reps": 1, "out": str(tmp_path / "out")}
    for name, cfg, argv in (
        ("base", base, []),
        ("flag", base, [f"--{key}", flag]),
        ("file", {**base, key: value}, []),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["simulate", "--config", str(cfg_path), *argv]) == 0
    [(_, default), (_, by_flag), (_, by_file)] = captured_runs
    assert by_flag == by_file != default


def test_simulate_config_file_errors(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli_main(["simulate", "--config", str(bad_json)]) == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert cli_main(["simulate", "--config", str(not_object)]) == 2

    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"model": "1a", "bogus": 1}))
    assert cli_main(["simulate", "--config", str(unknown_key)]) == 2
    assert "unknown keys" in capsys.readouterr().err

    assert cli_main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("alphas", 0.2), ("n", "forty"), ("n", 40.5), ("reps", True), ("levels", ["high"]),
        ("d", [3]), ("rho", None), ("out", None), ("out", 5),
    ],
)
def test_simulate_config_value_of_a_wrong_type_is_a_data_error(
    tmp_path, monkeypatch, capsys, key, value
):
    monkeypatch.chdir(tmp_path)
    config = {"model": "1a", "n": 40, "p": 10, "reps": 1, "out": "out", key: value}
    Path("run.json").write_text(json.dumps(config))
    assert cli_main(["simulate", "--config", "run.json"]) == 2
    assert f"setting '{key}' has an invalid value" in capsys.readouterr().err
    assert os.listdir() == ["run.json"]


def test_rejected_simulate_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["simulate", "--model", "1a", "--out", str(out)]) == 1
    # the phase transition is in the fdr summary; "phase" is no kind
    argv = ["simulate", "--kind", "phase", "--model", "4a", "--n", "40", "--p", "10"]
    assert cli_main(argv + ["--reps", "1", "--out", str(out)]) == 1
    assert "invalid choice: 'phase'" in capsys.readouterr().err
    for settings, message in (
        ({"kind": "bogus"}, "unknown experiment kind 'bogus'"),
        ({"kind": "phase", "model": "4a"}, "unknown experiment kind 'phase'"),
        ({"kind": "fdr", "model": "4a", "construction": "sdpp"}, "unknown construction 'sdpp'"),
        ({"kind": "fdr", "model": "4a", "alphas": ""}, "alphas must not be empty"),
        ({"methods": []}, "methods must not be empty"),
        ({"levels": ""}, "quantile_levels must not be empty"),
        # refused at construction
        ({"kind": "fdr", "model": "4a", "n1": 1}, "need 2 <= n1 <= n - 2"),
    ):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model": "1a", "n": 40, "p": 10, "reps": 1, **settings}))
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists(), settings
    # screen and pcknockoff create theirs only once the run has succeeded
    missing = str(tmp_path / "missing.csv")
    for args in (
        ["screen", missing, "--response-count", "1"],
        ["pcknockoff", missing, "--response-count", "1"],
        _constant_survivor_args(tmp_path),
    ):
        assert cli_main(args + ["--out", str(out)]) == 2, args
        assert not out.exists(), args


def test_simulate_refuses_a_negative_seed_before_any_replication(tmp_path, capsys, monkeypatch):
    def never(args):
        raise AssertionError("a replication ran before the seed was checked")

    monkeypatch.setattr(harness, "_replicate", never)
    out = tmp_path / "out"
    argv = ["simulate", "--kind", "fdr", "--model", "4a", "--n", "40", "--p", "10"]
    assert cli_main(argv + ["--reps", "1", "--seed", "-1", "--out", str(out)]) == 2
    assert "base_seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# reproduce subcommand
# ---------------------------------------------------------------------------


def test_reproduce_quantile_preset_with_overrides(tmp_path):
    out = tmp_path / "t3"
    code = cli_main(
        [
            "reproduce", "--table", "3", "--models", "3a", "--reps", "2",
            "--n", "60", "--p", "12", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    summary = (out / "table3_desk_summary.csv").read_text().splitlines()
    assert len(summary) == 2  # bivariate response: pc_screen row only
    assert summary[1].startswith("3a,pc_screen,2,")


def test_reproduce_fdr_preset_with_overrides(tmp_path):
    out = tmp_path / "t4"
    code = cli_main(
        [
            "reproduce", "--table", "4", "--models", "4a", "--reps", "2",
            "--n", "120", "--p", "30", "--alphas", "0.5", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = (out / "table4_desk_summary.csv").read_text().splitlines()
    assert summary[1].startswith("4a,0.5,2,")
    records = (out / "table4_desk_records.jsonl").read_text().splitlines()
    assert len(records) == 2


@pytest.fixture()
def captured_runs(monkeypatch):
    """Replace the experiment runners by one that records (kind, config)."""
    runs = []
    for kind in ("quantile", "fdr"):
        def capture(config, kind=kind):
            runs.append((kind, config))
            return SummaryTable(columns=(), rows=()), []

        monkeypatch.setitem(cli._RUNNERS, kind, capture)
    return runs


_TABLE_MODELS = {
    1: ("1a", "1b", "1c", "1d", "1e", "1f"),
    3: ("3a", "3b"),
    4: ("4a", "4b", "4c", "4d", "4e"),
}
_TABLE_ALPHAS = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


@pytest.mark.parametrize(
    ("table", "scale", "kind", "n", "p", "reps", "n1", "d", "alphas"),
    [
        (1, "desk", "quantile", 100, 1000, 100, None, None, (0.2,)),
        (1, "paper", "quantile", 100, 5000, 200, None, None, (0.2,)),
        (3, "desk", "quantile", 100, 500, 100, None, None, (0.2,)),
        (3, "paper", "quantile", 100, 5000, 200, None, None, (0.2,)),
        (4, "desk", "fdr", 600, 1000, 100, 150, 50, _TABLE_ALPHAS),
        (4, "paper", "fdr", 1000, 5000, 200, 250, 100, _TABLE_ALPHAS),
    ],
)
def test_reproduce_presets(tmp_path, captured_runs, table, scale, kind, n, p, reps, n1, d, alphas):
    argv = ["reproduce", "--table", str(table), "--scale", scale, "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    [(got_kind, config)] = captured_runs
    assert got_kind == kind
    assert config.models == _TABLE_MODELS[table]
    assert (config.n, config.p, config.replications) == (n, p, reps)
    assert (config.n1, config.d) == (n1, d)
    assert config.alphas == alphas
    assert (config.base_seed, config.threads) == (0, 1)
    assert (tmp_path / f"table{table}_{scale}_summary.csv").exists()


def test_reproduce_n_override_clears_the_split_sizes(tmp_path, captured_runs):
    argv = ["reproduce", "--table", "4", "--n", "300", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    [(_, config)] = captured_runs
    assert (config.n, config.p, config.replications) == (300, 1000, 100)
    assert (config.n1, config.d) == (None, None)


def test_reproduce_ignores_alphas_for_quantile_tables(tmp_path, captured_runs):
    argv = ["reproduce", "--table", "1", "--alphas", "0.05,0.5", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    argv = ["reproduce", "--table", "4", "--alphas", "0.05,0.5", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    assert [config.alphas for _, config in captured_runs] == [(0.2,), (0.05, 0.5)]


def test_reproduce_reads_model_ids_as_simulate_does(tmp_path, captured_runs):
    argv = ["reproduce", "--table", "4", "--models", "4A,4.c", "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    [(_, config)] = captured_runs
    assert config.models == ("4a", "4c")


def test_reproduce_rejects_models_outside_the_table(tmp_path, capsys):
    code = cli_main(
        ["reproduce", "--table", "1", "--models", "4a", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "not part of table 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# start-up and the public surface
# ---------------------------------------------------------------------------


def test_import_loads_neither_scipy_nor_a_process_pool():
    # every CLI call pays for what `import pcscreen` loads; the process pool
    # is imported only when a run asks for more than one worker
    src = str(Path(pcscreen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, pcscreen; print(sorted(m for m in sys.modules if m.startswith("
        "('scipy', 'multiprocessing', 'concurrent.futures.process'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_public_names_resolve_once_and_omit_the_removed_ones():
    names = pcscreen.__all__
    assert [name for name in names if not hasattr(pcscreen, name)] == []
    assert len(names) == len(set(names))
    removed = {
        "ActiveSetEstimate",
        "estimate_active_count",
        "DEFAULT_ACTIVE_COUNT_GRID",
        "PcKnockoffReport",
        "estimate_fdp",
        "select_by_threshold",
        "angle_slice",
        "ar_covariance",
        "phase_transition_probabilities",
        "pcov_stats",
        "PcStats",
    }
    assert removed.isdisjoint(names)
    assert not any(hasattr(pcscreen, name) for name in removed)
    # the test-only functions left their modules too, not just the exports
    assert not hasattr(pcscreen.screening, "select_by_threshold")
    assert not hasattr(pcscreen.kernel, "angle_slice")
    assert not hasattr(pcscreen.kernel, "pcov_stats")
    assert not hasattr(pcscreen.kernel, "PcStats")
    assert not hasattr(pcscreen.models, "ar_covariance")
    assert not hasattr(pcscreen.fdr, "phase_transition_probabilities")
