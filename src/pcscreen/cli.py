"""Command-line front end: feature ranking, the full screen-then-select
pipeline, simulation experiments, and desk/paper-scale table presets.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable/invalid
input or argument values), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    InputTooLarge,
    InvalidAlpha,
    InvalidSplit,
    MultivariateResponseUnsupported,
    ParseError,
    PcScreenError,
    UnknownFeature,
    UnknownModel,
)
from .harness import (
    DEFAULT_QUANTILE_LEVELS,
    ExperimentConfig,
    read_design_csv,
    run_fdr_experiment,
    run_phase_transition,
    run_quantile_experiment,
    write_fdr_csv,
    write_phase_csv,
    write_quantile_csv,
    write_records_jsonl,
)
from .pipeline import pc_knockoff
from .screening import rank_features, signal_gap_diagnostic

_DATA_ERRORS = (
    ParseError,
    DegenerateColumn,
    DimensionMismatch,
    InputTooLarge,
    InvalidAlpha,
    InvalidSplit,
    MultivariateResponseUnsupported,
    UnknownFeature,
    UnknownModel,
)

_TABLE_MODELS = {
    1: ("1a", "1b", "1c", "1d", "1e", "1f"),
    2: ("2a", "2b", "2c", "2d"),
    3: ("3a", "3b"),
    4: ("4a", "4b", "4c", "4d", "4e"),
}
_TABLE_ALPHAS = (0.10, 0.15, 0.20, 0.25, 0.30)


class _UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _comma_list(text, convert):
    return tuple(convert(part.strip()) for part in str(text).split(",") if part.strip())


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="replication process-pool size for simulate and reproduce; "
        "screen and pcknockoff ignore it (default 1)",
    )
    common.add_argument("--out", default=None, help="output directory (default .)")

    parser = _Parser(prog="pcscreen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    screen = sub.add_parser(
        "screen", parents=[common], help="rank CSV features by projection correlation"
    )
    screen.add_argument("data", help="input CSV with a header row")
    screen.add_argument("--response-cols", default=None, help="comma-separated response names")
    screen.add_argument(
        "--response-count", type=int, default=None, help="number of trailing response columns"
    )
    screen.set_defaults(func=_cmd_screen)

    knock = sub.add_parser(
        "pcknockoff", parents=[common], help="screen + knockoff selection on a CSV"
    )
    knock.add_argument("data", help="input CSV with a header row")
    knock.add_argument("--response-cols", default=None, help="comma-separated response names")
    knock.add_argument(
        "--response-count", type=int, default=None, help="number of trailing response columns"
    )
    knock.add_argument("--alpha", type=float, default=0.2, help="target FDR level")
    knock.add_argument("--n1", type=int, default=None, help="screening split size")
    knock.add_argument("--d", type=int, default=None, help="screening survivor count")
    knock.add_argument(
        "--construction",
        choices=("sdp", "equicorrelated"),
        default="sdp",
        help="knockoff h construction",
    )
    knock.set_defaults(func=_cmd_pcknockoff)

    sim = sub.add_parser(
        "simulate", parents=[common], help="run a replicated simulation experiment"
    )
    sim.add_argument("--config", default=None, help="JSON file of flag defaults")
    sim.add_argument("--kind", choices=("quantile", "fdr", "phase"), default=None)
    sim.add_argument("--model", default=None, help="comma-separated model ids")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--s", type=int, default=None, help="active-feature count override")
    sim.add_argument("--alphas", default=None, help="comma-separated FDR levels")
    sim.add_argument("--levels", default=None, help="comma-separated quantile levels")
    sim.add_argument("--methods", default=None, help="comma-separated ranking methods")
    sim.add_argument("--n1", type=int, default=None)
    sim.add_argument("--d", type=int, default=None)
    sim.add_argument("--construction", choices=("sdp", "equicorrelated"), default=None)
    sim.set_defaults(func=_cmd_simulate)

    repro = sub.add_parser(
        "reproduce", parents=[common], help="run a built-in table preset"
    )
    repro.add_argument("--table", type=int, choices=(1, 2, 3, 4), required=True)
    repro.add_argument("--scale", choices=("paper", "desk"), default="desk")
    repro.add_argument("--models", default=None, help="restrict to these model ids")
    repro.add_argument("--reps", type=int, default=None, help="override replication count")
    repro.add_argument("--n", type=int, default=None, help="override sample size")
    repro.add_argument("--p", type=int, default=None, help="override dimension")
    repro.add_argument("--alphas", default=None, help="override FDR levels (table 4)")
    repro.set_defaults(func=_cmd_reproduce)

    return parser


def _globals(args, cfg=None):
    cfg = cfg or {}
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    threads = args.threads if args.threads is not None else int(cfg.get("threads", 1))
    out = args.out if args.out is not None else cfg.get("out", ".")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return seed, threads, outdir


def _response_spec(args):
    if args.response_cols is not None and args.response_count is not None:
        raise _UsageError("--response-cols and --response-count are mutually exclusive")
    if args.response_cols is not None:
        names = list(_comma_list(args.response_cols, str))
        if not names:
            raise _UsageError("--response-cols is empty")
        return names
    if args.response_count is not None:
        return int(args.response_count)
    raise _UsageError("one of --response-cols / --response-count is required")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {path}")


def _cmd_screen(args):
    response = _response_spec(args)
    _, _, outdir = _globals(args)
    design = read_design_csv(args.data, response)
    ranking = rank_features(design.x, design.y)
    lines = ["feature,omega_hat,rank"]
    for rank, (j, omega) in enumerate(ranking.entries, start=1):
        lines.append(f"{design.x_names[j]},{omega!r},{rank}")
    _write_text(outdir / "ranking.csv", "\n".join(lines) + "\n")
    gap_lines = ["rank,omega_hat,gap"]
    if len(ranking) >= 2:
        for rank, omega, gap in signal_gap_diagnostic(ranking):
            gap_lines.append(f"{rank},{omega!r},{gap!r}")
    _write_text(outdir / "gaps.csv", "\n".join(gap_lines) + "\n")
    return 0


def _cmd_pcknockoff(args):
    response = _response_spec(args)
    seed, _, outdir = _globals(args)
    design = read_design_csv(args.data, response)
    report = pc_knockoff(
        design.x,
        design.y,
        alpha=args.alpha,
        n1=args.n1,
        d=args.d,
        construction=args.construction,
        seed=seed,
    )
    t_alpha = report.selection.t_alpha
    payload = {
        "alpha": report.selection.alpha,
        "t_alpha": None if t_alpha == float("inf") else t_alpha,
        "selected": [design.x_names[j] for j in report.selection.selected],
        "fdp_hat": report.selection.fdp_hat,
        "survivors": [design.x_names[j] for j in report.survivors],
        "w": [
            {"feature": design.x_names[j], "w_hat": w} for j, w in report.w.entries
        ],
        "diagnostics": {
            "jitter": report.jitter_applied,
            "clip": report.clip_magnitude,
            "fallback": report.fallback_flag,
            "construction": report.construction_used,
        },
    }
    _write_text(outdir / "selection.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError(f"config {path} must be a JSON object of flag values")
    known = {
        "kind", "model", "n", "p", "reps", "rho", "s", "alphas", "levels",
        "methods", "n1", "d", "construction", "seed", "threads", "out",
    }
    unknown = set(cfg) - known
    if unknown:
        raise ParseError(f"config {path} has unknown keys: {sorted(unknown)}")
    return cfg


def _pick(cli_value, cfg, key, default=None):
    if cli_value is not None:
        return cli_value
    return cfg.get(key, default)


def _as_id_tuple(value):
    if isinstance(value, str):
        return _comma_list(value, str)
    return tuple(str(v) for v in value)


def _cmd_simulate(args):
    cfg = _load_config_file(args.config) if args.config else {}
    seed, threads, outdir = _globals(args, cfg)
    kind = _pick(args.kind, cfg, "kind", "quantile")
    models = _pick(args.model, cfg, "model")
    if models is None:
        raise _UsageError("--model is required (or a config file with 'model')")
    n = _pick(args.n, cfg, "n")
    p = _pick(args.p, cfg, "p")
    reps = _pick(args.reps, cfg, "reps")
    if n is None or p is None or reps is None:
        raise _UsageError("--n, --p and --reps are required (or config values)")
    alphas = _pick(args.alphas, cfg, "alphas", (0.2,))
    if isinstance(alphas, str):
        alphas = _comma_list(alphas, float)
    levels = _pick(args.levels, cfg, "levels", DEFAULT_QUANTILE_LEVELS)
    if isinstance(levels, str):
        levels = _comma_list(levels, float)
    methods = _pick(args.methods, cfg, "methods", ("pc_screen", "pearson_sis"))
    if isinstance(methods, str):
        methods = _comma_list(methods, str)
    config = ExperimentConfig(
        models=_as_id_tuple(models),
        n=int(n),
        p=int(p),
        replications=int(reps),
        rho=float(_pick(args.rho, cfg, "rho", 0.5)),
        s=_pick(args.s, cfg, "s"),
        methods=tuple(methods),
        quantile_levels=tuple(float(q) for q in levels),
        alphas=tuple(float(a) for a in alphas),
        n1=_pick(args.n1, cfg, "n1"),
        d=_pick(args.d, cfg, "d"),
        construction=str(_pick(args.construction, cfg, "construction", "sdp")),
        base_seed=seed,
        threads=threads,
    )
    return _run_and_write(kind, config, outdir, stem=kind)


def _run_and_write(kind, config, outdir, stem):
    if kind == "quantile":
        table, records = run_quantile_experiment(config)
        writer = write_quantile_csv
    elif kind == "fdr":
        table, records = run_fdr_experiment(config)
        writer = write_fdr_csv
    elif kind == "phase":
        table, records = run_phase_transition(config)
        writer = write_phase_csv
    else:
        raise ValueError(f"unknown experiment kind {kind!r}")
    summary_path = outdir / f"{stem}_summary.csv"
    records_path = outdir / f"{stem}_records.jsonl"
    writer(table, summary_path)
    print(f"wrote {summary_path}")
    write_records_jsonl(records, records_path)
    print(f"wrote {records_path}")
    return 0


def _cmd_reproduce(args):
    seed, threads, outdir = _globals(args)
    table_no = int(args.table)
    scale = args.scale
    models = _TABLE_MODELS[table_no]
    if args.models is not None:
        chosen = _comma_list(args.models, str)
        bad = [m for m in chosen if m not in models]
        if bad:
            raise ValueError(f"models {bad} are not part of table {table_no}")
        models = chosen
    if table_no == 4:
        kind = "fdr"
        preset = (
            dict(n=1000, p=5000, reps=200, n1=250, d=100)
            if scale == "paper"
            else dict(n=600, p=1000, reps=100, n1=150, d=50)
        )
        alphas = (
            _comma_list(args.alphas, float) if args.alphas is not None else _TABLE_ALPHAS
        )
    else:
        kind = "quantile"
        if scale == "paper":
            preset = dict(n=100, p=5000, reps=200, n1=None, d=None)
        else:
            preset = dict(n=100, p=500 if table_no == 3 else 1000, reps=100, n1=None, d=None)
        alphas = (0.2,)
    # overriding n invalidates the preset split sizes; fall back to the
    # pipeline defaults (n1 = ceil(n/4), d = min(floor(n2/2) - 1, 100))
    n1, d = (None, None) if args.n is not None else (preset["n1"], preset["d"])
    config = ExperimentConfig(
        models=models,
        n=args.n if args.n is not None else preset["n"],
        p=args.p if args.p is not None else preset["p"],
        replications=args.reps if args.reps is not None else preset["reps"],
        alphas=tuple(alphas),
        n1=n1,
        d=d,
        base_seed=seed,
        threads=threads,
    )
    return _run_and_write(kind, config, outdir, stem=f"table{table_no}_{scale}")


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help exits itself
        return 0 if not exc.code else 1
    if getattr(args, "command", None) is None or not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PcScreenError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(cli_main())
