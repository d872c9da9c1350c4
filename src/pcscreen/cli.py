"""Command-line front end: feature ranking, the full screen-then-select
pipeline, simulation experiments, and desk/paper-scale table presets.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable/invalid
input or argument values: every ``PcScreenError``, ``ValueError`` and
``OSError``), 3 internal error (a knockoff solver failure, an infeasible h
and any other exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .design import read_design_csv
from .errors import DegenerateColumn, InfeasibleH, ParseError, PcScreenError, SolverFailure
from .fdr import check_alpha
from .harness import (
    ExperimentConfig,
    SummaryTable,
    run_fdr_experiment,
    run_quantile_experiment,
    write_records_jsonl,
    write_summary_csv,
)
from .kernel import _seed, _whole
from .models import _canonical_id
from .pipeline import CONSTRUCTIONS, core_diagnostics, pc_knockoff, selection_fields
from .screening import rank_features, signal_gap_diagnostic

_TABLE_MODELS = {
    1: ("1a", "1b", "1c", "1d", "1e", "1f"),
    2: ("2a", "2b", "2c", "2d"),
    3: ("3a", "3b"),
    4: ("4a", "4b", "4c", "4d", "4e"),
}
_TABLE_ALPHAS = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)

_RUNNERS = {
    "quantile": run_quantile_experiment,
    "fdr": run_fdr_experiment,
}


class _UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _listed(value, convert):
    """A comma-separated flag value or a config-file list, as a tuple."""
    if isinstance(value, str):
        return tuple(convert(part.strip()) for part in value.split(",") if part.strip())
    return tuple(convert(v) for v in value)


def _optional_whole(value):
    """``_whole(value)``, or None for None."""
    return None if value is None else _whole(value)


# The settings of one experiment: the keys `simulate` reads from --config
# and its flags, and the form `reproduce` expands its table presets into.
# Each maps to the ExperimentConfig field it sets, the conversion of its
# value and the argparse keywords of its flag (None for seed and threads,
# whose flags the shared parent parsers add); a setting that is not given
# keeps the field's default.  Only s, n1 and d take null.  "kind" and "out"
# are not fields.
_FIELDS = {
    "model": ("models", lambda v: _listed(v, str), dict(help="comma-separated model ids")),
    "n": ("n", _whole, dict(type=int, help="sample size")),
    "p": ("p", _whole, dict(type=int, help="dimension")),
    "reps": ("replications", _whole, dict(type=int, help="replication count")),
    "rho": ("rho", float, dict(type=float)),
    "s": ("s", _optional_whole, dict(type=int, help="active-feature count override")),
    "methods": (
        "methods", lambda v: _listed(v, str), dict(help="comma-separated ranking methods")
    ),
    "levels": (
        "quantile_levels", lambda v: _listed(v, float), dict(help="comma-separated quantile levels")
    ),
    "alphas": ("alphas", lambda v: _listed(v, float), dict(help="comma-separated FDR levels")),
    "n1": ("n1", _optional_whole, dict(type=int, help="screening split size")),
    "d": ("d", _optional_whole, dict(type=int, help="screening survivor count")),
    "construction": (
        "construction", str, dict(choices=CONSTRUCTIONS, help="knockoff h construction")
    ),
    "seed": ("base_seed", _whole, None),
    "threads": ("threads", _whole, None),
}
_SETTINGS = ("kind", "out", *_FIELDS)
# the settings `reproduce` overrides in its presets, and those `pcknockoff` takes
_REPRODUCE_KEYS = ("n", "p", "reps", "alphas")
_PCKNOCKOFF_KEYS = ("n1", "d", "construction")


def _given(args, keys):
    """The settings among ``keys`` that were set on the command line (a key
    the command has no flag for is not set)."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _add_setting_flags(parser, keys):
    """Add the flag of each setting in ``keys``, as `_FIELDS` declares it."""
    for key in keys:
        parser.add_argument(f"--{key}", **_FIELDS[key][2])


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="process count: the replication pool of simulate and reproduce, the "
        "CSV body parse of screen and pcknockoff; results never depend on it (default 1)",
    )
    common.add_argument("--out", default=None, help="output directory (default .)")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")

    design = argparse.ArgumentParser(add_help=False)
    design.add_argument("data", help="input CSV with a header row")
    design.add_argument("--response-cols", default=None, help="comma-separated response names")
    design.add_argument(
        "--response-count", type=int, default=None, help="number of trailing response columns"
    )

    parser = _Parser(prog="pcscreen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    screen = sub.add_parser(
        "screen", parents=[common, design], help="rank CSV features by projection correlation"
    )
    screen.set_defaults(func=_cmd_screen)

    knock = sub.add_parser(
        "pcknockoff", parents=[common, seeded, design], help="screen + knockoff selection on a CSV"
    )
    knock.add_argument("--alpha", type=float, default=0.2, help="target FDR level")
    _add_setting_flags(knock, _PCKNOCKOFF_KEYS)
    knock.set_defaults(func=_cmd_pcknockoff)

    sim = sub.add_parser(
        "simulate", parents=[common, seeded], help="run a replicated simulation experiment"
    )
    sim.add_argument("--config", default=None, help="JSON file of flag defaults")
    sim.add_argument("--kind", choices=tuple(_RUNNERS), default=None)
    _add_setting_flags(sim, [key for key, (_, _, flag) in _FIELDS.items() if flag])
    sim.set_defaults(func=_cmd_simulate)

    repro = sub.add_parser(
        "reproduce", parents=[common, seeded], help="run a built-in table preset"
    )
    repro.add_argument("--table", type=int, choices=(1, 2, 3, 4), required=True)
    repro.add_argument("--scale", choices=("paper", "desk"), default="desk")
    repro.add_argument("--models", default=None, help="restrict to these model ids")
    _add_setting_flags(repro, _REPRODUCE_KEYS)
    repro.set_defaults(func=_cmd_reproduce)

    return parser


def _output_dir(out):
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _response_spec(args):
    if args.response_cols is not None and args.response_count is not None:
        raise _UsageError("--response-cols and --response-count are mutually exclusive")
    if args.response_cols is not None:
        names = list(_listed(args.response_cols, str))
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


def _write_table(path, table):
    write_summary_csv(table, path)
    print(f"wrote {path}")


def _threads(args):
    """The checked ``--threads`` of a command that reads a CSV."""
    return _whole(1 if args.threads is None else args.threads, "threads", 1)


def _cmd_screen(args):
    response = _response_spec(args)
    design = read_design_csv(args.data, response, processes=_threads(args))
    ranking = rank_features(design.x, design.y)
    entries = enumerate(ranking.entries, start=1)
    rows = tuple((design.x_names[j], omega, rank) for rank, (j, omega) in entries)
    gaps = tuple(signal_gap_diagnostic(ranking)) if len(ranking) >= 2 else ()
    outdir = _output_dir(args.out or ".")
    _write_table(outdir / "ranking.csv", SummaryTable(("feature", "omega_hat", "rank"), rows))
    _write_table(outdir / "gaps.csv", SummaryTable(("rank", "omega_hat", "gap"), gaps))
    return 0


def _cmd_pcknockoff(args):
    response = _response_spec(args)
    check_alpha(args.alpha)
    seed = _seed(args.seed or 0)
    design = read_design_csv(args.data, response, processes=_threads(args))
    try:
        core, selection = pc_knockoff(
            design.x, design.y, alpha=args.alpha, seed=seed, **_given(args, _PCKNOCKOFF_KEYS)
        )
    except DegenerateColumn as exc:
        name = design.x_names[exc.column]
        raise DegenerateColumn(f"feature {name!r} has zero variance in split 2", name) from exc
    payload = {
        **selection_fields(selection),
        "selected": [design.x_names[j] for j in selection.selected],
        "survivors": [design.x_names[j] for j in core.survivors],
        "w": [{"feature": design.x_names[j], "w_hat": w} for j, w in core.w.entries],
        "diagnostics": {**core_diagnostics(core), "construction": core.construction_used},
    }
    outdir = _output_dir(args.out or ".")
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
    unknown = set(cfg) - set(_SETTINGS)
    if unknown:
        raise ParseError(f"config {path} has unknown keys: {sorted(unknown)}")
    return cfg


def _cmd_simulate(args):
    cfg = _load_config_file(args.config) if args.config else {}
    return _run_experiment({**cfg, **_given(args, _SETTINGS)})


def _table_preset(table, scale):
    """The settings of one `reproduce` table at one scale."""
    if table == 4:
        if scale == "paper":
            return dict(kind="fdr", n=1000, p=5000, reps=200, n1=250, d=100, alphas=_TABLE_ALPHAS)
        return dict(kind="fdr", n=600, p=1000, reps=100, n1=150, d=50, alphas=_TABLE_ALPHAS)
    if scale == "paper":
        return dict(kind="quantile", n=100, p=5000, reps=200)
    return dict(kind="quantile", n=100, p=500 if table == 3 else 1000, reps=100)


def _cmd_reproduce(args):
    table = int(args.table)
    models = _TABLE_MODELS[table]
    if args.models is not None:
        chosen = tuple(_canonical_id(m) for m in _listed(args.models, str))
        bad = [m for m in chosen if m not in models]
        if bad:
            raise ValueError(f"models {bad} are not part of table {table}")
        models = chosen
    settings = {**_table_preset(table, args.scale), "model": models}
    overrides = _given(args, _SETTINGS)
    if settings["kind"] == "quantile":
        overrides.pop("alphas", None)  # the quantile tables have no FDR levels
    if "n" in overrides:
        # overriding n invalidates the preset split sizes; fall back to the
        # pipeline defaults (n1 = ceil(n/4), d = min(floor(n2/2) - 1, 100))
        settings.update(n1=None, d=None)
    return _run_experiment({**settings, **overrides}, stem=f"table{table}_{args.scale}")


def _run_experiment(settings, stem=None):
    """Run the experiment that ``settings`` (keys of ``_SETTINGS``) describe
    and write its summary CSV and records as ``<stem>_*`` (stem: the kind)."""
    settings = {"kind": "quantile", "out": ".", **settings}
    if settings.get("model") is None:
        raise _UsageError("--model is required (or a config file with 'model')")
    if any(settings.get(key) is None for key in ("n", "p", "reps")):
        raise _UsageError("--n, --p and --reps are required (or config values)")

    def value(key, convert):
        try:
            return convert(settings[key])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"setting {key!r} has an invalid value {settings[key]!r}") from exc

    config = ExperimentConfig(
        **{
            field: value(key, convert)
            for key, (field, convert, _) in _FIELDS.items()
            if key in settings
        }
    )
    kind = settings["kind"]
    runner = _RUNNERS.get(kind) if isinstance(kind, str) else None
    if runner is None:
        raise ValueError(f"unknown experiment kind {kind!r}")
    out = value("out", Path)
    table, records = runner(config)
    outdir = _output_dir(out)
    stem = stem or kind
    records_path = outdir / f"{stem}_records.jsonl"
    _write_table(outdir / f"{stem}_summary.csv", table)
    write_records_jsonl(records, records_path)
    print(f"wrote {records_path}")
    return 0


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help exits itself
        return 0 if not exc.code else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SolverFailure, InfeasibleH) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (PcScreenError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(cli_main())
