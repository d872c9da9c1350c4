"""Replicated experiment runners (minimum-model-size quantiles, FDR tables,
phase-transition sweeps), per-replication JSON-lines records, summary CSV
writers, and numeric design-matrix CSV ingestion."""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import MissingColumn, NonNumericCell, ParseError, PcScreenError
from .fdr import empirical_fdp
from .models import ModelSpec, _canonical_id, generate_dataset
from .pipeline import pc_knockoff_core, selection_from_core
from .screening import minimum_model_size, pearson_sis_rank, rank_features

DEFAULT_QUANTILE_LEVELS = (5.0, 25.0, 50.0, 75.0, 95.0)
QUANTILE_METHODS = ("pc_screen", "pearson_sis")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replicated experiment needs, seeds included.

    Replication r uses seed ``base_seed + r``; ``threads`` is the size of the
    process pool that runs replications, one each (within-replication work
    is single-threaded, so results are independent of the pool size).
    """

    models: tuple[str, ...]
    n: int
    p: int
    replications: int
    rho: float = 0.5
    s: int | None = None
    methods: tuple[str, ...] = QUANTILE_METHODS
    quantile_levels: tuple[float, ...] = DEFAULT_QUANTILE_LEVELS
    alphas: tuple[float, ...] = (0.2,)
    n1: int | None = None
    d: int | None = None
    construction: str = "sdp"
    base_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.models:
            raise ValueError("at least one model id is required")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        levels = tuple(float(q) for q in self.quantile_levels)
        if any(not 0.0 < q < 100.0 for q in levels):
            raise ValueError(f"quantile levels must lie in (0, 100), got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("quantile levels must be strictly increasing")
        if any(not 0.0 < a <= 1.0 for a in self.alphas):
            raise ValueError(f"alpha levels must lie in (0, 1], got {self.alphas}")
        unknown = set(self.methods) - set(QUANTILE_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; known: {QUANTILE_METHODS}")


@dataclass(frozen=True)
class QuantileRow:
    model: str
    method: str
    replications: int
    quantiles: tuple[float, ...]


@dataclass(frozen=True)
class QuantileTable:
    """Minimum-model-size quantiles per (model, method)."""

    levels: tuple[float, ...]
    rows: tuple[QuantileRow, ...]
    base_seed: int


@dataclass(frozen=True)
class FdrRow:
    model: str
    alpha: float
    replications: int
    mean_selected: float
    sure_screening_freq: float
    empirical_fdr: float
    active_selection_freq: tuple[float, ...]


@dataclass(frozen=True)
class FdrTable:
    """Per-alpha selection size, per-active frequencies, sure-screening rate,
    and empirical FDR."""

    rows: tuple[FdrRow, ...]
    base_seed: int


@dataclass(frozen=True)
class PhaseRow:
    model: str
    alpha: float
    replications: int
    e1_freq: float
    e2_freq: float
    e3_freq: float


@dataclass(frozen=True)
class PhaseTable:
    """Per-alpha frequencies of empty (E1), sure-screening (E2), and other
    (E3) selection outcomes; each row's frequencies sum to 1."""

    rows: tuple[PhaseRow, ...]
    base_seed: int


def nearest_rank_quantile(values, level):
    """Nearest-rank empirical quantile: sorted[ceil(level/100 * N) - 1]."""
    level = float(level)
    if not 0.0 < level < 100.0:
        raise ValueError(f"quantile level must lie in (0, 100), got {level}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take a quantile of no values")
    # level * N first: integer-valued products stay exact in float arithmetic
    idx = math.ceil(level * len(ordered) / 100.0) - 1
    return ordered[max(0, min(idx, len(ordered) - 1))]


def _quantile_replication(args):
    spec, seed, methods = args
    try:
        data = generate_dataset(spec, seed)
        out = {}
        for method in methods:
            if method == "pc_screen":
                ranking = rank_features(data.x, data.y)
            else:
                ranking = pearson_sis_rank(data.x, data.y)
            out[method] = int(minimum_model_size(ranking, data.true_active))
        return out
    except (PcScreenError, ValueError) as exc:
        exc.args = (f"replication seed {seed} ({spec.id}): {exc}",)
        raise


def _fdr_replication(args):
    spec, seed, alphas, n1, d, construction = args
    try:
        data = generate_dataset(spec, seed)
        core = pc_knockoff_core(
            data.x, data.y, n1=n1, d=d, construction=construction, seed=seed
        )
        active = set(data.true_active)
        screened_all = active.issubset(core.survivors)
        records = []
        for alpha in alphas:
            report = selection_from_core(core, alpha)
            selected = sorted(report.selection.selected)
            sure = active.issubset(selected)
            if not selected:
                event = "e1"
            elif sure:
                event = "e2"
            else:
                event = "e3"
            t_alpha = report.selection.t_alpha
            records.append(
                {
                    "record": "fdr",
                    "model": spec.id,
                    "seed": int(seed),
                    "alpha": float(alpha),
                    "n_selected": len(selected),
                    "selected": selected,
                    "t_alpha": None if math.isinf(t_alpha) else float(t_alpha),
                    "fdp_hat": float(report.selection.fdp_hat),
                    "empirical_fdp": empirical_fdp(selected, active),
                    "sure_screening": sure,
                    "event": event,
                    "screened_all": screened_all,
                    "fallback": report.fallback_flag,
                }
            )
        return records
    except (PcScreenError, ValueError) as exc:
        exc.args = (f"replication seed {seed} ({spec.id}): {exc}",)
        raise


def _map_replications(worker, argses, threads):
    if threads and int(threads) > 1:
        with ProcessPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(worker, argses))
    return [worker(a) for a in argses]


def _model_specs(config):
    return [
        ModelSpec(id=mid, n=config.n, p=config.p, rho=config.rho, s=config.s)
        for mid in config.models
    ]


def run_quantile_experiment(config):
    """Minimum-model-size quantiles per (model, method) over replications.

    Pearson marginal ranking is skipped automatically for the bivariate-
    response models it cannot score.
    """
    levels = tuple(float(q) for q in config.quantile_levels)
    rows = []
    records = []
    for spec in _model_specs(config):
        methods = tuple(
            m
            for m in config.methods
            if not (m == "pearson_sis" and spec.id in ("3a", "3b"))
        )
        argses = [(spec, config.base_seed + r, methods) for r in range(config.replications)]
        results = _map_replications(_quantile_replication, argses, config.threads)
        for r, result in enumerate(results):
            for method in methods:
                records.append(
                    {
                        "record": "quantile",
                        "model": spec.id,
                        "method": method,
                        "seed": int(config.base_seed + r),
                        "mms": result[method],
                        "n": config.n,
                        "p": config.p,
                    }
                )
        for method in methods:
            sizes = [result[method] for result in results]
            rows.append(
                QuantileRow(
                    model=spec.id,
                    method=method,
                    replications=config.replications,
                    quantiles=tuple(nearest_rank_quantile(sizes, q) for q in levels),
                )
            )
    table = QuantileTable(levels=levels, rows=tuple(rows), base_seed=config.base_seed)
    return table, records


def _run_fdr_records(config):
    records = []
    for spec in _model_specs(config):
        if spec.id[0] != "4":
            raise ValueError(
                f"FDR experiments are defined for the 4x model family, got {spec.id}"
            )
        argses = [
            (
                spec,
                config.base_seed + r,
                tuple(float(a) for a in config.alphas),
                config.n1,
                config.d,
                config.construction,
            )
            for r in range(config.replications)
        ]
        for result in _map_replications(_fdr_replication, argses, config.threads):
            records.extend(result)
    return records


def _group_fdr(records, config):
    grouped = {}
    for rec in records:
        grouped.setdefault((rec["model"], rec["alpha"]), []).append(rec)
    for mid in config.models:
        for alpha in config.alphas:
            key = (_canonical_id(mid), float(alpha))
            yield key[0], key[1], grouped[key]


def run_fdr_experiment(config):
    """Knockoff-selection summary per (model, alpha) over replications."""
    records = _run_fdr_records(config)
    s = ModelSpec(config.models[0], config.n, config.p, config.rho, config.s).active_count
    rows = []
    for mid, alpha, group in _group_fdr(records, config):
        reps = len(group)
        freq = tuple(
            sum(1 for rec in group if j in rec["selected"]) / reps for j in range(s)
        )
        rows.append(
            FdrRow(
                model=mid,
                alpha=alpha,
                replications=reps,
                mean_selected=sum(rec["n_selected"] for rec in group) / reps,
                sure_screening_freq=sum(rec["sure_screening"] for rec in group) / reps,
                empirical_fdr=sum(rec["empirical_fdp"] for rec in group) / reps,
                active_selection_freq=freq,
            )
        )
    return FdrTable(rows=tuple(rows), base_seed=config.base_seed), records


def run_phase_transition(config):
    """E1/E2/E3 outcome frequencies per (model, alpha) over replications."""
    records = _run_fdr_records(config)
    rows = []
    for mid, alpha, group in _group_fdr(records, config):
        reps = len(group)
        counts = {"e1": 0, "e2": 0, "e3": 0}
        for rec in group:
            counts[rec["event"]] += 1
        rows.append(
            PhaseRow(
                model=mid,
                alpha=alpha,
                replications=reps,
                e1_freq=counts["e1"] / reps,
                e2_freq=counts["e2"] / reps,
                e3_freq=counts["e3"] / reps,
            )
        )
    return PhaseTable(rows=tuple(rows), base_seed=config.base_seed), records


def _record_sort_key(record):
    return (
        record.get("record", ""),
        record.get("model", ""),
        record.get("seed", -1),
        record.get("alpha", -1.0),
        record.get("method", ""),
    )


def write_records_jsonl(records, path):
    """Persist per-replication records, deterministically sorted, one JSON
    object per line."""
    lines = [
        json.dumps(record, sort_keys=True)
        for record in sorted(records, key=_record_sort_key)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))


def write_quantile_csv(table, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["model", "method", "replications"]
            + [f"q{level:g}" for level in table.levels]
        )
        for row in table.rows:
            writer.writerow(
                [row.model, row.method, row.replications] + [repr(q) for q in row.quantiles]
            )


def write_fdr_csv(table, path):
    s = len(table.rows[0].active_selection_freq) if table.rows else 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "model",
                "alpha",
                "replications",
                "mean_selected",
                "sure_screening_freq",
                "empirical_fdr",
            ]
            + [f"freq_X{j + 1}" for j in range(s)]
        )
        for row in table.rows:
            writer.writerow(
                [
                    row.model,
                    repr(row.alpha),
                    row.replications,
                    repr(row.mean_selected),
                    repr(row.sure_screening_freq),
                    repr(row.empirical_fdr),
                ]
                + [repr(f) for f in row.active_selection_freq]
            )


def write_phase_csv(table, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["model", "alpha", "replications", "e1_freq", "e2_freq", "e3_freq"]
        )
        for row in table.rows:
            writer.writerow(
                [
                    row.model,
                    repr(row.alpha),
                    row.replications,
                    repr(row.e1_freq),
                    repr(row.e2_freq),
                    repr(row.e3_freq),
                ]
            )


@dataclass(frozen=True)
class DesignData:
    """A parsed numeric design: X/Y matrices plus their header names."""

    x: np.ndarray
    y: np.ndarray
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]


def read_design_csv(path, response_columns):
    """Parse a headed numeric CSV into (X, Y) by response names or count.

    ``response_columns`` is either a list of header names or an integer k
    meaning the trailing k columns.  Cells must be finite decimal numbers;
    errors carry 1-based row numbers (header is row 1) and column names.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file (a header row is required)")
    header = [name.strip() for name in rows[0]]
    if len(set(header)) != len(header):
        raise ParseError(f"{path}: duplicate column names in header")
    if isinstance(response_columns, int):
        count = response_columns
        if not 1 <= count < len(header):
            raise ParseError(
                f"{path}: trailing response count must be in [1, {len(header) - 1}], got {count}"
            )
        y_names = header[-count:]
    else:
        y_names = [str(name) for name in response_columns]
        for name in y_names:
            if name not in header:
                raise MissingColumn(f"{path}: response column {name!r} not in header {header}")
        if len(set(y_names)) != len(y_names):
            raise ParseError(f"{path}: repeated response column name")
    x_names = [name for name in header if name not in set(y_names)]
    if not x_names:
        raise ParseError(f"{path}: no feature columns left after removing responses")

    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: no data rows")
    # numpy parses a cell string exactly as float() does; the row-by-row walk
    # runs only to report the first bad row or cell
    try:
        data = np.array(body, dtype=np.float64)
    except ValueError:
        data = None
    if data is None or data.shape != (len(body), len(header)) or not np.all(np.isfinite(data)):
        _raise_first_bad_cell(path, header, body)
    column = {name: j for j, name in enumerate(header)}
    x = data[:, [column[name] for name in x_names]]
    y = data[:, [column[name] for name in y_names]]
    return DesignData(x=x, y=y, x_names=tuple(x_names), y_names=tuple(y_names))


def _raise_first_bad_cell(path, header, body):
    """Raise the error of the first bad row or cell, in file order."""
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise NonNumericCell(
                    f"{path}: row {i}, column {header[j]!r}: non-numeric cell {cell!r}"
                )
    raise AssertionError("no bad row or cell found")


def write_design_csv(path, x, y, x_names=None, y_names=None):
    """Write (X, Y) as a headed CSV at 17 significant digits (round-trips
    doubles exactly)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x_names is None:
        x_names = [f"x{j + 1}" for j in range(x.shape[1])]
    if y_names is None:
        y_names = [f"y{j + 1}" for j in range(y.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(x_names) + list(y_names))
        for i in range(x.shape[0]):
            writer.writerow(
                ["%.17g" % v for v in x[i]] + ["%.17g" % v for v in y[i]]
            )
