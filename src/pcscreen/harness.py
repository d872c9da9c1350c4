"""Replicated experiment runners (minimum-model-size quantiles, FDR tables,
phase-transition sweeps), per-replication JSON-lines records, the summary
CSV writer, and numeric design-matrix CSV ingestion."""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import astuple, dataclass

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

    Replication r of every model uses seed ``base_seed + r``.  ``threads``
    is the size of the one process pool that runs all (model, seed)
    replications of a run, one each, whatever the number of models; results
    are independent of the pool size.  They can depend on the BLAS thread
    count of the processes, which no setting here fixes.  Model ids are
    stored in canonical form (``"1A"`` becomes ``"1a"``); a repeated model,
    alpha or method is refused.
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
        models = tuple(_canonical_id(mid) for mid in self.models)
        if len(set(models)) != len(models):
            raise ValueError(f"repeated model id in {models}")
        object.__setattr__(self, "models", models)
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        levels = tuple(float(q) for q in self.quantile_levels)
        if any(not 0.0 < q < 100.0 for q in levels):
            raise ValueError(f"quantile levels must lie in (0, 100), got {levels}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("quantile levels must be strictly increasing")
        if any(not 0.0 < a <= 1.0 for a in self.alphas):
            raise ValueError(f"alpha levels must lie in (0, 1], got {self.alphas}")
        if len({float(a) for a in self.alphas}) != len(self.alphas):
            raise ValueError(f"repeated alpha level in {self.alphas}")
        unknown = set(self.methods) - set(QUANTILE_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; known: {QUANTILE_METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"repeated method in {self.methods}")


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

    @property
    def columns(self):
        return ("model", "method", "replications") + tuple(f"q{level:g}" for level in self.levels)


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

    @property
    def columns(self):
        s = len(self.rows[0].active_selection_freq) if self.rows else 0
        return (
            "model", "alpha", "replications", "mean_selected", "sure_screening_freq",
            "empirical_fdr",
        ) + tuple(f"freq_X{j + 1}" for j in range(s))


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

    columns = ("model", "alpha", "replications", "e1_freq", "e2_freq", "e3_freq")


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


def _quantile_records(data, spec, seed, config):
    """One replication's minimum model size under each ranking method."""
    records = []
    for method in config.methods:
        if method == "pc_screen":
            ranking = rank_features(data.x, data.y)
        elif spec.id in ("3a", "3b"):
            continue  # Pearson ranking cannot score a bivariate response
        else:
            ranking = pearson_sis_rank(data.x, data.y)
        records.append(
            {
                "record": "quantile",
                "method": method,
                "mms": int(minimum_model_size(ranking, data.true_active)),
                "n": config.n,
                "p": config.p,
            }
        )
    return records


def _fdr_records(data, spec, seed, config):
    """One replication's knockoff selection at each alpha."""
    core = pc_knockoff_core(
        data.x, data.y, n1=config.n1, d=config.d, construction=config.construction, seed=seed
    )
    active = set(data.true_active)
    replication = {
        "record": "fdr",
        "screened_all": active.issubset(core.survivors),
        "fallback": core.fallback_flag,
        "jitter": core.jitter_applied,
        "clip": core.clip_magnitude,
    }
    records = []
    for alpha in config.alphas:
        selection = selection_from_core(core, float(alpha)).selection
        selected = sorted(selection.selected)
        sure = active.issubset(selected)
        records.append(
            {
                **replication,
                "alpha": float(alpha),
                "n_selected": len(selected),
                "selected": selected,
                "t_alpha": None if math.isinf(selection.t_alpha) else float(selection.t_alpha),
                "fdp_hat": float(selection.fdp_hat),
                "empirical_fdp": empirical_fdp(selected, active),
                "sure_screening": sure,
                "event": "e1" if not selected else "e2" if sure else "e3",
            }
        )
    return records


def _replicate(args):
    """``build``'s records of one (model, seed) replication, each with the
    model, the seed and the generator's overflow tallies; a failure is
    prefixed with the seed and the model."""
    build, spec, seed, config = args
    try:
        data = generate_dataset(spec, seed)
        replication = {
            "model": spec.id,
            "seed": int(seed),
            "clamp_events": data.clamp_events,
            "extreme_responses": data.extreme_responses,
        }
        return [{**replication, **record} for record in build(data, spec, seed, config)]
    except (PcScreenError, ValueError) as exc:
        exc.args = (f"replication seed {seed} ({spec.id}): {exc}",)
        raise


def _run_replications(build, config):
    """``build``'s records of every (model, seed) pair of a run, in (model,
    seed) order, from one pool of ``config.threads`` processes (at one
    thread, from this process)."""
    argses = [
        (build, ModelSpec(mid, config.n, config.p, config.rho, config.s), config.base_seed + r, config)
        for mid in config.models
        for r in range(config.replications)
    ]
    if config.threads > 1:
        # imported here: a serial run never pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(_replicate, argses))
    else:
        results = [_replicate(args) for args in argses]
    return [record for result in results for record in result]


def _grouped(records, keys):
    """(key values, records) pairs, in the order of each group's first record."""
    groups = {}
    for rec in records:
        groups.setdefault(tuple(rec[key] for key in keys), []).append(rec)
    return groups.items()


def run_quantile_experiment(config):
    """Minimum-model-size quantiles per (model, method) over replications.

    Pearson marginal ranking is skipped automatically for the bivariate-
    response models it cannot score.
    """
    levels = tuple(float(q) for q in config.quantile_levels)
    records = _run_replications(_quantile_records, config)
    rows = tuple(
        QuantileRow(
            model=model,
            method=method,
            replications=len(group),
            quantiles=tuple(nearest_rank_quantile([r["mms"] for r in group], q) for q in levels),
        )
        for (model, method), group in _grouped(records, ("model", "method"))
    )
    return QuantileTable(levels=levels, rows=rows, base_seed=config.base_seed), records


def _fdr_groups(config):
    """The FDR records of a 4x-family run, grouped by (model, alpha), and the
    records; the family is checked before any replication runs."""
    for mid in config.models:
        if mid[0] != "4":
            raise ValueError(f"FDR experiments are defined for the 4x model family, got {mid}")
    records = _run_replications(_fdr_records, config)
    return _grouped(records, ("model", "alpha")), records


def run_fdr_experiment(config):
    """Knockoff-selection summary per (model, alpha) over replications."""
    groups, records = _fdr_groups(config)
    s = ModelSpec(config.models[0], config.n, config.p, config.rho, config.s).active_count
    rows = []
    for (mid, alpha), group in groups:
        reps = len(group)
        rows.append(
            FdrRow(
                model=mid,
                alpha=alpha,
                replications=reps,
                mean_selected=sum(rec["n_selected"] for rec in group) / reps,
                sure_screening_freq=sum(rec["sure_screening"] for rec in group) / reps,
                empirical_fdr=sum(rec["empirical_fdp"] for rec in group) / reps,
                active_selection_freq=tuple(
                    sum(1 for rec in group if j in rec["selected"]) / reps for j in range(s)
                ),
            )
        )
    return FdrTable(rows=tuple(rows), base_seed=config.base_seed), records


def run_phase_transition(config):
    """E1/E2/E3 outcome frequencies per (model, alpha) over replications."""
    groups, records = _fdr_groups(config)
    rows = []
    for (mid, alpha), group in groups:
        events = [rec["event"] for rec in group]
        freqs = (events.count(event) / len(events) for event in ("e1", "e2", "e3"))
        rows.append(PhaseRow(mid, alpha, len(events), *freqs))
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


def write_summary_csv(table, path):
    """Write a summary table as CSV: its columns, then one line per row, with
    tuple fields spread over their columns (floats print as ``repr``)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        for row in table.rows:
            cells = []
            for value in astuple(row):
                cells.extend(value if isinstance(value, tuple) else (value,))
            writer.writerow(cells)


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
    meaning the trailing k columns.  The file is one comma-separated header
    row, then one row per line of cells that are any spelling Python
    ``float()`` accepts, each optionally ``"``-quoted.  A blank line, a row
    of the wrong length and a cell that is not a finite number are errors
    that carry the 1-based row number (the header is row 1) and the column
    name.  The common case goes through numpy's C reader; a body that reader
    refuses, or might read otherwise than ``float()``, is read again row by
    row, which names the first fault in file order.  Both convert cells with
    CPython's correctly rounded ``PyOS_string_to_double``, so the values do
    not depend on the path.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise ParseError(f"{path}: empty file (a header row is required)")
        header = [name.strip() for name in first]
        x_names, y_names = _split_header(path, header, response_columns)
        data = _read_body(handle, len(header))
        if data is None:
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            data = _read_rows(path, header, reader)
    column = {name: j for j, name in enumerate(header)}
    x = data[:, [column[name] for name in x_names]]
    y = data[:, [column[name] for name in y_names]]
    return DesignData(x=x, y=y, x_names=tuple(x_names), y_names=tuple(y_names))


# numpy's reader strips these around a number; float() does not strip them
# from an ASCII string, and no cell that float() accepts holds one
_FLOAT_REFUSES = "\x1c\x1d\x1e\x1f"


def _read_body(handle, width):
    """The rest of ``handle`` as an (n, width) float64 array read by
    ``np.loadtxt``, or None where the row-wise reader must decide: an empty
    body or one that starts with a blank line (either would make numpy warn
    that there is no data), a line holding a character of
    ``_FLOAT_REFUSES``, a body numpy refuses, a shape other than one row of
    ``width`` per line (numpy skips blank lines and joins quoted newlines)
    or a value that is not finite."""
    first = next(handle, None)
    if first is None or first in ("\n", "\r\n", "\r"):
        return None
    count = 0

    def lines():
        nonlocal count
        for line in itertools.chain((first,), handle):
            if any(ch in line for ch in _FLOAT_REFUSES):
                raise ValueError("a cell float() refuses")
            count += 1
            yield line

    try:
        data = np.loadtxt(
            lines(), dtype=np.float64, delimiter=",", comments=None, quotechar='"', ndmin=2
        )
    except ValueError:
        return None
    if data.shape != (count, width) or not np.isfinite(data).all():
        return None
    return data


def _read_rows(path, header, reader):
    """The body rows of ``reader`` as a float64 array, converted one row at
    a time as csv yields them, so the cells never all exist as strings at
    once; numpy parses a cell string exactly as float() does."""
    rows = []
    for i, row in enumerate(reader, start=2):
        try:
            values = np.array(row, dtype=np.float64)
        except ValueError:
            values = None
        if values is None or values.shape != (len(header),) or not np.all(np.isfinite(values)):
            _raise_bad_row(path, header, i, row)
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.stack(rows)


def _split_header(path, header, response_columns):
    """The (feature, response) column names of a header."""
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
    responses = set(y_names)
    x_names = [name for name in header if name not in responses]
    if not x_names:
        raise ParseError(f"{path}: no feature columns left after removing responses")
    return x_names, y_names


def _raise_bad_row(path, header, i, row):
    """Raise the error of row i: its first bad cell, or its length."""
    if len(row) != len(header):
        raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
    for j, cell in enumerate(row):
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise NonNumericCell(
                f"{path}: row {i}, column {header[j]!r}: non-numeric cell {cell!r}"
            )
    raise AssertionError(f"row {i} has no bad cell")


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
