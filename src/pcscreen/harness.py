"""Replicated experiment runners (minimum-model-size quantiles, and FDR
tables whose empty/partial selection rates show the phase transition over
alpha), per-replication JSON-lines records, the summary CSV writer, and
numeric design-matrix CSV ingestion."""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingColumn, NonNumericCell, ParseError, PcScreenError
from .fdr import check_alpha, empirical_fdp
from .kernel import _seed, _whole
from .models import ModelSpec, generate_dataset
from .pipeline import (
    DEFAULT_CONSTRUCTION, check_construction, core_diagnostics, pc_knockoff_core, selection_fields,
    selection_from_core, split_sizes,
)
from .placement import _cpus_but_this_one, cpus
from .screening import minimum_model_size, pearson_sis_rank, rank_features

QUANTILE_METHODS = ("pc_screen", "pearson_sis")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replicated experiment needs, seeds included.

    Replication r of every model uses seed ``base_seed + r``.  ``threads``
    caps the size of the one process pool that runs all (model, seed)
    replications of a run, one each, whatever the number of models; results
    are independent of the pool size.  They can depend on the BLAS thread
    count of the processes, which no setting here fixes.  Model ids are
    stored in canonical form (``"1A"`` becomes ``"1a"``), alphas, quantile
    levels and ``rho`` as floats, sizes and seeds (``s``, ``n1`` and ``d``
    included, when given) as ints (a fractional one is refused); an empty
    list, a repeated model, alpha or method and what ModelSpec, split_sizes,
    check_construction, check_alpha or nearest_rank_quantile's level rule
    refuse are refused, with the same messages.
    """

    models: tuple[str, ...]
    n: int
    p: int
    replications: int
    rho: float = 0.5
    s: int | None = None
    methods: tuple[str, ...] = QUANTILE_METHODS
    quantile_levels: tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0)
    alphas: tuple[float, ...] = (0.2,)
    n1: int | None = None
    d: int | None = None
    construction: str = DEFAULT_CONSTRUCTION
    base_seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not self.models:
            raise ValueError("at least one model id is required")
        specs = self.specs
        models = tuple(spec.id for spec in specs)
        if len(set(models)) != len(models):
            raise ValueError(f"repeated model id in {models}")
        object.__setattr__(self, "models", models)
        for name in ("n", "p", "rho", "s"):
            object.__setattr__(self, name, getattr(specs[0], name))
        if self.n1 is not None or self.d is not None:
            for name, size in zip(("n1", "d"), split_sizes(self.n, self.n1, self.d)):
                if getattr(self, name) is not None:
                    object.__setattr__(self, name, size)
        object.__setattr__(self, "replications", _whole(self.replications, "replications", 1))
        object.__setattr__(self, "base_seed", _seed(self.base_seed, "base_seed"))
        object.__setattr__(self, "threads", _whole(self.threads, "threads", 1))
        for name in ("methods", "quantile_levels", "alphas"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        levels = tuple(_quantile_level(q) for q in self.quantile_levels)
        object.__setattr__(self, "quantile_levels", levels)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("quantile levels must be strictly increasing")
        alphas = tuple(check_alpha(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(set(alphas)) != len(alphas):
            raise ValueError(f"repeated alpha level in {alphas}")
        unknown = set(self.methods) - set(QUANTILE_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; known: {QUANTILE_METHODS}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"repeated method in {self.methods}")
        check_construction(self.construction)

    @property
    def specs(self):
        return tuple(ModelSpec(mid, self.n, self.p, self.rho, self.s) for mid in self.models)


@dataclass(frozen=True)
class SummaryTable:
    """A replicated summary: its CSV header and one tuple per row, in the
    order of ``columns``."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _quantile_level(level):
    """``level`` as a float, refused unless it lies in (0, 100)."""
    level = float(level)
    if not 0.0 < level < 100.0:
        raise ValueError(f"quantile level must lie in (0, 100), got {level}")
    return level


def nearest_rank_quantile(values, level):
    """Nearest-rank empirical quantile: sorted[ceil(level/100 * N) - 1]."""
    level = _quantile_level(level)
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take a quantile of no values")
    # level * N first: integer-valued products stay exact in float arithmetic
    idx = math.ceil(level * len(ordered) / 100.0) - 1
    return ordered[max(0, min(idx, len(ordered) - 1))]


def _quantile_records(data, seed, config):
    """One replication's minimum model size under each ranking method."""
    records = []
    for method in config.methods:
        if method == "pc_screen":
            ranking = rank_features(data.x, data.y)
        elif data.y.shape[1] > 1:
            continue  # Pearson ranking cannot score a multivariate response
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


def _fdr_records(data, seed, config):
    """One replication's knockoff selection at each alpha."""
    core = pc_knockoff_core(
        data.x, data.y, n1=config.n1, d=config.d, construction=config.construction, seed=seed
    )
    active = set(data.true_active)
    screened_all = active.issubset(core.survivors)
    replication = {"record": "fdr", "screened_all": screened_all, **core_diagnostics(core)}
    records = []
    for alpha in config.alphas:
        fields = selection_fields(selection_from_core(core, alpha))
        selected = fields["selected"]
        sure = active.issubset(selected)
        records.append(
            {
                **replication,
                **fields,
                "n_selected": len(selected),
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
        return [{**replication, **record} for record in build(data, seed, config)]
    except (PcScreenError, ValueError) as exc:
        exc.args = (f"replication seed {seed} ({spec.id}): {exc}",)
        raise


def _run_replications(build, config):
    """``build``'s records of every (model, seed) pair of a run, in (model,
    seed) order, from one pool of min(``config.threads``, pairs) processes
    (at one, from this process).  The pool starts all its workers at its
    first task, so it is never larger than the run.  Each worker keeps to
    its own share of this process's CPUs (:func:`_take_share`), so two
    workers are not left on one CPU and a worker's kernel threads do not
    crowd another's."""
    argses = [
        (build, spec, config.base_seed + r, config)
        for spec in config.specs
        for r in range(config.replications)
    ]
    workers = min(config.threads, len(argses))
    if workers > 1:
        # imported here: a serial run never loads the process pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context()
        initargs = (sorted(cpus()), workers, context.Value("i", 0))
        with ProcessPoolExecutor(workers, context, _take_share, initargs) as pool:
            results = list(pool.map(_replicate, argses))
    else:
        results = [_replicate(args) for args in argses]
    return [record for result in results for record in result]


def _take_share(cpus, workers, started):
    """A pool worker's initializer: keep to share i of the ``cpus`` of the
    pool's parent, i the count of workers ``started`` before this one; with
    more workers than CPUs, each share is one CPU.  A placement hint: where
    the mask cannot be set, the worker runs where it is."""
    with started.get_lock():
        index = started.value % workers
        started.value += 1
    first = index * len(cpus) // workers
    share = cpus[first : max((index + 1) * len(cpus) // workers, first + 1)]
    if share:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, share)


def _summarize(records, keys, columns):
    """A SummaryTable of ``records`` grouped by ``keys``, one row per group in
    the order of its first record: the key values, ``replications`` (the
    group's size), then ``column(group)`` for each entry of ``columns``."""
    groups = {}
    for rec in records:
        groups.setdefault(tuple(rec[key] for key in keys), []).append(rec)
    rows = tuple(
        (*key, len(group), *(column(group) for column in columns.values()))
        for key, group in groups.items()
    )
    return SummaryTable(columns=(*keys, "replications", *columns), rows=rows)


def _mean(value):
    """A column: the mean of ``value(record)`` over a group, summed in record
    order."""
    return lambda group: sum(value(rec) for rec in group) / len(group)


def run_quantile_experiment(config):
    """Minimum-model-size quantiles per (model, method) over replications.

    Pearson marginal ranking is skipped automatically for the multivariate-
    response models it cannot score.
    """
    columns = {
        f"q{level:g}": lambda group, level=level: nearest_rank_quantile(
            [rec["mms"] for rec in group], level
        )
        for level in config.quantile_levels
    }
    if len(columns) != len(config.quantile_levels):
        raise ValueError(f"quantile levels {config.quantile_levels} share a column name")
    records = _run_replications(_quantile_records, config)
    return _summarize(records, ("model", "method"), columns), records


def run_fdr_experiment(config):
    """Per-alpha selection size, sure-screening rate, empirical FDR, the
    rates of empty (e1) and partial (e3) selections and per-active selection
    frequencies, per (model, alpha) over replications.  Every model must be
    of the 4x family and the split sizes valid; both are checked first."""
    for mid in config.models:
        if mid[0] != "4":
            raise ValueError(f"FDR experiments are defined for the 4x model family, got {mid}")
    split_sizes(config.n, config.n1, config.d)
    records = _run_replications(_fdr_records, config)
    s = config.specs[0].active_count
    columns = {
        "mean_selected": _mean(lambda rec: rec["n_selected"]),
        "sure_screening_freq": _mean(lambda rec: rec["sure_screening"]),
        "empirical_fdr": _mean(lambda rec: rec["empirical_fdp"]),
        "e1_freq": _mean(lambda rec: rec["event"] == "e1"),
        "e3_freq": _mean(lambda rec: rec["event"] == "e3"),
        **{f"freq_X{j + 1}": _mean(lambda rec, j=j: j in rec["selected"]) for j in range(s)},
    }
    return _summarize(records, ("model", "alpha"), columns), records


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
    """Write a SummaryTable as CSV: its columns, then its rows (floats print
    as ``repr``)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        writer.writerows(table.rows)


@dataclass(frozen=True)
class DesignData:
    """A parsed numeric design: X/Y matrices plus their header names.

    ``read_design_csv`` gives x and y as C-ordered float64 arrays, which the
    kernel reads in place, without a copy.
    """

    x: np.ndarray
    y: np.ndarray
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]


def read_design_csv(path, response_columns, processes=1):
    """Parse a headed numeric CSV into (X, Y) by response names or count.

    ``response_columns`` is either a list of header names or a whole number
    k meaning the trailing k columns.  The file is one comma-separated header
    row, then one row per line of cells that are any spelling Python
    ``float()`` accepts, each optionally ``"``-quoted.  A blank line, a row
    of the wrong length and a cell that is not a finite number are errors
    that carry the 1-based row number (the header is row 1) and the column
    name.  The common case goes through numpy's C reader, line by line; a
    body that reader refuses, or might read otherwise than ``float()``, is
    read again row by row, which names the first fault in file order.  So is
    a body line that holds a CR other than the one before its LF (a CR-only
    file), an odd number of ``"`` or a byte in ``\\x1c``-``\\x1f``, and a
    header that spans lines.  Both convert cells with CPython's correctly
    rounded ``PyOS_string_to_double``, so the values do not depend on the path.

    The body is cut into min(``processes``, usable CPUs) byte ranges (one
    where there is no ``os.fork``), all but one parsed by children started
    with ``os.fork``, in a daemonic process too (see ``_read_body``); nothing
    forks at one range.  The values and errors never depend on ``processes``,
    a whole number of at least 1 by the one count rule (``kernel._whole``),
    checked before the file is opened.

    On every path x and y come back as C-ordered float64 arrays, which the
    kernel reads in place: a screen holds the design twice while it parses
    (the body and its x and y) and once while it scores.
    """
    processes = _whole(processes, "processes", 1)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"{path}: row 1: {exc}") from exc
        if first is None:
            raise ParseError(f"{path}: empty file (a header row is required)")
        header = [name.strip() for name in first]
        x_names, y_names = _split_header(path, header, response_columns)
        data = _read_body(path, len(header), processes) if reader.line_num == 1 else None
        if data is None:
            handle.seek(0)
            data = _read_rows(path, header, itertools.islice(csv.reader(handle), 1, None))
    column = {name: j for j, name in enumerate(header)}
    # np.take returns C order; data[:, cols] would return Fortran order,
    # which as_sample_matrix copies again
    x = np.take(data, [column[name] for name in x_names], axis=1)
    y = np.take(data, [column[name] for name in y_names], axis=1)
    return DesignData(x=x, y=y, x_names=tuple(x_names), y_names=tuple(y_names))


def _read_body(path, width, processes):
    """The body of the one-line-header CSV at ``path`` as ``_parse_range``
    reads it, or None where the row-wise reader must decide: a header that
    holds a lone CR (its binary line would hold a body row) or a refused or
    failed range.

    The body is cut into min(``processes``, usable CPUs) byte ranges, each
    cut moved forward to just past a newline; there is one range where
    ``os.fork`` does not exist.  One range is parsed in this process, which
    forks nothing.  Otherwise the parent forks one child per range but the
    last (in a daemonic process too) and parses the last itself; a child
    writes its rows' float64 bytes to a pipe and exits 0, or exits nonzero,
    a refusal.  Every pipe is read to EOF and every child waited for before
    this returns.  The children are forked, not spawned: a spawned child
    would import numpy again, which costs more than its range's parse.  Each
    child runs off the parent's CPU where Linux says which that is: a
    scheduler that left both on one CPU made the parse slower than one range.
    """
    mask = cpus()
    usable = len(mask) or os.cpu_count() or 1
    count = min(processes, usable) if hasattr(os, "fork") else 1
    with open(path, "rb") as raw:
        if _stray_cr(raw.readline()):
            return None
        cuts = [raw.tell()]
        size = os.fstat(raw.fileno()).st_size
        for k in range(1, count):
            raw.seek(cuts[0] + (size - cuts[0]) * k // count)
            raw.readline()
            cuts.append(raw.tell())
    ranges = [(start, end) for start, end in zip(cuts, cuts[1:] + [size]) if start < end]
    if len(ranges) < 2:
        return _parse_range(path, cuts[0], size, width)
    others = mask and _cpus_but_this_one(mask)
    reads, pids = [], []
    try:
        for start, end in ranges[:-1]:
            read, write = os.pipe()
            try:
                reads.append(open(read, "rb"))
                pids.append(os.fork())
                if pids[-1] == 0:  # the child, which never returns
                    _send_range(write, reads, others, path, start, end, width)
            finally:
                os.close(write)
        last = _parse_range(path, *ranges[-1], width)
        sent = [read.read() for read in reads]
    except OSError:  # no pipe or process could be made
        last = None
    finally:
        for read in reads:
            read.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if last is None or any(statuses):  # a child that exited nonzero refused its range
        return None
    parts = [np.frombuffer(data, np.float64).reshape(-1, width) for data in sent]
    return np.concatenate(parts + [last])


# numpy's reader strips these around a number; float() does not strip them
# from an ASCII string, and no cell that float() accepts holds one
_FLOAT_REFUSED_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _stray_cr(line):
    """Whether the bytes ``line`` hold a CR other than one just before its
    final LF."""
    cr = line.find(b"\r")
    return cr >= 0 and line[cr:] != b"\r\n"


def _parse_range(path, start, end, width):
    """The binary lines of bytes [start, end) of ``path``, each decoded as
    UTF-8 and fed to ``np.loadtxt``, as an (n, width) float64 array; or None
    where the row-wise reader must decide.  That is an empty range or one
    that starts with a blank line (numpy would warn of no data); a line that
    holds a CR other than the one before its LF, an odd number of ``"`` (a
    quoted line end, which may straddle a cut) or a byte of
    ``_FLOAT_REFUSED_BYTES``; a line that cannot be read or decoded or that
    numpy refuses; a shape other than one row of ``width`` per line (numpy
    skips blank lines); or a value that is not finite."""
    count = 0

    def lines(raw):
        nonlocal count
        left = end - start
        for line in raw:
            if (
                _stray_cr(line)
                or (b'"' in line and line.count(b'"') % 2)  # `in` is 10x faster than count
                or any(byte in line for byte in _FLOAT_REFUSED_BYTES)
                or (count == 0 and line in (b"\n", b"\r\n"))
            ):
                raise ValueError("a line for the row-wise reader")
            count += 1
            yield line.decode("utf-8")
            left -= len(line)
            if left <= 0:
                return

    if start >= end:
        return None
    try:
        with open(path, "rb") as raw:
            raw.seek(start)
            data = np.loadtxt(
                lines(raw), dtype=np.float64, delimiter=",", comments=None, quotechar='"', ndmin=2
            )
    except (OSError, ValueError):  # the row-wise read that follows reports it
        return None
    if data.shape != (count, width) or not np.isfinite(data).all():
        return None
    return data


def _send_range(write, reads, others, path, start, end, width):
    """A forked child's work, which it leaves only by ``os._exit``: write
    ``_parse_range``'s float64 bytes to the pipe end ``write`` and exit 0, or
    exit 1, which the parent reads as a refusal.  The child first closes its
    inherited read ends, so a parent that closes its own never leaves a child
    blocked on a full pipe, and moves to the CPUs ``others`` when they are
    given."""
    code = 1
    try:
        for read in reads:
            read.close()
        if others:
            with contextlib.suppress(OSError):  # a placement hint, not a condition
                os.sched_setaffinity(0, others)
        data = _parse_range(path, start, end, width)
        if data is not None:
            with open(write, "wb") as pipe:  # a buffered write writes all or raises
                pipe.write(data)
            code = 0
    finally:
        os._exit(code)  # also on an exception: the child never runs the parent's code


def _read_rows(path, header, reader):
    """The body rows of ``reader`` as a float64 array, converted one row at
    a time as csv yields them, so the cells never all exist as strings at
    once; float() converts each cell once, in file order.  Row
    ``len(rows) + 2`` is the one being read (the header is row 1)."""
    rows = []
    try:
        for i, row in enumerate(reader, 2):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            values = []
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise NonNumericCell(
                        f"{path}: row {i}, column {name!r}: non-numeric cell {cell!r}"
                    )
                values.append(value)
            rows.append(np.array(values))
    except csv.Error as exc:  # e.g. a quoted field past csv's field size limit
        raise ParseError(f"{path}: row {len(rows) + 2}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.stack(rows)


def _split_header(path, header, response_columns):
    """The (feature, response) column names of a header."""
    if len(set(header)) != len(header):
        raise ParseError(f"{path}: duplicate column names in header")
    if isinstance(response_columns, (numbers.Number, np.bool_)):
        count = _whole(response_columns, "trailing response count")
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


def write_design_csv(path, x, y, x_names=None, y_names=None):
    """Write (X, Y) as a headed CSV at 17 significant digits (round-trips
    doubles exactly).

    Raises DimensionMismatch, before the file is opened, when x and y differ
    in rows or a name list differs in length from its matrix's columns, and
    NonNumericCell, also before, at the first cell ``read_design_csv`` would
    refuse as not finite, with the row (the header is row 1) and column it names.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if x_names is None:
        x_names = [f"x{j + 1}" for j in range(x.shape[1])]
    if y_names is None:
        y_names = [f"y{j + 1}" for j in range(y.shape[1])]
    x_names, y_names = list(x_names), list(y_names)
    for side, names, matrix in (("x", x_names, x), ("y", y_names, y)):
        if len(names) != matrix.shape[1]:
            raise DimensionMismatch(
                f"{side} has {matrix.shape[1]} columns but {len(names)} names"
            )
    data = np.hstack([x, y])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        name = (x_names + y_names)[j]
        raise NonNumericCell(f"{path}: row {i + 2}, column {name!r}: non-finite cell {data[i, j]}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(x_names + y_names)
        np.savetxt(handle, data, fmt="%.17g", delimiter=",", newline="\r\n")
