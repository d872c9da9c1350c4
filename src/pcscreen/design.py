"""The design file format: a UTF-8 CSV whose header row names the columns
(stripped, none repeated) and whose other rows hold one finite ``float()``
number per column, optionally ``"``-quoted; the response is named columns or
the trailing k.  ``write_design_csv`` writes what ``read_design_csv`` reads."""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingColumn, NonNumericCell, ParseError
from .kernel import _whole
from .placement import _cpus_but_this_one, cpus


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

    ``response_columns`` is one header name, a list of them or a whole
    number k meaning the trailing k columns.  The file is one comma-separated header
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


def _check_unique(path, header):
    """Refuse a header, as the reader strips it, that repeats a name."""
    if len(set(header)) != len(header):
        raise ParseError(f"{path}: duplicate column names in header")


def _split_header(path, header, response_columns):
    """The (feature, response) column names of a header; a string names one
    response column."""
    _check_unique(path, header)
    if isinstance(response_columns, (numbers.Number, np.bool_)):
        count = _whole(response_columns, "trailing response count")
        if not 1 <= count < len(header):
            raise ParseError(
                f"{path}: trailing response count must be in [1, {len(header) - 1}], got {count}"
            )
        y_names = header[-count:]
    else:
        names = [response_columns] if isinstance(response_columns, str) else response_columns
        y_names = [str(name) for name in names]
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
    in rows or a name list differs in length from its matrix's columns;
    ParseError, also before, at a header ``read_design_csv`` would refuse for
    a repeated name; and NonNumericCell, also before, at the first cell it
    would refuse as not finite, with the row (the header is row 1) and column
    it names.
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
    _check_unique(path, [str(name).strip() for name in x_names + y_names])
    data = np.hstack([x, y])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        name = (x_names + y_names)[j]
        raise NonNumericCell(f"{path}: row {i + 2}, column {name!r}: non-finite cell {data[i, j]}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(x_names + y_names)
        np.savetxt(handle, data, fmt="%.17g", delimiter=",", newline="\r\n")
