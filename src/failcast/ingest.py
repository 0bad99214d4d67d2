"""CSV parsing and validation for the five event datasets.

Each file is opened once and parsed into columns, giving one table per
dataset (see ``schema``); its bytes pass once through a reader that checks
them and may hash them.  A file in canonical form, such as every
``write_csv`` output, is parsed from that reader by numpy's C reader
(``np.loadtxt``).  Any other file goes to the block parser, which reads it
again with the csv module, strips whitespace around each cell and parses
cell by cell; it alone raises ``IngestError``, at the first malformed
cell.  Timestamps are rounded to the nearest hour (exact half rounds up).

After validation every row that a violation names is dropped: duplicate
telemetry or machine keys keep their first row, and rows referencing a
machine missing from (or dropped from) the machines dataset go.  Event
rows that share a (machine_id, hour) are kept as they are; the stream
join (``assemble``) ORs their flags.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import schema
from .schema import CSV_COLUMNS

BUNDLE_FILENAMES = {name: f"{name}.csv" for name in CSV_COLUMNS}

_INT64 = np.iinfo(np.int64)
_FIRST_DATETIME = np.datetime64(dt.datetime.min, "s")
# The C reader reads each flag and datetime cell as text one byte wider than
# a canonical cell, so that a longer cell shows instead of being cut.  Per
# dtype kind: that text dtype, then the lowest and highest byte at each place
# of a canonical cell, whose last byte is the NUL padding.
_TEXT_CELLS = {"b": ("S2", b"0\0", b"1\0"),
               "M": ("S20", b"0000-00-00 00:00:00\0", b"9999-99-99 99:99:99\0")}


class IngestError(Exception):
    """Structural parse failure with file, line and column context."""

    def __init__(self, path, line, column, message):
        self.path = str(path)
        self.line = line
        self.column = column
        super().__init__(f"{self.path}:{line}:{column}: {message}")


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """The five dataset tables, each a numpy record array."""

    telemetry: np.recarray
    errors: np.recarray
    maintenance: np.recarray
    failures: np.recarray
    machines: np.recarray


def round_to_hour(times):
    """Round datetime64 values to the nearest whole hour; the exact half
    hour rounds up.  The result has second resolution."""
    seconds = np.asarray(times, "datetime64[s]").astype(np.int64)
    return ((seconds + 1800) // 3600 * 3600).astype("datetime64[s]")


_CONVERTERS = {"i": int, "f": float, "b": {"0": False, "1": True}.__getitem__,
               "M": lambda text: dt.datetime.strptime(text, schema.DATETIME_FORMAT)}
_EXPECTED = {"i": "integer", "f": "number", "b": "0 or 1",
             "M": f"datetime {schema.DATETIME_FORMAT.replace('%', '')} style"}


def _parse_cell(text, kind, path, line, column):
    """The stripped cell ``text`` as a value of numpy dtype kind ``kind``
    ('i', 'f', 'b' or 'M').  A cell that does not convert, or an integer
    outside the int64 range, raises IngestError at file:line:column."""
    try:
        value = _CONVERTERS[kind](text)
    except (KeyError, ValueError):
        raise IngestError(path, line, column,
                          f"expected {_EXPECTED[kind]}, got {text!r}") from None
    if kind == "i" and not _INT64.min <= value <= _INT64.max:
        raise IngestError(path, line, column, f"integer out of range, got {text!r}")
    return value


def _canonical(column):
    """The cells of a table column as the strings written to CSV: flags as
    1 and 0, timestamps as ``YYYY-MM-DD HH:MM:SS`` (year zero-padded) and
    anything else as ``str``."""
    if column.dtype.kind == "b":
        return np.where(column, "1", "0").tolist()
    if column.dtype.kind == "M":
        return np.char.replace(np.datetime_as_string(column), "T", " ").tolist()
    return list(map(repr, column.tolist()))  # a number's str, but quicker to call


def _checked_lines(handle, digest):
    """The lines of the binary file ``handle`` as str without their newlines,
    a list for each chunk half the csv field limit long, each chunk fed to
    ``digest`` if there is one.  ValueError stops them at a chunk that holds
    a byte past ASCII or a NUL, or at a full chunk without a newline, which
    any line past the limit holds."""
    half, rest = max(csv.field_size_limit() // 2, 1), ""
    for chunk in iter(lambda: handle.read(half), b""):
        if digest is not None:
            digest.update(chunk)
        if b"\0" in chunk or (len(chunk) == half and b"\n" not in chunk):
            raise ValueError("not canonical")
        *lines, rest = (rest + chunk.decode("ascii")).split("\n")
        yield lines
    yield [rest]


def _read_canonical(handle, columns, digest=None):
    """The columns of the binary file ``handle``, read by numpy's C reader from
    ``_checked_lines``, or None unless the file is canonical: ASCII (decoded
    here, so loadtxt decodes nothing), the exact header, no NUL (a text cell
    loses trailing NULs), no quote, comment or line past the csv field limit
    (where the block parser stops), and flags and datetimes exactly as
    ``write_csv`` writes them.  The C reader reads every number there as
    Python does."""
    lines = itertools.chain.from_iterable(_checked_lines(handle, digest))
    types = {name: schema.column_type(name) for name in columns}
    read_as = [(name, _TEXT_CELLS[t.kind][0] if t.kind in _TEXT_CELLS else t)
               for name, t in types.items()]
    parsed = {}
    try:
        if next(lines, None) not in (",".join(columns), ",".join(columns) + "\r"):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = np.loadtxt(lines, read_as, delimiter=",", comments=None, quotechar=None,
                               ndmin=1)
            for name, t in types.items():
                parsed[name] = cells[name]
                if t.kind in _TEXT_CELLS:
                    low, high = (np.frombuffer(b, np.uint8) for b in _TEXT_CELLS[t.kind][1:])
                    chars = cells[name][:, None].view(np.uint8)  # a row of bytes per cell
                    step = schema.BLOCK_ROWS
                    blocks = np.split(chars, range(step, len(chars), step))
                    if not all(((block >= low) & (block <= high)).all() for block in blocks):
                        return None
                    # numpy rejects a date or time out of range, as strptime does.
                    parsed[name] = cells[name] == b"1" if t.kind == "b" else \
                        cells[name].astype(t)
    except (ValueError, Warning):
        return None
    if "datetime" in parsed and (parsed["datetime"] < _FIRST_DATETIME).any():
        return None  # year 0, which numpy reads and strptime does not
    return parsed


def _read_blocks(lines, columns) -> np.ndarray:
    """The block parser: the rows of the text file ``lines`` as a structured
    array, read by the csv module and parsed cell by cell, ``schema.BLOCK_ROWS``
    rows to a block.  Raises the first structural fault in file order: within
    a line a wrong field count comes before any cell, and cells are checked
    left to right.  A row's line is the physical line it starts on, which a
    quoted cell that holds a newline moves on."""
    path = lines.name
    dtype = np.dtype([(name, schema.column_type(name)) for name in columns])
    kinds = [dtype[name].kind for name in columns]
    blocks, rows = [], []
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError(path, 1, "-", "empty file, header row required")
        if tuple(header) != columns:
            missing = [c for c in columns if c not in header]
            detail = f"missing column(s) {missing}" if missing else f"got {header}"
            raise IngestError(path, 1, "-",
                              f"header must be {','.join(columns)}; {detail}")
        line = reader.line_num + 1
        for row in reader:
            if row and len(row) != len(columns):
                raise IngestError(path, line, "-",
                                  f"expected {len(columns)} fields, got {len(row)}")
            if row:
                rows.append(tuple([_parse_cell(cell.strip(), kind, path, line, name)
                                   for cell, kind, name in zip(row, kinds, columns)]))
            if len(rows) == schema.BLOCK_ROWS:
                blocks.append(np.array(rows, dtype))
                rows = []
            line = reader.line_num + 1
    except csv.Error as exc:  # such as a field past the field limit
        raise IngestError(path, reader.line_num, "-", str(exc)) from None
    return np.concatenate(blocks + [np.array(rows, dtype)])


def parse_csv(path, dataset: str, digest=None) -> np.recarray:
    """Parse one dataset file into its table, aborting on structural faults.
    The file is opened once, and its bytes go once to ``digest`` (a SHA-256
    object) when given.  A canonical file is read by the C reader alone; any
    other is read again from its start by the block parser, which alone
    reports a fault, with its file, line and column."""
    columns = CSV_COLUMNS[dataset]
    with open(path, "rb") as handle:
        parsed = _read_canonical(handle, columns, digest)
        if parsed is None:
            if digest is not None:  # the bytes the C reader left unread
                for piece in iter(lambda: handle.read(1 << 16), b""):
                    digest.update(piece)
            handle.seek(0)
            # Undecodable bytes become lone surrogates, which no cell parser accepts,
            # so they are reported at their file:line:column like any malformed cell.
            with io.TextIOWrapper(handle, newline="", errors="surrogateescape") as lines:
                parsed = _read_blocks(lines, columns)
    table = schema.table(dataset, parsed)
    del parsed  # so that only the table is held while its times are rounded
    if "datetime" in columns:
        table.datetime = round_to_hour(table.datetime)
    return table


def _grid_violations(telemetry) -> list:
    """Report non-contiguous hourly telemetry grids; gaps are tolerated."""
    order = np.lexsort((telemetry.datetime, telemetry.machine_id))
    ids, times = telemetry.machine_id[order], telemetry.datetime[order]
    steps = (times[1:] - times[:-1]) // np.timedelta64(1, "h")
    gaps = np.flatnonzero((ids[1:] == ids[:-1]) & (steps > 1))
    return [schema.Violation(
        None, f"machine {ids[i].item()}: {steps[i].item() - 1} missing hour(s) "
              f"after {times[i].item()}", "telemetry") for i in gaps]


def _reference_violations(raw, known_ids) -> list:
    out = []
    for name in ("telemetry", "errors", "maintenance", "failures"):
        ids = raw[name].machine_id
        out.extend(schema.Violation(
            int(i), f"machine_id {ids[i].item()} not in machines dataset", name)
            for i in np.flatnonzero(~np.isin(ids, known_ids)))
    return out


def _kept(table, violations, name):
    """Rows of ``table`` that no violation of dataset ``name`` names: the table itself if none."""
    dropped = [v.row_index for v in violations if v.dataset == name and v.row_index is not None]
    return np.delete(table, dropped) if dropped else table


def load_bundle(telemetry, errors, maintenance, failures, machines, digest=None):
    """Load, round and validate the five datasets and drop violating rows.

    Returns ``(DatasetBundle, violations)``.  Each table holds its file's
    rows in file order, minus the rows a violation names; event rows that
    share a (machine_id, hour) stay separate rows.  Violations are data;
    only structural faults (missing column, malformed cell) raise IngestError.
    The files are read in label order, feeding ``digest`` (if any) each one's
    label, a NUL, its bytes and a NUL.  Validation, and which fault is raised
    when several files have one, follow the parameter order.
    """
    paths = {"telemetry": telemetry, "errors": errors, "maintenance": maintenance,
             "failures": failures, "machines": machines}
    raw, faults = {}, {}
    for name in sorted(paths):
        if digest is not None:
            digest.update(name.encode() + b"\0")
        try:
            raw[name] = parse_csv(paths[name], name, digest)
        except (IngestError, OSError) as exc:  # raised below, in parameter order
            faults[name] = exc
        if digest is not None:
            digest.update(b"\0")
    if faults:
        raise next(faults[name] for name in paths if name in faults)
    violations = [v for name in paths for v in schema.validate_dataset(raw[name], name)]
    machines = _kept(raw["machines"], violations, "machines")
    violations.extend(_reference_violations(raw, machines.machine_id))
    violations.extend(_grid_violations(raw["telemetry"]))
    bundle = DatasetBundle(machines=machines, **{
        name: _kept(raw[name], violations, name)
        for name in ("telemetry", "errors", "maintenance", "failures")})
    return bundle, violations


def write_csv(path, table):
    """Write a table (a dataset or the stream) as CSV, header first, each
    cell formatted by ``_canonical`` but the stream's day_of_week codes, which
    are written as their names.  Rows are formatted column by column, one
    block of rows at a time."""
    names = table.dtype.names
    with open(path, "w", newline="") as handle:
        handle.write(",".join(names) + "\n")
        for start in range(0, len(table), schema.BLOCK_ROWS):
            block = table[start:start + schema.BLOCK_ROWS]
            handle.writelines(",".join(row) + "\n" for row in zip(*[
                [schema.DAY_NAMES[d] for d in block[name].tolist()] if name == "day_of_week"
                else _canonical(block[name]) for name in names]))


def write_bundle(bundle, directory):
    """Write the five dataset CSVs under their conventional names."""
    os.makedirs(directory, exist_ok=True)
    for key, filename in BUNDLE_FILENAMES.items():
        write_csv(os.path.join(directory, filename), getattr(bundle, key))
