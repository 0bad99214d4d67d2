"""CSV parsing and validation for the five event datasets.

Each file is read once and parsed straight into columns, giving one table
per dataset (see ``schema``).  A column is parsed by numpy in one pass when
every cell is in canonical form; otherwise its cells go through the
per-cell parser, which strips whitespace and raises ``IngestError`` at the
first malformed cell.  Timestamps are rounded to the nearest hour (exact
half rounds up).

After validation every row that a violation names is dropped: duplicate
keys keep their first row, and rows referencing a machine missing from
(or dropped from) the machines dataset go.  Event rows that then collide
on (machine_id, hour) are merged by logical OR of their flags.
"""

from __future__ import annotations

import array
import csv
import datetime as dt
import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import schema
from .schema import CSV_COLUMNS

BUNDLE_FILENAMES = {
    "telemetry": "telemetry.csv",
    "errors": "errors.csv",
    "maintenance": "maintenance.csv",
    "failures": "failures.csv",
    "machines": "machines.csv",
}

_BLOCK_ROWS = 1 << 15
_INT64 = np.iinfo(np.int64)
_FIRST_DATETIME = np.datetime64(dt.datetime.min, "s")


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


def _parse_int(text, path, line, column):
    try:
        value = int(text)
    except ValueError:
        raise IngestError(path, line, column, f"expected integer, got {text!r}") from None
    if not _INT64.min <= value <= _INT64.max:
        raise IngestError(path, line, column, f"integer out of range, got {text!r}")
    return value


def _parse_float(text, path, line, column):
    try:
        return float(text)
    except ValueError:
        raise IngestError(path, line, column, f"expected number, got {text!r}") from None


def _parse_bool(text, path, line, column):
    if text == "0":
        return False
    if text == "1":
        return True
    raise IngestError(path, line, column, f"expected 0 or 1, got {text!r}")


def _parse_datetime(text, path, line, column):
    try:
        return dt.datetime.strptime(text, schema.DATETIME_FORMAT)
    except ValueError:
        raise IngestError(
            path, line, column,
            f"expected datetime {schema.DATETIME_FORMAT.replace('%', '')!s} style, got {text!r}",
        ) from None


_CELL_PARSERS = {"i": _parse_int, "f": _parse_float, "b": _parse_bool, "M": _parse_datetime}


def _canonical(column):
    """The cells of a table column as the strings written to CSV: flags as
    1 and 0, timestamps as ``YYYY-MM-DD HH:MM:SS`` (year zero-padded) and
    anything else as ``str``.  Flags and timestamps stay a numpy array, so
    the reader's check on them makes no Python string per cell."""
    if column.dtype.kind == "b":
        return np.where(column, "1", "0")
    if column.dtype.kind == "M":
        return np.char.replace(np.datetime_as_string(column), "T", " ")
    return list(map(str, column.tolist()))


def _fast_column(cells, dtype):
    """The cells as an array of ``dtype`` when every cell is in the form the
    per-cell parser would read back the same way; otherwise None."""
    if not cells:
        return np.zeros(0, dtype)
    if dtype.kind in "if":
        try:
            return np.fromiter(map(int if dtype.kind == "i" else float, cells),
                               dtype, len(cells))
        except (ValueError, OverflowError):
            return None
    text = np.array(cells, dtype=str)
    if dtype.kind == "b":
        values = text == "1"
    else:
        try:
            values = np.array(text, dtype=dtype)
        except ValueError:
            return None
    # Only canonical cells: numpy also reads "", "NaT", dates without a time
    # and ISO "T" separators, and the per-cell parser strips whitespace.
    canonical = text == _canonical(values)
    if dtype.kind == "M":
        canonical &= values >= _FIRST_DATETIME
    return values if canonical.all() else None


def _parse_rows(rows, lines, columns, path) -> dict:
    """Columns of a block of rows starting on the given physical lines;
    raises the first structural fault of the block in file order."""
    if not all(rows):
        lines = [line for line, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    wrong = np.flatnonzero(np.fromiter(map(len, rows), np.int64, len(rows)) != len(columns))
    short = wrong[0] if len(wrong) else None
    good = rows[:short]
    cells = list(zip(*good)) if good else [()] * len(columns)

    parsed, faults = {}, []
    for position, (name, column) in enumerate(zip(columns, cells)):
        dtype = schema.column_type(name)
        values = _fast_column(column, dtype)
        if values is None:
            parse = _CELL_PARSERS[dtype.kind]
            try:
                values = np.array([parse(cell.strip(), path, line, name)
                                   for cell, line in zip(column, lines)], dtype)
            except IngestError as exc:
                faults.append((exc.line, position, exc))
                continue
        parsed[name] = values
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    if short is not None:
        raise IngestError(path, lines[short], "-",
                          f"expected {len(columns)} fields, got {len(rows[short])}")
    return parsed


def _records(reader, path, faults, starts):
    """The reader's rows up to its first ``csv.Error`` (such as an oversized
    field), which is appended to ``faults`` at the line the reader reached.
    Before each row is read, the physical line it starts on is appended to
    ``starts``; a row may span lines when a quoted cell holds a newline."""
    try:
        starts.append(reader.line_num + 1)
        for row in reader:
            yield row
            starts.append(reader.line_num + 1)
    except csv.Error as exc:
        faults.append(IngestError(path, reader.line_num, "-", str(exc)))


def parse_csv(path, dataset: str) -> np.recarray:
    """Parse one dataset file into its table, aborting on structural faults.

    The fault reported is the first in file order: within a line a wrong
    field count comes before any cell, and cells are checked left to right.
    Rows are parsed in blocks, so the text of only one block is held at once.
    """
    columns = CSV_COLUMNS[dataset]
    blocks, faults = [], []
    # Undecodable bytes become lone surrogates, which no cell parser accepts,
    # so they are reported at their file:line:column like any malformed cell.
    with open(path, newline="", errors="surrogateescape") as handle:
        starts = array.array("q")
        records = _records(csv.reader(handle), path, faults, starts)
        header = next(records, None)
        if header is None:
            raise faults[0] if faults else IngestError(
                path, 1, "-", "empty file, header row required")
        if tuple(header) != columns:
            missing = [c for c in columns if c not in header]
            detail = f"missing column(s) {missing}" if missing else f"got {header}"
            raise IngestError(path, 1, "-", f"header must be {','.join(columns)}; {detail}")
        while True:
            rows = list(itertools.islice(records, _BLOCK_ROWS))
            lines = starts[1:len(rows) + 1]  # starts[0] is the row before the block
            del starts[:len(rows)]
            blocks.append(_parse_rows(rows, lines, columns, path))
            if faults:
                raise faults[0]
            if len(rows) < _BLOCK_ROWS:
                break
    parsed = schema.table(dataset, {c: np.concatenate([b[c] for b in blocks])
                                    for c in columns})
    if "datetime" in columns:
        parsed.datetime = round_to_hour(parsed.datetime)
    return parsed


def _or_merge(table, flag_names):
    """Merge events sharing (machine_id, hour) by OR of their flags, in the
    order each key first appears."""
    first = schema.first_rows(table.machine_id, table.datetime)
    leads = first == np.arange(len(table))
    merged = table[leads]
    group = (np.cumsum(leads) - 1)[first]
    for f in flag_names:
        merged[f] = np.bincount(group, weights=table[f], minlength=len(merged)) > 0
    return merged


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
    """Rows of ``table`` that no violation of dataset ``name`` names."""
    keep = np.ones(len(table), dtype=bool)
    keep[[v.row_index for v in violations
          if v.dataset == name and v.row_index is not None]] = False
    return table[keep]


def load_bundle(telemetry, errors, maintenance, failures, machines):
    """Load, round, validate, drop violating rows and merge the five datasets.

    Returns ``(DatasetBundle, violations)``.  Violations are data; only
    structural faults (missing column, malformed cell) raise IngestError.
    """
    paths = {"telemetry": telemetry, "errors": errors, "maintenance": maintenance,
             "failures": failures, "machines": machines}
    raw = {name: parse_csv(path, name) for name, path in paths.items()}
    violations = []
    for name, table in raw.items():
        if len(table):
            violations.extend(schema.validate_dataset(table, name))
    machines = _kept(raw["machines"], violations, "machines")
    violations.extend(_reference_violations(raw, machines.machine_id))
    violations.extend(_grid_violations(raw["telemetry"]))
    kept = {name: _kept(raw[name], violations, name)
            for name in ("telemetry", "errors", "maintenance", "failures")}
    bundle = DatasetBundle(
        telemetry=kept["telemetry"],
        errors=_or_merge(kept["errors"], schema.ERROR_FLAGS),
        maintenance=_or_merge(kept["maintenance"],
                              schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS),
        failures=_or_merge(kept["failures"], schema.COMP_FLAGS),
        machines=machines,
    )
    return bundle, violations


def write_csv(path, table):
    """Write a table (a dataset or the stream) as CSV, header first, each
    cell formatted by ``_canonical``.  Rows are formatted column by column,
    one block of rows at a time."""
    names = table.dtype.names
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            writer.writerows(zip(*[_canonical(block[name]) for name in names]))


def write_bundle(bundle, directory):
    """Write the five dataset CSVs under their conventional names."""
    os.makedirs(directory, exist_ok=True)
    for key, filename in BUNDLE_FILENAMES.items():
        write_csv(os.path.join(directory, filename), getattr(bundle, key))
