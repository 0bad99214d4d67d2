"""Domain types for the five event datasets and the joined machine state.

Each dataset is one columnar table, a numpy record array whose columns are
the dataset's CSV columns (``CSV_COLUMNS``) in CSV order.  Machine ids and
ages are int64, telemetry readings float64, flags bool, and timestamps
timezone-naive ``datetime64[s]`` values at hour resolution after ingestion
rounding; booleans are encoded 0/1 in CSV.  ``validate_dataset`` checks a
table's invariants column-wise.  The joined machine-state stream is a
columnar table too (see ``assemble``); ``STREAM_COLUMNS`` names its columns
in CSV order and ``column_type`` gives their types, as for the datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DATETIME_FORMAT = "%Y-%m-%d %H:%M:%S"

# Rows that the CSV reader and writer, the join and the test-side scoring take
# at a time; each loop reads it when it runs.  No output depends on it.
BLOCK_ROWS = 4096

DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

ERROR_FLAGS = ("error_1", "error_2", "error_3", "error_4", "error_5")
COMP_FLAGS = ("comp_1", "comp_2", "comp_3", "comp_4")
COMP_FAIL_FLAGS = ("comp_1_fail", "comp_2_fail", "comp_3_fail", "comp_4_fail")
TELEMETRY_FIELDS = ("volt", "rotate", "pressure", "vibration")
MODEL_FLAGS = ("model_1", "model_2", "model_3", "model_4")
DOW_FEATURES = tuple(f"dow_{d.lower()}" for d in DAY_NAMES)

# Canonical encoded feature order: 5 errors + 4 comp + 4 comp_fail +
# 4 telemetry + age + 4 models + 7 day-of-week indicators = 29 columns.
FEATURE_NAMES = (
    ERROR_FLAGS + COMP_FLAGS + COMP_FAIL_FLAGS + TELEMETRY_FIELDS + ("age",)
    + MODEL_FLAGS + DOW_FEATURES
)
CONTINUOUS_FEATURES = TELEMETRY_FIELDS + ("age",)


@dataclass(frozen=True)
class FeatureEncoding:
    """Encoded column order plus one mean and standard deviation per column.

    Continuous features get the statistics of the training rows; indicator
    columns get 0.0 and 1.0, which standardize them to themselves exactly.
    """

    feature_names: tuple[str, ...]
    means: tuple[float, ...]
    std_devs: tuple[float, ...]


@dataclass(frozen=True)
class Violation:
    """One invariant violation; violations are data, not exceptions."""

    row_index: int | None
    message: str
    dataset: str


# CSV header order per dataset, exactly as written to and read from disk;
# it is also the column order of the dataset's table.
CSV_COLUMNS = {
    "telemetry": ("machine_id", "datetime") + TELEMETRY_FIELDS,
    "errors": ("machine_id", "datetime") + ERROR_FLAGS,
    "maintenance": ("machine_id", "datetime") + COMP_FLAGS + COMP_FAIL_FLAGS,
    "failures": ("machine_id", "datetime") + COMP_FLAGS,
    "machines": ("machine_id", "age") + MODEL_FLAGS,
}

# Columns of the machine-state stream: one machine-hour of joined state
# plus the horizon label, in CSV order.
STREAM_COLUMNS = (
    ("machine_id", "datetime") + ERROR_FLAGS + COMP_FLAGS + COMP_FAIL_FLAGS
    + TELEMETRY_FIELDS + ("age",) + MODEL_FLAGS + ("day_of_week", "label")
)

# numpy type of every dataset and stream column; unlisted flag columns are bool, and
# day_of_week holds its day's index in DAY_NAMES (0 = Mon), which the CSV writes as the name.
_COLUMN_TYPES = {"machine_id": np.int64, "age": np.int64, "datetime": "datetime64[s]",
                 "day_of_week": np.int8, **dict.fromkeys(TELEMETRY_FIELDS, np.float64)}


def column_type(name: str) -> np.dtype:
    return np.dtype(_COLUMN_TYPES.get(name, bool))


def table(dataset: str, columns) -> np.recarray:
    """The dataset's table from a mapping of each of its column names to values."""
    names = CSV_COLUMNS[dataset]
    return np.rec.fromarrays([np.asarray(columns[c], column_type(c)) for c in names],
                             names=names)


def first_rows(*columns) -> np.ndarray:
    """For each row, the index of the first row equal to it in every column."""
    order = np.lexsort(columns[::-1])  # stable: a run of equal rows starts at its first
    same = np.r_[False, np.logical_and.reduce([c[order][1:] == c[order][:-1] for c in columns])]
    return order[np.maximum.accumulate(np.where(same, 0, np.arange(len(order))))][np.argsort(order)]


# Each validator returns its checks in report order as (mask of violating
# rows, message of a violating row index) pairs.

def _machine_id_check(ids):
    return ids < 1, lambda i: f"machine_id {ids[i].item()} not positive"


def _keyed_checks(table):
    times = table.datetime
    return [_machine_id_check(table.machine_id),
            (times.astype("datetime64[h]") != times,
             lambda i: f"datetime {times[i].item()} not on the hour")]


def _telemetry_checks(table):
    checks = _keyed_checks(table)
    for field in TELEMETRY_FIELDS:
        checks.append((~np.isfinite(table[field]),
                       lambda i, field=field: f"{field} is not finite"))
    ids, times = table.machine_id, table.datetime
    first = first_rows(ids, times)
    checks.append((first != np.arange(len(table)), lambda i: (
        f"duplicate (machine_id, datetime) {(ids[i].item(), times[i].item())}, "
        f"first at row {first[i]}")))
    return checks


def _flag_event_checks(table, flag_names):
    none_set = ~np.logical_or.reduce([table[f] for f in flag_names])
    return _keyed_checks(table) + [
        (none_set, lambda i: "no flag set; events must mark at least one")]


def _maintenance_checks(table):
    checks = _flag_event_checks(table, COMP_FLAGS)
    for comp, comp_fail in zip(COMP_FLAGS, COMP_FAIL_FLAGS):
        checks.append((table[comp_fail] & ~table[comp],
                       lambda i, comp=comp, comp_fail=comp_fail:
                       f"{comp_fail} set without {comp}; fail implies replaced"))
    return checks


def _machine_checks(table):
    ids, ages = table.machine_id, table.age
    n_models = np.sum([table[f] for f in MODEL_FLAGS], axis=0)
    first = first_rows(ids)
    return [
        _machine_id_check(ids),
        (ages < 0, lambda i: f"age {ages[i].item()} negative"),
        (n_models != 1,
         lambda i: f"exactly one model flag required, got {n_models[i].item()}"),
        (first != np.arange(len(table)),
         lambda i: f"duplicate machine_id {ids[i].item()}, first at row {first[i]}"),
    ]


_CHECKS = {
    "telemetry": _telemetry_checks,
    "errors": lambda t: _flag_event_checks(t, ERROR_FLAGS),
    "maintenance": _maintenance_checks,
    "failures": lambda t: _flag_event_checks(t, COMP_FLAGS),
    "machines": _machine_checks,
}


def validate_dataset(table, dataset: str) -> list[Violation]:
    """Check every invariant of the named dataset; empty report iff the
    table is valid.

    Violations come back in ascending row order, and within a row in the
    order the checks are listed, each with the offending index and a reason.
    """
    if dataset not in _CHECKS:
        raise ValueError(f"no validator for dataset {dataset!r}")
    checks = _CHECKS[dataset](table)
    found = sorted((int(i), rank) for rank, (mask, _) in enumerate(checks)
                   for i in np.flatnonzero(mask))
    return [Violation(i, checks[rank][1](i), dataset) for i, rank in found]
