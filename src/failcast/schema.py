"""Domain types for the five event datasets and the joined machine state.

Dataset records are immutable dataclasses mirroring the CSV schemas one
column per field.  Timestamps are timezone-naive ``datetime`` values at
hour resolution (minutes and seconds zero after ingestion rounding);
booleans are encoded 0/1 in CSV.  The joined machine-state stream is a
columnar table (see ``assemble``); ``STREAM_COLUMNS`` names its columns
in CSV order.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

DATETIME_FORMAT = "%Y-%m-%d %H:%M:%S"

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
class TelemetryRecord:
    machine_id: int
    datetime: dt.datetime
    volt: float
    rotate: float
    pressure: float
    vibration: float


@dataclass(frozen=True)
class ErrorRecord:
    machine_id: int
    datetime: dt.datetime
    error_1: bool
    error_2: bool
    error_3: bool
    error_4: bool
    error_5: bool


@dataclass(frozen=True)
class MaintenanceRecord:
    machine_id: int
    datetime: dt.datetime
    comp_1: bool
    comp_2: bool
    comp_3: bool
    comp_4: bool
    comp_1_fail: bool
    comp_2_fail: bool
    comp_3_fail: bool
    comp_4_fail: bool


@dataclass(frozen=True)
class FailureRecord:
    machine_id: int
    datetime: dt.datetime
    comp_1: bool
    comp_2: bool
    comp_3: bool
    comp_4: bool


@dataclass(frozen=True)
class MachineDescriptor:
    machine_id: int
    age: int
    model_1: bool
    model_2: bool
    model_3: bool
    model_4: bool


@dataclass(frozen=True)
class FeatureEncoding:
    """Encoded column order plus the standardization statistics.

    ``means``/``std_devs`` cover the continuous features only and are
    fitted on training rows; indicator columns pass through as 0/1.
    """

    feature_names: tuple[str, ...]
    continuous: tuple[str, ...]
    means: tuple[float, ...]
    std_devs: tuple[float, ...]


@dataclass(frozen=True)
class Violation:
    """One invariant violation; violations are data, not exceptions."""

    row_index: int | None
    message: str
    dataset: str = ""

    def __str__(self) -> str:
        where = self.dataset or "dataset"
        row = "-" if self.row_index is None else str(self.row_index)
        return f"{where}[row {row}]: {self.message}"


# CSV header order per dataset, exactly as written to and read from disk.
CSV_COLUMNS = {
    TelemetryRecord: ("machine_id", "datetime") + TELEMETRY_FIELDS,
    ErrorRecord: ("machine_id", "datetime") + ERROR_FLAGS,
    MaintenanceRecord: ("machine_id", "datetime") + COMP_FLAGS + COMP_FAIL_FLAGS,
    FailureRecord: ("machine_id", "datetime") + COMP_FLAGS,
    MachineDescriptor: ("machine_id", "age") + MODEL_FLAGS,
}

# Columns of the machine-state stream: one machine-hour of joined state
# plus the horizon label, in CSV order.
STREAM_COLUMNS = (
    ("machine_id", "datetime") + ERROR_FLAGS + COMP_FLAGS + COMP_FAIL_FLAGS
    + TELEMETRY_FIELDS + ("age",) + MODEL_FLAGS + ("day_of_week", "label")
)


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, dt.datetime):
        return value.strftime(DATETIME_FORMAT)
    return str(value)


def to_csv_row(record) -> list[str]:
    """Serialize a record in its CSV column order (round-trip exact)."""
    return [format_value(getattr(record, col)) for col in CSV_COLUMNS[type(record)]]


def _check_hour(record, index, out, dataset):
    t = record.datetime
    if t.minute != 0 or t.second != 0 or t.microsecond != 0:
        out.append(Violation(index, f"datetime {t} not on the hour", dataset))


def _check_machine_id(record, index, out, dataset):
    if record.machine_id < 1:
        out.append(Violation(index, f"machine_id {record.machine_id} not positive", dataset))


def _validate_telemetry(records, dataset):
    out = []
    seen = {}
    for i, rec in enumerate(records):
        _check_machine_id(rec, i, out, dataset)
        _check_hour(rec, i, out, dataset)
        for field in TELEMETRY_FIELDS:
            value = getattr(rec, field)
            if not math.isfinite(value):
                out.append(Violation(i, f"{field} is not finite", dataset))
        key = (rec.machine_id, rec.datetime)
        if key in seen:
            out.append(Violation(
                i, f"duplicate (machine_id, datetime) {key}, first at row {seen[key]}", dataset))
        else:
            seen[key] = i
    return out


def _validate_flag_event(records, dataset, flag_names):
    out = []
    for i, rec in enumerate(records):
        _check_machine_id(rec, i, out, dataset)
        _check_hour(rec, i, out, dataset)
        if not any(getattr(rec, f) for f in flag_names):
            out.append(Violation(i, "no flag set; events must mark at least one", dataset))
    return out


def _validate_maintenance(records, dataset):
    out = _validate_flag_event(records, dataset, COMP_FLAGS)
    for i, rec in enumerate(records):
        for comp, comp_fail in zip(COMP_FLAGS, COMP_FAIL_FLAGS):
            if getattr(rec, comp_fail) and not getattr(rec, comp):
                out.append(Violation(
                    i, f"{comp_fail} set without {comp}; fail implies replaced", dataset))
    out.sort(key=lambda v: v.row_index)
    return out


def _validate_machines(records, dataset):
    out = []
    seen = {}
    for i, rec in enumerate(records):
        _check_machine_id(rec, i, out, dataset)
        if rec.age < 0:
            out.append(Violation(i, f"age {rec.age} negative", dataset))
        n_models = sum(bool(getattr(rec, f)) for f in MODEL_FLAGS)
        if n_models != 1:
            out.append(Violation(i, f"exactly one model flag required, got {n_models}", dataset))
        if rec.machine_id in seen:
            out.append(Violation(
                i, f"duplicate machine_id {rec.machine_id}, first at row {seen[rec.machine_id]}",
                dataset))
        else:
            seen[rec.machine_id] = i
    return out


_VALIDATORS = {
    TelemetryRecord: ("telemetry", _validate_telemetry),
    ErrorRecord: ("errors", lambda r, d: _validate_flag_event(r, d, ERROR_FLAGS)),
    MaintenanceRecord: ("maintenance", _validate_maintenance),
    FailureRecord: ("failures", lambda r, d: _validate_flag_event(r, d, COMP_FLAGS)),
    MachineDescriptor: ("machines", _validate_machines),
}


def validate_dataset(records, dataset: str | None = None) -> list[Violation]:
    """Check every dataset invariant; empty report iff the records are valid.

    Violations come back in ascending row order with the offending index
    and a reason.  The record type selects which invariants apply.
    """
    if not records:
        return []
    rec_type = type(records[0])
    if rec_type not in _VALIDATORS:
        raise TypeError(f"no validator for record type {rec_type.__name__}")
    default_name, validator = _VALIDATORS[rec_type]
    return validator(records, dataset if dataset is not None else default_name)
