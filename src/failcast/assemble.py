"""Machine-state stream assembly and design-matrix encoding.

The stream is one columnar table, a numpy record array with the columns
``schema.STREAM_COLUMNS``: one row per labelable telemetry hour in
canonical (machine_id, datetime) order.  Events are left-joined onto the
hourly telemetry grid on (machine_id, datetime) keys: a flag is set when
any event row at that key sets it.  Machine descriptors and day of week
are attached, and a failure at hour f labels its machine's rows in
``[f - horizon_hours, f - first]``, where first is 1 for window labels and
the horizon otherwise.  Rows whose horizon extends past the last grid
hour of their machine are dropped: their label is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schema
from .ingest import DatasetBundle


class AssembleError(Exception):
    pass


class EncodingError(Exception):
    pass


@dataclass
class DesignMatrix:
    """Encoded features with labels and weights; a row may stand for several.
    ``groups`` is each row's ``pattern_groups`` index; None means one group."""

    rows: np.ndarray
    labels: np.ndarray
    sample_weights: np.ndarray
    encoding: schema.FeatureEncoding
    groups: np.ndarray | None = None


def _pairs(machine_ids, datetimes) -> np.ndarray:
    """(machine_id, datetime) join keys; they sort machine first."""
    return np.rec.fromarrays([machine_ids, datetimes], names="machine_id,datetime")


def _rows_in(keys, lo, hi) -> np.ndarray:
    """Mask of the rows of the sorted ``keys`` that lie in some ``[lo[j], hi[j]]``."""
    marks = np.zeros(len(keys) + 1, dtype=np.int64)
    np.add.at(marks, np.searchsorted(keys, lo, side="left"), 1)
    np.add.at(marks, np.searchsorted(keys, hi, side="right"), -1)
    return np.cumsum(marks[:-1]) > 0


def build_event_stream(bundle: DatasetBundle, horizon_hours: int = 24,
                       window: bool = False):
    """Join the bundle into the stream table, one row per labelable
    telemetry hour, in canonical (machine_id, datetime) order.

    A row is labeled with the failure state at exactly t + horizon_hours,
    or with ``window=True`` by any failure within the next horizon_hours.
    A horizon below 1 raises ValueError, and a telemetry machine missing
    from the machines dataset aborts with AssembleError.
    """
    if horizon_hours < 1:
        raise ValueError("horizon_hours must be at least 1")
    telemetry, machines, failures = bundle.telemetry, bundle.machines, bundle.failures
    machine_id, when = telemetry.machine_id, telemetry.datetime
    missing = machine_id[~np.isin(machine_id, machines.machine_id)]
    if len(missing):
        raise AssembleError(f"telemetry references machine_id {missing.min()} "
                            "absent from the machines dataset")

    order = np.lexsort((when, machine_id))
    ids, times = machine_id[order], when[order]
    last_hour = times[np.searchsorted(ids, ids, side="right") - 1]
    # Leads in whole hours: t + horizon in datetime64 wraps for a huge horizon.
    rows = order[(last_hour - times) // np.timedelta64(1, "h") >= horizon_hours]
    machine_id, when = machine_id[rows], when[rows]

    stream = np.recarray(len(rows), [(c, schema.column_type(c)) for c in schema.STREAM_COLUMNS])
    stream["machine_id"], stream["datetime"] = machine_id, when
    keys = _pairs(machine_id, when)
    for events, flags in ((bundle.errors, schema.ERROR_FLAGS),
                          (bundle.maintenance, schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS)):
        event_keys = _pairs(events.machine_id, events.datetime)
        for f in flags:
            flagged = event_keys[events[f]]
            stream[f] = _rows_in(keys, flagged, flagged)
    for f in schema.TELEMETRY_FIELDS:
        stream[f] = telemetry[f][rows]
    by_id = np.argsort(machines.machine_id)
    descriptor = by_id[np.searchsorted(machines.machine_id, machine_id, sorter=by_id)]
    for f in ("age",) + schema.MODEL_FLAGS:
        stream[f] = machines[f][descriptor]
    # 1970-01-01, day 0 of datetime64, was a Thursday.
    days = when.astype("datetime64[D]").astype(np.int64)
    stream["day_of_week"] = np.array(schema.DAY_NAMES)[(days + 3) % 7]

    # Failure f labels [f - horizon, f - first].  The horizon is at most a
    # surviving row's lead; with no row it may pass datetime64's range.
    ahead = (horizon_hours, 1 if window else horizon_hours) if len(rows) else (0, 0)
    stream["label"] = _rows_in(keys, *(
        _pairs(failures.machine_id, failures.datetime - np.timedelta64(k, "h")) for k in ahead))
    return stream


def raw_feature_matrix(rows, features=None, index=None):
    """Unstandardized feature columns of the stream table in canonical order.

    Returns (matrix, labels, feature_names) of the rows at ``index`` (all rows
    when None).  ``features`` selects a subset of the canonical names; order
    always follows the canonical one.  Only the selected columns are gathered.
    """
    if features is None:
        names = schema.FEATURE_NAMES
    else:
        unknown = [f for f in features if f not in schema.FEATURE_NAMES]
        if unknown:
            raise EncodingError(f"unknown feature(s) {unknown}")
        names = tuple(f for f in schema.FEATURE_NAMES if f in features)
    if not names:
        raise EncodingError("empty feature set")

    take = slice(None) if index is None else index
    day = dict(zip(schema.DOW_FEATURES, schema.DAY_NAMES))
    day_of_week = rows["day_of_week"][take] if day.keys() & set(names) else None
    matrix = np.stack([day_of_week == day[name] if name in day else rows[name][take]
                       for name in names], axis=1, dtype=float)
    return matrix, rows["label"][take], names


def fit_encoding(matrix, feature_names) -> schema.FeatureEncoding:
    """Standardization statistics from the rows of ``matrix``: each
    continuous column's mean and standard deviation, and 0.0 and 1.0 for
    every other column.

    Raises EncodingError when there are no rows, or when a continuous
    column is constant on them or its mean or std overflows float64.
    """
    if not len(matrix):
        raise EncodingError("fit rows must be non-empty")
    means, stds = [], []
    for j, name in enumerate(feature_names):
        mean, std = 0.0, 1.0
        if name in schema.CONTINUOUS_FEATURES:
            with np.errstate(over="ignore", invalid="ignore"):
                mean, std = float(matrix[:, j].mean()), float(matrix[:, j].std())
            if std == 0.0:
                raise EncodingError(f"degenerate encoding: column {name!r} is "
                                    "constant on the fit rows")
            if not np.isfinite([mean, std]).all():
                raise EncodingError(f"degenerate encoding: column {name!r} has a "
                                    "non-finite mean or std on the fit rows")
        means.append(mean)
        stds.append(std)
    return schema.FeatureEncoding(feature_names=tuple(feature_names),
                                  means=tuple(means), std_devs=tuple(stds))


def apply_encoding(matrix, encoding: schema.FeatureEncoding) -> np.ndarray:
    """Standardize the float ``matrix`` in place, column j to
    ``(x - means[j]) / std_devs[j]``, and return it.  Indicator columns
    keep their exact values, since x - 0.0 and x / 1.0 are identities."""
    matrix -= encoding.means
    matrix /= encoding.std_devs
    return matrix


def pattern_groups(matrix, feature_names) -> np.ndarray:
    """Group of each row of the raw ``matrix``, equal iff the rows' non-telemetry
    values are: an int64 mixed-radix key where a 0/1 column adds a bit and any
    other column its value's rank, re-ranked before its span could pass 2**62."""
    key, span = np.zeros(len(matrix), np.int64), 1
    for j in np.flatnonzero(~np.isin(feature_names, schema.TELEMETRY_FIELDS)):
        column = np.ascontiguousarray(matrix[:, j])  # one strided read
        binary = ((column == 0) | (column == 1)).all()
        digit = column.astype(np.int64) if binary else np.unique(column, return_inverse=True)[1]
        base = int(digit.max()) + 1
        if span * base > 2**62:
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max()) + 1
        key, span = key * base + digit, span * base
    return np.unique(key, return_inverse=True)[1]


def encode(rows, weight_positive=100.0, features=None, index=None) -> DesignMatrix:
    """Encode the stream rows at ``index`` (all rows when None) into a design matrix.

    Continuous features are z-scored with statistics from these rows only
    (cross-validation passes each fold's training rows); flags become 0/1
    and day of week expands to 7 indicators.  Positive rows get
    ``weight_positive``, negative rows weight 1.  Without telemetry, rows of
    one group and label merge into one with their summed weight (the grouped
    binomial form): fewer rows, the same objective.
    """
    if not weight_positive > 0:
        raise ValueError("weight_positive must be positive")
    matrix, labels, names = raw_feature_matrix(rows, features, index)
    encoding = fit_encoding(matrix, names)
    weights = np.where(labels, float(weight_positive), 1.0)
    groups = pattern_groups(matrix, names)
    if set(names).isdisjoint(schema.TELEMETRY_FIELDS):
        keys, first, inverse = np.unique(2 * groups + labels, return_index=True,
                                         return_inverse=True)
        matrix, labels, weights = matrix[first], labels[first], np.bincount(inverse, weights)
        groups = keys // 2
    return DesignMatrix(rows=apply_encoding(matrix, encoding), labels=labels,
                        sample_weights=weights, encoding=encoding, groups=groups)
