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

import numpy as np

from . import schema
from .ingest import DatasetBundle


class AssembleError(Exception):
    pass


class EncodingError(Exception):
    pass


class DesignMatrix:
    """Encoded features with labels and weights; a row may stand for several.
    Row i is ``dense[i]`` in the telemetry columns and ``table[groups[i]]`` in the
    others (column-major, a table row per pattern); plain ``rows`` are all dense."""

    def __init__(self, labels, sample_weights, encoding, rows=None, *,
                 dense=None, table=None, groups=None):
        if rows is not None:
            dense, table, groups = rows, np.empty((1, 0)), np.zeros(len(rows), np.intp)
        self.labels, self.sample_weights, self.encoding = labels, sample_weights, encoding
        self.dense, self.table, self.groups, self._rows = dense, table, groups, rows
        self.in_dense = (np.isin(encoding.feature_names, schema.TELEMETRY_FIELDS)
                         if table.shape[1] else np.ones(dense.shape[1], bool))

    @property
    def rows(self) -> np.ndarray:
        """The n x m feature matrix in canonical column order, assembled on first read."""
        if self._rows is None:
            self._rows = np.empty((len(self.groups), len(self.in_dense)))
            self._rows[:, self.in_dense] = self.dense
            self._rows[:, ~self.in_dense] = self.table[self.groups]
        return self._rows


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


def _feature_names(features):
    """The canonical names that ``features`` selects (all when None), in canonical order."""
    unknown = [f for f in features or () if f not in schema.FEATURE_NAMES]
    if unknown:
        raise EncodingError(f"unknown feature(s) {unknown}")
    names = tuple(f for f in schema.FEATURE_NAMES if features is None or f in features)
    if not names:
        raise EncodingError("empty feature set")
    return names


def _column(rows, name, at=slice(None)):
    """Raw values of feature ``name`` at the stream rows ``at``."""
    day = dict(zip(schema.DOW_FEATURES, schema.DAY_NAMES)).get(name)
    return rows[name][at] if day is None else rows["day_of_week"][at] == day


def _gather(rows, names, at):
    """Column-major float block of the features ``names`` at the stream rows ``at``."""
    return np.array([_column(rows, n, at) for n in names], float).reshape(len(names), len(at)).T


def raw_feature_matrix(rows, features=None, index=None):
    """(matrix, labels, feature_names) of the stream rows at ``index`` (all rows
    when None): the unstandardized columns of the canonical names that
    ``features`` selects, in canonical order."""
    names = _feature_names(features)
    take = slice(None) if index is None else index
    matrix = np.stack([_column(rows, name, take) for name in names], axis=1, dtype=float)
    return matrix, rows["label"][take], names


def fit_encoding(columns, feature_names) -> schema.FeatureEncoding:
    """Each continuous feature's mean and std over its float ``columns[name]``,
    0.0 and 1.0 for the others.  Raises EncodingError when such a column is
    constant or its mean or std overflows float64."""
    means, stds = [], []
    for name in feature_names:
        mean, std = 0.0, 1.0
        if name in schema.CONTINUOUS_FEATURES:
            with np.errstate(over="ignore", invalid="ignore"):
                mean, std = float(columns[name].mean()), float(columns[name].std())
            if std == 0.0 or not np.isfinite([mean, std]).all():
                fault = "is constant" if std == 0.0 else "has a non-finite mean or std"
                raise EncodingError(f"degenerate encoding: column {name!r} {fault} "
                                    "on the fit rows")
        means.append(mean)
        stds.append(std)
    return schema.FeatureEncoding(tuple(feature_names), tuple(means), tuple(stds))


def apply_encoding(matrix, encoding: schema.FeatureEncoding, columns=slice(None)) -> np.ndarray:
    """Standardize the float ``matrix`` in place, its columns as the encoded
    ``columns``: ``(x - mean) / std``, and return it.  Indicator columns keep
    their exact values, since x - 0.0 and x / 1.0 are identities."""
    matrix -= np.asarray(encoding.means)[columns]
    matrix /= np.asarray(encoding.std_devs)[columns]
    return matrix


def pattern_groups(columns, n_rows) -> np.ndarray:
    """Group of each of ``n_rows`` rows, equal iff the rows are in every 1-D
    column, ascending with their values: an int64 mixed-radix key where a 0/1
    column adds a bit and any other column its value's rank, re-ranked before
    its span could pass 2**62."""
    key, span = np.zeros(n_rows, np.int64), 1
    for column in columns:
        binary = column.dtype == bool or ((column == 0) | (column == 1)).all()
        digit = column.astype(np.int64) if binary else np.unique(column, return_inverse=True)[1]
        base = int(digit.max(initial=0)) + 1
        if span * base > 2**62:
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max()) + 1
        key, span = key * base + digit, span * base
    return np.unique(key, return_inverse=True)[1]


def pattern_keys(rows, features=None) -> np.ndarray:
    """Pattern group of every stream row's non-telemetry features.  Groups
    ascend with the values, so the keys of any subset rank as its own groups."""
    names = [n for n in _feature_names(features) if n not in schema.TELEMETRY_FIELDS]
    return pattern_groups([_column(rows, name) for name in names], len(rows))


def encode(rows, weight_positive=100.0, features=None, index=None, keys=None) -> DesignMatrix:
    """Encode the stream rows at ``index`` (all rows when None) into a design
    matrix.  Continuous features are z-scored with these rows' statistics; flags
    become 0/1 and day of week 7 indicators.  Positive rows get weight_positive,
    the others 1.  ``keys`` is ``pattern_keys(rows, features)``, computed when
    None.  Without telemetry, rows of one pattern and label merge into one with
    their summed weight (the grouped binomial form): the same objective."""
    if not weight_positive > 0:
        raise ValueError("weight_positive must be positive")
    names = _feature_names(features)
    index = np.arange(len(rows)) if index is None else index
    if not len(index):
        raise EncodingError("fit rows must be non-empty")
    keys = pattern_keys(rows, names) if keys is None else keys
    _, first, groups = np.unique(keys[index], return_index=True, return_inverse=True)
    in_dense = np.isin(names, schema.TELEMETRY_FIELDS)
    encoding = fit_encoding({n: _column(rows, n, index).astype(float) for n in names
                             if n in schema.CONTINUOUS_FEATURES}, names)
    dense = apply_encoding(_gather(rows, np.compress(in_dense, names), index),
                           encoding, in_dense)
    table = apply_encoding(_gather(rows, np.compress(~in_dense, names), index[first]),
                           encoding, ~in_dense)
    labels = rows["label"][index]
    weights = np.where(labels, float(weight_positive), 1.0)
    if not in_dense.any():
        merged, first, inverse = np.unique(2 * groups + labels, return_index=True,
                                           return_inverse=True)
        dense, labels, weights = dense[first], labels[first], np.bincount(inverse, weights)
        groups = merged // 2
    return DesignMatrix(labels=labels, sample_weights=weights, encoding=encoding,
                        dense=dense, table=table, groups=groups)
