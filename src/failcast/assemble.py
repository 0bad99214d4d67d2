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
    The design X = [1 | features] is read with its columns permuted to
    [D | T[g]]: row i is ``dense[i]`` in the telemetry columns (``in_dense``)
    and ``table[groups[i]]`` in the intercept and the others, a table row per
    pattern.  margins(theta), transpose_dot(r) and gram(s) give X theta, X^T r
    and X^T diag(s) X, intercept first, with T's share through per-group sums."""

    def __init__(self, labels, sample_weights, encoding, dense, table, groups, in_dense):
        self.labels, self.sample_weights, self.encoding = labels, sample_weights, encoding
        self.dense, self.table, self.groups = dense, table, groups
        self.in_dense, self.k = in_dense, dense.shape[1]
        self.cols = np.concatenate([1 + np.flatnonzero(in_dense), [0],
                                    1 + np.flatnonzero(~in_dense)])
        self.back = np.argsort(self.cols)  # [D | T] columns back in [1 | features] order

    def margins(self, theta):
        theta = theta[self.cols]
        return self.dense @ theta[:self.k] + (self.table @ theta[self.k:])[self.groups]

    def transpose_dot(self, r):
        per_group = np.bincount(self.groups, r)
        return np.concatenate([self.dense.T @ r, self.table.T @ per_group])[self.back]

    def gram(self, s):
        sd = s[:, None] * self.dense
        sums = np.array([np.bincount(self.groups, c) for c in (s, *sd.T)])  # s, then s * D
        cross = sums[1:] @ self.table
        block = np.block([[self.dense.T @ sd, cross],
                          [cross.T, (self.table.T * sums[0]) @ self.table]])
        return block[np.ix_(self.back, self.back)]


def _rows_in(keys, lo, hi) -> np.ndarray:
    """Mask of the rows of the sorted ``keys`` that lie in some ``[lo[j], hi[j]]``."""
    marks = np.zeros(len(keys) + 1, dtype=np.int64)
    np.add.at(marks, np.searchsorted(keys, lo, side="left"), 1)
    np.add.at(marks, np.searchsorted(keys, hi, side="right"), -1)
    return np.cumsum(marks, out=marks)[:-1] > 0


def build_event_stream(bundle: DatasetBundle, horizon_hours: int = 24,
                       window: bool = False):
    """Join the bundle into the stream table, one row per labelable
    telemetry hour, in canonical (machine_id, datetime) order.

    A row is labeled with the failure state at exactly t + horizon_hours,
    or with ``window=True`` by any failure within the next horizon_hours.
    A horizon below 1 raises ValueError, and a telemetry machine missing
    from the machines dataset aborts with AssembleError, as does telemetry
    too long for the join's keys.
    """
    if horizon_hours < 1:
        raise ValueError("horizon_hours must be at least 1")
    telemetry, machines = bundle.telemetry, bundle.machines
    by_id = np.argsort(machines.machine_id, kind="stable")
    ids, seconds = machines.machine_id[by_id], telemetry.datetime.view(np.int64)
    # A row's join key is its machine's rank in ids x radix, plus the seconds after
    # one second before the first telemetry time, its time shifted back and clipped
    # to one second outside the telemetry span; an id that ids lacks gets -1.  Keys
    # sort as (machine_id, datetime), to the second, and none wraps while
    # len(ids) x radix < 2**63: ingest's years 1-9999 leave room for 2.9e7 machines.
    first, last = (int(seconds.min()), int(seconds.max())) if len(seconds) else (0, 0)
    radix = last - first + 3
    if max(len(ids), 1) * radix >= 2**63:
        raise AssembleError(f"telemetry spans {radix - 3} s: too long to key {len(ids)} machines")

    def key(table, shift=0):
        keys, lo = np.searchsorted(ids, table.machine_id), first - 1 + shift
        absent = ids.take(keys, mode="clip") != table.machine_id if len(ids) else True
        offset = np.clip(table.datetime.view(np.int64), lo, min(lo + radix - 1, 2**63 - 1))
        keys *= radix
        keys += np.subtract(offset, lo, out=offset)
        keys[absent] = -1
        return keys

    keys = key(telemetry)
    missing = telemetry.machine_id[keys < 0]
    if len(missing):
        raise AssembleError(f"telemetry references machine_id {missing.min()} "
                            "absent from the machines dataset")
    order = np.argsort(keys, kind="stable")
    keys.sort()
    # Machine r's rows are keys[at[r]:at[r + 1]]; those up to its cut lead its last key by the
    # horizon in whole hours (seconds compared, clamped not to wrap); a rowless one keeps none.
    at = np.searchsorted(keys, np.arange(len(ids) + 1) * radix)
    ends = keys[at[1:] - 1] if len(keys) else at[1:]
    cut = np.searchsorted(keys, ends - min(3600 * horizon_hours, radix), side="right")
    keep = np.repeat(np.tile([True, False], len(ids)), np.diff(np.column_stack(
        [at[:-1], np.clip(cut, at[:-1], at[1:]), at[1:]])).ravel())
    del keys  # rebuilt from the stream: at most two row-sized arrays live at once
    order = order[keep]

    stream = np.recarray(len(order), [(c, schema.column_type(c)) for c in schema.STREAM_COLUMNS])
    for f in telemetry.dtype.names:
        stream[f] = telemetry[f][order]
    del order, keep
    keys = key(stream)
    for events, flags in ((bundle.errors, schema.ERROR_FLAGS),
                          (bundle.maintenance, schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS)):
        event_keys = key(events)
        for f in flags:
            stream[f] = _rows_in(keys, event_keys[events[f]], event_keys[events[f]])
    # Failure f labels [f - horizon, f - first].  The horizon is at most a
    # surviving row's lead; with no row it may pass int64 seconds.
    ahead = (horizon_hours, 1 if window else horizon_hours) if len(stream) else (0, 0)
    stream["label"] = _rows_in(keys, *(key(bundle.failures, 3600 * k) for k in ahead))
    keys //= radix  # each row's machine rank in ids
    for f in ("age",) + schema.MODEL_FLAGS:
        stream[f] = machines[f][by_id][keys]
    del keys
    stream["day_of_week"] = (stream.datetime.view(np.int64) // 86400 + 3) % 7  # day 0: a Thursday
    return stream


def _feature_names(features):
    """The canonical names that ``features`` selects (all when None), in canonical
    order, and the mask of those that are telemetry: the design's dense columns."""
    unknown = [f for f in features or () if f not in schema.FEATURE_NAMES]
    if unknown:
        raise EncodingError(f"unknown feature(s) {unknown}")
    names = tuple(f for f in schema.FEATURE_NAMES if features is None or f in features)
    if not names:
        raise EncodingError("empty feature set")
    return names, np.isin(names, schema.TELEMETRY_FIELDS)


def _column(rows, name, at=slice(None)):
    """Raw values of feature ``name`` at the stream rows ``at``."""
    day = {f: code for code, f in enumerate(schema.DOW_FEATURES)}.get(name)
    return rows[name][at] if day is None else rows["day_of_week"][at] == day


def _gather(rows, names, at):
    """Column-major float block of the features ``names`` at the stream rows ``at``."""
    return np.array([_column(rows, n, at) for n in names], float).reshape(len(names), len(at)).T


def raw_feature_matrix(rows, features=None, index=None):
    """(matrix, labels, feature_names) of the stream rows at ``index`` (all rows
    when None): the unstandardized columns of the canonical names that
    ``features`` selects, in canonical order."""
    names = _feature_names(features)[0]
    index = np.arange(len(rows)) if index is None else index
    return _gather(rows, names, index), rows["label"][index], names


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


def pattern_keys(rows, features=None) -> np.ndarray:
    """Pattern group of every stream row's non-telemetry features, from an int64
    mixed-radix key where a bool column adds a bit and age its rank.  Groups
    ascend with the values, so the keys of any subset rank as its own groups.
    These are at most 24 bool columns and age, so the key stays below 2**24 x rows."""
    names, in_dense = _feature_names(features)
    key = np.zeros(len(rows), np.int64)
    for name in np.compress(~in_dense, names):
        column = _column(rows, name)
        if column.dtype == bool:
            key = 2 * key + column
        else:
            rank = np.unique(column, return_inverse=True)[1]
            key = key * (int(rank.max(initial=0)) + 1) + rank
    return np.unique(key, return_inverse=True)[1]


def encode(rows, weight_positive=100.0, features=None, index=None, keys=None) -> DesignMatrix:
    """Encode the stream rows at ``index`` (all rows when None) into a design
    matrix.  Continuous features are z-scored with these rows' statistics; flags
    become 0/1 and day of week 7 indicators.  Positive rows get weight_positive,
    the others 1.  ``keys`` is ``pattern_keys(rows, features)``, computed when
    None.  Without telemetry, rows of one pattern and label merge into one with
    their summed weight (the grouped binomial form): the same objective."""
    if not weight_positive > 0:
        raise ValueError("weight_positive must be positive")
    names, in_dense = _feature_names(features)
    index = np.arange(len(rows)) if index is None else index
    if not len(index):
        raise EncodingError("fit rows must be non-empty")
    keys = pattern_keys(rows, names) if keys is None else keys
    _, first, groups = np.unique(keys[index], return_index=True, return_inverse=True)
    encoding = fit_encoding({n: _column(rows, n, index).astype(float) for n in names
                             if n in schema.CONTINUOUS_FEATURES}, names)
    dense = apply_encoding(_gather(rows, np.compress(in_dense, names), index),
                           encoding, in_dense)
    table = np.column_stack([np.ones(len(first)), apply_encoding(
        _gather(rows, np.compress(~in_dense, names), index[first]), encoding, ~in_dense)])
    labels = rows["label"][index]
    weights = np.where(labels, float(weight_positive), 1.0)
    if not in_dense.any():
        merged, first, inverse = np.unique(2 * groups + labels, return_index=True,
                                           return_inverse=True)
        dense, labels, weights = dense[first], labels[first], np.bincount(inverse, weights)
        groups = merged // 2
    return DesignMatrix(labels=labels, sample_weights=weights, encoding=encoding,
                        dense=dense, table=table, groups=groups, in_dense=in_dense)
