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


_BLOCK = 4096  # rows that the join keys and gathers at a time


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
        keys, lo = np.empty(len(table), np.int64), first - 1 + shift
        for start in range(0, len(table), _BLOCK):  # so that only the keys are row-sized
            part, block = table[start:start + _BLOCK], keys[start:start + _BLOCK]
            block[:] = np.searchsorted(ids, part.machine_id)
            absent = ids.take(block, mode="clip") != part.machine_id if len(ids) else True
            offset = np.clip(part.datetime.view(np.int64), lo, min(lo + radix - 1, 2**63 - 1))
            block *= radix
            block += np.subtract(offset, lo, out=offset)
            block[absent] = -1
        return keys

    keys = key(telemetry)
    missing = telemetry.machine_id[keys < 0]
    if len(missing):
        raise AssembleError(f"telemetry references machine_id {missing.min()} "
                            "absent from the machines dataset")
    # Telemetry in canonical order, as generate writes it, is gathered without a sort order.
    order = None if (keys[1:] >= keys[:-1]).all() else np.argsort(keys, kind="stable")
    keys.sort()
    # Machine r's rows are keys[at[r]:at[r + 1]]; it keeps the first kept[r], up to its cut, which
    # lead its last key by the horizon in whole hours (seconds compared, clamped not to wrap).
    at = np.searchsorted(keys, np.arange(len(ids) + 1) * radix)
    ends = keys[at[1:] - 1] if len(keys) else at[1:]
    cut = np.searchsorted(keys, ends - min(3600 * horizon_hours, radix), side="right")
    kept = np.clip(cut, at[:-1], at[1:]) - at[:-1]
    starts = np.cumsum(np.append(0, kept))  # each machine's first stream row, then the count
    n = starts[-1]

    def rows_in(lo, hi):  # as np.repeat's runs (inside, lengths), the stream rows with a key
        # in some [lo[j], hi[j]]: a row lies in the ranges opened, less those closed, before it
        q = np.concatenate([[0], np.searchsorted(keys, lo, side="left"),
                            np.searchsorted(keys, hi, side="right"), [len(keys)]])
        r = np.searchsorted(at, q, side="right") - 1  # the machine of each sorted row q
        edges = starts[r] + np.minimum(q - at[r], np.append(kept, 0)[r])
        by_edge = np.argsort(edges, kind="stable")
        inside = np.cumsum(np.repeat([0, 1, -1, 0], [1, len(lo), len(hi), 1])[by_edge]) > 0
        return inside[:-1], np.diff(edges[by_edge])

    # Flags and labels are found as runs of stream rows before the stream is made, so
    # that beside it the join holds the sort order, if any, and one block at a time.
    runs = {}
    for events, flags in ((bundle.errors, schema.ERROR_FLAGS),
                          (bundle.maintenance, schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS)):
        event_keys = key(events)
        runs.update((f, rows_in(event_keys[events[f]], event_keys[events[f]])) for f in flags)
    # Failure f labels [f - horizon, f - first].  The horizon is at most a
    # surviving row's lead; with no row it may pass int64 seconds.
    ahead = (horizon_hours, 1 if window else horizon_hours) if n else (0, 0)
    runs["label"] = rows_in(*(key(bundle.failures, 3600 * k) for k in ahead))
    del keys, event_keys

    stream = np.recarray(n, [(c, schema.column_type(c)) for c in schema.STREAM_COLUMNS])
    for f, (inside, lengths) in runs.items():
        stream[f] = np.repeat(inside, lengths)
    for start in range(0, n, _BLOCK):  # a weekday code counts from Monday; day 0 was a Thursday
        block, rows = slice(start, start + _BLOCK), np.arange(start, min(start + _BLOCK, n))
        machine = np.searchsorted(starts, rows, side="right") - 1
        rows += at[machine] - starts[machine]  # the sorted rows that the block keeps
        for f in telemetry.dtype.names:
            stream[f][block] = telemetry[f][rows if order is None else order[rows]]
        for f in ("age",) + schema.MODEL_FLAGS:
            stream[f][block] = machines[f][by_id[machine]]
        stream.day_of_week[block] = (stream.datetime[block].view(np.int64) // 86400 + 3) % 7
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
    block = np.empty((len(names), len(at)))
    for column, name in zip(block, names):
        column[:] = _column(rows, name, at)
    return block.T


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
    """Pattern key of every stream row's non-telemetry features, an int64 mixed-
    radix number where a bool column adds a bit and age its rank: equal iff the
    values are, and ascending with them.  These are at most 24 bool columns and
    age, so a key stays below 2**24 x rows."""
    names, in_dense = _feature_names(features)
    key = np.zeros(len(rows), np.int64)
    for name in np.compress(~in_dense, names):
        column = _column(rows, name)
        if column.dtype == bool:
            key = 2 * key + column
        else:
            rank = np.unique(column, return_inverse=True)[1]
            key = key * (int(rank.max(initial=0)) + 1) + rank
    return key


def encode(rows, weight_positive=100.0, features=None, index=None, keys=None) -> DesignMatrix:
    """Encode the stream rows at ``index`` (all rows when None) into a design
    matrix.  Continuous features are z-scored with these rows' statistics; flags
    become 0/1 and day of week 7 indicators.  Positive rows get weight_positive,
    the others 1.  The patterns are the ranks at ``index`` of ``keys``, which is
    ``pattern_keys(rows, features)``, computed when None.  Without telemetry, rows
    of one pattern and label merge into one with their summed weight (the grouped
    binomial form): the same objective."""
    if not weight_positive > 0:
        raise ValueError("weight_positive must be positive")
    names, in_dense = _feature_names(features)
    index = np.arange(len(rows)) if index is None else index
    if not len(index):
        raise EncodingError("fit rows must be non-empty")
    keys = pattern_keys(rows, names) if keys is None else keys
    _, first, groups = np.unique(keys[index], return_index=True, return_inverse=True)
    dense = _gather(rows, np.compress(in_dense, names), index)  # standardized in place below
    encoding = fit_encoding(dict(zip(np.compress(in_dense, names), dense.T),  # views but age
                                 age=_column(rows, "age", index).astype(float)), names)
    apply_encoding(dense, encoding, in_dense)
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
