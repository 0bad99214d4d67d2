import datetime as dt
import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failcast import assemble, cli, ingest, schema, synth

import helpers
from helpers import hour


def test_hour_with_no_events_has_all_flags_false():
    bundle = helpers.micro_bundle(machines=1, n_hours=26)
    rows = assemble.build_event_stream(bundle)
    flags = schema.ERROR_FLAGS + schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS
    assert len(flags) == 13
    for f in flags + ("label",):
        assert not rows[f].any()


def test_label_placed_24_hours_before_failure():
    bundle = helpers.micro_bundle(machines=3, n_hours=80,
                                  failures_at=((3, 34),))
    rows = assemble.build_event_stream(bundle)
    positives = rows[rows.label][["machine_id", "datetime"]].tolist()
    assert positives == [(3, hour(10))]


def test_matches_brute_force_join_oracle():
    bundle = helpers.micro_bundle(
        machines=3, n_hours=72,
        failures_at=((1, 30), (2, 50), (3, 71)),
        errors_at=((1, 6, 2), (1, 6, 4), (2, 0, 1), (3, 47, 5)),
        maintenance_at=((2, 10, 3),))
    assert helpers.table_rows(assemble.build_event_stream(bundle)) == \
        helpers.brute_force_stream(bundle)


@st.composite
def unmerged_bundles(draw):
    """A bundle built from tables as ``load_bundle`` leaves them: telemetry
    with gaps and in any row order, and event rows that may share a
    machine-hour, each a separate row."""
    machines = draw(st.integers(1, 3))
    n_hours = draw(st.integers(1, 96))
    gaps = st.sets(st.integers(0, n_hours - 1), max_size=6)
    tel = [helpers.telemetry(m, i) for m in range(1, machines + 1)
           for i in sorted(set(range(n_hours)) - draw(gaps))]
    keys = st.tuples(st.integers(1, machines), st.integers(0, n_hours - 1))

    def rows(make, values, max_size):
        drawn = draw(st.lists(st.tuples(keys, values), max_size=max_size))
        return [make(m, i, v) for (m, i), v in drawn]

    tables = {
        "telemetry": draw(st.permutations(tel)),
        "errors": rows(lambda m, i, v: helpers.error(m, i, *v),
                       st.sets(st.integers(1, 5), min_size=1), 10),
        "maintenance": rows(lambda m, i, v: helpers.maintenance(m, i, *v),
                            st.tuples(st.sets(st.integers(1, 4), min_size=1),
                                      st.sets(st.integers(1, 4))), 6),
        "failures": rows(lambda m, i, v: helpers.failure(m, i, v), st.integers(1, 4), 8),
        "machines": [helpers.descriptor(m) for m in range(1, machines + 1)],
    }
    return ingest.DatasetBundle(**{name: helpers.table(name, records)
                                   for name, records in tables.items()})


@settings(max_examples=200, deadline=None)
@given(bundle=unmerged_bundles(), horizon=st.integers(1, 48), window=st.booleans())
def test_unmerged_bundle_matches_brute_force_join_oracle(bundle, horizon, window):
    assert helpers.table_rows(assemble.build_event_stream(bundle, horizon, window)) == \
        helpers.brute_force_stream(bundle, horizon, window)


def test_window_variant_matches_oracle():
    bundle = helpers.micro_bundle(
        machines=2, n_hours=60, failures_at=((1, 40), (2, 12)),
        errors_at=((2, 3, 1),))
    assert helpers.table_rows(assemble.build_event_stream(bundle, 24, window=True)) == \
        helpers.brute_force_stream(bundle, window=True)


def test_window_labels_cover_the_whole_horizon():
    bundle = helpers.micro_bundle(machines=1, n_hours=80,
                                  failures_at=((1, 40),))
    rows = assemble.build_event_stream(bundle, 24, window=True)
    positive_hours = rows.datetime[rows.label].tolist()
    assert positive_hours == [hour(i) for i in range(16, 40)]


def test_row_count_arithmetic():
    for n_hours, horizon in ((30, 24), (48, 12), (25, 24)):
        bundle = helpers.micro_bundle(machines=2, n_hours=n_hours)
        rows = assemble.build_event_stream(bundle, horizon_hours=horizon)
        assert len(rows) == 2 * (n_hours - horizon)


def test_short_grid_yields_no_rows():
    bundle = helpers.micro_bundle(machines=1, n_hours=10)
    assert len(assemble.build_event_stream(bundle)) == 0


def test_stream_columns_have_the_types_the_schema_declares(small_rows):
    declared = np.dtype([(c, schema.column_type(c)) for c in schema.STREAM_COLUMNS])
    empty = assemble.build_event_stream(helpers.micro_bundle(machines=1, n_hours=10))
    assert small_rows.dtype == declared
    assert empty.dtype == declared


def test_horizon_past_int64_seconds_yields_no_rows():
    """Leads are compared in whole hours: t + horizon in datetime64[s]
    wraps round once the horizon's seconds pass int64."""
    bundle = helpers.micro_bundle(machines=2, n_hours=30, failures_at=((1, 20),))
    for horizon in (10**16, 2**63, 10**30):
        for window in (False, True):
            assert len(assemble.build_event_stream(bundle, horizon, window)) == 0


def test_window_horizon_past_every_timeline_builds_no_shifts():
    cases = [
        (helpers.micro_bundle(machines=2, n_hours=30, failures_at=((1, 20),)), 10**6, 0),
        # Every row of this year is within 8000 hours of a failure.
        (synth.generate(synth.SynthConfig(machines=2, days=365, seed=0)), 8000, 1520),
    ]
    for bundle, horizon, n_rows in cases:
        start = time.perf_counter()
        rows = assemble.build_event_stream(bundle, horizon, window=True)
        elapsed = time.perf_counter() - start
        assert len(rows) == n_rows and rows.label.all()
        assert elapsed < 1.0, f"took {elapsed:.1f}s; one shifted key set per hour?"


def test_rows_in_canonical_order(small_rows):
    keys = small_rows[["machine_id", "datetime"]].tolist()
    assert keys == sorted(keys)


def test_missing_descriptor_aborts_with_machine_id():
    bundle = helpers.micro_bundle(machines=2, n_hours=30)
    broken = assemble.DatasetBundle(
        telemetry=bundle.telemetry, errors=bundle.errors,
        maintenance=bundle.maintenance, failures=bundle.failures,
        machines=bundle.machines[:1])
    with pytest.raises(assemble.AssembleError, match="machine_id 2"):
        assemble.build_event_stream(broken)


def test_day_of_week_derived_from_datetime(small_rows):
    rows = small_rows[::501]
    days = [t.weekday() for t in rows.datetime.tolist()]
    assert rows.day_of_week.tolist() == [helpers.DOW[d] for d in days]
    # 2015-01-01, the first hour of every micro bundle, was a Thursday.
    first = assemble.build_event_stream(helpers.micro_bundle(machines=1, n_hours=25))
    assert first.day_of_week.tolist() == ["Thu"]


def test_encode_zscores_at_fit_mean():
    bundle = helpers.micro_bundle(machines=2, n_hours=26)
    rows = assemble.build_event_stream(bundle)
    data = assemble.encode(rows)
    j = data.encoding.feature_names.index("volt")
    volts = np.array([r.volt for r in rows])
    col = helpers.design_features(data)[:, j]
    at_mean = np.flatnonzero(np.isclose(volts, volts.mean()))
    for i in at_mean:
        assert abs(col[i]) < 1e-12
    assert abs(col.mean()) < 1e-12
    assert abs(col.std() - 1.0) < 1e-12


def test_apply_encoding_standardizes_continuous_columns_in_place(small_rows):
    matrix, _, names = assemble.raw_feature_matrix(small_rows)
    raw = matrix.copy()
    encoding = assemble.fit_encoding(dict(zip(names, matrix.T)), names)
    assert assemble.apply_encoding(matrix, encoding) is matrix
    for j, name in enumerate(names):
        if name in schema.CONTINUOUS_FEATURES:
            expected = (raw[:, j] - encoding.means[j]) / encoding.std_devs[j]
            assert np.array_equal(matrix[:, j], expected)
        else:
            assert matrix[:, j].tobytes() == raw[:, j].tobytes()


def test_positive_rows_get_weight_100():
    bundle = helpers.micro_bundle(machines=2, n_hours=40,
                                  failures_at=((1, 30),))
    rows = assemble.build_event_stream(bundle)
    data = assemble.encode(rows, weight_positive=100.0)
    assert set(data.sample_weights[data.labels]) == {100.0}
    assert set(data.sample_weights[~data.labels]) == {1.0}


def test_exactly_one_day_indicator_set(small_rows):
    rows = small_rows[::9]  # strided so the slice spans several machines
    data = assemble.encode(rows)
    dow_cols = [data.encoding.feature_names.index(f)
                for f in schema.DOW_FEATURES]
    x = helpers.design_features(data)
    sums = x[:, dow_cols].sum(axis=1)
    assert np.all(sums == 1.0)
    wednesday = [i for i, r in enumerate(rows) if r.day_of_week == "Wed"]
    j = data.encoding.feature_names.index("dow_wed")
    assert np.all(x[wednesday, j] == 1.0)


def test_feature_order_is_canonical_and_stable(small_rows):
    rows = small_rows[::9]
    a = assemble.encode(rows)
    b = assemble.encode(rows)
    assert a.encoding.feature_names == schema.FEATURE_NAMES
    assert a.encoding == b.encoding
    subset = assemble.encode(rows, features=["age", "error_2", "error_1"])
    assert subset.encoding.feature_names == ("error_1", "error_2", "age")


_GATHERS = (np.arange(3, 700, 7), np.array([], dtype=np.int64))


@pytest.mark.parametrize("features", [None, schema.ERROR_FLAGS + ("age",) + schema.MODEL_FLAGS,
                                      ["dow_sun", "dow_mon"]])
def test_gathering_by_index_matches_the_gathered_rows_bit_for_bit(small_rows, features):
    for index in _GATHERS:
        matrix, labels, names = assemble.raw_feature_matrix(small_rows, features, index)
        want, want_labels, want_names = assemble.raw_feature_matrix(small_rows[index], features)
        assert matrix.shape == want.shape and matrix.tobytes() == want.tobytes()
        assert labels.dtype == want_labels.dtype and np.array_equal(labels, want_labels)
        assert names == want_names


@pytest.mark.parametrize("features", [None, ["error_1", "volt", "dow_tue"]])
def test_encoding_by_index_matches_encoding_the_gathered_rows(small_rows, features):
    index = _GATHERS[0]
    got = assemble.encode(small_rows, features=features, index=index)
    want = assemble.encode(small_rows[index], features=features)
    assert got.dense.tobytes() == want.dense.tobytes()
    assert got.table.tobytes() == want.table.tobytes()
    assert np.array_equal(got.labels, want.labels)
    assert got.sample_weights.tobytes() == want.sample_weights.tobytes()
    assert got.encoding == want.encoding
    assert np.array_equal(got.groups, want.groups)


@pytest.mark.parametrize("index", [None, _GATHERS[0]], ids=["all", "index"])
@pytest.mark.parametrize("features", [None, schema.ERROR_FLAGS + ("age",) + schema.MODEL_FLAGS,
                                      schema.DOW_FEATURES, ["error_1", "volt", "dow_tue"]],
                         ids=["full", "paper-reduced", "dow", "mixed"])
def test_assembled_encoding_is_the_standardized_raw_matrix(small_rows, features, index):
    # The factored design, assembled, is the raw matrix standardized with its
    # own statistics, bit for bit.  Without telemetry its rows are the distinct
    # (x, y) rows with summed weights.  The table holds one row per distinct
    # non-telemetry row.
    data = assemble.encode(small_rows, features=features, index=index)
    matrix, labels, names = assemble.raw_feature_matrix(small_rows, features, index)
    encoding = assemble.fit_encoding(dict(zip(names, matrix.T)), names)
    weights = np.where(labels, 100.0, 1.0)
    telemetry = np.isin(names, schema.TELEMETRY_FIELDS)
    assert len(data.table) == len(np.unique(matrix[:, ~telemetry], axis=0))
    if not telemetry.any():
        _, first, inverse = np.unique(np.column_stack([matrix, labels]), axis=0,
                                      return_index=True, return_inverse=True)
        matrix, labels = matrix[first], labels[first]
        weights = np.bincount(inverse.ravel(), weights)
    want = assemble.apply_encoding(matrix, encoding)
    assert data.encoding == encoding
    got = helpers.design_features(data)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert data.labels.dtype == labels.dtype and np.array_equal(data.labels, labels)
    assert data.sample_weights.tobytes() == weights.tobytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_pattern_keys_match_a_dict_of_value_tuples(data):
    # Rows share a group iff their non-telemetry features are equal, and the
    # groups ascend with those values in canonical order.  Ages up to 2**60,
    # exact as floats, must be ranked, not read as digits of the key.
    flags = schema.ERROR_FLAGS + schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS + schema.MODEL_FLAGS
    pool = data.draw(st.lists(st.fixed_dictionaries({
        **dict.fromkeys(flags, st.booleans()), "age": st.integers(0, 2**20).map(lambda a: a << 40),
        "day_of_week": st.sampled_from(schema.DAY_NAMES)}), min_size=1, max_size=8))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    stream = np.zeros(len(picks), [(c, schema.column_type(c))
                                   for c in schema.STREAM_COLUMNS]).view(np.recarray)
    for column in pool[0]:
        stream[column] = [pool[i][column] for i in picks]
    for i, column in enumerate(schema.TELEMETRY_FIELDS):
        stream[column] = np.arange(len(picks)) * (i + 1.5)
    features = data.draw(st.none() | st.sets(st.sampled_from(schema.FEATURE_NAMES), min_size=1))
    names = [f for f in schema.FEATURE_NAMES if (features is None or f in features)
             and f not in schema.TELEMETRY_FIELDS]
    values = (list(map(tuple, assemble.raw_feature_matrix(stream, names)[0].tolist()))
              if names else [()] * len(stream))

    keys = assemble.pattern_keys(stream, features)
    first = {}
    for i, value in enumerate(values):
        first.setdefault(value, i)
    assert sorted(set(keys.tolist())) == list(range(len(first)))
    for i, value in enumerate(values):
        assert keys[i] == keys[first[value]]
    assert sorted(first, key=lambda value: keys[first[value]]) == sorted(first)
    # So the keys of any subset rank as that subset's own groups.
    subset = np.array(data.draw(st.lists(st.integers(0, len(stream) - 1), min_size=1)))
    assert np.array_equal(np.unique(keys[subset], return_inverse=True)[1],
                          assemble.pattern_keys(stream[subset], features))


def test_pattern_key_columns_are_24_bools_and_age(small_rows):
    # pattern_keys adds a bit for each bool column and age's rank, which is
    # below the row count, so its int64 key stays below 2**24 x rows.
    others = [f for f in schema.FEATURE_NAMES if f not in schema.TELEMETRY_FIELDS + ("age",)]
    assert len(others) == 24
    assert all(assemble._column(small_rows, f).dtype == bool for f in others)
    assert small_rows["age"].dtype == np.int64


def test_degenerate_column_error_names_column():
    bundle = helpers.micro_bundle(machines=1, n_hours=26)
    rows = assemble.build_event_stream(bundle)
    rows.pressure = 5.0
    with pytest.raises(assemble.EncodingError, match="pressure"):
        assemble.encode(rows)


def test_empty_rows_rejected(small_rows):
    with pytest.raises(assemble.EncodingError, match="non-empty"):
        assemble.encode(small_rows[:0])


def test_weight_positive_must_be_positive(small_rows):
    for weight in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="weight_positive"):
            assemble.encode(small_rows[:50], weight_positive=weight)


def test_unknown_feature_rejected(small_rows):
    with pytest.raises(assemble.EncodingError, match="unknown"):
        assemble.encode(small_rows[:50], features=["volt", "bogus"])


def test_horizon_config_validation():
    bundle = helpers.micro_bundle(machines=1, n_hours=30)
    for window in (False, True):
        with pytest.raises(ValueError, match="horizon_hours must be at least 1"):
            assemble.build_event_stream(bundle, horizon_hours=0, window=window)
    assert len(assemble.build_event_stream(bundle, horizon_hours=1)) == 29


# sha256 of the stream CSV that `failcast assemble` writes for the bundle
# below; any change to the stream's columns, row order or cell formatting
# changes these digests.
STREAM_CSV_SHA256 = {
    "point": "cbc1660a46b3013df3ca2f4713dc4299a50db0ef5eac1c82bdcb037108a5092d",
    "window": "d280e4ed40335c04317bc700fe72db771c232ef59be8d60d673c8beadb688196",
}


@pytest.mark.parametrize("labels", ["point", "window"])
def test_assemble_command_writes_pinned_stream_bytes(tmp_path, labels):
    bundle = helpers.micro_bundle(
        machines=3, n_hours=60,
        failures_at=((1, 40), (2, 30), (3, 59)),
        errors_at=((1, 6, 2), (1, 6, 4), (2, 0, 1), (2, 33, 3), (3, 47, 5)),
        maintenance_at=((1, 40, 2), (2, 10, 3)))
    # A value whose shortest round-trip form needs 17 significant digits.
    bundle.telemetry.volt[7] = 0.1 + 0.2  # row 7: machine 1, hour 7
    ingest.write_bundle(bundle, tmp_path / "data")
    out = tmp_path / "stream.csv"
    argv = ["assemble", "--in-dir", str(tmp_path / "data"), "--out", str(out)]
    if labels == "window":
        argv.append("--label-window")
    assert cli.main(argv) == cli.EXIT_OK
    data = out.read_bytes()
    assert b",0.30000000000000004," in data
    assert hashlib.sha256(data).hexdigest() == STREAM_CSV_SHA256[labels]
