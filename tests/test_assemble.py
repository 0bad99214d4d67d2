import datetime as dt
import hashlib
import time
import tracemalloc

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


def _unmerged_bundle(draw, machines, logged, n_hours, event_machines, outside=0):
    """A bundle of the ``machines`` built from tables as ``load_bundle`` leaves
    them: telemetry of the ``logged`` machines over ``n_hours`` with gaps and in
    any row order, and event rows that may share a machine-hour, each a separate
    row, at machines drawn from ``event_machines`` and hours up to ``outside``
    hours outside the grid."""
    gaps = st.sets(st.integers(0, n_hours - 1), max_size=6)
    tel = [helpers.telemetry(m, i) for m in logged
           for i in sorted(set(range(n_hours)) - draw(gaps))]
    keys = st.tuples(event_machines, st.integers(-outside, n_hours - 1 + outside))

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
        # The default age m + 2 for small ids, and no int64 overflow for large ones.
        "machines": [helpers.descriptor(m, age=m % 1000 + 2) for m in machines],
    }
    return ingest.DatasetBundle(**{name: helpers.table(name, records)
                                   for name, records in tables.items()})


@st.composite
def unmerged_bundles(draw):
    """Machines 1-3 over up to 96 hours, each with telemetry."""
    machines = range(1, draw(st.integers(1, 3)) + 1)
    n_hours = draw(st.integers(1, 96))
    return _unmerged_bundle(draw, machines, machines, n_hours,
                            st.integers(1, len(machines)))


# Sparse and extreme machine ids: the ends of int64, zero, negatives and 2**40.
EXTREME_IDS = (-2**63, -2**40, -7, -1, 0, 1, 2**40, 2**63 - 1)


@st.composite
def sparse_bundles(draw):
    """Up to four sparse or extreme machine ids, any of them without telemetry;
    event rows may name a machine in no table and lie up to 40 hours outside
    the telemetry span, on either side."""
    ids = st.sampled_from(EXTREME_IDS) | st.integers(-2**63, 2**63 - 1)
    machines = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    logged = draw(st.lists(st.sampled_from(machines), max_size=3, unique=True))
    n_hours = draw(st.integers(1, 72))
    return _unmerged_bundle(draw, machines, logged, n_hours,
                            st.sampled_from(machines) | ids, outside=40)


def _join_matches_the_oracle_in_any_block_size(bundle, horizon, window):
    """The join equals the brute-force oracle in one block and in blocks of 1, 2,
    3 and 7 rows, so that keys and gathers cross block edges.  The block size is
    set and restored here, since Hypothesis rejects function-scoped fixtures."""
    expected = helpers.brute_force_stream(bundle, horizon, window)
    default = schema.BLOCK_ROWS
    try:
        for block_rows in (default, 1, 2, 3, 7):
            schema.BLOCK_ROWS = block_rows
            assert helpers.table_rows(assemble.build_event_stream(bundle, horizon, window)) \
                == expected, f"in blocks of {block_rows} rows"
    finally:
        schema.BLOCK_ROWS = default


@settings(max_examples=200, deadline=None)
@given(bundle=unmerged_bundles(), horizon=st.integers(1, 48), window=st.booleans())
def test_unmerged_bundle_matches_brute_force_join_oracle(bundle, horizon, window):
    _join_matches_the_oracle_in_any_block_size(bundle, horizon, window)


@settings(max_examples=200, deadline=None)
@given(bundle=sparse_bundles(), horizon=st.integers(1, 48), window=st.booleans())
def test_sparse_bundle_matches_brute_force_join_oracle(bundle, horizon, window):
    _join_matches_the_oracle_in_any_block_size(bundle, horizon, window)


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


@pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
def test_join_holds_the_stream_and_little_more(window):
    """tracemalloc counts numpy's allocations exactly, so this bound does not
    flake.  Above the bundle, the join peaked at 2.27 times the stream's
    bytes when it held the sort order, a copy of the key columns and the day
    names beside the stream, and at 1.39 (119.5 bytes a stream row of 86) with
    one int64 key per row, the row index, the machines' last keys and one
    column-sized temporary.  With one-byte weekday codes, each machine's lead
    test on its own rows and the keys rebuilt from the stream once the row
    index is freed, it holds at most two row-sized int64 arrays beside the
    75-byte rows: 95.3 bytes a stream row, point and window (8 x 120, seed 7,
    numpy 2.4).  Keyed and gathered a block at a time, flags and labels found
    as runs of stream rows first, it holds 85.7, most of the rest being
    4096-row blocks."""
    bundle = synth.generate(synth.SynthConfig(machines=8, days=120, seed=7))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stream = assemble.build_event_stream(bundle, window=window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.dtype.itemsize == 75
    assert (peak - start) / len(stream) < 90


@pytest.mark.parametrize("order", ["canonical", "shuffled"])
@pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
def test_join_holds_the_stream_and_blocks_at_the_bench_size(bench_bundle, order, window):
    """On the 85,920-row bench stream the join held 92.8 bytes a stream row
    above the bundle when it kept an int64 key per row and counted each
    flag's rows in another (numpy 2.4).  Keyed a block at a time, with flags
    and labels found as runs of stream rows before the stream is made and the
    telemetry gathered a block at a time, it holds 78.8 bytes a row beside
    telemetry in canonical order, and 86.8 beside shuffled telemetry, whose
    sort order it also holds."""
    telemetry = bench_bundle.telemetry
    if order == "shuffled":
        telemetry = telemetry[np.random.default_rng(0).permutation(len(telemetry))]
    bundle = ingest.DatasetBundle(telemetry=telemetry, errors=bench_bundle.errors,
                                  maintenance=bench_bundle.maintenance,
                                  failures=bench_bundle.failures, machines=bench_bundle.machines)
    stream, peak = helpers.traced_peak(lambda: assemble.build_event_stream(bundle, window=window))
    assert len(stream) == 85920
    assert peak / len(stream) < (85 if order == "canonical" else 90)


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


def _bundle(telemetry, errors=(), maintenance=(), failures=(), machines=()):
    """The bundle of these records, a list for each dataset."""
    return ingest.DatasetBundle(
        telemetry=helpers.table("telemetry", telemetry), errors=helpers.table("errors", errors),
        maintenance=helpers.table("maintenance", maintenance),
        failures=helpers.table("failures", failures), machines=helpers.table("machines", machines))


def _at(record, when):
    return dict(record, datetime=when)


def test_telemetry_from_year_1_to_9999_matches_the_oracle():
    # Ingest's widest span: two machines logged in the first and last hours
    # that ingest accepts, with events and failures near both ends.
    early = [dt.datetime(1, 1, 1) + dt.timedelta(hours=i) for i in range(30)]
    late = [dt.datetime(9999, 12, 30) - dt.timedelta(hours=i) for i in range(30)][::-1]
    bundle = _bundle(
        telemetry=[_at(helpers.telemetry(m, i), t) for m in (3, 8)
                   for i, t in enumerate(early + late)],
        errors=[_at(helpers.error(3, 0, 2), early[5]), _at(helpers.error(8, 0, 4), late[3])],
        maintenance=[_at(helpers.maintenance(8, 0, comps=(1,)), late[0])],
        failures=[_at(helpers.failure(3, 0), early[29]), _at(helpers.failure(8, 0), late[29])],
        machines=[helpers.descriptor(3), helpers.descriptor(8)])
    for window, positives in ((False, 2), (True, 25)):
        rows = assemble.build_event_stream(bundle, window=window)
        # Every early hour and the six late ones a day before the last.
        assert len(rows) == 72 and rows.label.sum() == positives
        assert helpers.table_rows(rows) == helpers.brute_force_stream(bundle, window=window)


@pytest.mark.parametrize("machines, span, joins", [
    (1, 2**63 - 4, True), (1, 2**63 - 3, False), (2, 2**62 - 4, True), (2, 2**62 - 3, False)])
def test_join_keys_never_wrap(machines, span, joins):
    # A key is a machine rank x radix + seconds, the radix the telemetry span
    # plus 3 seconds, so len(machines) x radix must stay below 2**63.  A bundle
    # past that bound is refused; at it, events one second outside the span
    # flag nothing and a failure labels its machine's first hour.
    start, ids = -2**62, (5, 9)[:machines]
    first, last, outside = (np.datetime64(start + s, "s") for s in (0, span, -1))
    bundle = _bundle(
        telemetry=[_at(helpers.telemetry(m, 0), t) for m in ids for t in (first, last)],
        errors=[_at(helpers.error(m, 0, 1), t) for m in ids
                for t in (outside, np.datetime64(start + span + 1, "s"))],
        failures=[_at(helpers.failure(ids[-1], 0), first + np.timedelta64(24, "h"))],
        machines=[helpers.descriptor(m) for m in ids])
    if not joins:
        with pytest.raises(assemble.AssembleError, match=r"^telemetry spans .* too long"):
            assemble.build_event_stream(bundle)
        return
    rows = assemble.build_event_stream(bundle)
    assert rows.machine_id.tolist() == list(ids) and (rows.datetime == first).all()
    assert not rows.error_1.any() and rows.label.tolist() == [m == ids[-1] for m in ids]


def test_events_outside_the_span_flag_no_other_machine():
    # Two machines over hours 0-29: the radix is 29 hours and 3 seconds.
    # Unclipped, an event of machine 2 one radix before hour 5 would take the
    # key of machine 1's hour 5, and one of machine 1 a radix after hour 5
    # the key of machine 2's hour 5.
    bundle = helpers.micro_bundle(machines=2, n_hours=30)
    radix = dt.timedelta(hours=29, seconds=3)
    bundle = _bundle(helpers.table_rows(bundle.telemetry),
                     errors=[_at(helpers.error(2, 0, 1), helpers.hour(5) - radix),
                             _at(helpers.error(1, 0, 2), helpers.hour(5) + radix)],
                     machines=helpers.table_rows(bundle.machines))
    rows = assemble.build_event_stream(bundle)
    assert not rows.error_1.any() and not rows.error_2.any()
    assert helpers.table_rows(rows) == helpers.brute_force_stream(bundle)


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


def test_missing_descriptor_of_a_machine_without_labelable_rows_is_named():
    # Machine 1 has 10 hours of telemetry, too few for any row to be labelable
    # at the 24-hour horizon; machines 1 and 3 lack descriptors, and the rows
    # are reversed so the smallest missing id is not the first one read.
    bundle = helpers.micro_bundle(machines=3, n_hours=30)
    telemetry = bundle.telemetry
    short = telemetry[(telemetry.machine_id != 1) | (telemetry.datetime < helpers.hour(10))]
    broken = assemble.DatasetBundle(
        telemetry=short[::-1], errors=bundle.errors, maintenance=bundle.maintenance,
        failures=bundle.failures, machines=bundle.machines[1:2])
    with pytest.raises(assemble.AssembleError,
                       match=r"^telemetry references machine_id 1 absent from the machines dataset$"):
        assemble.build_event_stream(broken)


def test_empty_machines_table_misses_every_telemetry_machine():
    # No machine has a rank to key by: every telemetry row is the missing-machine
    # error, and without telemetry the stream is empty.
    bundle = helpers.micro_bundle(machines=3, n_hours=30, failures_at=((2, 28),))
    broken = assemble.DatasetBundle(
        telemetry=bundle.telemetry[::-1], errors=bundle.errors, maintenance=bundle.maintenance,
        failures=bundle.failures, machines=bundle.machines[:0])
    with pytest.raises(assemble.AssembleError,
                       match=r"^telemetry references machine_id 1 absent from the machines dataset$"):
        assemble.build_event_stream(broken)
    empty = assemble.DatasetBundle(
        telemetry=bundle.telemetry[:0], errors=bundle.errors, maintenance=bundle.maintenance,
        failures=bundle.failures, machines=bundle.machines[:0])
    assert len(assemble.build_event_stream(empty)) == 0


@pytest.mark.parametrize("end", ["earliest", "latest"])
def test_grid_at_either_end_of_datetime64_joins_as_it_does_in_2015(end):
    # Keys count seconds from the first telemetry time, so moving every table by
    # one delta moves only the stream's datetimes and weekdays.  Moved so its
    # first time is the earliest datetime64[s] after NaT, or its last the latest,
    # the join's clip bounds reach int64's ends: a failure at the latest second
    # still labels the row a horizon before it.
    bundle = helpers.micro_bundle(machines=2, n_hours=40, failures_at=((1, 39), (2, 30)),
                                  errors_at=((1, 0, 2), (2, 39, 1), (2, 5, 1)),
                                  maintenance_at=((1, 12, 2),))
    seconds = bundle.telemetry.datetime.view(np.int64)
    # A time t moves to t - anchor + target, which int64 holds throughout.
    anchor, target = ((int(seconds.min()), -2**63 + 1) if end == "earliest"
                      else (int(seconds.max()), 2**63 - 1))
    moved = {}
    for name in ("telemetry", "errors", "maintenance", "failures"):
        moved[name] = getattr(bundle, name).copy()
        moved[name].datetime.view(np.int64)[:] -= anchor
        moved[name].datetime.view(np.int64)[:] += target
    moved = assemble.DatasetBundle(machines=bundle.machines, **moved)
    for window in (False, True):
        want = assemble.build_event_stream(bundle, window=window)
        got = assemble.build_event_stream(moved, window=window)
        assert want.label.any() and want.error_1.any()
        times = got.datetime.view(np.int64).tolist()
        assert times == [t - anchor + target for t in want.datetime.view(np.int64).tolist()]
        assert got.day_of_week.tolist() == [(t // 86400 + 3) % 7 for t in times]
        for column in schema.STREAM_COLUMNS:
            if column not in ("datetime", "day_of_week"):
                assert np.array_equal(got[column], want[column]), column


def test_day_of_week_derived_from_datetime(small_rows):
    # The code is the day's index in DAY_NAMES, Monday 0, as datetime.weekday() counts.
    assert schema.column_type("day_of_week") == np.int8
    rows = small_rows[::501]
    assert rows.day_of_week.tolist() == [t.weekday() for t in rows.datetime.tolist()]
    # 2015-01-01, the first hour of every micro bundle, was a Thursday.
    first = assemble.build_event_stream(helpers.micro_bundle(machines=1, n_hours=25))
    assert first.day_of_week.tolist() == [3]
    assert [helpers.DOW[d] for d in first.day_of_week] == ["Thu"]
    # Days before 1970 have negative day numbers, and the year-9999 end large ones.
    for start in (dt.datetime(1, 1, 1), dt.datetime(1900, 3, 1), dt.datetime(1969, 12, 29, 20),
                  dt.datetime(1969, 12, 31, 23), dt.datetime(2000, 2, 28, 12),
                  dt.datetime(9999, 12, 20)):
        bundle = helpers.micro_bundle(machines=1, n_hours=24 * 9)
        bundle.telemetry.datetime += np.datetime64(start) - np.datetime64(helpers.T0)
        rows = assemble.build_event_stream(bundle)
        assert len(rows) == 24 * 8
        assert rows.day_of_week.tolist() == [t.weekday() for t in rows.datetime.tolist()]


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
    wednesday = [i for i, r in enumerate(rows) if helpers.DOW[r.day_of_week] == "Wed"]
    assert wednesday
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


def test_encode_holds_its_design_and_one_column_at_the_bench_size(bench_rows, bench_folds):
    """Fold 0 of the bench set trains on 27,924 rows.  Its design keeps 49 bytes a
    row (four standardized telemetry columns, the pattern index, the label and the
    weight) and a table of its patterns.  Encoding peaked at 72.6 bytes a row when
    it gathered each continuous column as a float copy for its statistics and the
    telemetry block from a list of columns (numpy 2.4); with the statistics taken
    on the block's own columns, filled one column at a time, it peaks at 56.6."""
    index = bench_folds[0].train_rows
    keys = assemble.pattern_keys(bench_rows)
    design, peak = helpers.traced_peak(lambda: assemble.encode(bench_rows, index=index, keys=keys))
    assert design.dense.shape == (27924, 4) and design.dense.flags.f_contiguous
    assert peak / len(index) < 64


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
    # Rows share a key iff their non-telemetry features are equal, and the keys
    # ascend with those values in canonical order.  Ages up to 2**60, exact as
    # floats, must be ranked, not read as digits of the key.
    flags = schema.ERROR_FLAGS + schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS + schema.MODEL_FLAGS
    pool = data.draw(st.lists(st.fixed_dictionaries({
        **dict.fromkeys(flags, st.booleans()), "age": st.integers(0, 2**20).map(lambda a: a << 40),
        "day_of_week": st.integers(0, len(schema.DAY_NAMES) - 1)}), min_size=1, max_size=8))
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
    assert keys.dtype == np.int64 and 0 <= keys.min() <= keys.max() < 2**24 * len(stream)
    assert len(set(keys.tolist())) == len(first)
    for i, value in enumerate(values):
        assert keys[i] == keys[first[value]]
    assert sorted(first, key=lambda value: keys[first[value]]) == sorted(first)
    # So the keys of any subset rank as the keys computed on that subset.
    subset = np.array(data.draw(st.lists(st.integers(0, len(stream) - 1), min_size=1)))
    assert np.array_equal(
        np.unique(keys[subset], return_inverse=True)[1],
        np.unique(assemble.pattern_keys(stream[subset], features), return_inverse=True)[1])


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
    with pytest.raises(assemble.EncodingError, match="'pressure' is constant"):
        assemble.encode(rows)
    # Alternating +-1e308: a finite mean, but the squares overflow the std.
    rows = assemble.build_event_stream(bundle)
    rows.volt = [1e308, -1e308]
    with pytest.raises(assemble.EncodingError, match="'volt' has a non-finite mean or std"):
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


def test_empty_feature_set_rejected(small_rows):
    with pytest.raises(assemble.EncodingError, match="empty feature set"):
        assemble.encode(small_rows[:50], features=[])
    with pytest.raises(assemble.EncodingError, match="empty feature set"):
        assemble.raw_feature_matrix(small_rows[:50], features=[])


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
