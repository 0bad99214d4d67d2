import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast import ingest, schema

import helpers
from helpers import hour


def test_feature_name_layout():
    assert len(schema.FEATURE_NAMES) == 29
    assert schema.FEATURE_NAMES == (
        schema.ERROR_FLAGS + schema.COMP_FLAGS + schema.COMP_FAIL_FLAGS
        + schema.TELEMETRY_FIELDS + ("age",) + schema.MODEL_FLAGS
        + schema.DOW_FEATURES)
    assert len(set(schema.FEATURE_NAMES)) == 29
    assert set(schema.CONTINUOUS_FEATURES) == {
        "volt", "rotate", "pressure", "vibration", "age"}


def test_day_of_week_matches_calendar():
    # 2015-01-01 was a Thursday; DAY_NAMES is indexed by datetime.weekday()
    assert schema.DAY_NAMES[dt.datetime(2015, 1, 1).weekday()] == "Thu"
    for i in range(14):
        t = hour(i * 24)
        assert schema.DAY_NAMES[t.weekday()] == helpers.DOW[t.weekday()]
        assert schema.DAY_NAMES[t.weekday()] == t.strftime("%a")
    assert schema.DOW_FEATURES == tuple(f"dow_{d.lower()}" for d in helpers.DOW)


def test_fail_without_replacement_is_violation():
    record = helpers.maintenance(1, 0, comps=(2,))
    record["comp_1_fail"] = True
    report = schema.validate_dataset(helpers.table("maintenance", [record]),
                                     "maintenance")
    assert any("fail implies replaced" in v.message for v in report)
    assert report[0].row_index == 0


def test_two_model_flags_is_violation():
    record = dict(machine_id=1, age=3, model_1=True, model_2=True,
                  model_3=False, model_4=False)
    report = schema.validate_dataset(helpers.table("machines", [record]),
                                     "machines")
    assert any("exactly one model" in v.message for v in report)


def test_clean_telemetry_has_empty_report():
    records = [helpers.telemetry(1, i) for i in range(5)]
    assert schema.validate_dataset(helpers.table("telemetry", records),
                                   "telemetry") == []


def test_duplicate_telemetry_key_is_violation():
    records = [helpers.telemetry(1, 0), helpers.telemetry(1, 0)]
    report = schema.validate_dataset(helpers.table("telemetry", records),
                                     "telemetry")
    assert len(report) == 1
    assert "duplicate" in report[0].message
    assert report[0].row_index == 1


def test_non_finite_telemetry_is_violation():
    report = schema.validate_dataset(
        helpers.table("telemetry", [helpers.telemetry(1, 0, volt=float("nan"))]),
        "telemetry")
    assert any("volt" in v.message for v in report)


def test_off_hour_datetime_is_violation():
    record = helpers.error(1, 0, 1)
    record["datetime"] = dt.datetime(2015, 1, 1, 10, 30)
    report = schema.validate_dataset(helpers.table("errors", [record]), "errors")
    assert any("not on the hour" in v.message for v in report)


def test_all_false_event_is_violation():
    record = helpers.error(1, 0)
    report = schema.validate_dataset(helpers.table("errors", [record]), "errors")
    assert any("at least one" in v.message for v in report)


def test_negative_age_and_duplicate_machine():
    records = [helpers.descriptor(1, age=-1), helpers.descriptor(1)]
    report = schema.validate_dataset(helpers.table("machines", records), "machines")
    messages = " | ".join(v.message for v in report)
    assert "negative" in messages
    assert "duplicate machine_id" in messages


def test_violations_preserve_row_order():
    records = helpers.table("machines", [helpers.descriptor(i, age=-1) for i in (1, 2, 3)])
    report = schema.validate_dataset(records, "machines")
    assert [v.row_index for v in report] == [0, 1, 2]
    assert schema.validate_dataset(records, "machines") == report


_ids = st.integers(min_value=1, max_value=500)
_hours = st.integers(min_value=0, max_value=10_000).map(hour)
_reals = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@st.composite
def telemetry_records(draw):
    return dict(machine_id=draw(_ids), datetime=draw(_hours), volt=draw(_reals),
                rotate=draw(_reals), pressure=draw(_reals), vibration=draw(_reals))


@st.composite
def maintenance_records(draw):
    fails = draw(st.sets(st.integers(1, 4)))
    comps = draw(st.sets(st.integers(1, 4), min_size=1)) | fails
    vals = {f"comp_{k}": k in comps for k in range(1, 5)}
    vals.update({f"comp_{k}_fail": k in fails for k in range(1, 5)})
    return dict(machine_id=draw(_ids), datetime=draw(_hours), **vals)


@given(records=st.lists(telemetry_records(), min_size=1, max_size=8))
def test_telemetry_csv_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "telemetry.csv"
    ingest.write_csv(path, helpers.table("telemetry", records))
    parsed = ingest.parse_csv(path, "telemetry")
    assert helpers.table_rows(parsed) == records


@given(records=st.lists(maintenance_records(), min_size=1, max_size=8))
def test_maintenance_csv_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "maintenance.csv"
    ingest.write_csv(path, helpers.table("maintenance", records))
    assert helpers.table_rows(ingest.parse_csv(path, "maintenance")) == records


def test_fixed_record_round_trips(tmp_path):
    cases = {
        "errors": helpers.error(3, 5, 2, 4),
        "failures": helpers.failure(9, 100, comp=3),
        "machines": helpers.descriptor(4, age=0, model=2),
    }
    for dataset, record in cases.items():
        path = tmp_path / f"{dataset}.csv"
        ingest.write_csv(path, helpers.table(dataset, [record]))
        header, row = path.read_text().splitlines()
        assert header == ",".join(schema.CSV_COLUMNS[dataset])
        assert row.split(",")[0] == str(record["machine_id"])
        assert helpers.table_rows(ingest.parse_csv(path, dataset)) == [record]


def test_bool_formatting():
    assert list(ingest._canonical(np.array([True]))) == ["1"]
    assert list(ingest._canonical(np.array([False]))) == ["0"]
    assert list(ingest._canonical(np.array([hour(0)], "datetime64[s]"))) == \
        ["2015-01-01 00:00:00"]
