import datetime as dt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast import assemble, ingest, schema

import helpers
from helpers import hour


def _hour_of(text):
    return np.datetime64(text, "s")


def test_round_down_before_half():
    assert ingest.round_to_hour(_hour_of("2015-01-03T10:29:59")) == \
        _hour_of("2015-01-03T10")


def test_round_half_up():
    assert ingest.round_to_hour(_hour_of("2015-01-03T10:30")) == \
        _hour_of("2015-01-03T11")


def test_round_identity_on_grid():
    assert ingest.round_to_hour(_hour_of("2015-01-03T10")) == \
        _hour_of("2015-01-03T10")


def test_round_just_past_half_goes_up():
    assert ingest.round_to_hour(np.datetime64("2015-01-03T10:30:00.000001")) == \
        _hour_of("2015-01-03T11")


@given(st.datetimes(min_value=dt.datetime(2000, 1, 1),
                    max_value=dt.datetime(2030, 1, 1)))
def test_round_is_idempotent_and_on_hour(t):
    t = np.datetime64(t)
    rounded = ingest.round_to_hour(t)
    assert rounded == rounded.astype("datetime64[h]")
    assert ingest.round_to_hour(rounded) == rounded
    assert abs(rounded - t) <= np.timedelta64(1800, "s")


def _write(path, text):
    path.write_text(text)
    return path


def _write_minimal(dir_path, telemetry_rows):
    """Write a minimal consistent bundle with custom telemetry body."""
    files = {
        "telemetry": "machine_id,datetime,volt,rotate,pressure,vibration\n"
                     + telemetry_rows,
        "errors": "machine_id,datetime,error_1,error_2,error_3,error_4,error_5\n",
        "maintenance": "machine_id,datetime,comp_1,comp_2,comp_3,comp_4,"
                       "comp_1_fail,comp_2_fail,comp_3_fail,comp_4_fail\n",
        "failures": "machine_id,datetime,comp_1,comp_2,comp_3,comp_4\n",
        "machines": "machine_id,age,model_1,model_2,model_3,model_4\n"
                    "1,5,1,0,0,0\n",
    }
    paths = {}
    for key, content in files.items():
        paths[key] = _write(dir_path / ingest.BUNDLE_FILENAMES[key], content)
    return paths


def test_single_row_happy_path(tmp_path):
    paths = _write_minimal(
        tmp_path, "1,2015-01-01 00:00:00,170.0,450.0,100.0,40.0\n")
    bundle, violations = ingest.load_bundle(**paths)
    assert helpers.table_rows(bundle.telemetry) == [helpers.telemetry(
        1, 0, volt=170.0, rotate=450.0, pressure=100.0, vibration=40.0)]
    assert violations == []


def test_malformed_volt_names_line_and_column(tmp_path):
    paths = _write_minimal(tmp_path, "1,2015-01-01 00:00:00,abc,450,100,40\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert exc.value.line == 2
    assert exc.value.column == "volt"
    assert "telemetry.csv" in exc.value.path


def test_missing_column_in_header(tmp_path):
    paths = _write_minimal(tmp_path, "")
    _write(tmp_path / "telemetry.csv",
           "machine_id,datetime,volt,rotate,pressure\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert "vibration" in str(exc.value)


def test_malformed_datetime_is_structural(tmp_path):
    paths = _write_minimal(tmp_path, "1,01/02/2015 10:00,1,1,1,1\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert exc.value.column == "datetime"


def test_empty_file_is_structural(tmp_path):
    paths = _write_minimal(tmp_path, "")
    _write(tmp_path / "telemetry.csv", "")
    with pytest.raises(ingest.IngestError):
        ingest.load_bundle(**paths)


def test_unknown_machine_reference_is_violation(tmp_path):
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-01 00:00:00,170,450,100,40\n"
        "2,2015-01-01 00:00:00,170,450,100,40\n")
    bundle, violations = ingest.load_bundle(**paths)
    assert bundle.telemetry.machine_id.tolist() == [1]
    assert any("machine_id 2" in v.message and v.dataset == "telemetry"
               for v in violations)


def test_timestamps_rounded_on_ingest(tmp_path):
    paths = _write_minimal(
        tmp_path, "1,2015-01-01 00:40:12,170,450,100,40\n")
    bundle, _ = ingest.load_bundle(**paths)
    assert bundle.telemetry[0].datetime == dt.datetime(2015, 1, 1, 1)


def test_rounding_collision_is_duplicate_violation(tmp_path):
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-01 00:10:00,170,450,100,40\n"
        "1,2015-01-01 00:20:00,171,451,101,41\n")
    _, violations = ingest.load_bundle(**paths)
    assert any("duplicate" in v.message for v in violations)


def test_grid_gap_reported_but_tolerated(tmp_path):
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-01 00:00:00,170,450,100,40\n"
        "1,2015-01-01 03:00:00,170,450,100,40\n")
    bundle, violations = ingest.load_bundle(**paths)
    assert len(bundle.telemetry) == 2
    gap = [v for v in violations if "missing hour" in v.message]
    assert gap and "2 missing" in gap[0].message


def test_error_events_or_merged_on_collision(tmp_path):
    """Event rows that round to one machine-hour stay separate bundle rows;
    the stream row at that hour ORs their flags."""
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-01 00:00:00,170,450,100,40\n"
        "1,2015-01-01 01:00:00,170,450,100,40\n")
    _write(tmp_path / "errors.csv",
           "machine_id,datetime,error_1,error_2,error_3,error_4,error_5\n"
           "1,2015-01-01 00:10:00,1,0,0,0,0\n"
           "1,2015-01-01 00:20:00,0,0,1,0,0\n")
    bundle, violations = ingest.load_bundle(**paths)
    assert violations == []
    assert len(bundle.errors) == 2
    rows = assemble.build_event_stream(bundle, horizon_hours=1)
    assert rows.datetime.tolist() == [dt.datetime(2015, 1, 1)]
    assert [bool(rows[f][0]) for f in schema.ERROR_FLAGS] == [True, False, True, False, False]


def test_distinct_hours_not_merged(tmp_path):
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-01 00:00:00,170,450,100,40\n"
        "1,2015-01-01 01:00:00,170,450,100,40\n")
    _write(tmp_path / "errors.csv",
           "machine_id,datetime,error_1,error_2,error_3,error_4,error_5\n"
           "1,2015-01-01 00:00:00,1,0,0,0,0\n"
           "1,2015-01-01 01:00:00,0,0,1,0,0\n")
    bundle, _ = ingest.load_bundle(**paths)
    assert len(bundle.errors) == 2
    rows = assemble.build_event_stream(bundle, horizon_hours=1)
    assert rows.datetime.tolist() == [dt.datetime(2015, 1, 1)]
    assert [bool(rows[f][0]) for f in schema.ERROR_FLAGS] == [True, False, False, False, False]


def test_load_is_deterministic(tmp_path):
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-01 00:00:00,170,450,100,40\n"
        "1,2015-01-01 01:00:00,171,451,101,41\n")
    first, first_violations = ingest.load_bundle(**paths)
    second, second_violations = ingest.load_bundle(**paths)
    assert helpers.bundle_rows(first) == helpers.bundle_rows(second)
    assert first_violations == second_violations


def test_write_then_load_round_trip(tmp_path, small_bundle):
    ingest.write_bundle(small_bundle, tmp_path / "out")
    loaded, violations = ingest.load_bundle(
        **{key: tmp_path / "out" / name for key, name in ingest.BUNDLE_FILENAMES.items()})
    assert violations == []
    assert helpers.bundle_rows(loaded) == helpers.bundle_rows(small_bundle)


def test_pre_1000_datetime_round_trips(tmp_path):
    # strftime writes year 999 as "999", which strptime's %Y cannot read back.
    written = helpers.table("failures", [helpers.failure(1, 0, comp=2)])
    written.datetime = np.datetime64("0999-01-01T05:00:00")
    path = tmp_path / "failures.csv"
    ingest.write_csv(path, written)
    assert path.read_text().splitlines()[1] == "1,0999-01-01 05:00:00,0,1,0,0"
    assert helpers.table_rows(ingest.parse_csv(path, "failures")) == \
        helpers.table_rows(written)


@pytest.mark.parametrize("block_rows", [1, 2])
def test_written_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, small_rows,
                                                   block_rows):
    rows = small_rows[:101]
    ingest.write_csv(tmp_path / "whole.csv", rows)
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    ingest.write_csv(tmp_path / "blocked.csv", rows)
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_bool_cells_must_be_zero_or_one(tmp_path):
    paths = _write_minimal(
        tmp_path, "1,2015-01-01 00:00:00,170,450,100,40\n")
    _write(tmp_path / "errors.csv",
           "machine_id,datetime,error_1,error_2,error_3,error_4,error_5\n"
           "1,2015-01-01 00:00:00,true,0,0,0,0\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert exc.value.column == "error_1"


def test_violation_report_lists_every_kind_in_order(tmp_path):
    files = {
        "telemetry": "machine_id,datetime,volt,rotate,pressure,vibration\n"
                     "1,2015-01-01 00:00:00,170,450,100,40\n"
                     "1,2015-01-01 01:00:00,nan,450,inf,40\n"
                     "1,2015-01-01 01:20:00,171,451,101,41\n"
                     "1,2015-01-01 04:00:00,170,450,100,40\n"
                     "9,2015-01-01 00:00:00,170,450,100,40\n"
                     "2,2015-01-01 00:00:00,170,450,100,40\n"
                     "2,2015-01-01 01:00:00,170,450,100,40\n",
        "errors": "machine_id,datetime,error_1,error_2,error_3,error_4,error_5\n"
                  "1,2015-01-01 00:00:00,0,0,0,0,0\n"
                  "1,2015-01-01 01:00:00,1,0,0,0,0\n"
                  "9,2015-01-01 02:00:00,0,1,0,0,0\n"
                  "0,2015-01-01 02:00:00,0,1,0,0,0\n",
        "maintenance": "machine_id,datetime,comp_1,comp_2,comp_3,comp_4,"
                       "comp_1_fail,comp_2_fail,comp_3_fail,comp_4_fail\n"
                       "1,2015-01-01 00:00:00,0,1,0,0,1,0,0,0\n"
                       "2,2015-01-01 00:00:00,0,0,0,0,0,0,0,0\n"
                       "2,2015-01-01 01:00:00,0,0,0,0,0,0,1,0\n"
                       "9,2015-01-01 01:00:00,1,0,0,0,0,0,0,0\n",
        "failures": "machine_id,datetime,comp_1,comp_2,comp_3,comp_4\n"
                    "2,2015-01-01 01:00:00,0,0,0,0\n"
                    "9,2015-01-01 01:00:00,1,0,0,0\n",
        "machines": "machine_id,age,model_1,model_2,model_3,model_4\n"
                    "1,5,1,0,0,0\n"
                    "2,7,0,1,0,0\n"
                    "5,-2,1,1,0,0\n"
                    "6,3,0,0,0,0\n"
                    "7,4,0,0,0,1\n"
                    "7,4,0,0,0,1\n",
    }
    paths = {key: _write(tmp_path / ingest.BUNDLE_FILENAMES[key], text)
             for key, text in files.items()}
    _, violations = ingest.load_bundle(**paths)
    fail_implies = "set without {}; fail implies replaced"
    no_flag = "no flag set; events must mark at least one"
    unknown = "machine_id {} not in machines dataset"
    assert [(v.dataset, v.row_index, v.message) for v in violations] == [
        ("telemetry", 1, "volt is not finite"),
        ("telemetry", 1, "pressure is not finite"),
        ("telemetry", 2, "duplicate (machine_id, datetime) "
                         "(1, datetime.datetime(2015, 1, 1, 1, 0)), first at row 1"),
        ("errors", 0, no_flag),
        ("errors", 3, "machine_id 0 not positive"),
        ("maintenance", 0, "comp_1_fail " + fail_implies.format("comp_1")),
        ("maintenance", 1, no_flag),
        ("maintenance", 2, no_flag),
        ("maintenance", 2, "comp_3_fail " + fail_implies.format("comp_3")),
        ("failures", 0, no_flag),
        ("machines", 2, "age -2 negative"),
        ("machines", 2, "exactly one model flag required, got 2"),
        ("machines", 3, "exactly one model flag required, got 0"),
        ("machines", 5, "duplicate machine_id 7, first at row 4"),
        ("telemetry", 4, unknown.format(9)),
        ("errors", 2, unknown.format(9)),
        ("errors", 3, unknown.format(0)),
        ("maintenance", 3, unknown.format(9)),
        ("failures", 1, unknown.format(9)),
        ("telemetry", None, "machine 1: 2 missing hour(s) after 2015-01-01 01:00:00"),
    ]


@pytest.mark.parametrize("body, line, column", [
    # a bad cell, then a short row further down
    ("1,2015-01-01 01:00:00,abc,450,100,40\n1,2015-01-01 02:00:00,1,1,1\n",
     3, "volt"),
    # a short row, then a bad cell further down
    ("1,2015-01-01 01:00:00,1,1,1\n1,2015-01-01 02:00:00,abc,450,100,40\n",
     3, "-"),
    # within one line the field count is checked before any cell
    ("1,2015-01-01 01:00:00,abc,450,100\n", 3, "-"),
    # and cells are checked left to right
    ("1,2015-01-01 1:00,abc,450,100,x\n", 3, "datetime"),
])
@pytest.mark.parametrize("block_rows", [1, 2, None])
def test_first_structural_fault_in_file_order_is_reported(tmp_path, monkeypatch, body,
                                                          line, column, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    paths = _write_minimal(tmp_path, "1,2015-01-01 00:00:00,170,450,100,40\n" + body)
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("block_rows", [1, None])
def test_oversized_field_is_structural_at_its_line(tmp_path, monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    oversized = "1,2015-01-01 01:00:00," + "9" * 200_000 + ",450,100,40\n"  # past csv's limit
    paths = _write_minimal(tmp_path, "1,2015-01-01 00:00:00,170,450,100,40\n" + oversized)
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert (exc.value.line, exc.value.column) == (3, "-")
    assert "field larger than field limit" in str(exc.value)
    # A fault on an earlier line is still the one reported.
    paths = _write_minimal(tmp_path, "1,2015-01-01 00:00:00,abc,450,100,40\n" + oversized)
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert (exc.value.line, exc.value.column) == (2, "volt")


def test_undecodable_bytes_name_their_cell(tmp_path):
    paths = _write_minimal(tmp_path, "1,2015-01-01 00:00:00,170,450,100,40\n")
    paths["errors"].write_bytes(
        b"machine_id,datetime,error_1,error_2,error_3,error_4,error_5\n"
        b"1,2015-01-01 00:00:00,\xff\xfe,0,0,0,0\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert (exc.value.line, exc.value.column) == (2, "error_1")
    assert str(exc.value).endswith("expected 0 or 1, got '\\udcff\\udcfe'")


def test_rows_parsed_in_blocks_load_the_same_table(tmp_path, monkeypatch):
    paths = _write_minimal(tmp_path, "".join(
        f"1,2015-01-01 {h:02d}:00:00,{170 + h},450,100,40\n" + ("\n" if h == 2 else "")
        for h in range(7)))
    whole, _ = ingest.load_bundle(**paths)
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 2)
    blocked, violations = ingest.load_bundle(**paths)
    assert violations == []
    assert helpers.bundle_rows(blocked) == helpers.bundle_rows(whole)
    assert len(blocked.telemetry) == 7
    # An empty line still counts, so the last row is on line 10.
    _write(paths["telemetry"], paths["telemetry"].read_text() + "1,bad,1,1,1,1\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert (exc.value.line, exc.value.column) == (10, "datetime")


@pytest.mark.parametrize("block_rows", [1, None])
def test_fault_after_quoted_newline_names_its_physical_line(tmp_path, monkeypatch,
                                                            block_rows):
    if block_rows is not None:
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "t.csv"
    _write(path, "machine_id,datetime,volt,rotate,pressure,vibration\n"
                 '1,2015-01-01 00:00:00,"1\n",450,100,40\n'
                 "1,2015-01-01 01:00:00,abc,450,100,40\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.parse_csv(path, "telemetry")
    assert str(exc.value).startswith(f"{path}:4:volt: ")


def test_unpadded_datetime_and_padded_cells_load(tmp_path):
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-1 0:00:00,170,450,100,40\n"
        " 1 , 2015-01-01 01:00:00 , 171.5 ,450,100,40\n")
    _write(tmp_path / "errors.csv",
           "machine_id,datetime,error_1,error_2,error_3,error_4,error_5\n"
           "1,2015-1-1 1:29:59, 1 ,0,0,0,0\n")
    bundle, violations = ingest.load_bundle(**paths)
    assert violations == []
    assert [(t.machine_id, t.datetime, t.volt) for t in bundle.telemetry] == [
        (1, dt.datetime(2015, 1, 1, 0), 170.0),
        (1, dt.datetime(2015, 1, 1, 1), 171.5)]
    assert [(e.machine_id, e.datetime, e.error_1, e.error_2)
            for e in bundle.errors] == [(1, dt.datetime(2015, 1, 1, 1), True, False)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell, expected", [
    ("2015-01-01 00:00:00 ", [dt.datetime(2015, 1, 1)]),
    ("2015-01-01 00:00:00Z", None),
    ("2015-01-01 00:00:00+01", None),
], ids=["trailing_blank", "zulu", "offset"])
def test_zone_suffix_or_trailing_blank_raises_no_numpy_warning(tmp_path, cell, expected):
    """Such a cell goes to the per-cell parser, which accepts the blank and
    rejects a zone; numpy's timezone warning is not passed on."""
    path = _write(tmp_path / "telemetry.csv",
                  f"machine_id,datetime,volt,rotate,pressure,vibration\n1,{cell},170,450,100,40\n")
    if expected is None:
        with pytest.raises(ingest.IngestError, match="expected datetime"):
            ingest.parse_csv(path, "telemetry")
    else:
        assert ingest.parse_csv(path, "telemetry").datetime.tolist() == expected


@pytest.mark.parametrize("dataset, bad_row, column, message", [
    ("telemetry", "x1,2015-01-01 01:00:00,170,450,100,40", "machine_id",
     "expected integer, got 'x1'"),
    ("machines", "99999999999999999999,5,1,0,0,0", "machine_id",
     "integer out of range, got '99999999999999999999'"),
    ("telemetry", "1,2015-01-01 01:00:00, abc ,450,100,40", "volt",
     "expected number, got 'abc'"),
    ("errors", "1,2015-01-01 01:00:00,true,0,0,0,0", "error_1",
     "expected 0 or 1, got 'true'"),
    ("failures", "1,2015-01-01T01:00:00,1,0,0,0", "datetime",
     "expected datetime Y-m-d H:M:S style, got '2015-01-01T01:00:00'"),
], ids=["int", "int_range", "float", "bool", "datetime"])
def test_each_cell_fault_kind_names_file_line_column(tmp_path, dataset, bad_row,
                                                     column, message):
    good = {"telemetry": "1,2015-01-01 00:00:00,170,450,100,40",
            "errors": "1,2015-01-01 00:00:00,1,0,0,0,0",
            "failures": "1,2015-01-01 00:00:00,0,1,0,0",
            "machines": "1,5,1,0,0,0"}[dataset]
    path = _write(tmp_path / f"{dataset}.csv",
                  ",".join(schema.CSV_COLUMNS[dataset]) + f"\n{good}\n{bad_row}\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.parse_csv(path, dataset)
    assert str(exc.value) == f"{path}:3:{column}: {message}"
