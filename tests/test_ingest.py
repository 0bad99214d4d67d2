import csv
import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

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


def _c_reader(path, dataset):
    """The dataset file's columns as the C reader reads them, or None when it
    leaves the file to the block parser."""
    with open(path, "rb") as handle:
        return ingest._read_canonical(handle, schema.CSV_COLUMNS[dataset])


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
    assert str(exc.value).endswith("; missing column(s) ['vibration']")


def test_malformed_datetime_is_structural(tmp_path):
    paths = _write_minimal(tmp_path, "1,01/02/2015 10:00,1,1,1,1\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert exc.value.column == "datetime"


def test_empty_file_is_structural(tmp_path):
    paths = _write_minimal(tmp_path, "")
    _write(tmp_path / "telemetry.csv", "")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert str(exc.value) == f"{paths['telemetry']}:1:-: empty file, header row required"


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


def test_one_missing_hour_is_a_gap(tmp_path):
    paths = _write_minimal(
        tmp_path,
        "1,2015-01-01 00:00:00,170,450,100,40\n"
        "1,2015-01-01 02:00:00,170,450,100,40\n"
        "1,2015-01-01 03:00:00,170,450,100,40\n")
    _, violations = ingest.load_bundle(**paths)
    assert [v.message for v in violations] == \
        ["machine 1: 1 missing hour(s) after 2015-01-01 00:00:00"]


def test_bundle_is_frozen_and_equal_only_to_itself(small_bundle):
    """Its tables are arrays, so a bundle compares and hashes by identity."""
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_bundle.telemetry = small_bundle.telemetry
    same_tables = dataclasses.replace(small_bundle)
    assert small_bundle == small_bundle and small_bundle != same_tables
    assert len({small_bundle, same_tables}) == 2


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


def test_parse_holds_the_table_and_the_read_columns_at_the_bench_size(tmp_path,
                                                                     bench_bundle):
    """The C reader's columns and the table copied from them are held at once,
    then the columns go before the times are rounded.  On the 86,400-row bench
    telemetry parse_csv peaked at 116.0 bytes a row, and at 140.0 when the
    columns outlived the copy (tracemalloc, numpy 2.4)."""
    path = tmp_path / "telemetry.csv"
    ingest.write_csv(path, bench_bundle.telemetry)
    table, peak = helpers.traced_peak(lambda: ingest.parse_csv(path, "telemetry"))
    assert len(table) == 86_400 and peak / len(table) < 128


def test_block_parser_reads_both_ends_of_int64(tmp_path):
    # A padded flag is not canonical, so this file reaches the block parser.
    path = _write(tmp_path / "machines.csv", "machine_id,age,model_1,model_2,model_3,model_4\n"
                  "-9223372036854775808,5, 1,0,0,0\n9223372036854775807,5,1,0,0,0\n")
    assert _c_reader(path, "machines") is None
    assert ingest.parse_csv(path, "machines").machine_id.tolist() == [-2**63, 2**63 - 1]


def test_first_datetime_is_read_by_the_c_reader(tmp_path):
    written = helpers.table("failures", [helpers.failure(1, 0, comp=2)])
    written.datetime = np.datetime64("0001-01-01T00:00:00")
    path = tmp_path / "failures.csv"
    ingest.write_csv(path, written)
    parsed = _c_reader(path, "failures")
    assert parsed is not None and parsed["datetime"].tolist() == [dt.datetime(1, 1, 1)]


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
    monkeypatch.setattr(schema, "BLOCK_ROWS", block_rows)
    ingest.write_csv(tmp_path / "blocked.csv", rows)
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_writer_holds_one_block_of_cells(tmp_path, bench_bundle):
    """write_csv formats one block of rows at a time, so its peak is the block's
    cell strings: on the 86,400-row bench telemetry it held 179.9 bytes a row
    in 32,768-row blocks and 25.0 in 4,096-row ones (tracemalloc, CPython 3.11)."""
    telemetry = bench_bundle.telemetry
    _, peak = helpers.traced_peak(lambda: ingest.write_csv(tmp_path / "t.csv", telemetry))
    assert len(telemetry) == 86400
    assert peak / len(telemetry) < 40


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
        monkeypatch.setattr(schema, "BLOCK_ROWS", block_rows)
    paths = _write_minimal(tmp_path, "1,2015-01-01 00:00:00,170,450,100,40\n" + body)
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("block_rows", [1, None])
def test_oversized_field_is_structural_at_its_line(tmp_path, monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(schema, "BLOCK_ROWS", block_rows)
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
    whole = ingest.parse_csv(paths["telemetry"], "telemetry")
    monkeypatch.setattr(schema, "BLOCK_ROWS", 2)
    # The file is canonical, so only a direct call reaches the block parser.
    with open(paths["telemetry"], newline="") as lines:
        blocked = ingest._read_blocks(lines, schema.CSV_COLUMNS["telemetry"])
    assert helpers.table_rows(schema.table("telemetry", blocked)) == \
        helpers.table_rows(whole)
    assert len(blocked) == 7
    # An empty line still counts, so the last row is on line 10.
    _write(paths["telemetry"], paths["telemetry"].read_text() + "1,bad,1,1,1,1\n")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.load_bundle(**paths)
    assert (exc.value.line, exc.value.column) == (10, "datetime")


@pytest.mark.parametrize("block_rows", [1, None])
def test_fault_after_quoted_newline_names_its_physical_line(tmp_path, monkeypatch,
                                                            block_rows):
    if block_rows is not None:
        monkeypatch.setattr(schema, "BLOCK_ROWS", block_rows)
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


def test_written_bundle_is_read_by_the_c_reader_alone(tmp_path, monkeypatch, small_bundle):
    ingest.write_bundle(small_bundle, tmp_path)

    def block_parser(path, columns):
        raise AssertionError(f"{path} went to the block parser")

    monkeypatch.setattr(ingest, "_read_blocks", block_parser)
    loaded, violations = ingest.load_bundle(
        **{key: tmp_path / name for key, name in ingest.BUNDLE_FILENAMES.items()})
    assert violations == []
    assert helpers.bundle_rows(loaded) == helpers.bundle_rows(small_bundle)


def test_bundle_without_violations_holds_the_parsed_tables(tmp_path, monkeypatch,
                                                           small_bundle):
    """No row to drop means no copy: each table is the one parsed."""
    ingest.write_bundle(small_bundle, tmp_path)
    parse, parsed = ingest.parse_csv, {}

    def recorded(path, dataset, digest=None):
        parsed[dataset] = parse(path, dataset, digest)
        return parsed[dataset]

    monkeypatch.setattr(ingest, "parse_csv", recorded)
    loaded, violations = ingest.load_bundle(
        **{key: tmp_path / name for key, name in ingest.BUNDLE_FILENAMES.items()})
    assert violations == [] and parsed.keys() == ingest.BUNDLE_FILENAMES.keys()
    assert all(getattr(loaded, name) is table for name, table in parsed.items())


_INT64 = np.iinfo(np.int64)
_CANONICAL_CELLS = {
    "i": st.integers(_INT64.min, _INT64.max).map(str),
    "f": st.floats().map(repr),
    "b": st.sampled_from(["0", "1"]),
    "M": st.datetimes(max_value=dt.datetime(9999, 12, 31, 23, 59, 59)).map(
        lambda t: t.replace(microsecond=0).isoformat(" ")),
}
_OVER_LIMIT = ["9" * 131_073, "0" * 131_072 + "1", "1." + "0" * 131_072]
_ODD_CELLS = {
    "i": ["+1", "007", "1_0", "\u0661", "-0", "9223372036854775807", "-9223372036854775809",
          "99999999999999999999", "1.0", "1e3", "0x10", "- 1", ""],
    "f": ["nan", "-nan", "-inf", "Infinity", "1e500", "1_0.5", "\u0661.5", "0x1p3", "1.5j",
          "1.5d3", "1.5.5", ""],
    "b": ["10", "01", "+1", "2", "true", "\u0661", ""],
    "M": ["2015-1-1 6:00:00", "2015-01-01T06:00:00", "2015-01-01 06:00:00Z",
          "2015-01-01 06:00:00+01", "2015-01-01 06:00:00.5", "2015-01-01 06:00:00 0",
          "2015-01-01", "NaT", "0000-01-01 00:00:00", "10000-01-01 00:00:00",
          "-001-01-01 00:00:00", "2015-02-29 00:00:00", "2015-01-01 24:00:00",
          "2015-01-01 23:59:60", "2015-01-01 00:29:59", ""],
}
# Each wraps a canonical cell: padding (ASCII and not), quoting, a quoted
# newline, NUL, a comment mark and an undecodable byte.
_WRAPPED = [" {}", "{} ", "\t{}\x0c", "\x0b{}\x1c", "\xa0{}", "{}\u2028", '"{}"',
            '"{}\n"', '"{}\r\n"', '"{}' + "\n" * 131_073 + '"', "{}\x00", "\x00{}", "{}#",
            "#{}", "{}\udcff"]


@st.composite
def _csv_files(draw):
    """A dataset and the bytes of a file for it: canonical rows with a few
    cells made odd, blank lines, a line ending, and at times a wrong field
    count or header."""
    dataset = draw(st.sampled_from(["telemetry", "errors", "machines"]))
    columns = schema.CSV_COLUMNS[dataset]
    kinds = [schema.column_type(name).kind for name in columns]
    rows = [[draw(_CANONICAL_CELLS[kind]) for kind in kinds]
            for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        row, at = draw(st.sampled_from(rows)), draw(st.integers(0, len(columns) - 1))
        row[at] = draw(st.sampled_from(_ODD_CELLS[kinds[at]] + _OVER_LIMIT)
                       | st.sampled_from(_WRAPPED).map(lambda w, cell=row[at]: w.format(cell)))
    if rows and draw(st.integers(0, 9)) == 0:  # a wrong field count
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    header = draw(st.sampled_from([",".join(columns)] * 12 + [
        ",".join(f'"{c}"' for c in columns), ",".join(columns[:-1]), ",".join(columns) + " "]))
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return dataset, text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("dataset, row", [
    ("telemetry", "1,2015-01-01 01:00:00Z,170,450,100,40"),
    ("errors", "1,2015-01-01 01:00:00,10,0,0,0,0"),
    ("errors", "1,2015-01-01 01:00:00,1\x00,0,0,0,0"),
    ("telemetry", "1,2015-01-01 01:00:00\x00,170,450,100,40"),
    ("telemetry", "1,0000-01-01 01:00:00,170,450,100,40"),
    ("telemetry", "1,2015-01-01 01:00:00,170,450,100,40#1"),
    ("telemetry", '1,2015-01-01 01:00:00,"1' + "\n" * 131_073 + '",450,100,40'),
    ("telemetry", "1,2015-01-01 01:00:00," + "0" * 131_072 + "1,450,100,40"),
], ids=["datetime_past_19", "flag_past_1", "flag_nul", "datetime_nul", "year_0",
        "comment", "quoted_past_limit", "line_past_limit"])
def test_c_reader_leaves_each_faulty_file_to_the_block_parser(tmp_path, dataset, row):
    """Each row is a fault that the C reader would read past if unchecked: a
    cell cut to the width read, a NUL lost at a cell's end, year 0, a comment,
    or a field over the csv limit, on one line or on many short ones."""
    good = {"telemetry": "1,2015-01-01 00:00:00,170,450,100,40",
            "errors": "1,2015-01-01 00:00:00,1,0,0,0,0"}[dataset]
    path = _write(tmp_path / f"{dataset}.csv",
                  ",".join(schema.CSV_COLUMNS[dataset]) + f"\n{good}\n{row}\n")
    assert _c_reader(path, dataset) is None
    with pytest.raises(ingest.IngestError):
        ingest.parse_csv(path, dataset)


def test_c_reader_takes_only_ascii_files(tmp_path):
    """A non-ASCII file goes to the block parser, so loadtxt's default
    encoding, which numpy 2.0 changed, never decides what the C path reads."""
    path = _write(tmp_path / "telemetry.csv",
                  ",".join(schema.CSV_COLUMNS["telemetry"])
                  + "\n1,2015-01-01 00:00:00,\uff11\uff17\uff10.\uff15,450,100,40\n")
    assert _c_reader(path, "telemetry") is None
    assert ingest.parse_csv(path, "telemetry").volt.tolist() == [170.5]


_TELEMETRY_HEADER = ",".join(schema.CSV_COLUMNS["telemetry"]) + "\n"  # 51 bytes


@pytest.fixture
def half():
    """A csv field limit of 256 for the test, so the C reader checks the
    file in chunks of half that, 128 bytes."""
    old = csv.field_size_limit(256)
    yield 128
    csv.field_size_limit(old)


def _row(h, width):
    """A telemetry line at hour ``h``, ``width`` bytes before its newline,
    its volt cell padded with zeros."""
    row = f"1,2015-01-{1 + h // 24:02d} {h % 24:02d}:00:00,170.,450,100,40"
    return row.replace("170.", "170." + "0" * (width - len(row))) + "\n"


def _by_blocks(path, dataset):
    """``parse_csv``'s outcome with the C reader turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_read_canonical", lambda handle, columns, digest=None: None)
        return _outcome(lambda: ingest.parse_csv(path, dataset))


@pytest.mark.parametrize("width, start, canonical", [
    (-1, -2, True), (-1, -1, True), (-1, 0, True),
    (0, -1, True), (0, 0, False),
    (1, -2, True), (1, -1, False), (1, 0, False),
], ids=["short_before", "short_across", "short_at", "half_across", "half_at",
        "long_ends_in_chunk", "long_covers_chunk", "long_at"])
def test_c_reader_checks_lines_across_a_chunk_boundary(tmp_path, half, width, start,
                                                       canonical):
    """A line of ``half + width`` bytes before its newline that starts at
    byte ``half + start``, across or at the end of the first chunk: the file
    goes to the block parser exactly when the line holds a whole aligned
    chunk, and the table is the same either way."""
    start += half
    lead = start - len(_TELEMETRY_HEADER) - 1  # a first row that ends where the line starts
    text = (_TELEMETRY_HEADER + _row(0, lead) + _row(1, half + width)
            + "".join(_row(h, 40) for h in range(2, 6)))
    assert text.index(_row(1, half + width)) == start and len(text) > 3 * half
    path = _write(tmp_path / "telemetry.csv", text)
    assert (_c_reader(path, "telemetry") is not None) == canonical
    assert _outcome(lambda: ingest.parse_csv(path, "telemetry")) == \
        _by_blocks(path, "telemetry")


@pytest.mark.parametrize("cell", ["170\x00", "１７０.5"], ids=["nul", "non_ascii"])
def test_c_reader_finds_a_nul_or_non_ascii_byte_in_a_later_chunk(tmp_path, half, cell):
    rows = [_row(h, 39) for h in range(8)]
    rows[2] = rows[2].replace("170.00", cell)
    path = tmp_path / "telemetry.csv"
    path.write_bytes((_TELEMETRY_HEADER + "".join(rows)).encode())
    data = path.read_bytes()
    odd = next(i for i, byte in enumerate(data) if byte == 0 or byte > 127)
    assert half <= odd < 2 * half
    assert _c_reader(path, "telemetry") is None
    outcome = _outcome(lambda: ingest.parse_csv(path, "telemetry"))
    assert outcome == _by_blocks(path, "telemetry")
    assert isinstance(outcome, bytes) == (cell != "170\x00")


def test_c_reader_reads_a_canonical_file_of_many_chunks(tmp_path, monkeypatch, half):
    path = _write(tmp_path / "telemetry.csv",
                  _TELEMETRY_HEADER + "".join(_row(h, 40 + h % 50) for h in range(48)))
    assert path.stat().st_size > 3 * half
    by_blocks = _by_blocks(path, "telemetry")

    def block_parser(path, columns):
        raise AssertionError(f"{path} went to the block parser")

    monkeypatch.setattr(ingest, "_read_blocks", block_parser)
    assert _outcome(lambda: ingest.parse_csv(path, "telemetry")) == by_blocks


def _outcome(parse):
    """The table ``parse()`` returns, as bytes, or the IngestError it raises."""
    try:
        return parse().tobytes()
    except ingest.IngestError as exc:
        return exc.path, exc.line, exc.column, str(exc)


@settings(max_examples=400, deadline=None)
@given(case=_csv_files())
def test_c_reader_and_block_parser_agree(tmp_path_factory, case):
    """On any file, parse_csv gives the block parser's table byte for byte,
    or raises its IngestError, whether or not the C reader took the file."""
    dataset, data = case
    path = tmp_path_factory.mktemp("csv") / f"{dataset}.csv"
    path.write_bytes(data)
    event("C reader" if _c_reader(path, dataset) is not None else "block parser")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_read_canonical", lambda handle, columns, digest=None: None)
        by_blocks = _outcome(lambda: ingest.parse_csv(path, dataset))
    assert _outcome(lambda: ingest.parse_csv(path, dataset)) == by_blocks
