"""End-to-end command-line behaviour: exit codes, config precedence,
artifact layout and byte-for-byte rerun determinism."""

import collections
import datetime
import hashlib
import inspect
import json
import random
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from failcast import __version__, assemble, cli, evaluate, ingest, logreg, report, schema


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A generated five-CSV dataset shared by the read-only tests."""
    path = tmp_path_factory.mktemp("cli") / "data"
    rc = cli.main(["generate", "--out-dir", str(path), "--machines", "8",
                   "--days", "45", "--seed", "3"])
    assert rc == cli.EXIT_OK
    return path


def _read_all(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


# --- the full chain ----------------------------------------------------------

def test_generate_writes_csvs_and_run_config(dataset):
    names = {p.name for p in dataset.iterdir()}
    assert names == {"telemetry.csv", "errors.csv", "maintenance.csv",
                     "failures.csv", "machines.csv", "run_config.json"}
    run_config = json.loads((dataset / "run_config.json").read_text())
    assert run_config["command"] == "generate"
    assert run_config["config"]["machines"] == 8
    assert run_config["config"]["seed"] == 3


def test_assemble_train_evaluate_prune_report(dataset, tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    rc = cli.main(["assemble", "--in-dir", str(dataset),
                   "--out", str(stream)])
    assert rc == cli.EXIT_OK
    assert stream.exists()
    assert (tmp_path / "stream.config.json").exists()
    assert "labeled failures" in capsys.readouterr().out

    model_path = tmp_path / "model.txt"
    rc = cli.main(["train", "--in-dir", str(dataset),
                   "--out", str(model_path)])
    assert rc == cli.EXIT_OK
    model = logreg.load_model(model_path)
    assert model.fit_meta.converged
    assert model.encoding.feature_names == schema.FEATURE_NAMES
    assert "model saved" in capsys.readouterr().out

    rep = tmp_path / "rep"
    rc = cli.main(["evaluate", "--in-dir", str(dataset),
                   "--out-dir", str(rep)])
    assert rc == cli.EXIT_OK
    assert {p.name for p in rep.iterdir()} == {
        "report.json", "run_config.json", "summary.txt",
        "weights_full.csv", "weights_full.svg", "confusion_full.svg",
        "weights_reduced.csv", "weights_reduced.svg", "confusion_reduced.svg"}
    payload = report.load_bundle_payload(rep)
    assert payload["command"] == "evaluate"
    assert payload["dataset_digest"].startswith("sha256:")
    assert payload["runs"]["reduced"]["features"] == \
        list(evaluate.PAPER_REDUCED_FEATURES)
    # Records from the same JSON writer are not model files.
    for record in (tmp_path / "model.config.json", rep / "report.json"):
        with pytest.raises(ValueError, match="not a model file"):
            logreg.load_model(record)
    assert "average failure recall" in capsys.readouterr().out

    pruned = tmp_path / "pruned"
    rc = cli.main(["prune", "--in-dir", str(dataset), "--out-dir", str(pruned),
                   "--rule", "paper-reduced"])
    assert rc == cli.EXIT_OK
    pruned_payload = report.load_bundle_payload(pruned)
    assert pruned_payload["pruning_rule"] == "paper-reduced"
    assert len(pruned_payload["runs"]["reduced"]["features"]) == 10

    # Deleting derived artifacts and re-rendering restores them exactly.
    before = _read_all(rep)
    (rep / "summary.txt").unlink()
    (rep / "weights_full.svg").unlink()
    rc = cli.main(["report", "--bundle", str(rep)])
    assert rc == cli.EXIT_OK
    assert _read_all(rep) == before


def test_prune_relative_rule_flag(dataset, tmp_path):
    out = tmp_path / "rep"
    rc = cli.main(["prune", "--in-dir", str(dataset), "--out-dir", str(out),
                   "--rule", "relative", "--prune-threshold", "0.05"])
    assert rc == cli.EXIT_OK
    payload = report.load_bundle_payload(out)
    assert payload["pruning_rule"] == "relative"
    reduced = payload["runs"]["reduced"]["features"]
    assert 0 < len(reduced) < len(schema.FEATURE_NAMES)


def test_unconverged_fits_are_reported(dataset, tmp_path, capsys):
    out = tmp_path / "rep"
    rc = cli.main(["evaluate", "--in-dir", str(dataset), "--out-dir", str(out),
                   "--max-iterations", "1"])
    assert rc == cli.EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {run} fold {i}: fit did not converge in 1 iteration(s); "
                   "gradient max-norm is above --tolerance"
                   for run in ("full", "reduced") for i in range(3)]
    payload = report.load_bundle_payload(out)
    folds = [f for run in payload["runs"].values() for f in run["folds"]]
    assert [(f["iterations"], f["converged"]) for f in folds] == [(1, False)] * 6
    summary = (out / "summary.txt").read_text()
    assert summary.count(", 1 iterations, NOT converged):") == 6

    rc = cli.main(["train", "--in-dir", str(dataset), "--out", str(tmp_path / "m.txt"),
                   "--max-iterations", "1"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().err.startswith("warning: train: fit did not converge")

    # A bundle written before fits were reported still re-renders.
    for f in folds:
        del f["iterations"], f["converged"]
    (out / "report.json").write_text(json.dumps(payload))
    assert cli.main(["report", "--bundle", str(out)]) == cli.EXIT_OK
    fold_lines = [line for line in (out / "summary.txt").read_text().splitlines()
                  if line.startswith("fold ")]
    assert len(fold_lines) == 6 and not any("iterations" in line for line in fold_lines)


def test_converged_fits_are_reported(dataset, tmp_path, capsys):
    out = tmp_path / "rep"
    assert cli.main(["evaluate", "--in-dir", str(dataset),
                     "--out-dir", str(out)]) == cli.EXIT_OK
    assert "warning" not in capsys.readouterr().err
    payload = report.load_bundle_payload(out)
    assert all(f["converged"] for run in payload["runs"].values() for f in run["folds"])
    assert "iterations, converged):" in (out / "summary.txt").read_text()


def test_rerun_with_identical_flags_is_byte_identical(dataset, tmp_path):
    out = tmp_path / "rep"
    argv = ["evaluate", "--in-dir", str(dataset), "--out-dir", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    first = _read_all(out)
    assert cli.main(argv) == cli.EXIT_OK
    assert _read_all(out) == first


# The full and reduced runs of `evaluate` on `generate --machines 8 --days 45
# --seed 7`, each as json.dumps(runs[name], sort_keys=True).  A change that
# moves any digit of either run must update its digest and say why.
FULL_RUN_SHA256 = "bfede273df0d021055a187fbea0625315fb26c7b795daeed62acfc82643cc9db"
REDUCED_RUN_SHA256 = "9c090236c093837bc1ae3648daf989bffbb038403e5ef09417646c9a5a64edf7"


# The model file that `train` writes on the module's dataset, by solver (the
# gradient-descent fit stops unconverged at 100 iterations, which still exits
# 0).  A change that moves any byte of one, format or fit, must update its
# digest and say why.
MODEL_FILE_SHA256 = "219fe4fe9afabe375f74a29feabb9fa74a62118739a060a4fae3af91871acd1b"
GD_MODEL_FILE_SHA256 = "d12b0b7e4f6c15ddcba3e102adbcb77a0dc076265048912b2583ff98f03a7782"


@pytest.mark.parametrize("solver, digest", [("newton", MODEL_FILE_SHA256),
                                            ("gradient_descent", GD_MODEL_FILE_SHA256)],
                         ids=["newton", "gradient_descent"])
def test_train_writes_its_golden_model_file(dataset, tmp_path, solver, digest):
    model = tmp_path / "model.json"
    assert cli.main(["train", "--in-dir", str(dataset), "--out", str(model),
                     "--solver", solver]) == cli.EXIT_OK
    assert hashlib.sha256(model.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """The ``runs`` of `evaluate` on `generate --machines 8 --days 45 --seed 7`."""
    base = tmp_path_factory.mktemp("golden")
    data, out = base / "data", base / "rep"
    assert cli.main(["generate", "--out-dir", str(data), "--machines", "8",
                     "--days", "45", "--seed", "7"]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--in-dir", str(data), "--out-dir", str(out)]) == cli.EXIT_OK
    return report.load_bundle_payload(out)["runs"]


def _run_digest(run):
    return hashlib.sha256(json.dumps(run, sort_keys=True).encode()).hexdigest()


def test_full_run_matches_its_golden_digest(golden_runs):
    assert _run_digest(golden_runs["full"]) == FULL_RUN_SHA256


def test_reduced_run_matches_its_golden_digest(golden_runs):
    assert _run_digest(golden_runs["reduced"]) == REDUCED_RUN_SHA256


@pytest.mark.parametrize("flags, semantics", [([], "point-at-horizon"),
                                              (["--label-window"], "within-horizon")])
def test_evaluate_records_label_semantics(dataset, tmp_path, flags, semantics):
    out = tmp_path / "rep"
    assert cli.main(["evaluate", "--in-dir", str(dataset),
                     "--out-dir", str(out)] + flags) == cli.EXIT_OK
    assert report.load_bundle_payload(out)["label_semantics"] == semantics
    assert f"label semantics: {semantics}\n" in (out / "summary.txt").read_text()


# --- metamorphic relations: rewrites of the input that keep the report ------

def _report_without_paths(out_dir):
    """report.json less what names the input: its digest and the two paths."""
    payload = json.loads((out_dir / "report.json").read_text())
    del payload["dataset_digest"]
    del payload["config"]["in_dir"], payload["config"]["out_dir"]
    return payload


def _shuffled(name, rows):
    random.Random(name).shuffle(rows)
    return rows


def _padded(name, rows):
    return [",".join(f"  {cell} " for cell in row.split(",")) for row in rows]


def _with_dropped_rows(name, rows):
    # Every added row is one the loader drops: a repeated telemetry or
    # machine key keeps its first row, so the later one's other cells may
    # differ, and a failure must set a flag and name a known machine.
    if name == "telemetry":
        return rows + [row.rsplit(",", 1)[0] + ",0.5" for row in rows[::len(rows) // 20][:20]]
    if name == "machines":
        return rows + [row.replace(",", ",99", 1) for row in rows[:2]]
    if name == "failures":
        machine, when = rows[0].split(",")[:2]
        return rows + [f"{machine},{when},0,0,0,0", f"999,{when},1,0,0,0"]
    return rows


def _ids_mapped(name, rows):
    # a strictly increasing map, so the fold shuffle sees the machines in order
    return [f"{10 * int(machine) + 3},{rest}"
            for machine, rest in (row.split(",", 1) for row in rows)]


def _weeks_shifted(name, rows):
    # a whole number of weeks keeps each day of week and the cutoff's place
    if name == "machines":
        return rows
    shift = datetime.timedelta(weeks=30)
    return [f"{machine},{datetime.datetime.fromisoformat(when) + shift},{rest}"
            for machine, when, rest in (row.split(",", 2) for row in rows)]


@pytest.fixture(scope="module")
def base_report(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("base") / "rep"
    assert cli.main(["evaluate", "--in-dir", str(dataset), "--out-dir", str(out)]) == cli.EXIT_OK
    return _report_without_paths(out)


@pytest.mark.parametrize("rewrite, rc", [
    (_shuffled, cli.EXIT_OK),
    # sends every file through the block parser instead of the C reader
    (_padded, cli.EXIT_OK),
    (_with_dropped_rows, cli.EXIT_VIOLATIONS),
    (_ids_mapped, cli.EXIT_OK),
    (_weeks_shifted, cli.EXIT_OK),
])
def test_input_rewrite_keeps_the_report(dataset, base_report, tmp_path, rewrite, rc):
    data = tmp_path / "data"
    data.mkdir()
    for filename in ingest.BUNDLE_FILENAMES.values():
        header, *rows = (dataset / filename).read_text().splitlines()
        rows = rewrite(filename.removesuffix(".csv"), rows)
        (data / filename).write_text("\n".join([header] + rows) + "\n")
    out = tmp_path / "rep"
    assert cli.main(["evaluate", "--in-dir", str(data), "--out-dir", str(out)]) == rc
    assert _report_without_paths(out) == base_report


# --- exit codes --------------------------------------------------------------

def test_tolerated_violations_exit_2_but_write_outputs(dataset, tmp_path,
                                                       capsys):
    broken = tmp_path / "data"
    shutil.copytree(dataset, broken)
    errors_csv = broken / "errors.csv"
    with open(errors_csv, "a") as handle:
        handle.write("999,2015-01-02 05:00:00,1,0,0,0,0\n")
    out = tmp_path / "stream.csv"
    rc = cli.main(["assemble", "--in-dir", str(broken), "--out", str(out)])
    assert rc == cli.EXIT_VIOLATIONS
    assert out.exists()
    err = capsys.readouterr().err
    assert "violation [errors row" in err
    assert "1 validation violation(s); continuing" in err


def test_unparseable_cell_exits_1(dataset, tmp_path, capsys):
    broken = tmp_path / "data"
    shutil.copytree(dataset, broken)
    telemetry = broken / "telemetry.csv"
    lines = telemetry.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "abc"  # volt
    lines[1] = ",".join(cells)
    telemetry.write_text("\n".join(lines) + "\n")
    rc = cli.main(["assemble", "--in-dir", str(broken),
                   "--out", str(tmp_path / "s.csv")])
    assert rc == cli.EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("dataset_file", ["machines.csv", "telemetry.csv"])
def test_out_of_range_integer_exits_1(dataset, tmp_path, capsys, dataset_file):
    broken = tmp_path / "data"
    shutil.copytree(dataset, broken)
    path = broken / dataset_file
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[0] = "99999999999999999999"  # machine_id, past the int64 range
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["evaluate", "--in-dir", str(broken),
                   "--out-dir", str(tmp_path / "rep")])
    assert rc == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert f"{dataset_file}:3:machine_id: integer out of range" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, out", [("train", "--out"), ("evaluate", "--out-dir")])
def test_overflowing_reading_exits_1_naming_its_column(dataset, tmp_path, capsys,
                                                       command, out):
    broken = tmp_path / "data"
    shutil.copytree(dataset, broken)
    telemetry = broken / "telemetry.csv"
    lines = telemetry.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = "1e308"  # volt: finite, but its square overflows float64
    lines[3] = ",".join(cells)
    telemetry.write_text("\n".join(lines) + "\n")
    rc = cli.main([command, "--in-dir", str(broken), out, str(tmp_path / "result")])
    assert rc == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "degenerate encoding: column 'volt' has a non-finite mean or std" in err


@pytest.mark.parametrize("subcommand", ["generate", "train", "evaluate", "prune"])
def test_non_finite_float_setting_exits_1_naming_its_flag(subcommand, tmp_path, capsys):
    float_keys = [k for k, v in cli.DEFAULTS[subcommand].items() if isinstance(v, float)]
    assert float_keys
    config = tmp_path / "config.json"
    for key in float_keys:
        flag = "--" + key.replace("_", "-")
        for value in ("nan", "inf", "-inf", "1e400"):
            assert cli.main([subcommand, f"{flag}={value}"]) == cli.EXIT_FAILURE
            assert capsys.readouterr().err == \
                f"error: {flag} must be a finite number, got {float(value)!r}\n"
        for value in (float("nan"), float("inf"), 10 ** 400):  # NaN, Infinity, 1000...
            config.write_text(json.dumps({key: value}))
            assert cli.main([subcommand, "--config", str(config)]) == cli.EXIT_FAILURE
            assert capsys.readouterr().err == \
                f"error: {flag} must be a finite number, got {value!r}\n"


def _stream_of(data_dir, out):
    """Exit code and stream CSV bytes of `failcast assemble` on a directory."""
    rc = cli.main(["assemble", "--in-dir", str(data_dir), "--out", str(out)])
    return rc, out.read_bytes()


@pytest.mark.parametrize("fault", ["duplicate_key", "unknown_machine", "nan_cell"])
def test_row_with_tolerated_violation_is_dropped(tmp_path, capsys, fault):
    """The stream equals the stream of the bundle without the faulty line,
    and the run exits 2."""
    data = tmp_path / "data"
    assert cli.main(["generate", "--out-dir", str(data), "--machines", "3",
                     "--days", "3", "--seed", "5"]) == cli.EXIT_OK
    lines = (data / "telemetry.csv").read_text().splitlines()
    row = lines[30].split(",")  # machine 1, hour 28
    if fault == "duplicate_key":  # rounds onto the hour of the line above
        faulty = ",".join([row[0], row[1].replace(":00:00", ":10:00")] + row[2:])
        lines.insert(31, faulty)
        line_no = 31
    elif fault == "unknown_machine":
        lines.insert(31, ",".join(["99"] + row[1:]))
        line_no = 31
    else:
        lines[30] = ",".join(row[:2] + ["nan"] + row[3:])
        line_no = 30
    (data / "telemetry.csv").write_text("\n".join(lines) + "\n")
    rc, stream = _stream_of(data, tmp_path / "stream.csv")
    assert rc == cli.EXIT_VIOLATIONS
    assert "1 validation violation(s); continuing" in capsys.readouterr().err

    del lines[line_no]
    (data / "telemetry.csv").write_text("\n".join(lines) + "\n")
    _, expected = _stream_of(data, tmp_path / "expected.csv")
    assert stream == expected


def test_missing_required_option_exits_1(dataset, capsys):
    assert cli.main(["assemble", "--in-dir", str(dataset)]) == cli.EXIT_FAILURE
    assert "missing required option --out" in capsys.readouterr().err
    assert cli.main(["evaluate", "--out-dir", "/tmp/x"]) == cli.EXIT_FAILURE
    assert "missing input" in capsys.readouterr().err


# --- the steps every subcommand shares ---------------------------------------
# Each run below uses relative paths inside tmp_path.

_RUNS = [  # subcommand, argv after it, the config record it writes (or None)
    ("generate", ["--out-dir", "gen", "--machines", "3", "--days", "3"],
     "gen/run_config.json"),
    ("assemble", ["--in-dir", "data", "--out", "stream.csv"], "stream.config.json"),
    ("train", ["--in-dir", "data", "--out", "model.txt"], "model.config.json"),
    ("evaluate", ["--in-dir", "data", "--out-dir", "rep"], "rep/run_config.json"),
    ("prune", ["--in-dir", "data", "--out-dir", "pruned"], "pruned/run_config.json"),
    ("report", ["--bundle", "rep"], None),  # leaves rep/run_config.json as it was
]

_OUTPUT_OPTION = {"generate": "--out-dir", "assemble": "--out", "train": "--out",
                  "evaluate": "--out-dir", "prune": "--out-dir", "report": "--bundle"}


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _with_droppable_row(source, target):
    """A copy of the dataset whose one extra errors row names an unknown
    machine, so ingest drops that row and reports one violation."""
    shutil.copytree(source, target)
    with open(target / "errors.csv", "a") as handle:
        handle.write("999,2015-01-02 05:00:00,1,0,0,0,0\n")


def test_each_subcommand_writes_its_resolved_config_record(dataset, tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(dataset, "data")
    for subcommand, argv, record in _RUNS:
        before = _files(tmp_path)
        assert cli.main([subcommand] + argv) == cli.EXIT_OK, subcommand
        after = _files(tmp_path)
        written = {name for name, content in after.items() if before.get(name) != content}
        assert {name for name in written if name.endswith(".json")
                and name.rpartition("/")[2] != report.REPORT_JSON} == \
            ({record} if record else set()), subcommand
        if record:
            resolved = cli._resolve(subcommand,
                                    cli.build_parser().parse_args([subcommand] + argv))
            assert json.loads(after[record]) == {
                "version": __version__, "command": subcommand,
                "config": dict(sorted(resolved.items()))}
    assert "re-rendered artifacts in rep" in capsys.readouterr().out


@pytest.mark.parametrize("subcommand", list(_OUTPUT_OPTION))
def test_missing_output_option_exits_1_before_reading_inputs(subcommand, dataset,
                                                             tmp_path, monkeypatch,
                                                             capsys):
    monkeypatch.chdir(tmp_path)
    _with_droppable_row(dataset, tmp_path / "data")
    before = _files(tmp_path)
    inputs = ["--in-dir", "data"] if "in_dir" in cli.DEFAULTS[subcommand] else []
    assert cli.main([subcommand] + inputs) == cli.EXIT_FAILURE
    assert capsys.readouterr() == (
        "", f"error: missing required option {_OUTPUT_OPTION[subcommand]}\n")
    assert _files(tmp_path) == before


@pytest.mark.parametrize("subcommand, argv, record", [
    pytest.param(*run, id=run[0]) for run in _RUNS if "--in-dir" in run[1]])
def test_droppable_row_exits_2_and_writes_outputs(subcommand, argv, record, dataset,
                                                  tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _with_droppable_row(dataset, tmp_path / "data")
    assert cli.main([subcommand] + argv) == cli.EXIT_VIOLATIONS
    out, err = capsys.readouterr()
    assert err.endswith("1 validation violation(s); continuing\n")
    assert out and (tmp_path / record).is_file()


def test_unknown_config_key_exits_1(dataset, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    rc = cli.main(["assemble", "--config", str(config),
                   "--in-dir", str(dataset), "--out", str(tmp_path / "s.csv")])
    assert rc == cli.EXIT_FAILURE
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("generate", "machines", "x"),
    ("evaluate", "folds", 2.5),
    ("assemble", "horizon", "24"),
    ("assemble", "label_window", "no"),
])
def test_mistyped_config_value_exits_1(dataset, tmp_path, capsys, command, key,
                                       value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    outputs = {"generate": ["--out-dir", str(tmp_path / "data")],
               "evaluate": ["--in-dir", str(dataset), "--out-dir", str(tmp_path / "rep")],
               "assemble": ["--in-dir", str(dataset), "--out", str(tmp_path / "s.csv")]}
    rc = cli.main([command, "--config", str(config)] + outputs[command])
    assert rc == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(value) in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("payload", [[], {"runs": {"full": {}}}],
                         ids=["list", "empty_run"])
def test_malformed_report_json_exits_1(tmp_path, capsys, payload):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["report", "--bundle", str(tmp_path)]) == cli.EXIT_FAILURE
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_impossible_folds_exit_3(tmp_path, capsys):
    data = tmp_path / "data"
    rc = cli.main(["generate", "--out-dir", str(data), "--machines", "3",
                   "--days", "20", "--seed", "1"])
    assert rc == cli.EXIT_OK
    rc = cli.main(["evaluate", "--in-dir", str(data),
                   "--out-dir", str(tmp_path / "rep"), "--folds", "5"])
    assert rc == cli.EXIT_FIT
    assert "at least 5 machines" in capsys.readouterr().err


_INFEASIBLE = ("error: infeasible calibration: failure_rate * signal fraction exceeds the "
               "error-event rate; lower signal or raise error_rate\n")


@pytest.mark.parametrize("argv, message", [
    (["--machines", "0"], "error: machines must be positive\n"),
    (["--days", "2"], "error: days must be at least 3 so the horizon fits\n"),
    (["--failure-rate", "0.5"], "error: failure_rate must lie in (0, 0.5)\n"),
    (["--signal", "-1"], "error: signal must be non-negative\n"),
    (["--error-rate", "1"], "error: error_rate must lie in (0, 1)\n"),
    (["--maintenance-rate", "1"], "error: maintenance_rate must lie in [0, 1)\n"),
    (["--error-rate", "0.0001"], _INFEASIBLE),
    # (1 - p)**5 rounds to 1 here, so an event rate taken from it would be 0
    # and its division a traceback
    (["--error-rate", "1e-17"], _INFEASIBLE),
], ids=["machines", "days", "failure_rate", "signal", "error_rate", "maintenance_rate",
        "infeasible", "tiny_error_rate"])
def test_rejected_generator_setting_exits_1_naming_it(tmp_path, capsys, argv, message):
    out = tmp_path / "data"
    assert cli.main(["generate", "--out-dir", str(out)] + argv) == cli.EXIT_FAILURE
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--l2", "-1"], "error: l2 must be non-negative\n"),
    (["--tolerance", "0"], "error: tolerance must be positive\n"),
    (["--max-iterations", "0"], "error: max_iterations must be positive\n"),
], ids=["l2", "tolerance", "max_iterations"])
def test_rejected_fit_setting_exits_1_naming_it(dataset, tmp_path, capsys, argv, message):
    model = tmp_path / "model.txt"
    assert cli.main(["train", "--in-dir", str(dataset), "--out", str(model)] + argv) \
        == cli.EXIT_FAILURE
    assert capsys.readouterr().err == message
    assert not model.exists()


@pytest.mark.parametrize("weight, rc, message, solver", [
    # the objective at the start overflows: the fit is refused
    ("1e307", cli.EXIT_FIT, "error: objective became non-finite (inf)\n", "newton"),
    # the Hessian overflows after two steps, so the third Newton direction is NaN:
    # the fit is refused
    ("1.5e306", cli.EXIT_FIT, "error: step direction became non-finite at iteration 2\n",
     "newton"),
    # the Lipschitz bound overflows, so the base step would be 0: the fit is refused
    ("1.5e306", cli.EXIT_FIT, "error: gradient-descent step bound became non-finite (inf)\n",
     "gradient_descent"),
    # the start objective overflows before the bound is taken: the fit is
    # refused with the same message as Newton's
    ("1e308", cli.EXIT_FIT, "error: objective became non-finite (inf)\n", "gradient_descent"),
])
def test_extreme_weight_prints_no_numpy_warning(dataset, tmp_path, capsys,
                                                weight, rc, message, solver):
    model = tmp_path / "m.txt"
    assert cli.main(["train", "--in-dir", str(dataset), "--out", str(model),
                     "--weight", weight, "--solver", solver]) == rc
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Warning" not in err
    assert not model.exists()


def test_train_summary_stays_short_at_a_huge_objective(dataset, tmp_path, capsys):
    # At weight 1e300 the final objective is about 1.7e300; the summary prints
    # it in six significant digits, not as a 300-digit fixed-point number.
    model = tmp_path / "m.json"
    assert cli.main(["train", "--in-dir", str(dataset), "--out", str(model),
                     "--weight", "1e300", "--solver", "gradient_descent"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and re.search(r"\(objective 1\.\d{5}e\+300\);", out)
    assert len(out.replace(str(model), "")) < 100


def test_stream_with_no_rows_exits_1(dataset, tmp_path, capsys):
    # Every telemetry row names a machine the header-only machines file lacks,
    # so each is dropped and the encoding, which runs before the fit, has no rows.
    machines = tmp_path / "machines.csv"
    machines.write_text((dataset / "machines.csv").read_text().splitlines()[0] + "\n")
    model = tmp_path / "m.txt"
    rc = cli.main(["train", "--in-dir", str(dataset), "--machines", str(machines),
                   "--out", str(model)])
    assert rc == cli.EXIT_FAILURE
    assert capsys.readouterr().err.endswith("\nerror: fit rows must be non-empty\n")
    assert not model.exists()


def test_violation_lines_are_capped_per_dataset(dataset, tmp_path, capsys):
    # A header-only machines file orphans every row of the four other datasets.
    machines = tmp_path / "machines.csv"
    machines.write_text((dataset / "machines.csv").read_text().splitlines()[0] + "\n")
    paths = {key: str(dataset / name) for key, name in ingest.BUNDLE_FILENAMES.items()}
    _, violations = ingest.load_bundle(**{**paths, "machines": str(machines)})
    per_dataset = collections.Counter(v.dataset for v in violations)
    assert min(per_dataset.values()) > 20

    rc = cli.main(["assemble", "--in-dir", str(dataset), "--machines", str(machines),
                   "--out", str(tmp_path / "stream.csv")])
    assert rc == cli.EXIT_VIOLATIONS
    err = capsys.readouterr().err.splitlines()
    expected = []
    for name in per_dataset:
        shown = [v for v in violations if v.dataset == name][:20]
        expected += [f"violation [{name} row {v.row_index}]: {v.message}" for v in shown]
    assert sorted(err[:-len(per_dataset) - 1]) == sorted(expected)
    assert err[-len(per_dataset) - 1:] == [
        f"violation [{name}]: {per_dataset[name] - 20} more not shown"
        for name in ingest.BUNDLE_FILENAMES if name in per_dataset
    ] + [f"{len(violations)} validation violation(s); continuing"]


def test_telemetry_gap_violation_prints_without_a_row(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    lines = (data / "telemetry.csv").read_text().splitlines()
    before_gap = lines[10].split(",")[1]  # machine 1's hour 9
    del lines[11:13]
    (data / "telemetry.csv").write_text("\n".join(lines) + "\n")
    rc = cli.main(["assemble", "--in-dir", str(data), "--out", str(tmp_path / "s.csv")])
    assert rc == cli.EXIT_VIOLATIONS
    assert capsys.readouterr().err == (
        f"violation [telemetry]: machine 1: 2 missing hour(s) after {before_gap}\n"
        "1 validation violation(s); continuing\n")


@pytest.mark.parametrize("threshold", ["0", "1.0"])
def test_out_of_range_threshold_exits_1_before_any_fit(dataset, tmp_path, capsys,
                                                      monkeypatch, threshold):
    def no_fit(*args, **kwargs):
        raise AssertionError("logreg.fit called")

    monkeypatch.setattr(logreg, "fit", no_fit)
    rc = cli.main(["evaluate", "--in-dir", str(dataset), "--out-dir", str(tmp_path / "rep"),
                   "--threshold", threshold])
    assert rc == cli.EXIT_FAILURE
    assert capsys.readouterr().err == "error: threshold must lie in (0, 1)\n"


def test_prune_threshold_above_one_exits_1_before_any_fit(dataset, tmp_path, capsys,
                                                         monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("logreg.fit called")

    monkeypatch.setattr(logreg, "fit", no_fit)
    rc = cli.main(["prune", "--in-dir", str(dataset), "--out-dir", str(tmp_path / "rep"),
                   "--rule", "relative", "--prune-threshold", "2.0"])
    assert rc == cli.EXIT_FAILURE
    assert capsys.readouterr().err == "error: pruning removed every feature\n"


# --- single-cell corruption: the exit-code contract --------------------------

@pytest.fixture(scope="module")
def clean_lines(tmp_path_factory):
    """Each CSV of a small valid dataset as its list of lines, in bytes."""
    path = tmp_path_factory.mktemp("corrupt") / "data"
    assert cli.main(["generate", "--out-dir", str(path), "--machines", "4",
                     "--days", "5", "--seed", "5"]) == cli.EXIT_OK
    return {p.name: p.read_bytes().splitlines() for p in path.glob("*.csv")}


_BAD_CELLS = st.sampled_from([
    b"", b"abc", b"1,2", b"a,b,c", b"nan", b"NaN", b"inf", b"-inf", b"1e400",
    b"99999999999999999999", b"-9223372036854775809", b"9223372036854775807",
    b"-1", b"2", b"0000-01-01 00:00:00", b"9999-12-31 23:59:59",
    b"2015-01-01T05:00:00", b"2015-01-01", b"\xff\xfe", b"1\x80", b"\xc3",
])

_WRAPS = st.sampled_from([
    lambda cell: cell,
    lambda cell: b" " + cell + b"\t",
    lambda cell: b'"' + cell + b'"',
    lambda cell: b'"' + cell + b'\n"',
    lambda cell: b'"\n' + cell + b'"',
])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_single_cell_corruption_exits_0_1_or_2(clean_lines, tmp_path, capsys, data):
    """Any one cell of a valid dataset, replaced by any text, gives exit 0,
    1 or 2 and never an exception; exit 1 names the file, and names the
    physical line when the replacement holds no quote."""
    name = data.draw(st.sampled_from(sorted(clean_lines)), label="file")
    lines = list(clean_lines[name])
    index = data.draw(st.integers(0, len(lines) - 1), label="line index")
    cells = lines[index].split(b",")
    column = data.draw(st.integers(0, len(cells) - 1), label="column")
    cells[column] = data.draw(_WRAPS, label="wrap")(
        data.draw(st.one_of(st.just(cells[column]), _BAD_CELLS), label="cell"))
    lines[index] = b",".join(cells)
    directory = tmp_path / "data"
    directory.mkdir(exist_ok=True)
    for other, content in clean_lines.items():
        (directory / other).write_bytes(b"\n".join(lines if other == name else content)
                                        + b"\n")
    capsys.readouterr()
    rc = cli.main(["assemble", "--in-dir", str(directory),
                   "--out", str(tmp_path / "stream.csv")])
    err = capsys.readouterr().err
    assert rc in (cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_VIOLATIONS)
    if rc == cli.EXIT_FAILURE:
        assert f"error: {directory / name}:" in err
        if b'"' not in cells[column]:
            assert err.startswith(f"error: {directory / name}:{index + 1}:")


_ROW_FAULTS = {"duplicate_key": "telemetry", "nan_reading": "telemetry",
               "no_flag": None, "fail_without_comp": "maintenance",
               "negative_age": "machines", "two_models": "machines"}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_row_level_fault_drops_just_that_row(clean_lines, tmp_path, data):
    """One data row of a valid dataset turned into any row-level fault gives
    exit 2 and, byte for byte, the stream of the dataset without that row."""
    fault = data.draw(st.sampled_from(sorted(_ROW_FAULTS)), label="fault")
    dataset = _ROW_FAULTS[fault] or data.draw(
        st.sampled_from(["errors", "maintenance", "failures"]), label="event dataset")
    columns = schema.CSV_COLUMNS[dataset]
    lines = clean_lines[f"{dataset}.csv"]
    # A duplicate key repeats an earlier row's, since the first row is kept.
    index = data.draw(st.integers(2 if fault == "duplicate_key" else 1, len(lines) - 1),
                      label="row")
    cells = dict(zip(columns, lines[index].split(b",")))
    if fault == "duplicate_key":
        earlier = data.draw(st.integers(1, index - 1), label="earlier row")
        cells["machine_id"], cells["datetime"] = lines[earlier].split(b",")[:2]
    elif fault == "nan_reading":
        cells[data.draw(st.sampled_from(schema.TELEMETRY_FIELDS), label="reading")] = b"nan"
    elif fault == "no_flag":
        cells.update(dict.fromkeys(columns[2:], b"0"))
    elif fault == "fail_without_comp":
        comp = data.draw(st.sampled_from(schema.COMP_FLAGS), label="component")
        cells[comp], cells[f"{comp}_fail"] = b"0", b"1"
    elif fault == "negative_age":
        cells["age"] = b"%d" % -data.draw(st.integers(1, 10**6), label="minus age")
    else:
        unset = [f for f in schema.MODEL_FLAGS if cells[f] == b"0"]
        cells[data.draw(st.sampled_from(unset), label="second model")] = b"1"
    results = []
    for row in ([b",".join(cells.values())], []):
        directory = tmp_path / "data"
        directory.mkdir(exist_ok=True)
        for name, content in clean_lines.items():
            if name == f"{dataset}.csv":
                content = content[:index] + row + content[index + 1:]
            (directory / name).write_bytes(b"\n".join(content) + b"\n")
        results.append(_stream_of(directory, tmp_path / "stream.csv"))
    (rc, stream), (_, expected) = results
    assert rc == cli.EXIT_VIOLATIONS
    assert stream == expected


# --- configuration -----------------------------------------------------------

def test_flags_override_config_file_overrides_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"machines": 4, "days": 10, "seed": 1}))
    out = tmp_path / "data"
    rc = cli.main(["generate", "--config", str(config),
                   "--seed", "2", "--out-dir", str(out)])
    assert rc == cli.EXIT_OK
    resolved = json.loads((out / "run_config.json").read_text())["config"]
    assert resolved["machines"] == 4      # from the config file
    assert resolved["days"] == 10
    assert resolved["seed"] == 2          # explicit flag wins
    assert resolved["failure_rate"] == 0.017  # untouched default


def test_run_config_records_every_resolved_key(dataset, tmp_path):
    out = tmp_path / "rep"
    rc = cli.main(["evaluate", "--in-dir", str(dataset),
                   "--out-dir", str(out), "--threshold", "0.4"])
    assert rc == cli.EXIT_OK
    resolved = json.loads((out / "run_config.json").read_text())["config"]
    assert set(resolved) == set(cli.DEFAULTS["evaluate"])
    assert resolved["threshold"] == 0.4
    assert resolved["folds"] == 3


@pytest.mark.parametrize("subcommand, key, function, parameter", [
    ("train", "weight", assemble.encode, "weight_positive"),
    ("evaluate", "weight", evaluate.evaluate_cv, "weight_positive"),
    ("evaluate", "threshold", evaluate.evaluate_cv, "threshold"),
    ("evaluate", "folds", evaluate.make_folds, "k"),
    ("evaluate", "seed", evaluate.make_folds, "seed"),
    ("assemble", "horizon", assemble.build_event_stream, "horizon_hours"),
    ("assemble", "label_window", assemble.build_event_stream, "window"),
    ("prune", "rule", evaluate.prune_features, "rule"),
    ("prune", "prune_threshold", evaluate.prune_features, "threshold"),
], ids=lambda value: getattr(value, "__name__", value))
def test_option_default_is_the_library_parameter_default(subcommand, key, function,
                                                          parameter):
    """Options that feed a function parameter of another name keep its default;
    repr tells 100 from 100.0, which run_config.json would record differently."""
    want = inspect.signature(function).parameters[parameter].default
    assert repr(cli.DEFAULTS[subcommand][key]) == repr(want)


# --- the config-file contract, for every key of every subcommand -------------

def _flag_dests(subcommand):
    # argparse has no public accessor for a parser's actions.
    subparsers = next(a for a in cli.build_parser()._actions if a.choices)
    return {a.dest for a in subparsers.choices[subcommand]._actions} - {"help", "config"}


def _resolve_with_file(subcommand, path, file_cfg):
    path.write_text(json.dumps(file_cfg))
    args = cli.build_parser().parse_args([subcommand, "--config", str(path)])
    return cli._resolve(subcommand, args)


_JSON_KINDS = {
    "null": st.none(), "bool": st.booleans(), "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=5), "list": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
}


def _accepted_kinds(default):
    """The JSON kinds a key with this default takes, as README states it."""
    if default is None:
        return {"null", "str"}
    if isinstance(default, bool):
        return {"bool"}
    if isinstance(default, int):
        return {"int"}
    if isinstance(default, float):
        return {"int", "float"}
    return {"str"}


def _wrong_values(default):
    return st.one_of([strategy for kind, strategy in _JSON_KINDS.items()
                      if kind not in _accepted_kinds(default)])


@pytest.mark.parametrize("subcommand", sorted(cli.DEFAULTS))
def test_config_keys_are_the_parser_flag_dests(subcommand):
    assert _flag_dests(subcommand) == set(cli.DEFAULTS[subcommand])


@pytest.mark.parametrize("subcommand", sorted(cli.DEFAULTS))
def test_config_file_of_defaults_resolves_to_the_defaults(subcommand, tmp_path):
    defaults = cli.DEFAULTS[subcommand]
    path = tmp_path / "config.json"
    for key, value in defaults.items():
        assert _resolve_with_file(subcommand, path, {key: value}) == defaults
    assert _resolve_with_file(subcommand, path, defaults) == defaults


@pytest.mark.parametrize("subcommand", sorted(cli.DEFAULTS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_wrong_typed_config_value_exits_1(subcommand, tmp_path, capsys, data):
    defaults = cli.DEFAULTS[subcommand]
    config = tmp_path / "config.json"
    for key in sorted(defaults):
        value = data.draw(_wrong_values(defaults[key]), label=key)
        config.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert cli.main([subcommand, "--config", str(config)]) == cli.EXIT_FAILURE
        assert capsys.readouterr().err.startswith(f"error: config key {key!r}")


# --- parser niceties ---------------------------------------------------------

def test_help_and_version_exit_cleanly(capsys):
    for argv in (["--help"], ["--version"], ["generate", "--help"],
                 ["evaluate", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["prune", "--rule", "bogus"], "invalid choice: 'bogus'"),
    (["evaluate", "--bogus"], "unrecognized arguments: --bogus"),
    (["generate", "--machines", "x"], "--machines: invalid int value: 'x'"),
    ([], "the following arguments are required"),
], ids=["bad_choice", "unknown_flag", "bad_int", "no_subcommand"])
def test_usage_error_exits_1(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("usage: failcast") and message in err
