import datetime as dt
import filecmp
import hashlib
import math

import numpy as np
import pytest

from failcast import assemble, cli, evaluate, ingest, logreg, schema, synth

import helpers


def test_same_seed_gives_byte_identical_csvs(tmp_path):
    config = synth.SynthConfig(n_machines=4, n_days=20, seed=1)
    ingest.write_bundle(synth.generate(config), tmp_path / "a")
    ingest.write_bundle(synth.generate(config), tmp_path / "b")
    for name in ingest.BUNDLE_FILENAMES.values():
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


# sha256 of each CSV that `failcast generate --machines 3 --days 5 --seed 4
# --drift` writes; any change to the generator's draws, the row order or the
# cell formatting changes these digests.
GENERATED_CSV_SHA256 = {
    "telemetry.csv": "bce536aa6f9769f98f1adfaf241d70a27004ccf58c0b53d73bb7f8071238f55f",
    "errors.csv": "195c54c43665176759a8e82f682cf149d5ab6b2656f168967ca5ea9fc7b3520d",
    "maintenance.csv": "42c315bf42d94db45ae2db365eddf10dab2a16db7b5c17b63989839415221e8d",
    "failures.csv": "8c9b1cdbb4506398ab8aa0ab870875741a2858ccb18999aceaaaff0a45613bb5",
    "machines.csv": "7de0ae556af341daa89ab9c4fefb9823db1923695d7ea5169497f0a99d7434c6",
}


def test_generate_writes_pinned_csv_bytes(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["generate", "--out-dir", str(out), "--machines", "3",
                     "--days", "5", "--seed", "4", "--drift"]) == cli.EXIT_OK
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ingest.BUNDLE_FILENAMES.values()}
    assert digests == GENERATED_CSV_SHA256


def test_different_seeds_differ():
    a = synth.generate(synth.SynthConfig(n_machines=2, n_days=10, seed=1))
    b = synth.generate(synth.SynthConfig(n_machines=2, n_days=10, seed=2))
    assert helpers.bundle_rows(a) != helpers.bundle_rows(b)


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_every_dataset_is_schema_valid(seed):
    bundle = synth.generate(synth.SynthConfig(n_machines=5, n_days=15, seed=seed))
    for name in ("telemetry", "errors", "maintenance", "failures", "machines"):
        assert schema.validate_dataset(getattr(bundle, name), name) == []


def test_telemetry_grid_is_complete(small_bundle):
    hours_per_machine = {}
    for rec in small_bundle.telemetry:
        hours_per_machine.setdefault(rec.machine_id, []).append(rec.datetime)
    n_hours = 30 * 24
    for machine_id, hours in hours_per_machine.items():
        assert len(hours) == n_hours
        assert len(set(hours)) == n_hours


def test_every_failure_has_fail_flagged_maintenance(small_bundle):
    maintenance = {(r.machine_id, r.datetime): r
                   for r in small_bundle.maintenance}
    assert len(small_bundle.failures), "fixture should produce failures"
    for fail in small_bundle.failures:
        match = maintenance.get((fail.machine_id, fail.datetime))
        assert match is not None, fail
        for k in range(1, 5):
            if getattr(fail, f"comp_{k}"):
                assert getattr(match, f"comp_{k}_fail")
                assert getattr(match, f"comp_{k}")


def test_descriptors_have_one_model_and_bounded_age(small_bundle):
    for desc in small_bundle.machines:
        flags = [desc.model_1, desc.model_2, desc.model_3, desc.model_4]
        assert sum(flags) == 1
        assert 0 <= desc.age <= 20


def test_machine_ids_are_one_based_and_ordered(small_bundle):
    assert [m.machine_id for m in small_bundle.machines] == list(range(1, 7))


def test_triggered_failures_follow_errors_at_lead():
    """P(failure at t+24 | error at t) should match the hazard calibration."""
    config = synth.SynthConfig(n_machines=20, n_days=120, seed=13)
    bundle = synth.generate(config)
    n = config.n_hours
    failure_hours = {(f["machine_id"], f["datetime"])
                     for f in helpers.table_rows(bundle.failures)}
    hits = trials = 0
    for err in helpers.table_rows(bundle.errors):
        t_fail = err["datetime"] + dt.timedelta(hours=24)
        if (t_fail - synth.START.item()).total_seconds() / 3600 >= n:
            continue
        trials += 1
        hits += (err["machine_id"], t_fail) in failure_hours
    expected = (config.triggered_failure_prob
                + (1 - config.triggered_failure_prob) * config.background_hazard)
    assert trials > 500
    assert abs(hits / trials - expected) < 0.05


def test_failure_rate_near_target_single_seed():
    config = synth.SynthConfig(n_machines=20, n_days=120, seed=3)
    bundle = synth.generate(config)
    rate = len(bundle.failures) / (config.n_machines * config.n_hours)
    assert abs(rate - config.target_failure_rate) < 0.004


def test_infeasible_calibration_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        synth.SynthConfig(per_flag_error_rate=0.001, target_failure_rate=0.1,
                          signal_strength=50.0)


def test_config_validation():
    with pytest.raises(ValueError):
        synth.SynthConfig(n_days=1)
    with pytest.raises(ValueError):
        synth.SynthConfig(target_failure_rate=0.6)
    with pytest.raises(ValueError):
        synth.SynthConfig(signal_strength=-1.0)


def _mutual_information(a, b):
    total = 0.0
    for va in (False, True):
        for vb in (False, True):
            p_ab = np.mean((a == va) & (b == vb))
            if p_ab == 0:
                continue
            total += p_ab * math.log2(p_ab / (np.mean(a == va) * np.mean(b == vb)))
    return total


def _error_any_and_labels(rows):
    err = np.array([any((r.error_1, r.error_2, r.error_3, r.error_4,
                         r.error_5)) for r in rows])
    lab = np.array([r.label for r in rows])
    return err, lab


def test_zero_signal_severs_error_label_dependence():
    config = synth.SynthConfig(n_machines=12, n_days=90, seed=5,
                               signal_strength=0.0)
    rows = assemble.build_event_stream(synth.generate(config))
    err, lab = _error_any_and_labels(rows)
    # measured noise floor ~3e-5 bits; planted-signal default is ~0.095
    assert _mutual_information(err, lab) < 5e-4

    folds = evaluate.make_folds(rows, k=3, seed=42)
    unweighted = evaluate.evaluate_cv(rows, folds, weight_positive=1.0)
    assert unweighted.average_failure_recall <= 0.05

    weighted = evaluate.evaluate_cv(rows, folds, weight_positive=100.0)
    tp = sum(f.matrix.counts[1][1] for f in weighted.fold_results)
    fp = sum(f.matrix.counts[0][1] for f in weighted.fold_results)
    precision = tp / (tp + fp)
    assert abs(precision - lab.mean()) < 0.01  # no better than base rate


def test_default_signal_is_learnable():
    config = synth.SynthConfig(n_machines=12, n_days=90, seed=5)
    rows = assemble.build_event_stream(synth.generate(config))
    err, lab = _error_any_and_labels(rows)
    assert _mutual_information(err, lab) > 0.05


def test_drift_ramps_pressure_before_failures():
    base = synth.SynthConfig(n_machines=4, n_days=40, seed=2)
    drifted = synth.SynthConfig(n_machines=4, n_days=40, seed=2,
                                telemetry_drift=True)
    plain = synth.generate(base)
    ramped = synth.generate(drifted)
    # same event skeleton
    assert helpers.table_rows(plain.failures) == helpers.table_rows(ramped.failures)
    by_key = {(r.machine_id, r.datetime): r for r in plain.telemetry}
    deltas = []
    for rec in ramped.telemetry:
        deltas.append(rec.pressure - by_key[(rec.machine_id, rec.datetime)].pressure)
    deltas = np.array(deltas)
    assert (deltas >= -1e-9).all()
    assert deltas.max() > 1.0  # ramp present somewhere
