"""Fold construction, confusion arithmetic, leakage freedom and pruning."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failcast import assemble, evaluate, logreg, rng, schema, synth

import helpers

# Channel constant for the machine shuffle; frozen here so an accidental
# change to the fold derivation shows up as a determinism regression.
FOLD_CHANNEL = 0x0F01D


def _cv_rows(machines, n_hours=96, train_failures=True, test_failures=True):
    """Event-stream rows whose folds have both classes on both sides.

    With the default 96-hour grid the cutoff lands at hour 36; failures
    at hour 30 label a training row, failures at hour 70 a test row.
    """
    failures = []
    for m in range(1, machines + 1):
        if train_failures:
            failures.append((m, 30))
        if test_failures:
            failures.append((m, 70))
    bundle = helpers.micro_bundle(machines=machines, n_hours=n_hours,
                                  failures_at=tuple(failures))
    return assemble.build_event_stream(bundle)


def _machines(rows, idx):
    return set(rows.machine_id[idx].tolist())


def _cutoff(rows):
    """The midpoint of the distinct-hour timeline."""
    times = np.unique(rows.datetime)
    return times[len(times) // 2]


# --- fold construction -------------------------------------------------------

def test_three_machines_three_folds_test_singletons():
    rows = _cv_rows(3)
    folds = evaluate.make_folds(rows, k=3, seed=0)
    test_groups = [_machines(rows, f.test_rows) for f in folds]
    assert sorted(len(g) for g in test_groups) == [1, 1, 1]
    assert set().union(*test_groups) == {1, 2, 3}


def test_folds_are_machine_disjoint_and_time_ordered():
    rows = _cv_rows(5)
    folds = evaluate.make_folds(rows, k=3, seed=9)
    late = rows.datetime >= _cutoff(rows)
    all_test = []
    for fold in folds:
        train, test = _machines(rows, fold.train_rows), _machines(rows, fold.test_rows)
        assert not train & test
        assert train | test == set(range(1, 6))
        # Test rows are every late row of the test machines, train rows
        # every early row of the others, both ascending.
        in_test = np.isin(rows.machine_id, list(test))
        assert np.array_equal(fold.test_rows, np.flatnonzero(in_test & late))
        assert np.array_equal(fold.train_rows, np.flatnonzero(~in_test & ~late))
        all_test.append(test)
    for a in range(len(all_test)):
        for b in range(a + 1, len(all_test)):
            assert not all_test[a] & all_test[b]


def test_fold_partition_matches_shuffle_and_chunk_rule():
    # Independently recompute the expected grouping: shuffle the sorted
    # machine ids on a derived stream, then cut into k chunks with the
    # remainder spread over the leading chunks; the cutoff is the middle
    # element of the distinct-hour timeline.
    rows = _cv_rows(7)
    seed = 5
    machines = sorted({r.machine_id for r in rows})
    expected_order = list(machines)
    rng.Stream(rng.derive(seed, FOLD_CHANNEL)).shuffle(expected_order)
    expected_groups = [expected_order[0:3], expected_order[3:5],
                       expected_order[5:7]]
    times = sorted({r.datetime for r in rows})
    cutoff = times[len(times) // 2]
    folds = evaluate.make_folds(rows, k=3, seed=seed)
    assert [sorted(_machines(rows, f.test_rows)) for f in folds] == \
        [sorted(g) for g in expected_groups]
    for f in folds:
        assert rows.datetime[f.test_rows].min() == cutoff
        assert rows.datetime[f.train_rows].max() < cutoff


def test_fold_assignment_is_deterministic_per_seed():
    rows = _cv_rows(6)
    a = evaluate.make_folds(rows, k=3, seed=1)
    b = evaluate.make_folds(rows, k=3, seed=1)
    c = evaluate.make_folds(rows, k=3, seed=2)
    groups = [[_machines(rows, f.test_rows) for f in folds] for folds in (a, b, c)]
    assert groups[0] == groups[1]
    assert groups[0] != groups[2]


def test_too_few_machines_for_folds():
    rows = _cv_rows(3)
    with pytest.raises(evaluate.FoldError, match="at least 5 machines"):
        evaluate.make_folds(rows, k=5)
    with pytest.raises(evaluate.FoldError, match="at least 2 folds"):
        evaluate.make_folds(rows, k=1)


def test_single_hour_timeline_rejected():
    rows = _cv_rows(3)
    squashed = rows[[np.flatnonzero(rows.machine_id == m)[0] for m in (1, 2)]]
    squashed.datetime = helpers.hour(0)
    with pytest.raises(evaluate.FoldError, match="2 distinct hours"):
        evaluate.make_folds(squashed, k=2)


def test_two_hour_timeline_is_folded():
    # Two distinct hours are enough: the cutoff is the second, so each fold
    # trains on the other machines' first hour and tests on its own second.
    cells = [(m, hour, label) for m in (1, 2, 3) for hour in (0, 1) for label in (True, False)]
    machine_id, hours, label = zip(*cells)
    second = np.datetime64("2015-01-01T01", "h")
    rows = np.rec.fromarrays([np.array(machine_id, np.int64), second - 1 + np.array(hours),
                              np.array(label, bool)], names="machine_id,datetime,label")
    tested = []
    for fold in evaluate.make_folds(rows, k=3, seed=0):
        train, test = rows[fold.train_rows], rows[fold.test_rows]
        tested += set(test.machine_id.tolist())
        assert len(test) == 2 and (test.datetime == second).all()
        assert len(train) == 4 and (train.datetime < second).all()
        assert test.machine_id[0] not in train.machine_id
    assert sorted(tested) == [1, 2, 3]


def test_fold_missing_a_class_names_the_fold():
    no_train_pos = _cv_rows(3, train_failures=False)
    with pytest.raises(evaluate.FoldError,
                       match=r"fold 0: train side lacks positives"):
        evaluate.make_folds(no_train_pos, k=3, seed=0)
    # Only machines 1 and 2 fail late, so whichever fold tests on
    # machine 3 has an all-negative test side.
    bundle = helpers.micro_bundle(
        machines=3, n_hours=96,
        failures_at=((1, 30), (2, 30), (3, 30), (1, 70), (2, 70)))
    rows = assemble.build_event_stream(bundle)
    with pytest.raises(evaluate.FoldError,
                       match=r"fold \d: test side lacks positives"):
        evaluate.make_folds(rows, k=3, seed=0)


def _labeled_rows(early, late):
    """Hand-built rows of machines 1-3 over hours 0-3, which make_folds cuts
    at hour 2: machine m's labels are ``early[m]`` at hours 0-1 and ``late[m]``
    at hours 2-3.  make_folds reads no other column."""
    cells = [(m, hour, label) for m in (1, 2, 3)
             for hour, label in enumerate(early[m] + late[m])]
    machine_id, hours, label = zip(*cells)
    return np.rec.fromarrays([np.array(machine_id, np.int64),
                              np.datetime64("2015-01-01T00", "h") + np.array(hours),
                              np.array(label, bool)], names="machine_id,datetime,label")


def _test_machine_of_fold():
    """Machine tested by each fold of ``make_folds(k=3, seed=0)`` on three machines."""
    mixed = {m: (True, False) for m in (1, 2, 3)}
    rows = _labeled_rows(mixed, mixed)
    return [int(rows.machine_id[f.test_rows][0]) for f in evaluate.make_folds(rows, k=3, seed=0)]


@pytest.mark.parametrize("side", ["train", "test"])
def test_fold_side_lacking_negatives_names_the_side(side):
    # Every row on the named side of the cutoff is positive; the other side has both classes.
    mixed = {m: (True, False) for m in (1, 2, 3)}
    positive = {m: (True, True) for m in (1, 2, 3)}
    rows = _labeled_rows(*((positive, mixed) if side == "train" else (mixed, positive)))
    with pytest.raises(evaluate.FoldError, match=rf"^fold 0: {side} side lacks negatives$"):
        evaluate.make_folds(rows, k=3, seed=0)


def test_fold_errors_name_the_first_fold_and_train_before_test():
    a, b, c = _test_machine_of_fold()  # the test machines of folds 0, 1 and 2
    mixed, positive, negative = (True, False), (True, True), (False, False)
    # Every fold lacks a class on both sides: fold 0's train side is named.
    everything = {m: positive for m in (1, 2, 3)}
    with pytest.raises(evaluate.FoldError, match=r"^fold 0: train side lacks negatives$"):
        evaluate.make_folds(_labeled_rows(everything, everything), k=3, seed=0)
    # Fold 0's test side (a late) and fold 1's train side (a and c early) lack a class.
    rows = _labeled_rows({a: positive, b: mixed, c: positive}, {a: negative, b: mixed, c: mixed})
    with pytest.raises(evaluate.FoldError, match=r"^fold 0: test side lacks positives$"):
        evaluate.make_folds(rows, k=3, seed=0)
    # Both sides of fold 1 lack a class, and fold 0 has both on both sides.
    rows = _labeled_rows({a: positive, b: mixed, c: positive}, {a: mixed, b: negative, c: mixed})
    with pytest.raises(evaluate.FoldError, match=r"^fold 1: train side lacks negatives$"):
        evaluate.make_folds(rows, k=3, seed=0)
    # Folds 1 and 2 lack test positives; fold 0 has both classes.
    rows = _labeled_rows({m: mixed for m in (1, 2, 3)}, {a: mixed, b: negative, c: negative})
    with pytest.raises(evaluate.FoldError, match=r"^fold 1: test side lacks positives$"):
        evaluate.make_folds(rows, k=3, seed=0)


def test_folds_compare_by_identity():
    rows = _cv_rows(3)
    a, b = evaluate.make_folds(rows, k=3, seed=0), evaluate.make_folds(rows, k=3, seed=0)
    assert a[0] == a[0] and a[0] != b[0] and a[0] != a[1]
    assert a[1] in a and b[1] not in a
    assert len({*a, *b}) == 6


# --- confusion arithmetic ----------------------------------------------------

def test_confusion_matrix_counts_by_hand():
    y_true = [False, False, True, True, True, False]
    y_pred = [False, True, True, False, True, False]
    counts = evaluate.confusion_counts(y_true, y_pred)
    assert counts == [[2, 1], [1, 2]]
    assert np.allclose(evaluate.normalized(counts), [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])


def test_confusion_matrix_all_negative_predictions():
    counts = evaluate.confusion_counts([False, True], [False, False])
    assert counts == [[1, 0], [1, 0]]
    assert evaluate.normalized(counts)[1].tolist() == [1.0, 0.0]


def test_normalized_rows_sum_to_one():
    norm = evaluate.normalized(evaluate.confusion_counts(
        [False, False, True, True, True], [True, False, True, True, False]))
    assert np.allclose(norm.sum(axis=1), 1.0, atol=1e-12)
    empty_row = evaluate.normalized(evaluate.confusion_counts(
        [False, False], [True, False]))
    assert np.all(empty_row[1] == 0.0)


def test_confusion_matrix_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        evaluate.confusion_counts([True], [True, False])


# --- cross-validated evaluation ----------------------------------------------

def test_evaluate_cv_shapes_and_bookkeeping():
    rows = _cv_rows(4)
    folds = evaluate.make_folds(rows, k=2, seed=0)
    result = evaluate.evaluate_cv(rows, folds)
    assert result["features"] == list(schema.FEATURE_NAMES)
    assert len(result["folds"]) == 2
    for fold, entry in zip(folds, result["folds"]):
        assert entry["fold_index"] == fold.fold_index
        assert entry["n_train"] == len(fold.train_rows)
        assert entry["n_test"] == len(fold.test_rows)
        # The fold's model is the one fitted on its training rows alone.
        model = logreg.fit(assemble.encode(rows[fold.train_rows]))
        assert entry["iterations"] == model.fit_meta.iterations
        assert entry["converged"] == model.fit_meta.converged
        assert entry["alpha"] == model.alpha
        assert entry["beta"] == dict(zip(result["features"], model.beta.tolist()))
        test = rows[fold.test_rows]
        x_test = assemble.apply_encoding(assemble.raw_feature_matrix(test)[0],
                                         model.encoding)
        assert entry["counts"] == evaluate.confusion_counts(
            test.label, logreg.predict(model, x_test))
        assert entry["normalized"] == evaluate.normalized(entry["counts"]).tolist()
    manual = np.mean([f["normalized"] for f in result["folds"]], axis=0)
    assert result["average_normalized"] == manual.tolist()
    # The run object is what report.json stores: plain JSON types throughout.
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("features", [None, evaluate.PAPER_REDUCED_FEATURES])
def test_evaluate_cv_builds_no_training_matrix(monkeypatch, features):
    # A fold's training side goes straight into its factored design; the raw
    # row-by-feature matrix is built for each fold's test side alone.
    rows = _cv_rows(4)
    folds = evaluate.make_folds(rows, k=2, seed=0)
    fit, raw, asked = logreg.fit, assemble.raw_feature_matrix, []

    def fitted(data, config):
        asked.append([])  # each fold's fit comes before its scoring
        return fit(data, config)

    def recorded(rows, features=None, index=None):
        asked[-1].append(index)
        return raw(rows, features, index)

    monkeypatch.setattr(logreg, "fit", fitted)
    monkeypatch.setattr(assemble, "raw_feature_matrix", recorded)
    evaluate.evaluate_cv(rows, folds, features=features)
    assert len(asked) == len(folds)
    for indices, fold in zip(asked, folds):
        assert np.concatenate(indices).tolist() == fold.test_rows.tolist()
        assert not np.isin(np.concatenate(indices), fold.train_rows).any()


def test_evaluate_cv_scores_in_blocks_as_on_the_whole_test_side(monkeypatch):
    """Scoring three test rows at a time gives the run objects that scoring
    each test side at once gives, full and paper-reduced."""
    rows = assemble.build_event_stream(synth.generate(synth.SynthConfig(machines=8, days=45,
                                                                        seed=7)))
    folds = evaluate.make_folds(rows)
    runs = {}
    for block_rows in (len(rows), 3):
        monkeypatch.setattr(evaluate, "_SCORE_ROWS", block_rows)
        runs[block_rows] = [evaluate.evaluate_cv(rows, folds, features=features)
                            for features in (None, evaluate.PAPER_REDUCED_FEATURES)]
    assert runs[3] == runs[len(rows)]


def test_evaluate_cv_without_folds_raises_fold_error():
    with pytest.raises(evaluate.FoldError, match="no folds to evaluate"):
        evaluate.evaluate_cv(_cv_rows(4), [])


def test_evaluate_cv_weight_report_covers_all_features():
    rows = _cv_rows(4)
    folds = evaluate.make_folds(rows, k=2, seed=0)
    result = evaluate.evaluate_cv(rows, folds)
    weights = result["weights"]
    assert sorted(w["feature"] for w in weights) == \
        sorted(("constant",) + schema.FEATURE_NAMES)
    ranks = [(-abs(w["mean"]), w["feature"]) for w in weights]
    assert ranks == sorted(ranks)
    assert [w["abs_rank"] for w in weights] == list(range(1, len(weights) + 1))
    for w in weights:
        per_fold = [f["alpha"] if w["feature"] == "constant" else f["beta"][w["feature"]]
                    for f in result["folds"]]
        assert (w["mean"], w["std"]) == (np.mean(per_fold), np.std(per_fold))


def test_evaluate_cv_honours_feature_subset():
    rows = _cv_rows(4)
    folds = evaluate.make_folds(rows, k=2, seed=0)
    result = evaluate.evaluate_cv(rows, folds, features=["error_1", "age"])
    assert {w["feature"] for w in result["weights"]} == {"constant", "error_1", "age"}
    assert result["features"] == ["error_1", "age"]
    assert all(list(f["beta"]) == ["error_1", "age"] for f in result["folds"])


def test_fold_models_never_see_test_rows():
    rows = _cv_rows(4)
    folds = evaluate.make_folds(rows, k=2, seed=0)
    base = evaluate.evaluate_cv(rows, folds)

    victim = folds[0].test_rows[0]
    perturbed = rows.copy()
    perturbed.volt[victim] = 9e5
    perturbed.pressure[victim] = -9e5
    changed = evaluate.evaluate_cv(perturbed, folds)
    for a, b in zip(base["folds"], changed["folds"]):
        assert a["alpha"] == b["alpha"]
        assert a["beta"] == b["beta"]


def test_rescaling_a_telemetry_channel_changes_nothing_material():
    rows = _cv_rows(4)
    folds = evaluate.make_folds(rows, k=2, seed=0)
    base = evaluate.evaluate_cv(rows, folds)
    scaled_rows = rows.copy()
    scaled_rows.volt *= 1000.0
    scaled = evaluate.evaluate_cv(scaled_rows, folds)
    assert np.allclose(base["average_normalized"], scaled["average_normalized"],
                       atol=1e-9)
    scaled_means = {w["feature"]: w["mean"] for w in scaled["weights"]}
    assert scaled_means.keys() == {w["feature"] for w in base["weights"]}
    for w in base["weights"]:
        assert abs(w["mean"] - scaled_means[w["feature"]]) < 1e-6


# --- an independent oracle for whole folds -----------------------------------

# A fold's certificate: each gradient component at its (alpha, beta) is at most
# the tolerance plus _SLACK ulps of the sum of its terms' magnitudes, which
# covers the rounding by which the oracle's and the fit's sums differ (at most
# 122 such ulps on 8x120, 8x365 and the bench set).  The objective is strictly
# convex in beta, so a zero gradient identifies the minimiser.  The worst ratio
# of a component to its bound seen was 0.98 over 1000 micro bundles, 0.82 on
# 8x120 seed 7 and 0.0012 on the bench set: the fit's own gradient sets it.
_SLACK = 1024


def _check_folds_against_the_oracle(stream_rows, rows, folds, weight_positive, threshold):
    """Run evaluate_cv, full and paper-reduced, and check each fold against
    helpers.oracle_fold on the dicts ``stream_rows`` of the stream ``rows``: its
    fit's certificate on the independently standardized training rows, and its
    confusion counts from the independent test-side probabilities, none of them
    within 1e-9 of the threshold."""
    config = logreg.FitConfig()
    labels = np.array([row["label"] for row in stream_rows], dtype=bool)
    for features in (None, evaluate.PAPER_REDUCED_FEATURES):
        run = evaluate.evaluate_cv(rows, folds, config, weight_positive, threshold, features)
        names = run["features"]
        matrix = helpers.oracle_matrix(stream_rows, names)
        for fold, entry in zip(folds, run["folds"]):
            train, test = fold.train_rows, fold.test_rows
            beta = np.array([entry["beta"][name] for name in names])
            gradient, scale, p = helpers.oracle_fold(matrix, labels, names, train, test,
                                                     weight_positive, config.l2,
                                                     entry["alpha"], beta)
            ratio = np.abs(gradient) / (config.tolerance + _SLACK * np.finfo(float).eps * scale)
            assert entry["converged"] and ratio.max() <= 1.0, (fold.fold_index, ratio.max())
            assert np.abs(p - threshold).min() > 1e-9
            y, predicted = labels[test], p >= threshold
            assert entry["counts"] == [
                [int(np.sum(~y & ~predicted)), int(np.sum(~y & predicted))],
                [int(np.sum(y & ~predicted)), int(np.sum(y & predicted))]]


@st.composite
def cv_bundles(draw):
    """(bundle, k): a micro bundle of k + 2 to 6 machines, so that each fold trains
    on at least two ages, where every machine fails once before the time cutoff
    and once after it, so that each fold's sides hold both classes."""
    k = draw(st.integers(2, 3))
    machines = range(1, draw(st.integers(k + 2, 6)) + 1)
    n_hours = draw(st.integers(60, 120))
    cutoff = (n_hours - 24) // 2  # the stream's hours are 0 to n_hours - 25
    failures = [(m, draw(st.integers(24, cutoff + 23))) for m in machines]
    failures += [(m, draw(st.integers(cutoff + 24, n_hours - 1))) for m in machines]
    hours = st.integers(0, n_hours - 1)
    errors = draw(st.lists(st.tuples(st.sampled_from(machines), hours, st.integers(1, 5)),
                           max_size=30))
    replacements = draw(st.lists(st.tuples(st.sampled_from(machines), hours,
                                           st.integers(1, 4)), max_size=8))
    return helpers.micro_bundle(len(machines), n_hours, failures_at=tuple(failures),
                                errors_at=tuple(errors), maintenance_at=tuple(replacements)), k


@settings(max_examples=50, deadline=None)
@given(case=cv_bundles(), seed=st.integers(0, 2**16),
       weight_positive=st.sampled_from([1.0, 2.0, 100.0]), threshold=st.sampled_from([0.3, 0.5, 0.7]))
def test_every_cv_fold_matches_the_fold_oracle_on_micro_bundles(case, seed, weight_positive,
                                                                threshold):
    bundle, k = case
    rows = assemble.build_event_stream(bundle)
    _check_folds_against_the_oracle(helpers.brute_force_stream(bundle), rows,
                                    evaluate.make_folds(rows, k=k, seed=seed),
                                    weight_positive, threshold)


def test_every_bench_fold_matches_the_fold_oracle(bench_rows, bench_folds):
    # The brute-force join of the bench set would take hours, so its dicts are
    # the stream's own; the oracle reads each weekday from the datetime.
    _check_folds_against_the_oracle(helpers.table_rows(bench_rows), bench_rows,
                                    bench_folds, 100.0, 0.5)


# --- pruning -----------------------------------------------------------------

def _entry(feature, mean, std=0.0):
    return {"feature": feature, "mean": mean, "std": std}


def _weights(**means):
    return [_entry("constant", -3.0, 0.1)] + [_entry(f, m) for f, m in means.items()]


def test_relative_rule_drops_small_magnitudes():
    weights = _weights(error_1=2.0, error_2=-1.5, volt=0.19, age=0.5,
                       dow_mon=-0.02)
    kept = evaluate.prune_features(weights, rule="relative", threshold=0.10)
    assert kept == ["error_1", "error_2", "age"]


def test_relative_rule_is_order_invariant_and_canonically_ordered():
    entries = [_entry("age", 0.5), _entry("error_2", -1.5),
               _entry("constant", -3.0), _entry("error_1", 2.0)]
    assert evaluate.prune_features(entries) == \
        evaluate.prune_features(entries[::-1]) == ["error_1", "error_2", "age"]


def test_intercept_magnitude_never_matters():
    weights = _weights(error_1=0.5, volt=0.04)  # constant has |mean| 3.0
    kept = evaluate.prune_features(weights, rule="relative", threshold=0.10)
    assert kept == ["error_1"]
    assert "constant" not in kept


def test_fixed_preset_keeps_errors_age_and_models():
    weights = _weights(**{f: 0.01 for f in schema.FEATURE_NAMES})
    kept = evaluate.prune_features(weights, rule="paper-reduced")
    assert kept == list(schema.ERROR_FLAGS) + ["age"] + list(schema.MODEL_FLAGS)
    assert len(kept) == 10


def test_fixed_preset_intersects_with_available_features():
    weights = _weights(error_1=1.0, volt=0.5, age=0.2)
    kept = evaluate.prune_features(weights, rule="paper-reduced")
    assert kept == ["error_1", "age"]


def test_relative_cutoff_of_one_keeps_the_largest_feature():
    weights = _weights(error_1=-2.0, error_2=1.999, age=0.5)
    assert evaluate.prune_features(weights, rule="relative", threshold=1.0) == ["error_1"]


def test_prune_error_paths():
    weights = _weights(error_1=1.0)
    with pytest.raises(evaluate.PruneError, match="unknown pruning rule"):
        evaluate.prune_features(weights, rule="absolute")
    with pytest.raises(evaluate.PruneError, match="no features"):
        evaluate.prune_features([_entry("constant", -3.0)])
    with pytest.raises(evaluate.PruneError, match="removed every feature"):
        evaluate.prune_features(weights, rule="relative", threshold=1.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_relative_rule_rejects_a_non_finite_mean_in_either_order(bad):
    # Python's max skips a NaN only once it holds a number: a NaN mean listed
    # before a finite one pruned every feature, and listed after it kept 'age'.
    for entries in (_weights(volt=bad, age=1.0), _weights(age=1.0, volt=bad)):
        with pytest.raises(evaluate.PruneError,
                           match="^feature 'volt' has a non-finite mean weight$"):
            evaluate.prune_features(entries)
    # With several, the same one is named in any order.
    entries = _weights(volt=bad, error_1=1.0, age=bad)
    for order in (entries, entries[::-1]):
        with pytest.raises(evaluate.PruneError, match="^feature 'age' has"):
            evaluate.prune_features(order)


@pytest.mark.parametrize("threshold", [float("nan"), -float("inf"), float("inf")])
def test_relative_rule_rejects_a_non_finite_threshold(threshold):
    # A NaN cutoff kept no feature and -inf every one.
    message = rf"^prune threshold {threshold!r} is not finite$"
    with pytest.raises(evaluate.PruneError, match=message):
        evaluate.check_prune_threshold(threshold)
    with pytest.raises(evaluate.PruneError, match=message):
        evaluate.prune_features(_weights(error_1=1.0, age=0.5), threshold=threshold)


# --- behaviour on the benchmark dataset --------------------------------------

def _numpy_bytes_kept_by_folds(rows, k):
    """The folds of ``make_folds(rows, k)`` and the bytes of numpy data
    allocated in the call that are still held once it returns."""
    tracemalloc.start()
    try:
        folds = evaluate.make_folds(rows, k=k, seed=42)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return folds, sum(t.size for t in snapshot.filter_traces([numpy_data]).traces)


def test_fold_memory_does_not_grow_with_the_fold_count(bench_rows):
    # Folds share each row's fold and the before-cutoff mask and derive their
    # sides on access: 2 bytes a row for any k below 256.  Folds that held
    # both index arrays kept 12 bytes a row at k = 3 and 80 at k = 20.
    kept = {k: _numpy_bytes_kept_by_folds(bench_rows, k) for k in (3, 20)}
    assert kept[3][1] == kept[20][1] < 4 * len(bench_rows)
    folds = kept[20][0]
    machines = sorted(set(bench_rows.machine_id.tolist()))
    order = list(machines)
    rng.Stream(rng.derive(42, FOLD_CHANNEL)).shuffle(order)
    late = bench_rows.datetime >= _cutoff(bench_rows)
    for fold, group in zip(folds, np.array_split(order, 20)):
        in_test = np.isin(bench_rows.machine_id, group)
        assert np.array_equal(fold.train_rows, np.flatnonzero(~in_test & ~late))
        assert np.array_equal(fold.test_rows, np.flatnonzero(in_test & late))

def test_benchmark_error_flags_dominate_telemetry(bench_cv):
    means = {w["feature"]: w["mean"] for w in bench_cv["weights"]}
    peak = max(abs(m) for f, m in means.items() if f != "constant")
    top = bench_cv["weights"][0]["feature"]
    assert top != "constant"
    assert top in schema.ERROR_FLAGS
    for name in schema.TELEMETRY_FIELDS:
        assert abs(means[name]) < 0.10 * peak


def test_benchmark_relative_prune_drops_all_telemetry(bench_cv):
    kept = evaluate.prune_features(bench_cv["weights"], rule="relative")
    assert not set(kept) & set(schema.TELEMETRY_FIELDS)
    assert set(kept) & set(schema.ERROR_FLAGS)
