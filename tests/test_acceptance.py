"""Release gate: ten independent checks covering numerical correctness,
split hygiene, calibration, benchmark quality and rerun determinism.

Each test is one pass/fail line; thresholds and runtime budgets are part
of the assertions themselves.
"""

import time

import numpy as np

from failcast import assemble, cli, evaluate, logreg, rng, synth

import helpers


def test_analytic_gradient_matches_finite_differences():
    start = time.perf_counter()
    sizes = rng.Stream(1234)
    rows_pick = sizes.below(20, 41)
    feat_pick = sizes.below(20, 29)
    for seed in range(20):
        n_rows = 10 + int(rows_pick[seed])          # <= 50
        n_features = 1 + int(feat_pick[seed])       # <= 29
        data = helpers.random_instance(seed=seed, n_rows=n_rows,
                                       n_features=n_features)
        s = helpers.Stream(seed + 1000)
        params = (0.3 * float(s.normals(1)[0]), 0.3 * s.normals(n_features))
        config = logreg.FitConfig(l2_strength=2.0)
        got = logreg.gradient(params, data, config)
        want = helpers.central_fd_gradient(params, data, config)
        rel = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
        assert rel < 1e-6, f"instance {seed}: relative gradient error {rel:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"gradient check took {elapsed:.2f}s (budget 2s)"


def test_newton_and_descent_solvers_agree_on_probabilities():
    start = time.perf_counter()
    data = helpers.random_instance(seed=42, n_rows=200, n_features=12)
    newton = logreg.fit(data, logreg.FitConfig(solver="newton"))
    descent = logreg.fit(data, logreg.FitConfig(solver="gradient_descent",
                                                max_iterations=5000))
    gap = np.max(np.abs(logreg.predict_proba(newton, data.dense)
                        - logreg.predict_proba(descent, data.dense)))
    elapsed = time.perf_counter() - start
    assert newton.fit_meta.converged and descent.fit_meta.converged
    assert gap < 1e-4, f"probability gap between solvers {gap:.3e}"
    assert elapsed < 10.0, f"solver comparison took {elapsed:.2f}s (budget 10s)"


def test_sample_weight_two_equals_row_duplication():
    data = helpers.random_instance(seed=8, n_rows=40, n_features=5,
                                   weighted=False)
    weights = np.ones(40)
    weights[7] = 2.0
    reweighted = helpers.dense_design(data.dense, data.labels, weights)
    duplicated = helpers.dense_design(np.vstack([data.dense, data.dense[7:8]]),
                                      np.concatenate([data.labels, data.labels[7:8]]))
    a = logreg.fit(reweighted)
    b = logreg.fit(duplicated)
    gap = max(abs(a.alpha - b.alpha), float(np.max(np.abs(a.beta - b.beta))))
    assert gap < 1e-8, f"weighted vs duplicated parameter gap {gap:.3e}"


def test_probability_unit_values_and_overflow_safety():
    assert logreg.sigmoid(0.0) == 0.5
    assert abs(logreg.sigmoid(np.log(3.0)) - 0.75) < 1e-12
    with np.errstate(over="raise"):
        extremes = logreg.sigmoid(np.array([-1e4, 1e4]))
    assert 0.0 < extremes[0] < extremes[1] < 1.0


def test_folds_are_machine_disjoint_and_temporally_ordered_everywhere():
    for seed in range(10):
        bundle = synth.generate(synth.SynthConfig(n_machines=9, n_days=60,
                                                  seed=seed))
        rows = assemble.build_event_stream(bundle)
        folds = evaluate.make_folds(rows, k=3, seed=seed)
        for fold in folds:
            train_m = {rows[i].machine_id for i in fold.train_rows}
            test_m = {rows[i].machine_id for i in fold.test_rows}
            assert not train_m & test_m, \
                f"seed {seed} fold {fold.fold_index}: shared machines"
            latest_train = max(rows[i].datetime for i in fold.train_rows)
            earliest_test = min(rows[i].datetime for i in fold.test_rows)
            assert latest_train < earliest_test, \
                f"seed {seed} fold {fold.fold_index}: temporal overlap"


def test_assembled_stream_equals_brute_force_join():
    cases = [
        helpers.micro_bundle(n_machines=3, n_hours=72,
                             failures_at=((1, 30), (2, 50), (3, 71)),
                             errors_at=((1, 6, 2), (2, 0, 1), (3, 47, 5)),
                             maintenance_at=((2, 10, 3),)),
        helpers.micro_bundle(n_machines=2, n_hours=48,
                             failures_at=((1, 26), (2, 47)),
                             errors_at=((1, 2, 1), (1, 2, 3))),
        helpers.micro_bundle(n_machines=1, n_hours=30),
    ]
    for i, bundle in enumerate(cases):
        assert helpers.table_rows(assemble.build_event_stream(bundle)) == \
            helpers.brute_force_stream(bundle), f"bundle {i} diverges"


def test_default_generator_hits_target_prevalence():
    start = time.perf_counter()
    rates = []
    for seed in range(30):
        bundle = synth.generate(synth.SynthConfig(n_machines=20, n_days=120,
                                                  seed=seed))
        rows = assemble.build_event_stream(bundle)
        rates.append(int(rows["label"].sum()) / len(rows))
    mean_rate = float(np.mean(rates))
    elapsed = time.perf_counter() - start
    assert 0.013 <= mean_rate <= 0.021, \
        f"mean positive rate {mean_rate:.4f} outside [0.013, 0.021]"
    assert elapsed < 60.0, f"30-seed calibration took {elapsed:.1f}s (budget 60s)"


def test_benchmark_recall_full_and_reduced(bench_rows):
    start = time.perf_counter()
    folds = evaluate.make_folds(bench_rows, k=3, seed=42)
    full = evaluate.evaluate_cv(bench_rows, folds)
    reduced_names = evaluate.prune_features(full["weights"], rule="paper-reduced")
    reduced = evaluate.evaluate_cv(bench_rows, folds, features=reduced_names)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"benchmark evaluation took {elapsed:.1f}s (budget 60s)"
    full_fnr, full_recall = full["average_normalized"][1]
    reduced_fnr, reduced_recall = reduced["average_normalized"][1]
    assert full_recall >= 0.95, f"full-feature recall {full_recall:.4f} < 0.95"
    assert reduced_recall >= full_recall - 0.02, \
        (f"reduced recall {reduced_recall:.4f} fell more than "
         f"0.02 below full {full_recall:.4f}")
    assert reduced_fnr <= full_fnr + 0.02, \
        (f"reduced false-negative rate {reduced_fnr:.4f} "
         f"rose more than 0.02 above full {full_fnr:.4f}")


def test_upweighting_failures_does_not_hurt_recall(bench_rows, bench_folds,
                                                  bench_cv):
    unweighted = evaluate.evaluate_cv(bench_rows, bench_folds,
                                      weight_positive=1.0)
    heavy = bench_cv["average_normalized"][1][1]  # weight 100, same rows and folds
    light = unweighted["average_normalized"][1][1]
    assert heavy >= light, \
        f"recall at weight 100 ({heavy:.4f}) below weight 1 ({light:.4f})"


def test_identical_evaluate_runs_are_byte_identical(tmp_path):
    data = tmp_path / "data"
    rc = cli.main(["generate", "--out-dir", str(data), "--machines", "8",
                   "--days", "45", "--seed", "3"])
    assert rc == 0
    out = tmp_path / "rep"
    argv = ["evaluate", "--in-dir", str(data), "--out-dir", str(out)]
    assert cli.main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cli.main(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == set(second)
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"bundle files changed between identical runs: {diffs}"
