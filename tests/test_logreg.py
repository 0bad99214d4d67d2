"""Solver checks: closed-form values, finite differences, symmetry,
duplication identities, and the two solvers cross-checking each other."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast import assemble, logreg

import helpers


def _design(rows, labels, weights=None):
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if weights is None:
        weights = np.ones(len(labels))
    return assemble.DesignMatrix(
        rows=rows, labels=labels, sample_weights=np.asarray(weights, float),
        encoding=None)


# --- sigmoid and prediction --------------------------------------------------

def test_sigmoid_known_values():
    assert logreg.sigmoid(0.0) == 0.5
    assert abs(logreg.sigmoid(math.log(3.0)) - 0.75) < 1e-15
    assert abs(logreg.sigmoid(-math.log(3.0)) - 0.25) < 1e-15


def test_sigmoid_extreme_arguments_stay_inside_unit_interval():
    with np.errstate(over="raise", under="ignore"):
        lo = logreg.sigmoid(-1e4)
        hi = logreg.sigmoid(1e4)
        also = logreg.sigmoid(np.array([-800.0, 800.0, -1e308, 1e308]))
    assert 0.0 < lo < hi < 1.0
    assert np.all(also > 0.0) and np.all(also < 1.0)


@given(st.lists(st.floats(min_value=-500, max_value=500), min_size=2,
                max_size=30))
def test_sigmoid_is_monotone(zs):
    z = np.sort(np.asarray(zs))
    p = logreg.sigmoid(z)
    assert np.all(np.diff(p) >= 0.0)
    assert np.all((p > 0.0) & (p < 1.0))


def test_predict_proba_zero_model_says_half():
    model = logreg.LogisticModel(alpha=0.0, beta=np.zeros(3), encoding=None)
    assert logreg.predict_proba(model, np.ones(3)) == 0.5
    batch = logreg.predict_proba(model, np.random.default_rng(0).normal(size=(5, 3)))
    assert batch.shape == (5,)
    assert np.all(batch == 0.5)


def test_predict_proba_intercept_only():
    model = logreg.LogisticModel(alpha=math.log(3.0), beta=np.zeros(2),
                                 encoding=None)
    assert abs(logreg.predict_proba(model, np.zeros(2)) - 0.75) < 1e-15


def test_predict_proba_rejects_wrong_dimension():
    model = logreg.LogisticModel(alpha=0.0, beta=np.zeros(4), encoding=None)
    with pytest.raises(ValueError, match="feature dimension"):
        logreg.predict_proba(model, np.ones(3))


def test_predict_threshold_semantics():
    model = logreg.LogisticModel(alpha=0.0, beta=np.array([1.0]), encoding=None)
    x = np.array([[0.0], [1.0], [-1.0]])
    calls = logreg.predict(model, x, threshold=0.5)
    assert calls.tolist() == [True, True, False]  # p == threshold is positive
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="threshold"):
            logreg.predict(model, x, threshold=bad)


def test_raising_the_threshold_only_removes_positives():
    data = helpers.random_instance(seed=3, n_rows=40, n_features=3)
    model = logreg.fit(data)
    lo = logreg.predict(model, data.rows, threshold=0.2)
    hi = logreg.predict(model, data.rows, threshold=0.8)
    assert np.all(lo[hi])  # every high-threshold positive is a low one too


# --- objective and gradient --------------------------------------------------

def test_objective_at_zero_parameters_is_weighted_log2():
    data = helpers.random_instance(seed=1, n_rows=25, n_features=4)
    config = logreg.FitConfig(l2_strength=7.0)
    expected = math.log(2.0) * float(data.sample_weights.sum())
    got = logreg.objective((0.0, np.zeros(4)), data, config)
    assert abs(got - expected) < 1e-12 * abs(expected)


def test_objective_matches_naive_per_row_summation():
    for seed in (0, 1, 2, 5):
        data = helpers.random_instance(seed=seed, n_rows=30, n_features=3)
        s = helpers.Stream(seed + 100)
        alpha = float(s.normals(1)[0])
        beta = s.normals(3)
        for l2 in (0.0, 1.0, 4.5):
            config = logreg.FitConfig(l2_strength=l2) if l2 > 0 else \
                logreg.FitConfig(l2_strength=0.0)
            got = logreg.objective((alpha, beta), data, config)
            want = helpers.naive_objective(alpha, beta, data, l2)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_gradient_matches_central_finite_differences():
    for seed in (0, 4, 9):
        data = helpers.random_instance(seed=seed, n_rows=35, n_features=4)
        s = helpers.Stream(seed + 7)
        params = (float(s.normals(1)[0]) * 0.3, 0.3 * s.normals(4))
        config = logreg.FitConfig(l2_strength=2.0)
        got = logreg.gradient(params, data, config)
        want = helpers.central_fd_gradient(params, data, config)
        assert np.max(np.abs(got - want)) < 1e-5 * max(1.0, np.max(np.abs(want)))


def test_zero_weight_rows_contribute_nothing():
    data = helpers.random_instance(seed=6, n_rows=20, n_features=3)
    dead = _design(data.rows, data.labels, weights=np.zeros(20))
    beta = np.array([0.4, -1.1, 2.0])
    config = logreg.FitConfig(l2_strength=3.0)
    assert logreg.objective((0.7, beta), dead, config) == \
        pytest.approx(0.5 * 3.0 * float(beta @ beta), rel=1e-15)
    grad = logreg.gradient((0.7, beta), dead, config)
    assert grad[0] == 0.0
    np.testing.assert_allclose(grad[1:], 3.0 * beta, rtol=1e-15)


def test_objective_is_convex_along_random_chords():
    data = helpers.random_instance(seed=2, n_rows=25, n_features=3)
    config = logreg.FitConfig(l2_strength=0.5)
    s = helpers.Stream(99)
    for _ in range(20):
        a1, a2 = s.normals(2)
        b1, b2 = s.normals(3), s.normals(3)
        mid = logreg.objective(((a1 + a2) / 2, (b1 + b2) / 2), data, config)
        ends = (logreg.objective((a1, b1), data, config)
                + logreg.objective((a2, b2), data, config)) / 2
        assert mid <= ends + 1e-9 * max(1.0, abs(ends))


# --- fitting -----------------------------------------------------------------

def test_uninformative_balanced_design_fits_to_exact_zero():
    # Every corner of the square carries both labels, so nothing is
    # learnable and the optimum is exactly the zero parameter vector.
    corners = [(sx, sy) for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
    rows = [c for c in corners for _ in range(2)]
    labels = [True, False] * 4
    model = logreg.fit(_design(rows, labels))
    assert model.alpha == 0.0
    assert np.all(model.beta == 0.0)
    assert model.fit_meta.converged
    assert model.fit_meta.iterations == 0


def test_sign_flip_symmetry_zeroes_the_intercept_only():
    # Data closed under (x, y) -> (-x, 1-y): the objective is invariant
    # under negating the intercept, so the optimum has alpha == 0 while
    # the slopes remain informative.
    pos = np.array([[1.0, 0.5], [2.0, -0.3], [1.5, 1.0], [0.8, 0.2]])
    rows = np.vstack([pos, -pos])
    labels = [True] * 4 + [False] * 4
    model = logreg.fit(_design(rows, labels))
    assert model.fit_meta.converged
    assert abs(model.alpha) < 1e-6
    assert np.linalg.norm(model.beta) > 0.1


def test_integer_weights_equal_row_duplication():
    data = helpers.random_instance(seed=8, n_rows=30, n_features=3,
                                   weighted=False)
    doubled = _design(data.rows, data.labels, weights=2.0 * np.ones(30))
    stacked = _design(np.vstack([data.rows, data.rows]),
                      np.concatenate([data.labels, data.labels]))
    a = logreg.fit(doubled)
    b = logreg.fit(stacked)
    assert abs(a.alpha - b.alpha) < 1e-8
    assert np.max(np.abs(a.beta - b.beta)) < 1e-8


def test_newton_and_gradient_descent_agree():
    data = helpers.random_instance(seed=12, n_rows=60, n_features=4)
    newton = logreg.fit(data, logreg.FitConfig(solver="newton"))
    gd = logreg.fit(data, logreg.FitConfig(solver="gradient_descent",
                                           max_iterations=5000))
    p_newton = logreg.predict_proba(newton, data.rows)
    p_gd = logreg.predict_proba(gd, data.rows)
    assert newton.fit_meta.converged and gd.fit_meta.converged
    assert np.max(np.abs(p_newton - p_gd)) < 1e-4


@pytest.mark.parametrize("solver, max_iterations", [("newton", 100),
                                                     ("gradient_descent", 5000),
                                                     ("gradient_descent", 3)])
def test_each_iterate_is_evaluated_once(monkeypatch, solver, max_iterations):
    # One sigmoid per iterate serves its gradient, its convergence test and
    # its line search; the final iterate is evaluated only for the gradient.
    sigmoid, calls = logreg.sigmoid, []
    monkeypatch.setattr(logreg, "sigmoid", lambda z: calls.append(z) or sigmoid(z))
    data = helpers.random_instance(seed=12, n_rows=60, n_features=4)
    model = logreg.fit(data, logreg.FitConfig(solver=solver,
                                              max_iterations=max_iterations))
    assert len(calls) == model.fit_meta.iterations + 1


def test_converged_fit_satisfies_its_own_certificate():
    data = helpers.random_instance(seed=5, n_rows=50, n_features=3)
    config = logreg.FitConfig()
    model = logreg.fit(data, config)
    assert model.fit_meta.converged
    grad = logreg.gradient((model.alpha, model.beta), data, config)
    assert np.max(np.abs(grad)) <= config.tolerance
    assert model.fit_meta.final_objective == pytest.approx(
        logreg.objective((model.alpha, model.beta), data, config), rel=1e-15)


@pytest.mark.parametrize("seed, n_rows, n_features", [(11, 2000, 6),
                                                     (6, 500, 8)])
def test_newton_reaches_tolerance_when_objective_ties_at_float_resolution(
        seed, n_rows, n_features):
    # Near these optima each step lowers the objective by less than one ulp,
    # so rounding alone cannot rank candidates; the fit must still converge.
    data = helpers.random_instance(seed=seed, n_rows=n_rows,
                                   n_features=n_features)
    config = logreg.FitConfig(solver="newton")
    model = logreg.fit(data, config)
    assert model.fit_meta.converged
    grad = logreg.gradient((model.alpha, model.beta), data, config)
    assert np.max(np.abs(grad)) <= config.tolerance


def test_newton_converges_on_weighted_one_hot_stream_fold():
    # The paper-reduced features of a synthetic stream: error flags, age and
    # a one-hot model block that with the intercept spans a constant, failure
    # rows weighted 100.  The objective's rounding noise here is hundreds of
    # ulps, so acceptance must not rest on comparing two objective values.
    from failcast import evaluate, synth

    bundle = synth.generate(synth.SynthConfig(n_machines=10, n_days=365, seed=0))
    rows = assemble.build_event_stream(bundle)
    fold = evaluate.make_folds(rows, 3, 0)[2]
    data = assemble.encode(rows[fold.train_rows],
                           features=evaluate.PAPER_REDUCED_FEATURES)
    config = logreg.FitConfig()
    model = logreg.fit(data, config)
    assert model.fit_meta.converged
    grad = logreg.gradient((model.alpha, model.beta), data, config)
    assert np.max(np.abs(grad)) <= config.tolerance


@pytest.mark.parametrize("solver", logreg.SOLVERS)
def test_first_step_past_exp_range_is_halved_without_warning(solver):
    # Separable bulk at x = +-1 and one near-weightless row at x = 1000: the
    # full first step moves that row's margin by about 2000, past exp's
    # range.  The step must be rejected quietly (pytest turns a numpy
    # RuntimeWarning into an error) and the fit must still converge.
    n = 50
    rows = np.concatenate([np.ones(n), -np.ones(n), [1000.0, 0.5, -0.5]])[:, None]
    labels = np.concatenate([np.ones(n, bool), np.zeros(n, bool), [True, False, True]])
    weights = np.concatenate([np.ones(2 * n), [1e-6, 1.0, 1.0]])
    data = _design(rows, labels, weights)
    config = logreg.FitConfig(solver=solver, max_iterations=5000)
    model = logreg.fit(data, config)
    assert model.fit_meta.converged
    grad = logreg.gradient((model.alpha, model.beta), data, config)
    assert np.max(np.abs(grad)) <= config.tolerance


def test_more_iterations_never_raise_the_objective():
    data = helpers.random_instance(seed=4, n_rows=40, n_features=3)
    values = []
    for cap in (1, 2, 3, 5, 10, 50):
        model = logreg.fit(data, logreg.FitConfig(max_iterations=cap))
        values.append(model.fit_meta.final_objective)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_single_class_data_is_rejected():
    data = helpers.random_instance(seed=7, n_rows=10, n_features=2)
    for forced in (np.zeros(10, bool), np.ones(10, bool)):
        bad = _design(data.rows, forced)
        with pytest.raises(logreg.FitError, match="single class"):
            logreg.fit(bad)
    empty = _design(np.empty((0, 2)), np.empty(0, bool))
    with pytest.raises(logreg.FitError, match="no rows"):
        logreg.fit(empty)


def test_non_finite_feature_aborts_with_iteration_number():
    rows = np.array([[1.0], [np.inf]])
    data = _design(rows, [True, False])
    with np.errstate(invalid="ignore"):
        with pytest.raises(logreg.FitError, match="^objective became non-finite"):
            logreg.fit(data)


def test_fit_config_validation():
    for l2 in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="l2_strength"):
            logreg.FitConfig(l2_strength=l2)
    for tolerance in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            logreg.FitConfig(tolerance=tolerance)
    with pytest.raises(ValueError, match="max_iterations"):
        logreg.FitConfig(max_iterations=0)
    with pytest.raises(ValueError, match="solver"):
        logreg.FitConfig(solver="lbfgs")
    logreg.FitConfig(l2_strength=0.0)  # ridge-free fits are allowed


# --- persistence -------------------------------------------------------------

def test_model_file_round_trip_is_exact(tmp_path):
    bundle = helpers.micro_bundle(n_machines=3, n_hours=60,
                                  failures_at=((1, 30), (2, 40), (3, 50)))
    rows = assemble.build_event_stream(bundle)
    data = assemble.encode(rows, features=["error_1", "volt", "age",
                                           "pressure"])
    model = logreg.fit(data)
    path = tmp_path / "model.txt"
    logreg.save_model(model, path)
    back = logreg.load_model(path)
    assert back.alpha == model.alpha
    assert np.array_equal(back.beta, model.beta)
    assert back.encoding == model.encoding
    assert back.fit_meta == model.fit_meta


def test_model_without_encoding_cannot_be_saved(tmp_path):
    model = logreg.LogisticModel(alpha=0.0, beta=np.zeros(2), encoding=None)
    with pytest.raises(ValueError, match="encoding"):
        logreg.save_model(model, tmp_path / "model.txt")


def test_load_rejects_files_that_are_not_models(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\nworld\n")
    with pytest.raises(ValueError, match="not a model file"):
        logreg.load_model(path)
