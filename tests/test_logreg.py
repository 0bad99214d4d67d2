"""Solver checks: closed-form values, finite differences, symmetry,
duplication identities, and the two solvers cross-checking each other."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from failcast import assemble, logreg, schema

import helpers


_design = helpers.dense_design


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


@given(st.lists(st.floats(allow_nan=False)
                | st.sampled_from([0.0, -0.0, math.inf, -math.inf]), max_size=40))
def test_sigmoid_matches_the_two_branch_form_bit_for_bit(zs):
    z = np.array(zs, dtype=float)
    got, want = logreg.sigmoid(z), helpers.two_branch_sigmoid(z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sigmoid_of_nan_is_nan():
    p = logreg.sigmoid(np.array([math.nan, -1.0, math.nan, 0.0, 1.0]))
    assert np.isnan(p).tolist() == [True, False, True, False, False]
    assert np.isnan(logreg.sigmoid(math.nan))


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
    lo = logreg.predict(model, data.dense, threshold=0.2)
    hi = logreg.predict(model, data.dense, threshold=0.8)
    assert np.all(lo[hi])  # every high-threshold positive is a low one too


# --- objective and gradient --------------------------------------------------

def test_objective_at_zero_parameters_is_weighted_log2():
    data = helpers.random_instance(seed=1, n_rows=25, n_features=4)
    config = logreg.FitConfig(l2=7.0)
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
            config = logreg.FitConfig(l2=l2) if l2 > 0 else \
                logreg.FitConfig(l2=0.0)
            got = logreg.objective((alpha, beta), data, config)
            want = helpers.naive_objective(alpha, beta, data, l2)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_gradient_matches_central_finite_differences():
    for seed in (0, 4, 9):
        data = helpers.random_instance(seed=seed, n_rows=35, n_features=4)
        s = helpers.Stream(seed + 7)
        params = (float(s.normals(1)[0]) * 0.3, 0.3 * s.normals(4))
        config = logreg.FitConfig(l2=2.0)
        got = logreg.gradient(params, data, config)
        want = helpers.central_fd_gradient(params, data, config)
        assert np.max(np.abs(got - want)) < 1e-5 * max(1.0, np.max(np.abs(want)))


def test_zero_weight_rows_contribute_nothing():
    data = helpers.random_instance(seed=6, n_rows=20, n_features=3)
    dead = _design(data.dense, data.labels, weights=np.zeros(20))
    beta = np.array([0.4, -1.1, 2.0])
    config = logreg.FitConfig(l2=3.0)
    assert logreg.objective((0.7, beta), dead, config) == \
        pytest.approx(0.5 * 3.0 * float(beta @ beta), rel=1e-15)
    grad = logreg.gradient((0.7, beta), dead, config)
    assert grad[0] == 0.0
    np.testing.assert_allclose(grad[1:], 3.0 * beta, rtol=1e-15)


def test_objective_is_convex_along_random_chords():
    data = helpers.random_instance(seed=2, n_rows=25, n_features=3)
    config = logreg.FitConfig(l2=0.5)
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
    doubled = _design(data.dense, data.labels, weights=2.0 * np.ones(30))
    stacked = _design(np.vstack([data.dense, data.dense]),
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
    p_newton = logreg.predict_proba(newton, data.dense)
    p_gd = logreg.predict_proba(gd, data.dense)
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
    params = (model.alpha, model.beta)
    grad = helpers.dense_gradient(params, data, config.l2)
    assert np.max(np.abs(grad)) <= config.tolerance
    assert model.fit_meta.final_objective == pytest.approx(
        helpers.dense_objective(params, data, config.l2), rel=1e-15)


@pytest.mark.parametrize("reduced", [False, True])
def test_final_objective_from_factored_margins_matches_the_dense_one(bench_rows, bench_folds, reduced):
    # The fit takes its final objective from the factored margins; on every
    # encoded bench fold it agrees with the dense per-row objective.
    from failcast import evaluate

    features = evaluate.PAPER_REDUCED_FEATURES if reduced else None
    config = logreg.FitConfig()
    for fold in bench_folds:
        data = assemble.encode(bench_rows, features=features, index=fold.train_rows)
        model = logreg.fit(data, config)
        want = helpers.dense_objective((model.alpha, model.beta), data, config.l2)
        assert abs(model.fit_meta.final_objective - want) <= 1e-15 * abs(want)


def test_fit_holds_few_rows_of_terms_at_the_bench_size(bench_rows, bench_folds):
    """Above fold 0's bench design (27,924 rows), a Newton fit peaked at 81.4
    bytes a row with a float copy of the labels and each expression's row-sized
    temporaries (numpy 2.4).  With the residual, Hessian weights and line-search
    terms in one held buffer, and the line search's second one made after the
    Hessian, it peaks at 65.4, set by the Hessian's weighted copy of the four
    telemetry columns beside p, the float labels and the held buffer.  (Bool
    labels would save 8 bytes a row but slow every fit by about a quarter.)"""
    design = assemble.encode(bench_rows, index=bench_folds[0].train_rows)
    model, peak = helpers.traced_peak(lambda: logreg.fit(design))
    assert model.fit_meta.converged
    assert peak / len(design.labels) < 72


def test_singular_hessian_falls_back_to_least_squares(monkeypatch):
    # Unpenalized, an all-zero column leaves a zero row and column in every
    # Hessian, so np.linalg.solve fails and each Newton step is a lstsq one.
    base = helpers.random_instance(seed=3, n_rows=200, n_features=4)
    data = _design(np.column_stack([base.dense, np.zeros(200)]), base.labels,
                   base.sample_weights)
    config = logreg.FitConfig(l2=0.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(data.gram(0.25 * data.sample_weights), np.ones(6))
    calls, lstsq = [], np.linalg.lstsq

    def counted_lstsq(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    model = logreg.fit(data, config)
    assert model.fit_meta.converged
    assert len(calls) == model.fit_meta.iterations > 0
    grad = logreg.gradient((model.alpha, model.beta), data, config)
    assert np.max(np.abs(grad)) <= config.tolerance
    assert model.beta[-1] == 0.0


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

    bundle = synth.generate(synth.SynthConfig(machines=10, days=365, seed=0))
    rows = assemble.build_event_stream(bundle)
    fold = evaluate.make_folds(rows, 3, 0)[2]
    data = assemble.encode(rows[fold.train_rows],
                           features=evaluate.PAPER_REDUCED_FEATURES)
    config = logreg.FitConfig()
    model = logreg.fit(data, config)
    assert model.fit_meta.converged
    grad = logreg.gradient((model.alpha, model.beta), data, config)
    assert np.max(np.abs(grad)) <= config.tolerance


def test_grouped_fit_equals_the_row_fit():
    # Without telemetry encode merges identical (x, y) rows and sums their
    # weights; the merged fold must fit and score as its ungrouped rows do.
    from failcast import evaluate, synth

    bundle = synth.generate(synth.SynthConfig(machines=10, days=365, seed=0))
    rows = assemble.build_event_stream(bundle)
    fold = evaluate.make_folds(rows, 3, 0)[2]
    features = evaluate.PAPER_REDUCED_FEATURES
    grouped = assemble.encode(rows, features=features, index=fold.train_rows)
    matrix, labels, _ = assemble.raw_feature_matrix(rows, features, fold.train_rows)
    ungrouped = _design(assemble.apply_encoding(matrix, grouped.encoding), labels,
                        np.where(labels, 100.0, 1.0))
    assert len(grouped.labels) < len(ungrouped.labels) // 100

    config = logreg.FitConfig()
    a, b = logreg.fit(grouped, config), logreg.fit(ungrouped, config)
    assert abs(a.alpha - b.alpha) < 1e-9
    assert np.max(np.abs(a.beta - b.beta)) < 1e-9
    assert a.fit_meta.iterations == b.fit_meta.iterations
    x_test = assemble.apply_encoding(
        assemble.raw_feature_matrix(rows, features, fold.test_rows)[0], grouped.encoding)
    assert np.array_equal(logreg.predict(a, x_test), logreg.predict(b, x_test))

    s = helpers.Stream(13)
    for _ in range(3):
        alpha, beta = float(s.normals(1)[0]), s.normals(len(features))
        got = logreg.objective((alpha, beta), grouped, config)
        want = helpers.naive_objective(alpha, beta, ungrouped, config.l2)
        assert abs(got - want) <= 1e-12 * abs(want)


def _assert_dense_products(data):
    """X theta, X^T r and X^T diag(s) X through the per-group table equal the
    dense products with the intercept column prepended, each entry to 1e-12
    of the sum of its terms' magnitudes."""
    x = helpers.augmented(data)
    s = helpers.Stream(17)
    theta, r, w = s.normals(x.shape[1]), s.normals(len(x)), s.uniforms(len(x))
    ax = np.abs(x)
    for got, want, scale in [
            (data.margins(theta), x @ theta, ax @ np.abs(theta)),
            (data.transpose_dot(r), x.T @ r, ax.T @ np.abs(r)),
            (data.gram(w), x.T @ (w[:, None] * x), ax.T @ (w[:, None] * ax))]:
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("reduced", [False, True])
def test_factored_design_matches_the_dense_products(bench_rows, bench_folds, reduced):
    from failcast import evaluate

    features = evaluate.PAPER_REDUCED_FEATURES if reduced else None
    data = assemble.encode(bench_rows, features=features, index=bench_folds[0].train_rows)
    assert data.dense.shape[1] == (0 if reduced else len(schema.TELEMETRY_FIELDS))
    assert len(data.table) < (len(data.labels) if reduced else len(data.labels) // 10)
    _assert_dense_products(data)


@pytest.mark.parametrize("plain", [False, True], ids=["telemetry", "rows"])
def test_factored_design_of_one_pattern_matches_the_dense_products(bench_rows, bench_folds,
                                                                   plain):
    # With telemetry features alone, or built from a plain matrix, every
    # feature column is dense and T is the intercept alone.
    features = None if plain else schema.TELEMETRY_FIELDS
    data = assemble.encode(bench_rows, features=features, index=bench_folds[0].train_rows)
    if plain:
        data = _design(helpers.design_features(data), data.labels, data.sample_weights)
    assert data.dense.shape[1] == len(features or schema.FEATURE_NAMES)
    assert data.table.tolist() == [[1.0]]
    _assert_dense_products(data)


@pytest.mark.parametrize("features", [None, schema.ERROR_FLAGS + ("age",) + schema.MODEL_FLAGS,
                                      schema.DOW_FEATURES, ["error_1", "volt", "dow_tue"]],
                         ids=["full", "paper-reduced", "dow", "mixed"])
def test_factored_gd_step_bound_matches_the_dense_one(small_rows, features):
    # The gradient-descent Lipschitz bound is taken as the trace of the
    # factored Gram matrix; it must agree with the bound summed row by row
    # over [1 | X], merged rows included.
    data = assemble.encode(small_rows, features=features)
    config = logreg.FitConfig(solver="gradient_descent", l2=0.5)
    bound = logreg._lipschitz_bound(data, config)
    want = helpers.dense_step_bound(data, config.l2)
    assert abs(bound - want) <= 1e-12 * want


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


def test_first_newton_step_at_a_large_l2_is_taken_whole():
    # Balanced labels zero the intercept's gradient at the start, so at a large
    # l2 the penalty's share l2*t*(t/2*|db|^2 - beta.db) of the step's exact
    # change decides the line search: the full step lowers the objective, and
    # one iteration lands on the dense Newton step from zero.
    l2 = 1e3
    x = helpers.random_instance(seed=9, n_rows=40, n_features=3, weighted=False).dense
    data = _design(x, np.arange(40) % 2 == 0)
    grad = helpers.dense_gradient((0.0, np.zeros(3)), data, l2)
    augmented = helpers.augmented(data)
    hessian = 0.25 * augmented.T @ augmented + l2 * np.diag([0.0, 1.0, 1.0, 1.0])
    model = logreg.fit(data, logreg.FitConfig(l2=l2, max_iterations=1))
    assert model.fit_meta.iterations == 1 and grad[0] == 0.0
    np.testing.assert_allclose(np.concatenate([[model.alpha], model.beta]),
                               -np.linalg.solve(hessian, grad), rtol=1e-12, atol=1e-300)


def test_fit_stops_unconverged_when_no_halving_lowers_the_objective():
    # Below float resolution no halved step lowers the objective, so the fit
    # stops there, short of its iteration cap (after 18 of 100 here).
    from failcast import synth

    bundle = synth.generate(synth.SynthConfig(machines=8, days=120, seed=7))
    data = assemble.encode(assemble.build_event_stream(bundle))
    config = logreg.FitConfig(tolerance=1e-14)
    meta = logreg.fit(data, config).fit_meta
    assert not meta.converged and meta.iterations < config.max_iterations


def test_a_step_whose_exact_change_is_zero_is_not_taken():
    # At a tolerance no fit reaches: from the 11th iterate the full and half
    # steps raise the objective, and the exact change of each of the 58 shorter
    # steps rounds to 0.0.  A step is taken only when its change is negative,
    # so the fit stops there; taking zero-change steps would run to the cap.
    data = helpers.random_instance(seed=10, n_rows=30, n_features=2)
    config = logreg.FitConfig(tolerance=1e-300, max_iterations=200)
    meta = logreg.fit(data, config).fit_meta
    assert not meta.converged and meta.iterations < config.max_iterations


def test_gradient_descent_takes_its_base_step_when_the_gradient_does_not_move():
    # At a tolerance no fit reaches, iterations 25-27 follow accepted steps
    # that left the gradient's bits unchanged.  The Barzilai-Borwein size then
    # has a zero denominator, so the base step is used, and the fit stops
    # where no halving lowers the objective instead of dividing by zero.
    data = helpers.random_instance(seed=0, n_rows=30, n_features=2)
    config = logreg.FitConfig(tolerance=1e-300, solver="gradient_descent")
    meta = logreg.fit(data, config).fit_meta
    assert not meta.converged and meta.iterations < config.max_iterations


def test_a_zero_change_step_is_not_taken_where_it_would_move_theta():
    # Unpenalized, with balanced labels at x = 1e-170 and 2e-170, gradient
    # descent's first direction moves only beta, by about 1e-170, so every
    # margin change underflows to zero and each step's exact change is 0.0, yet
    # theta - t*direction moves beta off zero.  No step lowers the objective, so
    # the fit stays at its start; taking zero-change steps would run to its cap.
    data = _design(np.array([[1e-170], [2e-170]]), [True, False])
    model = logreg.fit(data, logreg.FitConfig(l2=0.0, tolerance=1e-300,
                                              solver="gradient_descent"))
    assert (model.fit_meta.iterations, model.fit_meta.converged) == (0, False)
    assert model.alpha == 0.0 and model.beta.tolist() == [0.0]


@pytest.mark.parametrize("max_iterations", [60, 200, 3000])
def test_fit_stops_where_an_accepted_step_cannot_move_theta(max_iterations):
    # Unpenalized at a tolerance no fit reaches, from the 36th iterate each
    # step's row-by-row change is negative, yet theta - t*direction rounds back
    # to theta.  The fit stops there rather than count such steps to its cap.
    data = helpers.random_instance(seed=0, n_rows=30, n_features=2)
    settings = dict(solver="gradient_descent", l2=0.0, tolerance=1e-300)
    at_36 = logreg.fit(data, logreg.FitConfig(max_iterations=36, **settings))
    model = logreg.fit(data, logreg.FitConfig(max_iterations=max_iterations, **settings))
    assert (model.fit_meta.iterations, model.fit_meta.converged) == (36, False)
    assert model.alpha == at_36.alpha and model.beta.tobytes() == at_36.beta.tobytes()
    assert model.fit_meta.final_objective == at_36.fit_meta.final_objective


def test_single_class_data_is_rejected():
    data = helpers.random_instance(seed=7, n_rows=10, n_features=2)
    for forced in (np.zeros(10, bool), np.ones(10, bool)):
        bad = _design(data.dense, forced)
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


def _heavy_design():
    # Weights summing to 1e307 keep the start objective (log 2 times that)
    # finite, but with features scaled by 10 every curvature sum overflows.
    base = helpers.random_instance(seed=5, n_rows=40, n_features=3)
    data = _design(10.0 * base.dense, base.labels,
                   base.sample_weights * (1e307 / base.sample_weights.sum()))
    assert np.isfinite(logreg.objective((0.0, np.zeros(3)), data, logreg.FitConfig()))
    return data


def test_overflowing_curvature_aborts_with_iteration_number():
    # The Hessian's sums overflow, so the first Newton direction is not
    # finite.  The fit must say so rather than return the zero start, and
    # without a numpy warning.
    with pytest.raises(logreg.FitError,
                       match="^step direction became non-finite at iteration 0$"):
        logreg.fit(_heavy_design())


def test_overflowing_step_bound_stops_gradient_descent():
    # The Lipschitz sum overflows, so the base step would be 1/inf = 0 and
    # every direction a finite zero that no direction check catches.  The fit
    # must refuse rather than return the zero start.
    with pytest.raises(logreg.FitError,
                       match=r"^gradient-descent step bound became non-finite \(inf\)$"):
        logreg.fit(_heavy_design(), logreg.FitConfig(solver="gradient_descent"))


def test_fit_config_validation():
    for l2 in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="^l2 must be non-negative$"):
            logreg.FitConfig(l2=l2)
    for tolerance in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            logreg.FitConfig(tolerance=tolerance)
    with pytest.raises(ValueError, match="max_iterations"):
        logreg.FitConfig(max_iterations=0)
    with pytest.raises(ValueError, match="solver"):
        logreg.FitConfig(solver="lbfgs")
    logreg.FitConfig(l2=0.0)  # ridge-free fits are allowed


# --- persistence -------------------------------------------------------------

def test_model_file_round_trip_is_exact(tmp_path):
    bundle = helpers.micro_bundle(machines=3, n_hours=60,
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


def test_model_without_fit_meta_round_trips(tmp_path):
    encoding = schema.FeatureEncoding(feature_names=("volt", "error_1"),
                                      means=(170.1, 0.0), std_devs=(15.3, 1.0))
    model = logreg.LogisticModel(alpha=-0.1, beta=np.array([1 / 3, -5e-324]),
                                 encoding=encoding)
    path = tmp_path / "model.json"
    logreg.save_model(model, path)
    back = logreg.load_model(path)
    assert (back.alpha, back.encoding, back.fit_meta) == (model.alpha, encoding, None)
    assert [b.hex() for b in back.beta] == [b.hex() for b in model.beta]


# The model file format before it became one JSON object.
V1_MODEL_FILE = """# failcast logistic model v1
features = volt,error_1
alpha = -5.3328078637580978
beta.volt = 0.053113953802349026
beta.error_1 = 11.571028667890836
mean.volt = 170.30546201237154
std.volt = 15.227154208473734
fit.iterations = 9
fit.final_objective = 1007.1283894018213
fit.converged = 1
"""


def test_load_rejects_files_that_are_not_models(tmp_path):
    # test_cli also rejects a real report.json and a config record
    for name, content in [("junk.txt", b"hello\nworld\n"), ("v1.txt", V1_MODEL_FILE.encode()),
                          ("list.json", b"[1, 2]\n"), ("binary", b"\xff\xfe\x00"),
                          ("deep.json", b"[" * 100_000 + b"]" * 100_000),
                          ("partial.json", b'{"format": "failcast logistic model v2", "alpha": 0.0}')]:
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(ValueError, match="not a model file"):
            logreg.load_model(path)
