"""Weighted L2-penalized logistic regression, implemented from first
principles.

The model maps a feature vector x to
``p = exp(a + b.x) / (1 + exp(a + b.x))`` and is fitted by minimizing the
weighted penalized negative log-likelihood

    sum_i w_i * (-y_i log p_i - (1 - y_i) log(1 - p_i)) + l2/2 * ||b||^2

with the penalty on the slopes only.  The primary solver is damped Newton;
a gradient-descent solver with Barzilai-Borwein step sizes is kept as an
independent cross-check.  Both share one step-halving loop, which takes a
step when the objective change it computes row by row is negative.  Both
start from zero parameters and are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import CONTINUOUS_FEATURES, FeatureEncoding

_P_LO = np.finfo(float).tiny
_P_HI = float(np.nextafter(1.0, 0.0))
_MAX_HALVINGS = 60

SOLVERS = ("newton", "gradient_descent")


class FitError(Exception):
    """Raised when a fit cannot start: there are no rows, the labels carry
    one class only, or the objective at the zero start is non-finite."""


@dataclass(frozen=True)
class FitConfig:
    l2_strength: float = 1.0
    tolerance: float = 1e-8        # on the gradient max-norm
    max_iterations: int = 100
    solver: str = "newton"

    def __post_init__(self):
        if not self.l2_strength >= 0:
            raise ValueError("l2_strength must be non-negative")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")


@dataclass
class FitMeta:
    iterations: int
    final_objective: float
    converged: bool


@dataclass
class LogisticModel:
    alpha: float
    beta: np.ndarray
    encoding: FeatureEncoding | None
    fit_meta: FitMeta | None = None


def sigmoid(z):
    """Logistic function, overflow-safe and strictly inside (0, 1)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _P_LO, _P_HI)


def predict_proba(model: LogisticModel, x):
    """Failure probability for one encoded vector or a matrix of them."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != model.beta.shape[0]:
        raise ValueError(
            f"feature dimension {x.shape[-1]} does not match model ({model.beta.shape[0]})")
    z = model.alpha + x @ model.beta
    p = sigmoid(z)
    return float(p) if single else p


def predict(model: LogisticModel, x, threshold=0.5):
    """Hard class call: probability at or above the threshold is positive."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    return predict_proba(model, x) >= threshold


def _nll_terms(z, y):
    # -y log p - (1-y) log(1-p) = log(1 + exp(z)) - y z, computed safely
    return np.logaddexp(0.0, z) - y * z


def objective(params, data, config: FitConfig) -> float:
    """Weighted penalized negative log-likelihood at (alpha, beta)."""
    alpha, beta = params
    beta = np.asarray(beta, dtype=float)
    z = alpha + data.rows @ beta
    y = data.labels.astype(float)
    value = float(np.dot(data.sample_weights, _nll_terms(z, y)))
    return value + 0.5 * config.l2_strength * float(np.dot(beta, beta))


def gradient(params, data, config: FitConfig) -> np.ndarray:
    """Analytic gradient, intercept component first (no penalty on it)."""
    alpha, beta = params
    beta = np.asarray(beta, dtype=float)
    return _gradient_at(sigmoid(alpha + data.rows @ beta), beta, data, config)


def _gradient_at(p, beta, data, config):
    residual = data.sample_weights * (p - data.labels.astype(float))
    g_beta = data.rows.T @ residual + config.l2_strength * beta
    return np.concatenate(([float(residual.sum())], g_beta))


def _hessian(p, data, config):
    s = data.sample_weights * p * (1.0 - p)
    d = data.rows.shape[1]
    hess = np.empty((d + 1, d + 1))
    hess[0, 0] = s.sum()
    sx = data.rows.T @ s
    hess[0, 1:] = sx
    hess[1:, 0] = sx
    hess[1:, 1:] = data.rows.T @ (s[:, None] * data.rows)
    hess[1:, 1:] += config.l2_strength * np.eye(d)
    return hess


def _descend(data, config, step_fn):
    """Shared damped-descent loop; step_fn(params, grad, p) proposes a
    direction (da, db).  Each iterate is evaluated once: p = sigmoid(z) at
    its margins z = alpha + x.beta gives the gradient, which decides
    convergence, and the line search, so n steps take n + 1 evaluations.
    A step of length t moves each margin to z - t*u, with u = da + x.db,
    and changes the objective by exactly sum_i w_i*(log1p(p_i*expm1(-t*u_i))
    + y_i*t*u_i) + l2*t*(t/2*|db|^2 - beta.db).  Summed row by row this
    change is resolved far below one ulp of the objective itself, so a step
    is taken when it is negative and halved otherwise."""
    y = data.labels.astype(float)
    alpha, beta = 0.0, np.zeros(data.rows.shape[1])
    obj = objective((alpha, beta), data, config)
    if not np.isfinite(obj):
        raise FitError(f"objective became non-finite ({obj})")
    iterations = 0
    while True:
        p = sigmoid(alpha + data.rows @ beta)
        grad = _gradient_at(p, beta, data, config)
        converged = bool(np.max(np.abs(grad)) <= config.tolerance)
        if converged or iterations == config.max_iterations:
            break
        direction = step_fn((alpha, beta), grad, p)
        d_alpha, d_beta = direction[0], direction[1:]
        u = d_alpha + data.rows @ d_beta
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            with np.errstate(over="ignore"):
                per_row = np.log1p(p * np.expm1(-t * u)) + y * t * u
            change = np.dot(data.sample_weights, per_row) + config.l2_strength * t * (
                t / 2 * (d_beta @ d_beta) - beta @ d_beta)
            if change < 0:
                break
            t *= 0.5
        else:
            break
        alpha, beta = alpha - t * d_alpha, beta - t * d_beta
        iterations += 1
    return alpha, beta, FitMeta(iterations=iterations,
                                final_objective=objective((alpha, beta), data, config),
                                converged=converged)


def _newton_direction(data, config):
    def step(params, grad, p):
        hess = _hessian(p, data, config)
        try:
            return np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(hess, grad, rcond=None)[0]
    return step


def fit(data, config: FitConfig = FitConfig()) -> LogisticModel:
    """Fit the model; deterministic for fixed data and config.

    Requires both classes present.  The converged flag reports whether the
    gradient max-norm reached the tolerance within max_iterations.
    """
    if data.rows.shape[0] == 0:
        raise FitError("no rows to fit")
    n_pos = int(data.labels.sum())
    if n_pos == 0 or n_pos == len(data.labels):
        raise FitError("labels contain a single class; both classes are required")
    make_step = _newton_direction if config.solver == "newton" else _gd_step_factory
    alpha, beta, meta = _descend(data, config, make_step(data, config))
    return LogisticModel(alpha=alpha, beta=beta, encoding=data.encoding, fit_meta=meta)


def _gd_step_factory(data, config):
    """Gradient-only directions: no curvature matrix, so this route is
    independent of the Newton solver.  Step length starts at the inverse
    Lipschitz bound and then follows Barzilai-Borwein estimates; the
    shared step-halving loop still decides which steps are taken."""
    # Lipschitz bound for the weighted logistic loss with intercept column
    aug_sq = 1.0 + np.einsum("ij,ij->i", data.rows, data.rows)
    lipschitz = 0.25 * float(np.dot(data.sample_weights, aug_sq)) + config.l2_strength
    base = 1.0 / max(lipschitz, 1e-12)
    state = {}

    def step(params, grad, p):
        vec = np.concatenate(([params[0]], params[1]))
        size = base
        if "params" in state:
            d_params = vec - state["params"]
            d_grad = grad - state["grad"]
            denom = float(d_grad @ d_grad)
            if denom > 0.0:
                bb = float(d_params @ d_grad) / denom
                if np.isfinite(bb) and bb > 0.0:
                    size = bb
        state["params"] = vec
        state["grad"] = grad.copy()
        return size * grad
    return step


# --- model file format -------------------------------------------------------
#
# Plain "key = value" lines; floats printed with %.17g so reloading is
# exact.  Keys: feature list, alpha, beta.<name>, mean.<name>, std.<name>,
# fit.iterations, fit.final_objective, fit.converged.  Only continuous
# features have mean/std lines; every other column is stored as 0 and 1.

_FORMAT_HEADER = "# failcast logistic model v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_model(model: LogisticModel, path):
    encoding = model.encoding
    if encoding is None:
        raise ValueError("model has no encoding; cannot serialize")
    lines = [_FORMAT_HEADER]
    lines.append(f"features = {','.join(encoding.feature_names)}")
    lines.append(f"alpha = {_fmt(model.alpha)}")
    for name, value in zip(encoding.feature_names, model.beta):
        lines.append(f"beta.{name} = {_fmt(value)}")
    for name, mean, std in zip(encoding.feature_names, encoding.means, encoding.std_devs):
        if name in CONTINUOUS_FEATURES:
            lines.append(f"mean.{name} = {_fmt(mean)}")
            lines.append(f"std.{name} = {_fmt(std)}")
    if model.fit_meta is not None:
        lines.append(f"fit.iterations = {model.fit_meta.iterations}")
        lines.append(f"fit.final_objective = {_fmt(model.fit_meta.final_objective)}")
        lines.append(f"fit.converged = {int(model.fit_meta.converged)}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def load_model(path) -> LogisticModel:
    entries = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    if "features" not in entries or "alpha" not in entries:
        raise ValueError(f"{path}: not a model file (missing features/alpha)")
    names = tuple(entries["features"].split(","))
    beta = np.array([float(entries[f"beta.{n}"]) for n in names])
    encoding = FeatureEncoding(
        feature_names=names,
        means=tuple(float(entries.get(f"mean.{n}", 0.0)) for n in names),
        std_devs=tuple(float(entries.get(f"std.{n}", 1.0)) for n in names),
    )
    meta = None
    if "fit.iterations" in entries:
        meta = FitMeta(iterations=int(entries["fit.iterations"]),
                       final_objective=float(entries["fit.final_objective"]),
                       converged=bool(int(entries["fit.converged"])))
    return LogisticModel(alpha=float(entries["alpha"]), beta=beta,
                         encoding=encoding, fit_meta=meta)
