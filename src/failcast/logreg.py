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

import json
from dataclasses import asdict, dataclass

import numpy as np

from .report import write_json
from .schema import FeatureEncoding

_P_LO = np.finfo(float).tiny
_P_HI = float(np.nextafter(1.0, 0.0))
_MAX_HALVINGS = 60

SOLVERS = ("newton", "gradient_descent")


class FitError(Exception):
    """Raised when a fit cannot start (no rows, one label class, a non-finite
    objective at the zero start or a non-finite gradient-descent step bound) or
    its step direction is non-finite."""


@dataclass(frozen=True)
class FitConfig:
    l2: float = 1.0
    tolerance: float = 1e-8        # on the gradient max-norm
    max_iterations: int = 100
    solver: str = "newton"

    def __post_init__(self):
        if not self.l2 >= 0:
            raise ValueError("l2 must be non-negative")
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
    ez = np.exp(-np.abs(z))
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below: exp never overflows.
    return np.clip(np.where(z >= 0, 1.0, ez) / (1.0 + ez), _P_LO, _P_HI)


def predict_proba(model: LogisticModel, x):
    """Failure probability for one encoded vector or a matrix of them."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.beta.shape[0]:
        raise ValueError(
            f"feature dimension {x.shape[-1]} does not match model ({model.beta.shape[0]})")
    p = sigmoid(model.alpha + x @ model.beta)
    return float(p) if x.ndim == 1 else p


def check_threshold(threshold):
    """Reject a decision threshold outside (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")


def predict(model: LogisticModel, x, threshold=0.5):
    """Hard class call: probability at or above the threshold is positive."""
    check_threshold(threshold)
    return predict_proba(model, x) >= threshold


def objective(params, data, config: FitConfig) -> float:
    """Weighted penalized negative log-likelihood at (alpha, beta)."""
    theta = np.hstack(params).astype(float)  # alpha, then beta
    return _objective_at(data.margins(theta), theta[1:], data, config)


def _objective_at(z, beta, data, config):
    """The objective from the margins z = alpha + x.beta, its terms
    -y log p - (1-y) log(1-p) computed safely as log(1 + exp(z)) - y z."""
    with np.errstate(over="ignore"):  # fit rejects a non-finite start
        terms = np.logaddexp(0.0, z) - data.labels.astype(float) * z
        value = float(np.dot(data.sample_weights, terms))
    return value + 0.5 * config.l2 * float(np.dot(beta, beta))


def gradient(params, data, config: FitConfig) -> np.ndarray:
    """Analytic gradient, intercept component first (no penalty on it)."""
    theta = np.hstack(params).astype(float)  # alpha, then beta
    residual = data.sample_weights * (sigmoid(data.margins(theta)) - data.labels)
    grad = data.transpose_dot(residual)
    grad[1:] += config.l2 * theta[1:]
    return grad


def _lipschitz_bound(data, config):
    """The gradient-descent step bound: the Lipschitz constant of the weighted
    logistic loss, 0.25 * sum_i w_i*(1 + |x_i|^2), is the trace of X^T W X,
    whose intercept column supplies the 1; plus l2."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        lipschitz = 0.25 * float(np.trace(data.gram(data.sample_weights))) + config.l2
    if not np.isfinite(lipschitz):
        raise FitError(f"gradient-descent step bound became non-finite ({lipschitz})")
    return lipschitz


def fit(data, config: FitConfig = FitConfig()) -> LogisticModel:
    """Fit the model from zero parameters; deterministic for fixed data and config.

    Requires both classes present.  The converged flag reports whether the
    gradient max-norm reached the tolerance within max_iterations.

    Both solvers run one damped-descent loop and differ only in the direction
    (da, db) they propose from theta = (alpha, beta): Newton's solve, or
    gradient descent's step, which starts at the inverse Lipschitz bound and
    then follows Barzilai-Borwein estimates, using no curvature matrix so it
    stays independent of Newton.  Each iterate is evaluated once: p = sigmoid(z)
    at its margins z = alpha + x.beta gives the gradient, which decides
    convergence, and the line search, so n steps take n + 1 evaluations.  A
    step of length t moves each margin to z - t*u, with u = da + x.db, and
    changes the objective by exactly sum_i w_i*(log1p(p_i*expm1(-t*u_i)) +
    y_i*t*u_i) + l2*t*(t/2*|db|^2 - beta.db), resolved row by row far below one
    ulp of the objective, so a step is taken when it is negative and halved
    otherwise.
    """
    if len(data.labels) == 0:
        raise FitError("no rows to fit")
    n_pos = int(data.labels.sum())
    if n_pos == 0 or n_pos == len(data.labels):
        raise FitError("labels contain a single class; both classes are required")
    newton, y = config.solver == "newton", data.labels.astype(float)
    theta = np.zeros(1 + len(data.in_dense))
    z = data.margins(theta)
    obj = _objective_at(z, theta[1:], data, config)
    if not np.isfinite(obj):
        raise FitError(f"objective became non-finite ({obj})")
    base = None if newton else 1.0 / max(_lipschitz_bound(data, config), 1e-12)
    previous, iterations = None, 0  # previous: gradient descent's last (theta, grad)
    while True:
        p = sigmoid(z)
        grad = data.transpose_dot(data.sample_weights * (p - y))
        grad[1:] += config.l2 * theta[1:]
        converged = bool(np.max(np.abs(grad)) <= config.tolerance)
        if converged or iterations == config.max_iterations:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            if newton:
                hess = data.gram(data.sample_weights * p * (1.0 - p))
                hess[1:, 1:] += config.l2 * np.eye(len(theta) - 1)
                try:
                    direction = np.linalg.solve(hess, grad)
                except np.linalg.LinAlgError:
                    direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
            else:
                size = base
                if previous is not None:
                    d_params = theta - previous[0]
                    d_grad = grad - previous[1]
                    denom = float(d_grad @ d_grad)
                    if denom > 0.0:
                        bb = float(d_params @ d_grad) / denom
                        if np.isfinite(bb) and bb > 0.0:
                            size = bb
                previous = theta, grad
                direction = size * grad
        if not np.isfinite(direction).all():
            raise FitError(f"step direction became non-finite at iteration {iterations}")
        d_beta = direction[1:]
        u = data.margins(direction)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            with np.errstate(over="ignore", invalid="ignore"):  # NaN is no descent
                per_row = np.log1p(p * np.expm1(-t * u)) + y * t * u
                change = np.dot(data.sample_weights, per_row) + config.l2 * t * (
                    t / 2 * (d_beta @ d_beta) - theta[1:] @ d_beta)
            if change < 0:
                break
            t *= 0.5
        else:
            break
        theta = theta - t * direction
        z = data.margins(theta)
        iterations += 1
    meta = FitMeta(iterations=iterations, converged=converged,
                   final_objective=_objective_at(z, theta[1:], data, config))
    return LogisticModel(alpha=theta[0], beta=theta[1:], encoding=data.encoding, fit_meta=meta)


# --- model file format -------------------------------------------------------
#
# One JSON object, written by report.write_json.  json writes each float with
# repr, so reloading is exact.

_FORMAT = "failcast logistic model v2"


def save_model(model: LogisticModel, path):
    if model.encoding is None:
        raise ValueError("model has no encoding; cannot serialize")
    meta = model.fit_meta
    write_json(path, {"format": _FORMAT, "alpha": float(model.alpha),
                      "beta": dict(zip(model.encoding.feature_names, map(float, model.beta))),
                      "encoding": asdict(model.encoding),
                      "fit_meta": None if meta is None else asdict(meta)})


def load_model(path) -> LogisticModel:
    try:
        with open(path) as handle:
            record = json.load(handle)
        if record["format"] == _FORMAT:
            encoding = FeatureEncoding(**{k: tuple(v) for k, v in record["encoding"].items()})
            beta = np.array([record["beta"][name] for name in encoding.feature_names])
            meta = record["fit_meta"]
            return LogisticModel(record["alpha"], beta, encoding,
                                 None if meta is None else FitMeta(**meta))
    except (ValueError, LookupError, TypeError, AttributeError):  # not text, JSON or a model
        pass
    raise ValueError(f"{path}: not a model file (expected {_FORMAT!r})")
