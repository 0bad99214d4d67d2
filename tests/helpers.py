"""Hand-built bundles and deliberately naive oracles shared by the tests.

The oracles re-derive results with the dumbest possible code (nested
loops, textual duplication of constants) so they cannot share a bug with
the library implementations they check.
"""

import datetime as dt
import math

import numpy as np

from failcast import assemble, ingest, schema
from failcast.rng import Stream

T0 = dt.datetime(2015, 1, 1)

DOW = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def hour(i):
    return T0 + dt.timedelta(hours=i)


def telemetry(machine, i, volt=None, rotate=None, pressure=None, vibration=None):
    """Telemetry with deterministic per-cell variation unless pinned."""
    return dict(
        machine_id=machine, datetime=hour(i),
        volt=170.0 + ((machine * 31 + i * 7) % 11) - 5 if volt is None else volt,
        rotate=450.0 + ((machine * 17 + i * 11) % 13) - 6 if rotate is None else rotate,
        pressure=100.0 + ((machine * 13 + i * 5) % 7) - 3 if pressure is None else pressure,
        vibration=40.0 + ((machine * 7 + i * 3) % 5) - 2 if vibration is None else vibration)


def error(machine, i, *flag_indices):
    vals = {f"error_{k}": k in flag_indices for k in range(1, 6)}
    return dict(machine_id=machine, datetime=hour(i), **vals)


def maintenance(machine, i, comps=(), fails=()):
    vals = {f"comp_{k}": (k in comps) or (k in fails) for k in range(1, 5)}
    vals.update({f"comp_{k}_fail": k in fails for k in range(1, 5)})
    return dict(machine_id=machine, datetime=hour(i), **vals)


def failure(machine, i, comp=1):
    vals = {f"comp_{k}": k == comp for k in range(1, 5)}
    return dict(machine_id=machine, datetime=hour(i), **vals)


def descriptor(machine, age=None, model=None):
    model = (machine - 1) % 4 + 1 if model is None else model
    vals = {f"model_{k}": k == model for k in range(1, 5)}
    return dict(machine_id=machine, age=machine + 2 if age is None else age, **vals)


def table(dataset, records):
    """The dataset table holding ``records``, dicts of column values."""
    return schema.table(dataset, {c: [r[c] for r in records]
                                  for c in schema.CSV_COLUMNS[dataset]})


def micro_bundle(machines=2, n_hours=48, failures_at=(), errors_at=(),
                 maintenance_at=()):
    """Small bundle on a complete grid.

    ``failures_at``: (machine, hour_index) pairs; each also gets the
    matching maintenance record.  ``errors_at``: (machine, hour_index,
    flag_index) triples.  ``maintenance_at``: (machine, hour_index,
    comp_index) triples for scheduled replacements.
    """
    tel = [telemetry(m, i)
           for m in range(1, machines + 1) for i in range(n_hours)]
    fails = [failure(m, i, comp=(m + i) % 4 + 1) for m, i in failures_at]
    # Coinciding entries are folded into one record per machine-hour here;
    # test_assemble's unmerged bundles cover several rows at one hour.
    mnt_flags = {}
    for m, i in failures_at:
        mnt_flags.setdefault((m, i), [set(), set()])[1].add((m + i) % 4 + 1)
    for m, i, c in maintenance_at:
        mnt_flags.setdefault((m, i), [set(), set()])[0].add(c)
    mnt = [maintenance(m, i, comps=comps, fails=fl)
           for (m, i), (comps, fl) in sorted(mnt_flags.items())]
    err_flags = {}
    for m, i, f in errors_at:
        err_flags.setdefault((m, i), set()).add(f)
    errs = [error(m, i, *flags) for (m, i), flags in sorted(err_flags.items())]
    return ingest.DatasetBundle(
        telemetry=table("telemetry", tel), errors=table("errors", errs),
        maintenance=table("maintenance", mnt), failures=table("failures", fails),
        machines=table("machines", [descriptor(m) for m in range(1, machines + 1)]))


def brute_force_stream(bundle, horizon_hours=24, window=False):
    """Nested-loop join-and-label oracle over all (machine, hour) pairs;
    one dict of column values per stream row."""
    span = dt.timedelta(hours=horizon_hours)
    telemetry, errors, maintenance, failures, machines = (
        table_rows(getattr(bundle, name))
        for name in ("telemetry", "errors", "maintenance", "failures", "machines"))
    out = []
    for m in sorted({t["machine_id"] for t in telemetry}):
        d0 = next(d for d in machines if d["machine_id"] == m)
        m_tel = sorted((t for t in telemetry if t["machine_id"] == m),
                       key=lambda t: t["datetime"])
        last = m_tel[-1]["datetime"]
        for t in m_tel:
            when = t["datetime"]
            if when + span > last:
                continue
            flags = {}
            for name in ("error_1", "error_2", "error_3", "error_4", "error_5"):
                flags[name] = any(e["machine_id"] == m and e["datetime"] == when
                                  and e[name] for e in errors)
            for name in ("comp_1", "comp_2", "comp_3", "comp_4",
                         "comp_1_fail", "comp_2_fail", "comp_3_fail",
                         "comp_4_fail"):
                flags[name] = any(r["machine_id"] == m and r["datetime"] == when
                                  and r[name] for r in maintenance)
            if window:
                label = any(f["machine_id"] == m
                            and when < f["datetime"] <= when + span
                            for f in failures)
            else:
                label = any(f["machine_id"] == m
                            and f["datetime"] == when + span
                            for f in failures)
            out.append(dict(
                machine_id=m, datetime=when, **flags,
                volt=t["volt"], rotate=t["rotate"], pressure=t["pressure"],
                vibration=t["vibration"], age=d0["age"],
                model_1=d0["model_1"], model_2=d0["model_2"],
                model_3=d0["model_3"], model_4=d0["model_4"],
                day_of_week=DOW[when.weekday()], label=label))
    return out


def table_rows(rows):
    """A table's rows (a dataset's or the stream's) as dicts of plain Python
    values, the form brute_force_stream returns."""
    return [dict(zip(rows.dtype.names, row)) for row in rows.tolist()]


def bundle_rows(bundle):
    """Every table of a bundle as table_rows, keyed by dataset name."""
    return {name: table_rows(getattr(bundle, name)) for name in ingest.BUNDLE_FILENAMES}


def two_branch_sigmoid(z):
    """Logistic function in two masked halves, 1/(1+e^-z) at z >= 0 and
    e^z/(1+e^z) below, clipped into (0, 1) as logreg.sigmoid clips."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def dense_design(x, labels, weights=None):
    """The one-pattern design of the plain matrix ``x``: every feature column
    dense, one pattern, and the table the intercept alone.  Unit weights when
    None."""
    x = np.asarray(x, dtype=float)
    weights = np.ones(len(x)) if weights is None else np.asarray(weights, dtype=float)
    return assemble.DesignMatrix(
        labels=np.asarray(labels, dtype=bool), sample_weights=weights, encoding=None,
        dense=x, table=np.ones((1, 1)), groups=np.zeros(len(x), np.intp),
        in_dense=np.ones(x.shape[1], bool))


def random_instance(seed, n_rows, n_features, weighted=True):
    """Small random dense design with both classes guaranteed."""
    s = Stream(seed)
    x = s.normals(n_rows * n_features).reshape(n_rows, n_features)
    beta = s.normals(n_features)
    alpha = float(s.normals(1)[0]) * 0.5
    p = 1.0 / (1.0 + np.exp(-(alpha + x @ beta)))
    y = s.uniforms(n_rows) < p
    if y.all():
        y[0] = False
    if not y.any():
        y[0] = True
    weights = 0.5 + 3.0 * s.uniforms(n_rows) if weighted else np.ones(n_rows)
    return dense_design(x, y, weights)


def design_features(data):
    """A design's n x m feature matrix in canonical column order: its dense
    columns where ``in_dense``, its pattern's table row past the intercept
    elsewhere."""
    out = np.empty((len(data.groups), len(data.in_dense)))
    out[:, data.in_dense] = data.dense
    out[:, ~data.in_dense] = data.table[data.groups, 1:]
    return out


def augmented(data):
    """[1 | X]: a design's features with the intercept column prepended."""
    x = design_features(data)
    return np.hstack([np.ones((len(x), 1)), x])


def naive_objective(alpha, beta, data, l2):
    """Direct per-row summation of the weighted penalized objective."""
    x = design_features(data).tolist()
    total = 0.0
    for i in range(len(data.labels)):
        z = alpha + sum(x[i][j] * float(beta[j]) for j in range(len(beta)))
        p = 1.0 / (1.0 + math.exp(-z))
        y = 1.0 if data.labels[i] else 0.0
        total += float(data.sample_weights[i]) * (
            -y * math.log(p) - (1.0 - y) * math.log(1.0 - p))
    return total + 0.5 * l2 * sum(float(b) * float(b) for b in beta)


def dense_objective(params, data, l2):
    """The weighted penalized objective from [1 | X]: each row's term
    -y log p - (1-y) log(1-p) written as log(1 + e^z) - y z, which stays exact
    where p rounds to 0 or 1."""
    alpha, beta = params
    theta = np.concatenate([[alpha], beta])
    z = augmented(data) @ theta
    y = np.where(data.labels, 1.0, 0.0)
    terms = np.logaddexp(0.0, z) - y * z
    return float(np.sum(data.sample_weights * terms)) + 0.5 * l2 * float(np.sum(beta * beta))


def dense_gradient(params, data, l2):
    """The objective's gradient from [1 | X]: X^T (w * (p - y)), plus l2 * beta
    past the intercept."""
    alpha, beta = params
    x = augmented(data)
    p = two_branch_sigmoid(x @ np.concatenate([[alpha], beta]))
    y = np.where(data.labels, 1.0, 0.0)
    return x.T @ (data.sample_weights * (p - y)) + l2 * np.concatenate([[0.0], beta])


def dense_step_bound(data, l2):
    """The gradient-descent Lipschitz bound from [1 | X]:
    0.25 * sum_i w_i * |[1, x_i]|^2 + l2."""
    x = augmented(data)
    return 0.25 * float(np.sum(data.sample_weights * np.sum(x * x, axis=1))) + l2


def central_fd_gradient(params, data, config, step=1e-5):
    """Central finite differences of naive_objective."""
    alpha, beta = params
    beta = np.asarray(beta, dtype=float)
    l2 = config.l2
    out = np.empty(beta.size + 1)
    out[0] = (naive_objective(alpha + step, beta, data, l2)
              - naive_objective(alpha - step, beta, data, l2)) / (2 * step)
    for j in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[j] += step
        dn[j] -= step
        out[j + 1] = (naive_objective(alpha, up, data, l2)
                      - naive_objective(alpha, dn, data, l2)) / (2 * step)
    return out
