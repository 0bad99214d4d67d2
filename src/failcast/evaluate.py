"""Machine-disjoint, temporally ordered cross-validation and reporting.

Machines are shuffled by seed into k near-equal groups; fold i tests on
group i and trains on the rest.  One global time cutoff at the midpoint
of the distinct-hour timeline applies to every fold: training rows lie
strictly before it, test rows at or after it, so each fold evaluates on
future hours of never-seen machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assemble, logreg, rng, schema

_FOLD_CHANNEL = 0x0F01D


class FoldError(Exception):
    pass


class PruneError(Exception):
    pass


@dataclass(frozen=True)
class FoldSplit:
    """One fold: ascending stream row indices for each side, its test machines'
    rows from the time cutoff on and the other machines' rows before it."""

    fold_index: int
    train_rows: np.ndarray
    test_rows: np.ndarray


def confusion_counts(y_true, y_pred) -> list[list[int]]:
    """2x2 counts indexed [true class][predicted class], negatives first."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction length mismatch")
    cells = np.bincount(2 * y_true.astype(int) + y_pred, minlength=4).tolist()
    return [cells[:2], cells[2:]]


def normalized(counts) -> np.ndarray:
    """Row-normalized rates of 2x2 ``counts``; an empty true class yields a
    zero row."""
    counts = np.array(counts, dtype=float)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.zeros((2, 2)), where=totals > 0)


def make_folds(rows, k: int = 3, seed: int = 0) -> list[FoldSplit]:
    """Partition machines into k test groups under one global time cutoff.

    Raises FoldError when there are fewer machines than folds, fewer than
    two distinct hours, or any fold misses a class in train or test.
    """
    if k < 2:
        raise FoldError("need at least 2 folds")
    machine_ids, times, labels = rows["machine_id"], rows["datetime"], rows["label"]
    machines = np.unique(machine_ids).tolist()
    if len(machines) < k:
        raise FoldError(f"need at least {k} machines for {k} folds, have {len(machines)}")
    distinct_times = np.unique(times)
    if len(distinct_times) < 2:
        raise FoldError("timeline must span at least 2 distinct hours")
    cutoff = distinct_times[len(distinct_times) // 2]
    before_cutoff = times < cutoff

    rng.Stream(rng.derive(seed, _FOLD_CHANNEL)).shuffle(machines)

    folds = []
    for fold_index, group in enumerate(np.array_split(machines, k)):
        in_test = np.isin(machine_ids, group)
        train_idx = np.flatnonzero(~in_test & before_cutoff)
        test_idx = np.flatnonzero(in_test & ~before_cutoff)
        for name, idx in (("train", train_idx), ("test", test_idx)):
            side = labels[idx]
            if not side.any() or side.all():
                raise FoldError(
                    f"fold {fold_index}: {name} side lacks "
                    f"{'negatives' if side.any() else 'positives'}")
        folds.append(FoldSplit(fold_index, train_idx, test_idx))
    return folds


def evaluate_cv(rows, folds, fit_config: logreg.FitConfig = logreg.FitConfig(),
                weight_positive: float = 100.0, threshold: float = 0.5,
                features=None) -> dict:
    """Fit and score each fold without leakage; returns the run object that
    report.json holds under ``runs.<name>``: the fitted ``features``; the
    ``folds``, each with its ``fold_index``, ``n_train``, ``n_test``, fit
    ``iterations`` and ``converged``, confusion ``counts`` and their row-
    ``normalized`` rates, and ``alpha`` and ``beta`` by name; their elementwise
    mean ``average_normalized`` ([1][1] is the average failure recall); and
    ``weights``, each coefficient's ``mean`` and ``std`` across folds
    (``constant`` is the intercept) with its ``abs_rank``, ordered by
    descending |mean| and then by name.

    Encoding statistics and the fit see only that fold's training rows.
    Fit failures propagate with the fold index attached.
    """
    run_folds = []
    for fold in folds:
        try:
            train = assemble.encode(rows[fold.train_rows], weight_positive=weight_positive,
                                    features=features)
            model = logreg.fit(train, fit_config)
        except (assemble.EncodingError, logreg.FitError) as exc:
            raise type(exc)(f"fold {fold.fold_index}: {exc}") from exc
        test = rows[fold.test_rows]
        x_test = assemble.apply_encoding(
            assemble.raw_feature_matrix(test, features)[0], model.encoding)
        predicted = logreg.predict(model, x_test, threshold=threshold)
        counts = confusion_counts(test["label"], predicted)
        names = model.encoding.feature_names
        run_folds.append({
            "fold_index": fold.fold_index,
            "n_train": len(fold.train_rows),
            "n_test": len(fold.test_rows),
            "iterations": model.fit_meta.iterations,
            "converged": model.fit_meta.converged,
            "counts": counts,
            "normalized": normalized(counts).tolist(),
            "alpha": model.alpha,
            "beta": {name: float(b) for name, b in zip(names, model.beta)},
        })
        del train, test, x_test  # free this fold's matrices before the next encode

    values = {"constant": [f["alpha"] for f in run_folds],
              **{name: [f["beta"][name] for f in run_folds] for name in names}}
    weights = sorted(({"feature": name, "mean": float(np.mean(v)), "std": float(np.std(v))}
                      for name, v in values.items()),
                     key=lambda w: (-abs(w["mean"]), w["feature"]))
    for rank, w in enumerate(weights, start=1):
        w["abs_rank"] = rank
    average = np.mean([f["normalized"] for f in run_folds], axis=0).tolist()
    return {"features": list(names), "folds": run_folds,
            "average_normalized": average, "weights": weights}


# Feature categories dropped by the fixed "paper-reduced" preset:
# day of week, component replacements, failure replacements and telemetry,
# keeping the five error flags plus age and the model indicators.
PAPER_REDUCED_FEATURES = schema.ERROR_FLAGS + ("age",) + schema.MODEL_FLAGS

PRUNE_RULES = ("relative", "paper-reduced")


def prune_features(weights, rule: str = "relative",
                   threshold: float = 0.10) -> list[str]:
    """Reduced feature list in canonical order, from a run's ``weights``.

    ``relative`` drops features whose |mean| is below ``threshold`` times
    the largest non-constant |mean|; ``paper-reduced`` is the fixed preset.
    The intercept is never part of the output.
    """
    if rule == "paper-reduced":
        present = {w["feature"] for w in weights}
        return [f for f in PAPER_REDUCED_FEATURES if f in present]
    if rule != "relative":
        raise PruneError(f"unknown pruning rule {rule!r}; expected one of {PRUNE_RULES}")
    magnitudes = {w["feature"]: abs(w["mean"]) for w in weights if w["feature"] != "constant"}
    if not magnitudes:
        raise PruneError("weight report has no features")
    peak = max(magnitudes.values())
    kept = {f for f, m in magnitudes.items() if m >= threshold * peak}
    if not kept:
        raise PruneError("pruning removed every feature")
    return [f for f in schema.FEATURE_NAMES if f in kept]
