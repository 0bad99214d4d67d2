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


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """One fold: ascending stream row indices for each side, its test machines'
    rows from the time cutoff on and the other machines' rows before it, derived
    on access from each row's fold and the before-cutoff mask that its split shares."""

    fold_index: int
    fold_of_row: np.ndarray
    before_cutoff: np.ndarray

    @property
    def train_rows(self) -> np.ndarray:
        return np.flatnonzero((self.fold_of_row != self.fold_index) & self.before_cutoff)

    @property
    def test_rows(self) -> np.ndarray:
        return np.flatnonzero((self.fold_of_row == self.fold_index) & ~self.before_cutoff)


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
    times, labels = rows["datetime"], rows["label"]
    machines, rank = np.unique(rows["machine_id"], return_inverse=True)
    if len(machines) < k:
        raise FoldError(f"need at least {k} machines for {k} folds, have {len(machines)}")
    distinct_times = np.unique(times, return_index=True)[0]  # a plain one imports numpy.ma
    if len(distinct_times) < 2:
        raise FoldError("timeline must span at least 2 distinct hours")
    cutoff = distinct_times[len(distinct_times) // 2]
    before_cutoff = times < cutoff

    shuffled = list(range(len(machines)))  # machine ranks, in test-group order
    rng.Stream(rng.derive(seed, _FOLD_CHANNEL)).shuffle(shuffled)
    sizes = [len(group) for group in np.array_split(shuffled, k)]
    fold_of_row = np.repeat(np.arange(k, dtype=np.min_scalar_type(k)), sizes)[
        np.argsort(shuffled)][rank]

    # [fold][before cutoff][label] row counts; a fold trains on the others' early rows.
    tally = np.bincount(4 * fold_of_row.astype(np.intp) + 2 * before_cutoff + labels,
                        minlength=4 * k).reshape(k, 2, 2)
    for fold_index in range(k):
        for name, counts in (("train", tally[:, 1].sum(axis=0) - tally[fold_index, 1]),
                             ("test", tally[fold_index, 0])):
            if not counts.all():  # counts is [negatives, positives]
                raise FoldError(
                    f"fold {fold_index}: {name} side lacks "
                    f"{'negatives' if counts[1] else 'positives'}")
    return [FoldSplit(fold_index, fold_of_row, before_cutoff) for fold_index in range(k)]


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
    Fit failures propagate with the fold index attached; no folds raise FoldError.
    """
    if not folds:
        raise FoldError("no folds to evaluate")
    logreg.check_threshold(threshold)
    keys = assemble.pattern_keys(rows, features)
    run_folds = []
    for fold in folds:
        try:  # the design and its rows are arguments alone, so they die with the fit
            model = logreg.fit(assemble.encode(rows, weight_positive=weight_positive,
                                               features=features, index=fold.train_rows,
                                               keys=keys), fit_config)
        except (assemble.EncodingError, logreg.FitError) as exc:
            raise type(exc)(f"fold {fold.fold_index}: {exc}") from exc
        test_rows = fold.test_rows  # each read derives a side anew
        step = schema.BLOCK_ROWS  # test rows gathered, standardized and predicted at a time
        blocks = np.split(test_rows, range(step, len(test_rows), step))
        predicted = np.concatenate([logreg.predict(model, assemble.apply_encoding(
            assemble.raw_feature_matrix(rows, features, block)[0], model.encoding),
            threshold=threshold) for block in blocks])
        counts = confusion_counts(rows["label"][test_rows], predicted)
        names = model.encoding.feature_names
        run_folds.append({
            "fold_index": fold.fold_index,
            "n_train": len(fold.train_rows),
            "n_test": len(test_rows),
            "iterations": model.fit_meta.iterations,
            "converged": model.fit_meta.converged,
            "counts": counts,
            "normalized": normalized(counts).tolist(),
            "alpha": model.alpha,
            "beta": {name: float(b) for name, b in zip(names, model.beta)},
        })
        del test_rows, blocks  # so the next fold's sides are the only ones held

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


def check_prune_threshold(threshold: float):
    """Reject a non-finite ``relative`` cutoff, or one above 1, which no feature can reach."""
    if not np.isfinite(threshold):
        raise PruneError(f"prune threshold {threshold!r} is not finite")
    if threshold > 1:
        raise PruneError("pruning removed every feature")


def prune_features(weights, rule: str = "relative",
                   threshold: float = 0.10) -> list[str]:
    """Reduced feature list in canonical order, from a run's ``weights``.

    ``relative`` drops features whose |mean| is below ``threshold`` times
    the largest non-constant |mean|, and rejects a non-finite mean;
    ``paper-reduced`` is the fixed preset.  The intercept is never part of the output.
    """
    if rule == "paper-reduced":
        present = {w["feature"] for w in weights}
        return [f for f in PAPER_REDUCED_FEATURES if f in present]
    if rule != "relative":
        raise PruneError(f"unknown pruning rule {rule!r}; expected one of {PRUNE_RULES}")
    check_prune_threshold(threshold)
    magnitudes = {w["feature"]: abs(w["mean"]) for w in weights if w["feature"] != "constant"}
    if not magnitudes:
        raise PruneError("weight report has no features")
    for feature, magnitude in sorted(magnitudes.items()):
        if not np.isfinite(magnitude):
            raise PruneError(f"feature {feature!r} has a non-finite mean weight")
    peak = max(magnitudes.values())
    kept = {f for f, m in magnitudes.items() if m >= threshold * peak}
    return [f for f in schema.FEATURE_NAMES if f in kept]
