"""Machine-disjoint, temporally ordered cross-validation and reporting.

Machines are shuffled by seed into k near-equal groups; fold i tests on
group i and trains on the rest.  One global time cutoff at the midpoint
of the distinct-hour timeline applies to every fold: training rows lie
strictly before it, test rows at or after it, so each fold evaluates on
future hours of never-seen machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import assemble, logreg, rng, schema

_FOLD_CHANNEL = 0x0F01D


class FoldError(Exception):
    pass


class PruneError(Exception):
    pass


@dataclass(frozen=True)
class FoldSplit:
    """One fold: ascending stream row indices for each side."""

    fold_index: int
    train_rows: np.ndarray
    test_rows: np.ndarray
    train_machines: frozenset
    test_machines: frozenset
    time_cutoff: object


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts indexed [true class][predicted class], negatives first."""

    counts: tuple[tuple[int, int], tuple[int, int]]

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionMatrix":
        y_true = np.asarray(y_true, dtype=bool)
        y_pred = np.asarray(y_pred, dtype=bool)
        if y_true.shape != y_pred.shape:
            raise ValueError("prediction length mismatch")
        cells = np.bincount(2 * y_true.astype(int) + y_pred, minlength=4).tolist()
        return cls(counts=(tuple(cells[:2]), tuple(cells[2:])))

    def normalized(self) -> np.ndarray:
        """Row-normalized rates; an empty true class yields a zero row."""
        counts = np.array(self.counts, dtype=float)
        totals = counts.sum(axis=1, keepdims=True)
        return np.divide(counts, totals, out=np.zeros((2, 2)), where=totals > 0)


@dataclass(frozen=True)
class WeightEntry:
    """One coefficient's mean and std across folds; ``constant`` is the
    intercept."""

    feature: str
    mean: float
    std: float


@dataclass
class FoldResult:
    fold_index: int
    matrix: ConfusionMatrix
    model: logreg.LogisticModel
    n_train: int
    n_test: int


@dataclass
class CvResult:
    """``weights`` holds the intercept and every feature, ordered by
    descending |mean| and then by name."""

    average_matrix: np.ndarray
    weights: tuple[WeightEntry, ...]
    fold_results: list[FoldResult] = field(default_factory=list)

    @property
    def average_failure_recall(self) -> float:
        return float(self.average_matrix[1, 1])


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

    shuffled = list(machines)
    rng.Stream(rng.derive(seed, _FOLD_CHANNEL)).shuffle(shuffled)

    folds = []
    for fold_index, group in enumerate(np.array_split(shuffled, k)):
        test_machines = frozenset(group.tolist())
        train_machines = frozenset(machines) - test_machines
        in_test = np.isin(machine_ids, group)
        train_idx = np.flatnonzero(~in_test & before_cutoff)
        test_idx = np.flatnonzero(in_test & ~before_cutoff)
        for name, idx in (("train", train_idx), ("test", test_idx)):
            side = labels[idx]
            if not side.any() or side.all():
                raise FoldError(
                    f"fold {fold_index}: {name} side lacks "
                    f"{'negatives' if side.any() else 'positives'}")
        folds.append(FoldSplit(fold_index=fold_index,
                               train_rows=train_idx, test_rows=test_idx,
                               train_machines=train_machines,
                               test_machines=test_machines,
                               time_cutoff=cutoff))
    return folds


def evaluate_cv(rows, folds, fit_config: logreg.FitConfig = logreg.FitConfig(),
                weight_positive: float = 100.0, threshold: float = 0.5,
                features=None) -> CvResult:
    """Fit and score each fold without leakage; average the normalized
    matrices elementwise and aggregate coefficients by feature name.

    Encoding statistics and the fit see only that fold's training rows.
    Fit failures propagate with the fold index attached.
    """
    fold_results = []
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
        cm = ConfusionMatrix.from_predictions(test["label"], predicted)
        fold_results.append(FoldResult(fold_index=fold.fold_index, matrix=cm,
                                       model=model, n_train=len(fold.train_rows),
                                       n_test=len(fold.test_rows)))
        del train, test, x_test  # free this fold's matrices before the next encode

    average = np.mean([f.matrix.normalized() for f in fold_results], axis=0)
    alphas = np.array([f.model.alpha for f in fold_results])
    entries = [WeightEntry("constant", float(alphas.mean()), float(alphas.std()))]
    for j, name in enumerate(fold_results[-1].model.encoding.feature_names):
        values = np.array([f.model.beta[j] for f in fold_results])
        entries.append(WeightEntry(name, float(values.mean()), float(values.std())))
    entries.sort(key=lambda e: (-abs(e.mean), e.feature))
    return CvResult(average_matrix=average, weights=tuple(entries),
                    fold_results=fold_results)


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
        present = {e.feature for e in weights}
        return [f for f in PAPER_REDUCED_FEATURES if f in present]
    if rule != "relative":
        raise PruneError(f"unknown pruning rule {rule!r}; expected one of {PRUNE_RULES}")
    magnitudes = {e.feature: abs(e.mean) for e in weights if e.feature != "constant"}
    if not magnitudes:
        raise PruneError("weight report has no features")
    peak = max(magnitudes.values())
    kept = {f for f, m in magnitudes.items() if m >= threshold * peak}
    if not kept:
        raise PruneError("pruning removed every feature")
    return [f for f in schema.FEATURE_NAMES if f in kept]
