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
        counts = [[0, 0], [0, 0]]
        for t in (0, 1):
            for p in (0, 1):
                counts[t][p] = int(np.sum((y_true == bool(t)) & (y_pred == bool(p))))
        return cls(counts=(tuple(counts[0]), tuple(counts[1])))

    def normalized(self) -> np.ndarray:
        """Row-normalized rates; an empty true class yields a zero row."""
        out = np.zeros((2, 2))
        for t in (0, 1):
            total = self.counts[t][0] + self.counts[t][1]
            if total > 0:
                out[t, 0] = self.counts[t][0] / total
                out[t, 1] = self.counts[t][1] / total
        return out

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def failure_recall(self) -> float:
        fn, tp = self.counts[1]
        return tp / (fn + tp) if fn + tp else 0.0

    @property
    def false_negative_rate(self) -> float:
        fn, tp = self.counts[1]
        return fn / (fn + tp) if fn + tp else 0.0


@dataclass(frozen=True)
class WeightEntry:
    feature: str
    mean: float
    std: float


@dataclass(frozen=True)
class WeightReport:
    """Per-feature coefficient mean/std across folds, plus ``constant``
    for the intercept, ordered by descending |mean|."""

    entries: tuple[WeightEntry, ...]

    def ordered(self) -> list[WeightEntry]:
        return sorted(self.entries, key=lambda e: (-abs(e.mean), e.feature))

    def feature_names(self) -> list[str]:
        return [e.feature for e in self.entries if e.feature != "constant"]

    def entry(self, feature: str) -> WeightEntry:
        for e in self.entries:
            if e.feature == feature:
                return e
        raise KeyError(feature)


@dataclass
class FoldResult:
    fold_index: int
    matrix: ConfusionMatrix
    model: logreg.LogisticModel
    n_train: int
    n_test: int


@dataclass
class CvResult:
    average_matrix: np.ndarray
    weight_report: WeightReport
    fold_results: list[FoldResult] = field(default_factory=list)

    @property
    def average_failure_recall(self) -> float:
        return float(self.average_matrix[1, 1])

    @property
    def average_false_negative_rate(self) -> float:
        return float(self.average_matrix[1, 0])


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
    sizes = [len(machines) // k + (1 if i < len(machines) % k else 0) for i in range(k)]
    groups = []
    pos = 0
    for size in sizes:
        groups.append(shuffled[pos:pos + size])
        pos += size

    folds = []
    for fold_index, group in enumerate(groups):
        test_machines = frozenset(group)
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
    weights_by_fold = []
    fold_results = []
    for fold in folds:
        try:
            train = assemble.encode(rows[fold.train_rows], weight_positive=weight_positive,
                                    features=features)
            model = logreg.fit(train, fit_config)
        except logreg.FitError as exc:
            raise logreg.FitError(exc.iteration,
                                  f"fold {fold.fold_index}: {exc.message}") from exc
        except (assemble.EncodingError, logreg.UnfittableDataError) as exc:
            raise type(exc)(f"fold {fold.fold_index}: {exc}") from exc
        test = rows[fold.test_rows]
        x_test = assemble.apply_encoding(
            assemble.raw_feature_matrix(test, features)[0], train.encoding)
        predicted = logreg.predict(model, x_test, threshold=threshold)
        cm = ConfusionMatrix.from_predictions(test["label"], predicted)
        fold_results.append(FoldResult(fold_index=fold.fold_index, matrix=cm,
                                       model=model, n_train=len(fold.train_rows),
                                       n_test=len(fold.test_rows)))
        weights_by_fold.append((model.alpha, model.beta))

    average = np.mean([f.matrix.normalized() for f in fold_results], axis=0)
    entries = []
    alphas = np.array([a for a, _ in weights_by_fold])
    entries.append(WeightEntry("constant", float(alphas.mean()), float(alphas.std())))
    for j, name in enumerate(train.encoding.feature_names):
        values = np.array([beta[j] for _, beta in weights_by_fold])
        entries.append(WeightEntry(name, float(values.mean()), float(values.std())))
    report = WeightReport(entries=tuple(entries))
    return CvResult(average_matrix=average, weight_report=report,
                    fold_results=fold_results)


# Feature categories dropped by the fixed "paper-reduced" preset:
# day of week, component replacements, failure replacements and telemetry,
# keeping the five error flags plus age and the model indicators.
PAPER_REDUCED_FEATURES = schema.ERROR_FLAGS + ("age",) + schema.MODEL_FLAGS

PRUNE_RULES = ("relative", "paper-reduced")


def prune_features(report: WeightReport, rule: str = "relative",
                   threshold: float = 0.10) -> list[str]:
    """Reduced feature list in canonical order.

    ``relative`` drops features whose |mean| is below ``threshold`` times
    the largest non-constant |mean|; ``paper-reduced`` is the fixed preset.
    The intercept is never part of the output.
    """
    if rule == "paper-reduced":
        present = set(report.feature_names())
        return [f for f in PAPER_REDUCED_FEATURES if f in present]
    if rule != "relative":
        raise PruneError(f"unknown pruning rule {rule!r}; expected one of {PRUNE_RULES}")
    magnitudes = {e.feature: abs(e.mean) for e in report.entries if e.feature != "constant"}
    if not magnitudes:
        raise PruneError("weight report has no features")
    peak = max(magnitudes.values())
    kept = {f for f, m in magnitudes.items() if m >= threshold * peak}
    if not kept:
        raise PruneError("pruning removed every feature")
    return [f for f in schema.FEATURE_NAMES if f in kept]
