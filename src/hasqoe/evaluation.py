"""Prediction-quality metrics and the repeated random train/test protocol.

Every model fitted or scored here is a :class:`LinearModel`, least
squares over a per-session statistic matrix: the histogram model refit
(``refit_runner``, also behind ``fitting.fit``) or frozen
(``fixed_weights_runner``), or a comparison model (``baseline_runner``,
also behind :func:`fit_baseline_coefficients`).  The protocol builds the
matrix once per dataset, from the dataset's columnar batch, and selects
each split's rows with a mask drawn over the dataset's tags; neither
needs a ``SessionTrace``.

Split ``k`` of a protocol run draws its RNG substream from
``SeedSequence(rng_seed).spawn(n_repetitions)[k]``, so results are
bit-reproducible and independent of the order splits are executed in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .baselines import MODEL_STATISTICS, BaselineCoefficients, baseline_matrix
from .errors import DegenerateMetricError, UsageError
from .fitting import LabeledDataset, design_matrix, solve
from .model import MAX_MOS, MIN_MOS, ModelWeights


def _as_pair(predictions, truths, min_length: int) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.ndim != 1 or t.ndim != 1:
        raise UsageError("predictions and truths must be one-dimensional sequences")
    if p.shape != t.shape:
        raise UsageError(f"length mismatch: {p.size} predictions vs {t.size} truths")
    if p.size < min_length:
        raise UsageError(f"need at least {min_length} values, got {p.size}")
    return p, t


def pcc(predictions, truths) -> float:
    """Pearson correlation coefficient between predictions and truths.

    Raises :class:`DegenerateMetricError` when either sequence is
    constant — a silent 0 there would mask pipeline bugs.
    """
    p, t = _as_pair(predictions, truths, 2)
    for name, values in (("predictions", p), ("truths", t)):
        if np.all(values == values[0]):
            raise DegenerateMetricError(f"{name} are constant; correlation is undefined")
    pc = p - p.mean()
    tc = t - t.mean()
    return float(pc @ tc) / math.sqrt(float(pc @ pc) * float(tc @ tc))


def rmse(predictions, truths) -> float:
    """Root-mean-square error between predictions and truths."""
    p, t = _as_pair(predictions, truths, 1)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def linear_compensate(predictions, truths) -> tuple[float, float, np.ndarray]:
    """First-order correction of systematic prediction bias.

    Fits ``truths ~ slope * predictions + intercept`` by OLS and returns
    ``(slope, intercept, adjusted_predictions)``.  The map preserves PCC
    (up to sign) and never increases RMSE.
    """
    p, t = _as_pair(predictions, truths, 2)
    if np.all(p == p[0]):
        raise DegenerateMetricError("predictions are constant; compensation is degenerate")
    pc = p - p.mean()
    slope = float(pc @ (t - t.mean())) / float(pc @ pc)
    intercept = float(t.mean()) - slope * float(p.mean())
    return slope, intercept, slope * p + intercept


@dataclass(frozen=True)
class SplitMetrics:
    """Metrics of one train/test repetition."""

    split: int
    pcc: float
    rmse: float
    slope: float | None = None
    intercept: float | None = None

    def to_dict(self) -> dict:
        data: dict = {"split": self.split, "pcc": self.pcc, "rmse": self.rmse}
        if self.slope is not None:
            data["slope"] = self.slope
            data["intercept"] = self.intercept
        return data


@dataclass(frozen=True)
class EvaluationReport:
    """PCC/RMSE of an evaluation; means over splits for protocol runs."""

    pcc: float
    rmse: float
    slope: float | None = None
    intercept: float | None = None
    per_split: tuple[SplitMetrics, ...] | None = None

    def to_dict(self) -> dict:
        data: dict = {"pcc": self.pcc, "rmse": self.rmse}
        if self.slope is not None:
            data["slope"] = self.slope
            data["intercept"] = self.intercept
        if self.per_split is not None:
            data["per_split"] = [m.to_dict() for m in self.per_split]
        return data


def evaluate_predictions(predictions, truths, *, compensate: bool = False) -> EvaluationReport:
    """Score predictions against truths, optionally after linear compensation."""
    p, t = _as_pair(predictions, truths, 2)
    slope = intercept = None
    if compensate:
        slope, intercept, p = linear_compensate(p, t)
    return EvaluationReport(pcc=pcc(p, t), rmse=rmse(p, t), slope=slope, intercept=intercept)


@dataclass(frozen=True)
class SplitProtocol:
    """Repeated random train/test split definition.

    ``test_pool`` selects which sessions may enter test sets: ``"all"``
    or a tag value that session traces carry.  Training sets are always
    the full complement of the drawn test set.
    """

    n_repetitions: int = 50
    test_size: int = 90
    test_pool: str = "multi-factor"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_repetitions < 1:
            raise UsageError(f"n_repetitions {self.n_repetitions} must be >= 1")
        if self.test_size < 2:
            raise UsageError(f"test_size {self.test_size} must be >= 2 for PCC")


@dataclass(frozen=True)
class LinearModel:
    """Least squares over a per-session statistic matrix, clamped to the MOS scale.

    ``statistics`` is ``"histogram"`` (22 signed columns, floored at
    1.0) or baseline statistic names (plus an intercept column, clamped
    to [1, 5]).  ``weights`` fixes one weight per column; ``None``
    refits them on each training set (w >= 0 if ``nonnegative``).
    """

    statistics: str | tuple[str, ...]
    weights: tuple[float, ...] | None = None
    nonnegative: bool = False

    def matrix(self, sessions) -> np.ndarray:
        """The statistic matrix of traces or a ``model._SessionBatch``, one session per row."""
        if self.statistics == "histogram":
            return design_matrix(sessions)
        return baseline_matrix(sessions, self.statistics)

    def fit(self, matrix, labels, train=None) -> tuple[np.ndarray, bool]:
        """Weights solved on the ``train`` rows (default: all) and whether those are rank-deficient.

        Fixed weights come back as they are.  A histogram refit warns, at
        its caller's caller, of fewer rows than columns or rank deficiency.
        """
        if self.weights is not None:
            return np.asarray(self.weights, dtype=float), False
        if train is not None:
            matrix, labels = matrix[train], labels[train]
        histogram = self.statistics == "histogram"
        n_rows, n_columns = matrix.shape
        if histogram and n_rows < n_columns:
            warnings.warn(
                f"fitting {n_columns} weights from only {n_rows} sessions; "
                "the solution will be underdetermined",
                stacklevel=3,
            )
        weights, rank = solve(matrix, labels, nonnegative=self.nonnegative)
        if histogram and rank < n_columns:
            warnings.warn(
                f"design matrix is rank-deficient (rank {rank} of {n_columns}); "
                "returning the minimum-norm solution",
                stacklevel=3,
            )
        return weights, rank < n_columns

    def predict(self, matrix, weights) -> np.ndarray:
        """``matrix @ weights``, floored at 1.0 (histogram) or clipped to [1, 5] (baseline)."""
        raw = _finite(matrix @ np.asarray(weights, dtype=float))
        if self.statistics == "histogram":
            return np.maximum(raw, MIN_MOS)
        return np.clip(raw, MIN_MOS, MAX_MOS)

    def fit_predict(self, matrix, labels, train=None) -> np.ndarray:
        """:meth:`predict` of every row, weighted as :meth:`fit` solves on the ``train`` rows."""
        return self.predict(matrix, self.fit(matrix, labels, train)[0])


def _finite(predictions: np.ndarray) -> np.ndarray:
    """``predictions``, unless overflowing weights made any of them non-finite."""
    if np.isfinite(predictions).all():
        return predictions
    raise DegenerateMetricError("predictions overflow the float range; the weights are too large")


def refit_runner(*, nonnegative: bool = False) -> LinearModel:
    """The histogram model, refit on each training set."""
    return LinearModel("histogram", nonnegative=nonnegative)


def fixed_weights_runner(weights: ModelWeights) -> LinearModel:
    """The histogram model with one frozen weight set (training data ignored)."""
    return LinearModel("histogram", weights.as_vector())


def baseline_runner(model: str, coefficients: BaselineCoefficients | None = None) -> LinearModel:
    """A comparison model, with fixed ``coefficients`` or refit on each training set."""
    if model not in MODEL_STATISTICS:
        raise UsageError(
            f"unknown baseline model {model!r}; known models: {sorted(MODEL_STATISTICS)}"
        )
    if coefficients is None:
        return LinearModel(MODEL_STATISTICS[model])
    if coefficients.model != model:
        raise UsageError(f"coefficients are for baseline {coefficients.model!r}, not {model!r}")
    names = MODEL_STATISTICS[model]
    if coefficients.coefficients.keys() != set(names):
        raise UsageError(
            f"coefficients for baseline {model!r} must name exactly its statistics "
            f"{list(names)}, got {list(coefficients.coefficients)}"
        )
    return LinearModel(
        names, (*(coefficients.coefficients[name] for name in names), coefficients.intercept)
    )


def fit_baseline_coefficients(dataset: LabeledDataset, model: str) -> BaselineCoefficients:
    """Fit one comparison model's coefficients by OLS on a labeled dataset."""
    runner = baseline_runner(model)
    solution, _ = runner.fit(runner.matrix(dataset.batch), dataset.labels())
    return BaselineCoefficients(
        model=model,
        coefficients=dict(zip(runner.statistics, (float(v) for v in solution[:-1]))),
        intercept=float(solution[-1]),
    )


def split_masks(tags, protocol: SplitProtocol) -> list[np.ndarray]:
    """One boolean test-set mask over the sessions of ``tags`` per repetition of ``protocol``.

    Each repetition draws ``test_size`` sessions without replacement
    from the test pool (the sessions tagged ``protocol.test_pool``, or
    all); the remaining sessions form the training set.
    """
    pool = [
        k for k, tag in enumerate(tags) if protocol.test_pool == "all" or tag == protocol.test_pool
    ]
    if len(pool) < protocol.test_size:
        raise UsageError(
            f"test pool {protocol.test_pool!r} holds {len(pool)} sessions; "
            f"cannot draw test sets of {protocol.test_size}"
        )
    if protocol.test_size >= len(tags):
        raise UsageError("test_size leaves no sessions to train on")

    substreams = np.random.SeedSequence(protocol.rng_seed).spawn(protocol.n_repetitions)
    masks = []
    for substream in substreams:
        rng = np.random.default_rng(substream)
        drawn = rng.choice(pool, size=protocol.test_size, replace=False)
        masks.append(np.isin(np.arange(len(tags)), drawn))
    return masks


def run_split_protocol(
    dataset: LabeledDataset,
    protocol: SplitProtocol,
    model: LinearModel,
    *,
    compensate: bool = False,
    compensation_on: str = "train",
) -> EvaluationReport:
    """Run the repeated random train/test protocol.

    The statistic matrix is built once; each repetition of
    :func:`split_masks` fits on its training rows and scores its test
    rows.  With ``compensate=True`` a linear correction is fitted on the
    portion named by ``compensation_on`` ("train" or "test") and applied
    to the test predictions before scoring.
    """
    if compensation_on not in ("train", "test"):
        raise UsageError(f"compensation_on must be 'train' or 'test', got {compensation_on!r}")
    masks = split_masks(dataset.tags, protocol)
    matrix = model.matrix(dataset.batch)
    labels = dataset.labels()

    per_split: list[SplitMetrics] = []
    for k, test in enumerate(masks):
        predictions = model.fit_predict(matrix, labels, ~test)
        scored, truths = predictions[test], labels[test]

        slope = intercept = None
        if compensate:
            reference = ~test if compensation_on == "train" else test
            slope, intercept, _ = linear_compensate(predictions[reference], labels[reference])
            scored = slope * scored + intercept

        per_split.append(
            SplitMetrics(
                split=k,
                pcc=pcc(scored, truths),
                rmse=rmse(scored, truths),
                slope=slope,
                intercept=intercept,
            )
        )

    return EvaluationReport(
        pcc=float(np.mean([m.pcc for m in per_split])),
        rmse=float(np.mean([m.rmse for m in per_split])),
        slope=float(np.mean([m.slope for m in per_split])) if compensate else None,
        intercept=float(np.mean([m.intercept for m in per_split])) if compensate else None,
        per_split=tuple(per_split),
    )
