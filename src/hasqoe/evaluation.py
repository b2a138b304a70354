"""Prediction-quality metrics and the repeated random train/test protocol.

Every model scored here is a :class:`LinearModel`, least squares over a
per-session statistic matrix: the histogram model refit on every
training set (``refit_runner``) or frozen (``fixed_weights_runner``), or
a comparison model (``baseline_runner``).  The protocol builds the matrix
once per dataset and selects each split's rows with a boolean mask.

Split ``k`` of a protocol run draws its RNG substream from
``SeedSequence(rng_seed).spawn(n_repetitions)[k]``, so results are
bit-reproducible and independent of the order splits are executed in.
"""

from __future__ import annotations

import math
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
        """The statistic matrix, one session per row."""
        if self.statistics == "histogram":
            return design_matrix(sessions)
        return baseline_matrix(sessions, self.statistics)

    def fit_predict(self, matrix, labels, train) -> np.ndarray:
        """Clamped ``matrix @ w`` for every row; a refit solves ``w`` on the ``train`` rows."""
        histogram = self.statistics == "histogram"
        weights = self.weights
        if weights is None:
            weights, _ = solve(
                matrix[train], labels[train], nonnegative=self.nonnegative, warn=histogram
            )
        raw = matrix @ np.asarray(weights, dtype=float)
        if not np.isfinite(raw).all():
            raise DegenerateMetricError(
                "predictions overflow the float range; the weights are too large"
            )
        return np.maximum(raw, MIN_MOS) if histogram else np.clip(raw, MIN_MOS, MAX_MOS)


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


def split_masks(sessions, protocol: SplitProtocol) -> list[np.ndarray]:
    """One boolean test-set mask over ``sessions`` per repetition of ``protocol``.

    Each repetition draws ``test_size`` sessions without replacement
    from the test pool; the remaining sessions form the training set.
    """
    pool = [
        k
        for k, s in enumerate(sessions)
        if protocol.test_pool == "all" or s.tag == protocol.test_pool
    ]
    if len(pool) < protocol.test_size:
        raise UsageError(
            f"test pool {protocol.test_pool!r} holds {len(pool)} sessions; "
            f"cannot draw test sets of {protocol.test_size}"
        )
    if protocol.test_size >= len(sessions):
        raise UsageError("test_size leaves no sessions to train on")

    substreams = np.random.SeedSequence(protocol.rng_seed).spawn(protocol.n_repetitions)
    masks = []
    for substream in substreams:
        rng = np.random.default_rng(substream)
        drawn = rng.choice(pool, size=protocol.test_size, replace=False)
        masks.append(np.isin(np.arange(len(sessions)), drawn))
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
    masks = split_masks(dataset.sessions, protocol)
    matrix = model.matrix(dataset.sessions)
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
