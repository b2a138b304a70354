"""Prediction-quality metrics and the repeated random train/test protocol.

The metrics raise :class:`~hasqoe.errors.DegenerateMetricError` where
they are undefined: on a constant sequence, or when a sum that they
divide by or return is not finite.  The protocol scores any model that
has ``matrix`` and ``split_predictions``, such as
``fitting.LinearModel``.  It builds the matrix once per dataset, from
the dataset's columnar batch, and draws each split's test mask over the
batch's tags; neither needs a ``SessionTrace``.  How a model fits on a
split's training rows is the model's own business.

Split ``k`` of a protocol run draws its test set as numpy's
``default_rng(SeedSequence(rng_seed).spawn(n_repetitions)[k]).choice(pool,
test_size, replace=False)`` would, through ``_pcg64.choices``, so results
are bit-reproducible.  ``rng_seed`` must be a non-negative integer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _pcg64
from .errors import DegenerateMetricError, UsageError
from .model import _json_integer


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


def _finite_sum(value: float, message: str) -> float:
    """``value``, a sum that a metric divides by or returns, unless it is not finite."""
    if math.isfinite(value):
        return value
    raise DegenerateMetricError(message)


def pcc(predictions, truths) -> float:
    """Pearson correlation coefficient between predictions and truths.

    Raises :class:`DegenerateMetricError` when either sequence is
    constant or the sums overflow — a silent 0 would mask pipeline bugs.
    """
    p, t = _as_pair(predictions, truths, 2)
    for name, values in (("predictions", p), ("truths", t)):
        if np.all(values == values[0]):
            raise DegenerateMetricError(f"{name} are constant; correlation is undefined")
    pc = p - p.mean()
    tc = t - t.mean()
    spread = _finite_sum(float(pc @ pc) * float(tc @ tc),
                         "sums of squares overflow the float range; correlation is undefined")
    return float(pc @ tc) / math.sqrt(spread)


def rmse(predictions, truths) -> float:
    """Root-mean-square error between predictions and truths."""
    p, t = _as_pair(predictions, truths, 1)
    return _finite_sum(float(np.sqrt(np.mean((p - t) ** 2))),
                       "squared errors overflow the float range; RMSE is undefined")


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
    slope = float(pc @ (t - t.mean())) / _finite_sum(
        float(pc @ pc), "predictions overflow the float range; compensation is degenerate")
    intercept = float(t.mean()) - slope * float(p.mean())
    return slope, intercept, slope * p + intercept


def _set_fields(items) -> dict:
    """The ``dict_factory`` of a report's ``to_dict``: its fields at every level, less None ones."""
    return {name: value for name, value in items if value is not None}


@dataclass(frozen=True)
class SplitMetrics:
    """Metrics of one train/test repetition."""

    split: int
    pcc: float
    rmse: float
    slope: float | None = None
    intercept: float | None = None

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_set_fields)


@dataclass(frozen=True)
class EvaluationReport:
    """PCC/RMSE of an evaluation; means over splits for protocol runs."""

    pcc: float
    rmse: float
    slope: float | None = None
    intercept: float | None = None
    per_split: tuple[SplitMetrics, ...] | None = None

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_set_fields)


def _score(predictions: np.ndarray, truths: np.ndarray, rows, reference) -> dict:
    """PCC and RMSE of the ``rows``, after the compensation line fitted on the ``reference`` rows.

    With ``reference=None`` the rows are scored as they are, and the slope
    and intercept are None.
    """
    scored, t = predictions[rows], truths[rows]
    slope = intercept = None
    if reference is not None:
        slope, intercept, _ = linear_compensate(predictions[reference], truths[reference])
        scored = slope * scored + intercept
    return {"pcc": pcc(scored, t), "rmse": rmse(scored, t), "slope": slope, "intercept": intercept}


def evaluate_predictions(predictions, truths, *, compensate: bool = False) -> EvaluationReport:
    """Score predictions against truths, optionally after linear compensation."""
    p, t = _as_pair(predictions, truths, 2)
    every = slice(None)
    return EvaluationReport(**_score(p, t, every, every if compensate else None))


@dataclass(frozen=True)
class SplitProtocol:
    """Repeated random train/test split definition.

    ``test_pool`` selects which sessions may enter test sets: the string
    ``"all"``, or a tag string that session traces carry.  Training sets
    are always the full complement of the drawn test set.
    ``n_repetitions`` is at most 2**32, and ``rng_seed`` a non-negative
    integer.  The three integer fields are read as ``GeneratorConfig``
    reads its own: ``3`` or ``3.0``, not ``2.5`` or ``True``.
    """

    n_repetitions: int = 50
    test_size: int = 90
    test_pool: str = "multi-factor"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_repetitions", "test_size", "rng_seed"):
            object.__setattr__(self, name, _json_integer(getattr(self, name), repr(name)))
        if self.n_repetitions < 1:
            raise UsageError(f"n_repetitions {self.n_repetitions} must be >= 1")
        if self.n_repetitions > 2**32:  # a split's substream index is one 32-bit word
            raise UsageError(f"n_repetitions {self.n_repetitions} must be at most 2**32")
        if self.test_size < 2:
            raise UsageError(f"test_size {self.test_size} must be >= 2 for PCC")
        if self.rng_seed < 0:
            raise UsageError(f"rng_seed {self.rng_seed} must be >= 0")
        if not isinstance(self.test_pool, str):
            raise UsageError(f"'test_pool' must be a string, got {self.test_pool!r}")


def split_masks(tags, protocol: SplitProtocol) -> list[np.ndarray]:
    """One boolean test-set mask over the sessions of ``tags`` per repetition of ``protocol``.

    Each repetition draws ``test_size`` sessions without replacement
    from the test pool (the sessions tagged ``protocol.test_pool``, or
    all); the remaining sessions form the training set.
    """
    if protocol.test_pool == "all":
        pool = np.arange(len(tags))
    else:
        pool = np.flatnonzero(np.asarray(tags, dtype=object) == protocol.test_pool)
    if len(pool) < protocol.test_size:
        raise UsageError(
            f"test pool {protocol.test_pool!r} holds {len(pool)} sessions; "
            f"cannot draw test sets of {protocol.test_size}"
        )
    if protocol.test_size >= len(tags):
        raise UsageError("test_size leaves no sessions to train on")

    masks = []
    for drawn in _pcg64.choices(protocol.rng_seed, protocol.n_repetitions, len(pool),
                                protocol.test_size):
        mask = np.zeros(len(tags), dtype=bool)
        mask[pool[drawn]] = True
        masks.append(mask)
    return masks


def run_split_protocol(
    dataset,
    protocol: SplitProtocol,
    model,
    *,
    compensate: bool = False,
    compensation_on: str = "train",
) -> EvaluationReport:
    """Run the repeated random train/test protocol.

    ``dataset`` is a ``fitting.LabeledDataset`` and ``model`` a
    ``fitting.LinearModel``, or any model with ``matrix`` and
    ``split_predictions``.  The statistic matrix is built once; for each
    repetition of :func:`split_masks` the model predicts every row from
    its training rows, and the test rows are scored.  With
    ``compensate=True`` a linear correction is fitted on the portion named
    by ``compensation_on`` ("train" or "test") and applied to the test
    predictions before scoring; on "train", it needs at least 2 training
    sessions.
    """
    if compensation_on not in ("train", "test"):
        raise UsageError(f"compensation_on must be 'train' or 'test', got {compensation_on!r}")
    # One training session fits no line; none at all is split_masks' error.
    if compensate and compensation_on == "train" and len(dataset) - protocol.test_size == 1:
        raise UsageError(f"test_size {protocol.test_size} leaves 1 training session; "
                         "compensation on the training set needs at least 2")
    masks = split_masks(dataset.batch.tags, protocol)
    matrix = model.matrix(dataset.batch)
    labels = dataset.labels()

    per_split = []
    splits = zip(masks, model.split_predictions(matrix, labels, masks))
    for k, (test, predictions) in enumerate(splits):
        reference = (~test if compensation_on == "train" else test) if compensate else None
        per_split.append(SplitMetrics(k, **_score(predictions, labels, test, reference)))
    names = ("pcc", "rmse", "slope", "intercept") if compensate else ("pcc", "rmse")
    means = {name: float(np.mean([getattr(m, name) for m in per_split])) for name in names}
    return EvaluationReport(**means, per_split=tuple(per_split))
