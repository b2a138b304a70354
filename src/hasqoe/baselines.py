"""Session statistics used by comparison models, with pluggable linear coefficients.

Three published statistic sets are computed:

* ``guo``     — median and minimum segment quality,
* ``vriendt`` — switch count (by ``model``'s switch rule, ``_switch_counts``),
                mean and population standard deviation of segment quality,
* ``liu``     — presence-time-weighted quality (uniform segment durations,
                so the arithmetic mean), mean squared down-switch
                amplitude, total stall duration, and stall count.

:func:`baseline_matrix` computes them in numpy over the runs of the
sessions' batch that the histogram features count (``model._SessionBatch``):
the median exactly, as the mean of the two middle values of each
session's sorted qualities, and the sums per session, so the mean,
standard deviation and mean squared down amplitude may differ from a
per-session ``numpy`` call in the last bits.  It computes a statistic
only when a requested column needs it, so guo alone sorts, and the
per-run intermediates the statistics share (session starts, the mean)
at most once per run.

The coefficients that turn statistics into a MOS prediction are not
reproduced here; they are supplied by the caller or fitted by least
squares (``fitting.fit_baseline_coefficients``), in either case as a
linear model over :func:`baseline_matrix` (``fitting.baseline_runner``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMetricError, UsageError
from .model import _batch, _json_number, _json_record, _session_steps, _SessionBatch, _switch_counts

MODEL_STATISTICS: dict[str, tuple[str, ...]] = {
    "guo": ("median_quality", "min_quality"),
    "vriendt": ("switch_count", "mean_quality", "std_quality"),
    "liu": (
        "weighted_quality_sum",
        "mean_sq_down_amplitude",
        "stall_duration_sum",
        "stall_count",
    ),
}
_KNOWN_STATISTICS = frozenset(name for names in MODEL_STATISTICS.values() for name in names)


@dataclass(frozen=True)
class BaselineCoefficients:
    """Linear map from statistics to predicted MOS for one comparison model."""

    model: str
    coefficients: dict[str, float]
    intercept: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.model, str):
            raise UsageError(f"'model' must be a string, got {self.model!r}")
        if not isinstance(self.coefficients, dict):
            raise UsageError(f"'coefficients' must be an object, got {self.coefficients!r}")
        for name in self.coefficients:
            if not isinstance(name, str):
                raise UsageError(f"coefficient names must be strings, got {name!r}")
        coefficients = {name: _json_number(value, f"coefficient {name!r}")
                        for name, value in self.coefficients.items()}
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "intercept", _json_number(self.intercept, "'intercept'"))
        if not all(map(math.isfinite, (*coefficients.values(), self.intercept))):
            raise UsageError("bad coefficients record: every value must be a finite number")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineCoefficients":
        return cls(**_json_record(cls, data, "coefficients record"))


class _RunStatistics:
    """The statistics of each session of a run (see ``model._SessionBatch.runs``), as attributes.

    The session starts, which every model reads, are computed up front; each statistic, and
    each other intermediate it needs, when first read, and at most once.
    """

    def __init__(self, run: _SessionBatch) -> None:
        self.lengths, self.q, self.stall_count = run.lengths, run.quality, run.n_stalls
        self.durations, self.n = run.durations, len(run.lengths)
        self.starts = np.cumsum(self.lengths) - self.lengths

    @cached_property
    def quality_order(self) -> np.ndarray:
        # The segments by session, then quality, as ``np.lexsort((q, rows))`` orders them: a
        # stable sort by quality, then by session rows in their narrowest dtype, which numpy
        # radix-sorts.
        order = np.argsort(self.q, kind="stable")
        rows = np.repeat(np.arange(self.n, dtype=np.min_scalar_type(self.n)), self.lengths)
        return order[np.argsort(rows[order], kind="stable")]

    @cached_property
    def median_quality(self) -> np.ndarray:
        # Each session's qualities in ascending order, for its two middle values.
        ordered = self.q[self.quality_order]
        starts, lengths = self.starts, self.lengths
        return (ordered[starts + (lengths - 1) // 2] + ordered[starts + lengths // 2]) / 2

    @cached_property
    def min_quality(self) -> np.ndarray:
        return np.minimum.reduceat(self.q, self.starts)

    @cached_property
    def switch_count(self) -> np.ndarray:
        return _switch_counts(self.lengths, self.q)

    @cached_property
    def mean_quality(self) -> np.ndarray:
        return np.add.reduceat(self.q, self.starts) / self.lengths

    @cached_property
    def std_quality(self) -> np.ndarray:
        deviations = self.q - np.repeat(self.mean_quality, self.lengths)
        return np.sqrt(np.add.reduceat(deviations * deviations, self.starts) / self.lengths)

    @property
    def weighted_quality_sum(self) -> np.ndarray:
        # Uniform segment durations: weighting each quality value by its
        # share of presence time reduces to the arithmetic mean.
        return self.mean_quality

    @cached_property
    def mean_sq_down_amplitude(self) -> np.ndarray:
        rows, within = _session_steps(self.lengths)
        deltas = np.diff(self.q)
        down = within & (deltas < 0.0)
        rows = rows[:-1][down]
        squares = np.bincount(rows, deltas[down] ** 2, minlength=self.n)
        return squares / np.maximum(np.bincount(rows, minlength=self.n), 1)

    @cached_property
    def stall_duration_sum(self) -> np.ndarray:
        stall_rows = np.repeat(np.arange(self.n), self.stall_count)
        return np.bincount(stall_rows, self.durations, minlength=self.n)


def _check_statistics(names) -> None:
    """Raise unless each of ``names`` is a statistic that :func:`baseline_matrix` computes."""
    for name in names:
        if not isinstance(name, str) or name not in _KNOWN_STATISTICS:
            raise UsageError(
                f"unknown statistic {name!r}; known statistics: {sorted(_KNOWN_STATISTICS)}"
            )


def baseline_matrix(sessions, names) -> np.ndarray:
    """The named statistics plus an intercept column of ones, one session per row.

    ``sessions`` is a sequence of traces or a ``model._SessionBatch``.  A statistic that
    overflows the float range raises :class:`DegenerateMetricError`.
    """
    _check_statistics(names)
    batch = _batch(sessions)
    matrix = np.ones((len(batch.lengths), len(names) + 1))
    for rows, run in batch.runs():
        statistics = _RunStatistics(run)
        for column, name in enumerate(names):
            matrix[rows, column] = getattr(statistics, name)
    if not np.isfinite(matrix).all():
        row, column = np.argwhere(~np.isfinite(matrix))[0]
        raise DegenerateMetricError(f"session {row}: {names[column]} overflows the float range")
    return matrix
