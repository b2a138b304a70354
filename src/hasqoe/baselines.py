"""Session statistics used by comparison models, with pluggable linear coefficients.

Three published statistic sets are computed:

* ``guo``     — median and minimum segment quality,
* ``vriendt`` — switch count (boundaries whose amplitude bin is nonzero),
                mean and population standard deviation of segment quality,
* ``liu``     — presence-time-weighted quality (uniform segment durations,
                so the arithmetic mean), mean squared down-switch
                amplitude, total stall duration, and stall count.

:func:`baseline_matrix` computes them in numpy over the runs of the
sessions' batch that the histogram features count (``model._SessionBatch``):
the median exactly, as the mean of the two middle values of each
session's sorted qualities, and the sums per session, so the mean,
standard deviation and mean squared down amplitude may differ from a
per-session ``numpy`` call in the last bits.

The coefficients that turn statistics into a MOS prediction are not
reproduced here; they are supplied by the caller or fitted by least
squares (``evaluation.fit_baseline_coefficients``), in either case as a
linear model over :func:`baseline_matrix` (``evaluation.baseline_runner``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import _json_number, _json_record, _runs, _SessionBatch

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

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "coefficients": dict(self.coefficients),
            "intercept": self.intercept,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineCoefficients":
        _json_record(cls, data, "coefficients record")
        try:
            model = data["model"]
            if not isinstance(model, str):
                raise UsageError(f"'model' must be a string, got {model!r}")
            coefficients = cls(
                model=model,
                coefficients={
                    str(k): _json_number(v, f"coefficient {k!r}")
                    for k, v in data["coefficients"].items()
                },
                intercept=_json_number(data.get("intercept", 0.0), "'intercept'"),
            )
        except (KeyError, AttributeError) as exc:
            raise UsageError(f"bad coefficients record: {exc!r}") from None
        values = (*coefficients.coefficients.values(), coefficients.intercept)
        if not all(map(math.isfinite, values)):
            raise UsageError("bad coefficients record: every value must be a finite number")
        return coefficients


def _run_statistics(batch: _SessionBatch) -> dict[str, np.ndarray]:
    """Every statistic of each session of a run (see ``model._SessionBatch.runs``)."""
    lengths, q, n_stalls = batch.lengths, batch.quality, batch.n_stalls
    n = len(lengths)
    starts = np.cumsum(lengths) - lengths
    segment_rows = np.repeat(np.arange(n), lengths)
    # Each session's qualities in ascending order, for its two middle values.
    ordered = q[np.lexsort((q, segment_rows))]
    lower, upper = ordered[starts + (lengths - 1) // 2], ordered[starts + lengths // 2]
    mean = np.add.reduceat(q, starts) / lengths
    deviations = q - np.repeat(mean, lengths)
    deltas = np.diff(q)
    within = np.ones(deltas.size, dtype=bool)
    within[starts[1:] - 1] = False  # the boundary between two sessions
    boundary_rows = segment_rows[:-1]
    down = within & (deltas < 0.0)
    n_down = np.bincount(boundary_rows[down], minlength=n)
    down_squares = np.bincount(boundary_rows[down], deltas[down] ** 2, minlength=n)
    stall_rows = np.repeat(np.arange(n), n_stalls)
    return {
        "median_quality": (lower + upper) / 2,
        "min_quality": np.minimum.reduceat(q, starts),
        # A "switch" is a boundary whose amplitude rounds to a nonzero bin;
        # sub-half-step wobble does not count.
        "switch_count": np.bincount(
            boundary_rows[within & (np.floor(deltas + 0.5) != 0.0)], minlength=n
        ),
        "mean_quality": mean,
        "std_quality": np.sqrt(np.add.reduceat(deviations * deviations, starts) / lengths),
        # Uniform segment durations: weighting each quality value by its
        # share of presence time reduces to the arithmetic mean.
        "weighted_quality_sum": mean,
        "mean_sq_down_amplitude": down_squares / np.maximum(n_down, 1),
        "stall_duration_sum": np.bincount(stall_rows, batch.durations, minlength=n),
        "stall_count": n_stalls,
    }


def baseline_matrix(sessions, names) -> np.ndarray:
    """The named statistics plus an intercept column of ones, one session per row.

    ``sessions`` is a sequence of traces or a ``model._SessionBatch``.
    """
    for name in names:
        if name not in _KNOWN_STATISTICS:
            raise UsageError(
                f"unknown statistic {name!r}; known statistics: {sorted(_KNOWN_STATISTICS)}"
            )
    n_sessions, runs = _runs(sessions)
    matrix = np.ones((n_sessions, len(names) + 1))
    for rows, run in runs:
        statistics = _run_statistics(run)
        for column, name in enumerate(names):
            matrix[rows, column] = statistics[name]
    return matrix
