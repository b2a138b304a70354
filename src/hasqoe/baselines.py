"""Session statistics used by comparison models, with pluggable linear coefficients.

Three published statistic sets are computed:

* ``guo``     — median and minimum segment quality,
* ``vriendt`` — switch count (boundaries whose amplitude bin is nonzero),
                mean and population standard deviation of segment quality,
* ``liu``     — presence-time-weighted quality (uniform segment durations,
                so the arithmetic mean), mean squared down-switch
                amplitude, total stall duration, and stall count.

The coefficients that turn statistics into a MOS prediction are not
reproduced here; they are supplied by the caller or fitted by ordinary
least squares on a labeled dataset.  ``evaluation.baseline_runner``
turns either into a linear model over :func:`baseline_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import UsageError
from .fitting import LabeledDataset, solve
from .model import SessionTrace, _json_number, classify_switch

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


@dataclass(frozen=True)
class BaselineFeatures:
    """Per-session statistics feeding the comparison models."""

    median_quality: float
    min_quality: float
    switch_count: int
    mean_quality: float
    std_quality: float
    weighted_quality_sum: float
    mean_sq_down_amplitude: float
    stall_duration_sum: float
    stall_count: int

    def as_dict(self) -> dict[str, float]:
        """Every statistic as a float, in field order."""
        return {name: float(value) for name, value in vars(self).items()}


def extract_baseline_features(trace: SessionTrace) -> BaselineFeatures:
    """Compute all comparison-model statistics for one session."""
    q = np.asarray(trace.segments, dtype=float)
    deltas = np.diff(q)
    # A "switch" is a boundary whose amplitude rounds to a nonzero bin;
    # sub-half-step wobble does not count.
    switch_count = sum(
        1
        for before, after in zip(trace.segments, trace.segments[1:])
        if classify_switch(before, after).amplitude_bin != 0
    )
    down = deltas[deltas < 0.0]
    mean_sq_down = float(np.mean(down**2)) if down.size else 0.0
    durations = [e.duration_s for e in trace.interruptions]
    return BaselineFeatures(
        median_quality=float(np.median(q)),
        min_quality=float(q.min()),
        switch_count=switch_count,
        mean_quality=float(q.mean()),
        std_quality=float(q.std()),
        # Uniform segment durations: weighting each quality value by its
        # share of presence time reduces to the arithmetic mean.
        weighted_quality_sum=float(q.mean()),
        mean_sq_down_amplitude=mean_sq_down,
        stall_duration_sum=float(sum(durations)),
        stall_count=len(durations),
    )


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
        if not isinstance(data, dict):
            raise UsageError("coefficients record must be an object")
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


def baseline_matrix(sessions, names) -> np.ndarray:
    """The named statistics plus an intercept column of ones, one session per row."""
    known = [f.name for f in fields(BaselineFeatures)]
    for name in names:
        if name not in known:
            raise UsageError(f"unknown statistic {name!r}; known statistics: {sorted(known)}")
    rows = []
    for session in sessions:
        stats = extract_baseline_features(session).as_dict()
        rows.append([stats[name] for name in names] + [1.0])
    return np.asarray(rows, dtype=float)


def fit_baseline_coefficients(dataset: LabeledDataset, model: str) -> BaselineCoefficients:
    """Fit one comparison model's coefficients by OLS on a labeled dataset."""
    if model not in MODEL_STATISTICS:
        raise UsageError(
            f"unknown baseline model {model!r}; known models: {sorted(MODEL_STATISTICS)}"
        )
    names = MODEL_STATISTICS[model]
    solution, _ = solve(baseline_matrix(dataset.sessions, names), dataset.labels())
    return BaselineCoefficients(
        model=model,
        coefficients=dict(zip(names, (float(v) for v in solution[:-1]))),
        intercept=float(solution[-1]),
    )
