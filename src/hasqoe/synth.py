"""Seedable synthetic session generator.

Sessions are produced by a random walk over the five integer quality
levels with optional continuous jitter inside each level's bin, plus
Bernoulli stalls at segment boundaries whose durations come from a
named distribution.  The default duration distribution is a mixture
over the six interruption bins (weighted toward sub-second stalls with
a long tail), so large datasets exercise every bin.

All randomness flows from ``rng_seed``; session ``k`` of a dataset uses
the substream ``SeedSequence(rng_seed).spawn(...)[k]``, so generation
is reproducible and sessions are independent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .fitting import LabeledDataset
from .model import (
    DEFAULT_INTERRUPTION_EDGES,
    InterruptionEvent,
    ModelWeights,
    SessionTrace,
    _json_integer,
    _json_number,
    classify_switch,
    extract_features,
    interruption_degradation,
    perceptual_quality,
)

#: Default share of stalls per duration bin: most stalls are short,
#: roughly an eighth are under a quarter second and a tenth exceed 3 s.
DEFAULT_BIN_PROBS = (0.13, 0.18, 0.20, 0.20, 0.19, 0.10)

#: The parameters of each stall-duration distribution, with their defaults.
_STALL_PARAMS: dict[str, dict] = {
    "bin_mixture": {"bin_probs": DEFAULT_BIN_PROBS, "tail_max": 6.0},
    "uniform": {"low": 0.1, "high": 4.0},
    "constant": {"value": 1.0},
}


def _check_distribution(probs, label: str) -> tuple[float, ...]:
    probs = tuple(float(p) for p in probs)
    if not all(p >= 0.0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:  # NaN fails
        raise UsageError(f"{label} {probs!r} must be non-negative and sum to 1")
    return probs


def _json_record(cls, data, label: str) -> dict:
    """A JSON object holding only field names of the dataclass ``cls``, as a dict."""
    if not isinstance(data, dict):
        raise UsageError(f"{label} must be an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise UsageError(f"unknown {label} keys: {sorted(unknown)}")
    return dict(data)


def _json_numbers(values, label: str) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise UsageError(f"{label} must be an array of numbers, got {values!r}")
    return [_json_number(v, label) for v in values]


@dataclass(frozen=True)
class QualityWalk:
    """Random-walk parameters for the per-segment quality series."""

    initial_probs: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.2)
    p_down: float = 0.30
    p_stay: float = 0.40
    p_up: float = 0.30
    step_probs: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1)  # step sizes 1..4
    jitter: float = 0.2

    def __post_init__(self) -> None:
        for name in ("initial_probs", "step_probs"):
            object.__setattr__(self, name, _check_distribution(getattr(self, name), name))
        _check_distribution((self.p_down, self.p_stay, self.p_up), "move probabilities")
        if len(self.initial_probs) != 5:
            raise UsageError("initial_probs must have 5 entries")
        if len(self.step_probs) != 4:
            raise UsageError("step_probs must have 4 entries (step sizes 1..4)")
        if not 0.0 <= self.jitter <= 0.49:
            # Larger jitter would let a value cross into the neighbouring bin.
            raise UsageError(f"jitter {self.jitter} must be in [0, 0.49]")

    @classmethod
    def from_dict(cls, data: dict) -> "QualityWalk":
        return cls(**{
            key: (_json_numbers if key.endswith("_probs") else _json_number)(value, f"{key!r}")
            for key, value in _json_record(cls, data, "quality_walk").items()
        })


@dataclass(frozen=True)
class StallDurations:
    """Named stall-duration distribution.

    * ``bin_mixture`` — pick an interruption bin per ``bin_probs`` then a
      duration inside it (``tail_max`` caps the open last bin),
    * ``uniform``     — uniform on (low, high],
    * ``constant``    — always ``value``.

    ``params`` may set any of the parameters named above; once the
    distribution is made it holds all of them, defaults filled in.
    """

    name: str = "bin_mixture"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in tuple(_STALL_PARAMS):
            known = ", ".join(_STALL_PARAMS)
            raise UsageError(f"unknown stall duration distribution {self.name!r}; known: {known}")
        known = _STALL_PARAMS[self.name]
        if not isinstance(self.params, dict) or not set(self.params) <= set(known):
            raise UsageError(f"{self.name} params must be an object with keys from {sorted(known)}")
        p = {**known, **self.params}
        if self.name == "constant" and not 0.0 < p["value"] < math.inf:
            raise UsageError(f"stall duration {p['value']} must be positive")
        if self.name == "uniform" and not 0.0 < p["low"] <= p["high"] < math.inf:
            raise UsageError(f"bad uniform stall range ({p['low']}, {p['high']}]")
        if self.name == "bin_mixture":
            if len(_check_distribution(p["bin_probs"], "bin_probs")) != len(DEFAULT_BIN_PROBS):
                raise UsageError(f"bin_probs must have {len(DEFAULT_BIN_PROBS)} entries")
            last_edge = DEFAULT_INTERRUPTION_EDGES[-1]
            if not last_edge < p["tail_max"] < math.inf:
                raise UsageError(f"tail_max {p['tail_max']} must exceed {last_edge}")
        object.__setattr__(self, "params", p)

    def sample(self, rng: np.random.Generator) -> float:
        p = self.params
        if self.name == "constant":
            return float(p["value"])
        if self.name == "uniform":
            low, high = float(p["low"]), float(p["high"])
        else:
            edges = (0.0, *DEFAULT_INTERRUPTION_EDGES, float(p["tail_max"]))
            chosen = int(rng.choice(len(edges) - 1, p=p["bin_probs"]))
            low, high = edges[chosen], edges[chosen + 1]
        # Sample on (low, high] so a duration never sits on the lower,
        # excluded edge of its bin.
        return high - (high - low) * float(rng.random())

    @classmethod
    def from_dict(cls, data: dict) -> "StallDurations":
        kwargs = _json_record(cls, data, "stall_durations")
        params = kwargs.get("params")
        if isinstance(params, dict):
            for key, value in params.items():
                (_json_numbers if key == "bin_probs" else _json_number)(value, f"{key!r}")
        return cls(**kwargs)


def _json_segment_count(value) -> int | tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_json_integer(v, "'n_segments'") for v in value)
    return _json_integer(value, "'n_segments'")


@dataclass(frozen=True)
class GeneratorConfig:
    """Full recipe for synthetic session generation.

    ``n_segments`` is a fixed count or an inclusive (low, high) range.
    The default range starts at 1: single-segment, stall-free sessions
    have no events at all, and their presence is what makes the
    22-column design matrix of a generated dataset full rank.
    """

    n_segments: int | tuple[int, int] = (1, 40)
    quality_walk: QualityWalk = field(default_factory=QualityWalk)
    stall_prob_per_boundary: float = 0.12
    stall_durations: StallDurations = field(default_factory=StallDurations)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        n = self.n_segments
        if isinstance(n, (list, tuple)):
            if len(n) != 2:
                raise UsageError(f"n_segments range {n!r} must be (low, high)")
            low, high = int(n[0]), int(n[1])
            if low < 1 or high < low:
                raise UsageError(f"bad n_segments range ({low}, {high})")
            object.__setattr__(self, "n_segments", (low, high))
        else:
            if int(n) < 1:
                raise UsageError(f"n_segments {n} must be >= 1")
            object.__setattr__(self, "n_segments", int(n))
        if not 0.0 <= self.stall_prob_per_boundary <= 1.0:
            raise UsageError(
                f"stall_prob_per_boundary {self.stall_prob_per_boundary} must be in [0, 1]"
            )
        if self.rng_seed < 0:
            raise UsageError(f"rng_seed {self.rng_seed} must be >= 0")

    def to_dict(self) -> dict:
        """The config as nested dicts, which :meth:`from_dict` reads back."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorConfig":
        readers = {
            "n_segments": _json_segment_count,
            "quality_walk": QualityWalk.from_dict,
            "stall_prob_per_boundary": lambda v: _json_number(v, "'stall_prob_per_boundary'"),
            "stall_durations": StallDurations.from_dict,
            "rng_seed": lambda v: _json_integer(v, "'rng_seed'"),
        }
        kwargs = _json_record(cls, data, "generator config")
        return cls(**{key: readers[key](value) for key, value in kwargs.items()})


def _next_level(level: int, walk: QualityWalk, rng: np.random.Generator) -> int:
    move = int(rng.choice(3, p=(walk.p_down, walk.p_stay, walk.p_up)))
    if move == 1:
        return level
    step = 1 + int(rng.choice(4, p=walk.step_probs))
    target = level - step if move == 0 else level + step
    return min(max(target, 1), 5)


def generate_session(
    config: GeneratorConfig, rng: np.random.Generator | None = None
) -> SessionTrace:
    """Generate one session; without an explicit ``rng``, seeds from the config."""
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    walk = config.quality_walk

    if isinstance(config.n_segments, tuple):
        low, high = config.n_segments
        count = int(rng.integers(low, high + 1))
    else:
        count = config.n_segments

    level = 1 + int(rng.choice(5, p=walk.initial_probs))
    segments: list[float] = []
    for t in range(count):
        if t > 0:
            level = _next_level(level, walk, rng)
        value = float(level)
        if walk.jitter > 0.0:
            value += float(rng.uniform(-walk.jitter, walk.jitter))
        segments.append(min(max(value, 1.0), 5.0))

    interruptions: list[InterruptionEvent] = []
    for boundary in range(1, count):
        if float(rng.random()) < config.stall_prob_per_boundary:
            interruptions.append(
                InterruptionEvent(boundary, config.stall_durations.sample(rng))
            )

    has_variation = any(
        classify_switch(a, b).amplitude_bin != 0 for a, b in zip(segments, segments[1:])
    )
    tag = "multi-factor" if has_variation and interruptions else "single-factor"
    return SessionTrace(tuple(segments), tuple(interruptions), tag=tag)


def generate_sessions(config: GeneratorConfig, n_sessions: int) -> tuple[SessionTrace, ...]:
    """Generate ``n_sessions`` unlabeled sessions from per-session substreams."""
    if n_sessions < 1:
        raise UsageError(f"n_sessions {n_sessions} must be >= 1")
    substreams = np.random.SeedSequence(config.rng_seed).spawn(n_sessions)
    return tuple(
        generate_session(config, np.random.default_rng(s)) for s in substreams
    )


def generate_labeled_dataset(
    config: GeneratorConfig,
    n_sessions: int,
    weights: ModelWeights,
    *,
    noise_std: float = 0.0,
    skip_clamped: bool = False,
) -> LabeledDataset:
    """Generate sessions labeled by the histogram model's predictions.

    Labels are the model output plus optional Gaussian noise, clipped to
    [1, 5].  With ``skip_clamped=True`` sessions whose raw linear score
    falls below the 1.0 floor are discarded and regenerated, which keeps
    the labels an exactly linear function of the features — the setting
    a planted-weights recovery needs.
    """
    if n_sessions < 1:
        raise UsageError(f"n_sessions {n_sessions} must be >= 1")
    if noise_std < 0.0:
        raise UsageError(f"noise_std {noise_std} must be >= 0")
    root = np.random.SeedSequence(config.rng_seed)
    sessions: list[SessionTrace] = []
    attempts = 0
    max_attempts = 20 * n_sessions + 100
    while len(sessions) < n_sessions:
        if attempts >= max_attempts:
            raise UsageError(
                f"gave up after {attempts} attempts: config almost always "
                "produces clamp-active sessions"
            )
        attempts += 1
        rng = np.random.default_rng(root.spawn(1)[0])
        trace = generate_session(config, rng)
        features = extract_features(trace)
        raw = perceptual_quality(features, weights) - interruption_degradation(
            features, weights
        )
        if skip_clamped and raw < 1.0:
            continue
        label = max(raw, 1.0)
        if noise_std > 0.0:
            label += noise_std * float(rng.standard_normal())
        label = min(max(label, 1.0), 5.0)
        sessions.append(dataclasses.replace(trace, ground_truth_mos=label))
    return LabeledDataset(tuple(sessions))
