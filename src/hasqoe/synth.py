"""Seedable synthetic session generator.

Sessions are produced by a random walk over the five integer quality
levels with optional continuous jitter inside each level's bin, plus
Bernoulli stalls at segment boundaries whose durations come from a
named distribution.  The default duration distribution is a mixture
over the six interruption bins (weighted toward sub-second stalls with
a long tail), so large datasets exercise every bin.

All randomness flows from ``rng_seed``; session ``k`` of a dataset uses
the substream ``SeedSequence(rng_seed).spawn(...)[k]``, so generation
is reproducible and sessions are independent.  Each substream makes
three draws: the segment count (when ``n_segments`` is a range), its
rows of one block of uniforms, and the label noise.  The block becomes
the sessions' batch (``model._SessionBatch``), tags and labels at once;
only then is a ``SessionTrace`` built for each session returned.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import UsageError
from .fitting import LabeledDataset
from .model import (
    DEFAULT_INTERRUPTION_EDGES,
    MAX_MOS,
    MIN_MOS,
    ModelWeights,
    SessionTrace,
    _feature_rows,
    _json_integer,
    _json_number,
    _json_record,
    _raw_scores,
    _SessionBatch,
    _switch_bins,
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

    def durations(self, u_bin: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Stall durations from two arrays of uniforms on [0, 1).

        ``u_bin`` picks the bin of a ``bin_mixture``; ``u`` places each
        duration on (low, high], so it never sits on the lower, excluded
        edge of its bin.  Within 2**-53 of 1, ``(high - low) * u`` can
        round up to ``high - low``, so the duration is kept above ``low``.
        """
        p = self.params
        if self.name == "constant":
            return np.full(len(u), float(p["value"]))
        if self.name == "uniform":
            low, high = float(p["low"]), float(p["high"])
        else:
            edges = np.array((0.0, *DEFAULT_INTERRUPTION_EDGES, float(p["tail_max"])))
            chosen = _pick(p["bin_probs"], u_bin)
            low, high = edges[chosen], edges[chosen + 1]
        return np.maximum(high - (high - low) * u, np.nextafter(low, high))

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


#: The columns of a session's uniform block, which has one row per segment.
#: Row 0 picks the initial level; each later row t picks the move to
#: segment t, its step size, and whether the boundary before segment t
#: stalls and for how long.  Every row jitters its segment.
_N_UNIFORMS = 6
_LEVEL, _STEP, _JITTER, _STALL, _STALL_BIN, _STALL_DURATION = range(_N_UNIFORMS)


def _pick(probs, u: np.ndarray) -> np.ndarray:
    """The category each uniform in ``u`` picks, as ``Generator.choice`` picks it.

    A category of probability 0 is never picked: its cumulative
    probability equals the one before it.
    """
    cdf = np.cumsum(probs, dtype=float)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, u, side="right")


def _clamped_walk(levels: np.ndarray, steps: np.ndarray, starts, lengths) -> None:
    """Fill in each session's levels after its first: the level before plus the step, clamped to 1..5.

    The sessions advance in lockstep: step t updates segment t of every
    session that has one, so the walk takes as many numpy operations as
    the longest session has segments, and no padded grid.
    """
    order = np.argsort(lengths, kind="stable")
    lengths, starts = lengths[order], starts[order]
    for t in range(1, int(lengths[-1])):
        rows = starts[np.searchsorted(lengths, t, side="right"):] + t
        levels[rows] = np.minimum(np.maximum(levels[rows - 1] + steps[rows], 1), 5)


def _sessions(config: GeneratorConfig, rngs) -> tuple[_SessionBatch, np.ndarray, np.ndarray]:
    """One session from each generator in ``rngs``: their batch, multi-factor flags and noise."""
    rngs = list(rngs)
    n = config.n_segments
    counts = [rng.integers(n[0], n[1] + 1) for rng in rngs] if isinstance(n, tuple) else repeat(n)
    lengths = np.fromiter(counts, np.intp, len(rngs))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    u = np.empty((ends[-1], _N_UNIFORMS))
    for rng, start, end in zip(rngs, starts.tolist(), ends.tolist()):
        rng.random(out=u[start:end])
    noise = np.fromiter((rng.standard_normal() for rng in rngs), float, len(rngs))  # always drawn
    del rngs  # 100,000 generators hold about 90 MB

    walk = config.quality_walk
    moves = _pick((walk.p_down, walk.p_stay, walk.p_up), u[:, _LEVEL]) - 1
    levels = np.empty(len(u), np.intp)
    levels[starts] = 1 + _pick(walk.initial_probs, u[starts, _LEVEL])
    _clamped_walk(levels, moves * (1 + _pick(walk.step_probs, u[:, _STEP])), starts, lengths)
    quality = np.clip(levels + walk.jitter * (2.0 * u[:, _JITTER] - 1.0), MIN_MOS, MAX_MOS)

    stalled = u[:, _STALL] < config.stall_prob_per_boundary
    stalled[starts] = False  # no boundary comes before a session's first segment
    rows = np.flatnonzero(stalled)
    durations = config.stall_durations.durations(u[rows, _STALL_BIN], u[rows, _STALL_DURATION])
    stall_session = np.searchsorted(ends, rows, side="right")
    n_stalls = np.bincount(stall_session, minlength=len(lengths))
    after = rows - starts[stall_session]

    # Multi-factor: a step with a nonzero amplitude bin, and a stall.
    # moved[k] counts such steps among the first k; a session's own steps
    # are those from its start to its end - 2.
    moved = np.concatenate(([0], np.cumsum(_switch_bins(quality)[1] != 0)))
    multi_factor = (moved[ends - 1] > moved[starts]) & (n_stalls > 0)
    return _SessionBatch(lengths, quality, n_stalls, after, durations), multi_factor, noise


def _tags(multi_factor: np.ndarray) -> list[str]:
    """Each session's tag, from its multi-factor flag."""
    return np.where(multi_factor, "multi-factor", "single-factor").tolist()


def generate_session(
    config: GeneratorConfig, rng: np.random.Generator | None = None
) -> SessionTrace:
    """Generate one session; without an explicit ``rng``, seeds from the config."""
    rng = np.random.default_rng(config.rng_seed) if rng is None else rng
    batch, multi_factor, _ = _sessions(config, (rng,))
    return batch.traces([0], [None], _tags(multi_factor))[0]


def generate_sessions(config: GeneratorConfig, n_sessions: int) -> tuple[SessionTrace, ...]:
    """Generate ``n_sessions`` unlabeled sessions from per-session substreams."""
    if n_sessions < 1:
        raise UsageError(f"n_sessions {n_sessions} must be >= 1")
    substreams = np.random.SeedSequence(config.rng_seed).spawn(n_sessions)
    batch, multi_factor, _ = _sessions(config, map(np.random.default_rng, substreams))
    return tuple(batch.traces(range(n_sessions), [None] * n_sessions, _tags(multi_factor)))


def _round_size(needed: int, attempts: int, kept: int) -> int:
    """How many candidates to draw for ``needed`` more sessions, after ``kept`` of ``attempts``.

    As many as the share kept so far predicts, at most 8 per session
    still needed.  Which sessions are kept does not depend on it.
    """
    if not attempts:
        return needed
    return -(-needed * attempts // kept) if 8 * kept >= attempts else 8 * needed


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
    falls below the 1.0 floor are discarded, which keeps the labels an
    exactly linear function of the features — the setting a
    planted-weights recovery needs.  Candidates come in rounds from
    consecutive substreams, and the first ``n_sessions`` kept are the
    dataset, so session k is the same whatever ``n_sessions``.
    """
    if n_sessions < 1:
        raise UsageError(f"n_sessions {n_sessions} must be >= 1")
    if not 0.0 <= noise_std < math.inf:  # NaN fails
        raise UsageError(f"noise_std {noise_std} must be a finite number >= 0")
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
        needed = n_sessions - len(sessions)
        size = min(_round_size(needed, attempts, len(sessions)), max_attempts - attempts)
        attempts += size
        batch, multi_factor, noise = _sessions(config, map(np.random.default_rng, root.spawn(size)))
        raw = _raw_scores(_feature_rows(batch.runs(), size), weights)
        labels = np.clip(np.maximum(raw, MIN_MOS) + noise_std * noise, MIN_MOS, MAX_MOS)
        # "not below 1", as the floor reads it: a NaN score from overflowing
        # weights is kept, and its label then fails validation.
        keep = np.flatnonzero(~(raw < MIN_MOS)) if skip_clamped else np.arange(size)
        keep = keep[:needed].tolist()
        sessions.extend(batch.traces(keep, labels[keep].tolist(), _tags(multi_factor[keep])))
    return LabeledDataset(tuple(sessions))
