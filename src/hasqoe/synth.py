"""Seedable synthetic session generator.

Sessions are produced by a random walk over the five integer quality
levels with optional continuous jitter inside each level's bin, plus
Bernoulli stalls at segment boundaries whose durations come from a
named distribution.  The default duration distribution is a mixture
over the six interruption bins (weighted toward sub-second stalls with
a long tail), so large datasets exercise every bin.

All randomness flows from ``rng_seed``; session ``k`` of a dataset uses
the substream ``SeedSequence(rng_seed).spawn(...)[k]`` of numpy's PCG64,
so generation is reproducible and sessions are independent.  Each
substream draws the segment count (none for a fixed ``n_segments``),
then its rows of one block of uniforms, and the label noise only when
``noise_std > 0``.  The count and the block are computed without
``numpy.random``, for every session of a round at once (``_pcg64``); the
noise, when drawn, comes from numpy's own generator.  One round loop,
:func:`generate_columns`, draws every dataset, at most ``_ROUND_SESSIONS``
sessions a round and fewer long ones: the block becomes the round's batch
with its tags (``model._SessionBatch``) at once, labeled and kept or
skipped only when weights are given.  A labeled dataset stays a batch; only
:func:`generate_session` and :func:`generate_sessions` build traces.  The
``multi-factor`` tag (a stall and a switch) reads ``model``'s switch rule.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import _pcg64
from .errors import UsageError, ValidationError
from .fitting import LabeledDataset
from .model import (
    DEFAULT_INTERRUPTION_EDGES,
    MAX_MOS,
    MIN_MOS,
    ModelWeights,
    _concatenate,
    _json_integer,
    _json_number,
    _json_numbers,
    _json_record,
    _raw_scores,
    _SessionBatch,
    _switch_counts,
    feature_matrix,
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


def _check_distribution(probs: tuple[float, ...], label: str) -> None:
    if not all(p >= 0.0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:  # NaN fails
        raise UsageError(f"{label} {probs!r} must be non-negative and sum to 1")


@dataclass(frozen=True)
class QualityWalk:
    """Random-walk parameters for the per-segment quality series, held as floats."""

    initial_probs: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.2)
    p_down: float = 0.30
    p_stay: float = 0.40
    p_up: float = 0.30
    step_probs: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1)  # step sizes 1..4
    jitter: float = 0.2

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            read = _json_numbers if f.name.endswith("_probs") else _json_number
            object.__setattr__(self, f.name, read(getattr(self, f.name), repr(f.name)))
        for name in ("initial_probs", "step_probs"):
            _check_distribution(getattr(self, name), name)
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
        return cls(**_json_record(cls, data, "quality_walk"))


@dataclass(frozen=True)
class StallDurations:
    """Named stall-duration distribution.

    * ``bin_mixture`` — pick an interruption bin per ``bin_probs`` then a
      duration inside it (``tail_max`` caps the open last bin),
    * ``uniform``     — uniform on (low, high],
    * ``constant``    — always ``value``.

    ``params`` may set any of the parameters named above; once the
    distribution is made it holds all of them as floats, defaults filled in.
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
        p = {
            key: (_json_numbers if key == "bin_probs" else _json_number)(value, repr(key))
            for key, value in {**known, **self.params}.items()
        }
        if self.name == "constant" and not 0.0 < p["value"] < math.inf:
            raise UsageError(f"stall duration {p['value']} must be positive")
        if self.name == "uniform" and not 0.0 < p["low"] <= p["high"] < math.inf:
            raise UsageError(f"bad uniform stall range ({p['low']}, {p['high']}]")
        if self.name == "bin_mixture":
            _check_distribution(p["bin_probs"], "bin_probs")
            if len(p["bin_probs"]) != len(DEFAULT_BIN_PROBS):
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
        A ``constant`` is the one-point range ``low = high = value``, which
        the formula gives back exactly.
        """
        p = self.params
        if self.name == "constant":
            low = high = p["value"]
        elif self.name == "uniform":
            low, high = p["low"], p["high"]
        else:
            edges = np.array((0.0, *DEFAULT_INTERRUPTION_EDGES, p["tail_max"]))
            chosen = _pick(p["bin_probs"], u_bin)
            low, high = edges[chosen], edges[chosen + 1]
        return np.maximum(high - (high - low) * u, np.nextafter(low, high))

    @classmethod
    def from_dict(cls, data: dict) -> "StallDurations":
        return cls(**_json_record(cls, data, "stall_durations"))


#: The bound on ``high - low`` of an ``n_segments`` range: the edge of the
#: 32-bit method numpy draws a count by, which ``_pcg64.integers`` computes.
_MAX_SPAN = 2**32 - 1
#: The bound on a session's segment count, fixed or a range's high: a round's
#: uniforms, 6 a segment for ``_ROUND_SESSIONS`` sessions, stay countable in int64.
_MAX_SEGMENTS = 2**40


@dataclass(frozen=True)
class GeneratorConfig:
    """Full recipe for synthetic session generation.

    ``n_segments`` is a fixed count or an inclusive (low, high) range, at most 2**40.
    The default range starts at 1: single-segment, stall-free sessions
    have no events at all, and their presence is what makes the
    22-column design matrix of a generated dataset full rank.  Counts and
    ``rng_seed`` are whole numbers, read exactly at any size.
    """

    n_segments: int | tuple[int, int] = (1, 40)
    quality_walk: QualityWalk = field(default_factory=QualityWalk)
    stall_prob_per_boundary: float = 0.12
    stall_durations: StallDurations = field(default_factory=StallDurations)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        n = self.n_segments
        if isinstance(n, (list, tuple)):
            n = tuple(_json_integer(v, "'n_segments'") for v in n)
            if len(n) != 2:
                raise UsageError(f"n_segments range {n!r} must be (low, high)")
            low, high = n
            if low < 1 or high < low:
                raise UsageError(f"bad n_segments range ({low}, {high})")
            if high - low >= _MAX_SPAN:
                raise UsageError(
                    f"n_segments range ({low}, {high}) is too wide: "
                    f"high - low must be below {_MAX_SPAN}"
                )
        else:
            n = high = _json_integer(n, "'n_segments'")
            if n < 1:
                raise UsageError(f"n_segments {n} must be >= 1")
        if high > _MAX_SEGMENTS:
            raise UsageError(f"n_segments {n} must not exceed 2**40 segments")
        object.__setattr__(self, "n_segments", n)
        for name, read in (("stall_prob_per_boundary", _json_number), ("rng_seed", _json_integer)):
            object.__setattr__(self, name, read(getattr(self, name), repr(name)))
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
        kwargs = _json_record(cls, data, "generator config")
        for name, record in (("quality_walk", QualityWalk), ("stall_durations", StallDurations)):
            if name in kwargs:
                kwargs[name] = record.from_dict(kwargs[name])
        return cls(**kwargs)


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


#: The tag of a single-factor and of a multi-factor session, indexed by the multi-factor flag;
#: every generated session's tag is one of these two objects.
_TAG_NAMES = np.array(["single-factor", "multi-factor"], dtype=object)


def _sessions(config: GeneratorConfig, lanes: _pcg64.Lanes, draw_noise: bool):
    """One session from each substream in ``lanes``: their batch (NaN labels, tags) and label noise.

    Unless ``draw_noise``, the noise is not drawn and reads 0.0.
    """
    # A fixed count is the one-value range (n, n), which draws nothing.
    lengths, lanes = _pcg64.integers(lanes, *np.broadcast_to(config.n_segments, 2).tolist())
    u = _pcg64.random(lanes, _N_UNIFORMS * lengths).reshape(-1, _N_UNIFORMS)
    noise = _pcg64.standard_normal(lanes, _N_UNIFORMS * lengths) if draw_noise else 0.0
    ends = np.cumsum(lengths)
    starts = ends - lengths

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

    multi_factor = (_switch_counts(lengths, quality) > 0) & (n_stalls > 0)  # a switch and a stall
    labels, tags = np.full(len(lengths), math.nan), _TAG_NAMES[multi_factor.astype(np.intp)]
    return _SessionBatch(lengths, quality, n_stalls, after, durations, labels, tags), noise


#: Most sessions drawn in one round.  A round holds its sessions' block of
#: uniforms and its columns' temporaries, so where a recipe's sessions run
#: longer than the default's 40 segments, a round holds at most
#: ``40 * _ROUND_SESSIONS`` segments, each session counted at the recipe's
#: longest, or one session.  Which sessions come out does not depend on it.
_ROUND_SESSIONS = 8192


def generate_session(config: GeneratorConfig):
    """Generate one ``SessionTrace`` from the config's unspawned seed."""
    from .traces import traces_of

    return traces_of(_sessions(config, _pcg64.seed(config.rng_seed), False)[0])[0]


def generate_sessions(config: GeneratorConfig, n_sessions: int) -> tuple:
    """Generate ``n_sessions`` unlabeled ``SessionTrace`` objects from per-session substreams."""
    from .traces import traces_of

    return tuple(traces_of(generate_columns(config, n_sessions)))


def _round_size(needed: int, attempts: int, kept: int) -> int:
    """How many candidates to draw for ``needed`` more sessions, after ``kept`` of ``attempts``.

    As many as the share kept so far predicts, at most 8 per session
    still needed.  Which sessions are kept does not depend on it.
    """
    if not attempts:
        return needed
    return -(-needed * attempts // kept) if 8 * kept >= attempts else 8 * needed


def generate_columns(
    config: GeneratorConfig,
    n_sessions: int,
    weights: ModelWeights | None = None,
    *,
    noise_std: float = 0.0,
    skip_clamped: bool = False,
) -> _SessionBatch:
    """Generate a batch of sessions with their tags, labeled only if given ``weights``.

    Without ``weights`` every session is kept with a NaN label.  With
    them, labels are the model output plus optional Gaussian noise,
    clipped to [1, 5], and ``skip_clamped=True`` discards sessions whose
    raw linear score falls below the 1.0 floor, which keeps the labels an
    exactly linear function of the features — the setting a
    planted-weights recovery needs.  Candidates come in rounds from
    consecutive substreams, and the first ``n_sessions`` kept are the
    dataset, so session k is the same whatever ``n_sessions``.
    """
    n_sessions = _json_integer(n_sessions, "'n_sessions'")
    if n_sessions < 1:
        raise UsageError(f"n_sessions {n_sessions} must be >= 1")
    if not 0.0 <= noise_std < math.inf:  # NaN fails
        raise UsageError(f"noise_std {noise_std} must be a finite number >= 0")
    if weights is None and (noise_std or skip_clamped):
        raise UsageError("noise_std and skip_clamped only make sense with weights")
    kept = []  # the kept sessions of each round, as a batch
    n_kept = attempts = 0
    round_cap = max(1, min(_ROUND_SESSIONS, 40 * _ROUND_SESSIONS // int(np.max(config.n_segments))))
    max_attempts = 20 * n_sessions + 100
    while n_kept < n_sessions:
        if attempts >= max_attempts:
            raise UsageError(
                f"gave up after {attempts} attempts: config almost always "
                "produces clamp-active sessions"
            )
        needed = n_sessions - n_kept
        size = min(_round_size(needed, attempts, n_kept), max_attempts - attempts, round_cap)
        lanes = _pcg64.seed(config.rng_seed, np.arange(attempts, attempts + size))
        batch, noise = _sessions(config, lanes, noise_std > 0.0)
        attempts += size
        if weights is not None:
            raw = _raw_scores(feature_matrix(batch), weights)
            labels = np.clip(np.maximum(raw, MIN_MOS) + noise_std * noise, MIN_MOS, MAX_MOS)
            # "not below 1", as the floor reads it: a NaN score from overflowing
            # weights is kept, and its label then fails the check below.
            keep = ~(raw < MIN_MOS) if skip_clamped else np.ones(size, dtype=bool)
            keep &= np.cumsum(keep) <= needed
            # NaN labels first, then a kept score that overflowed, which the clip would hide.
            bad = np.concatenate((labels[keep & np.isnan(labels)], raw[keep & np.isinf(raw)]))
            if bad.size:
                raise ValidationError(f"ground-truth MOS {bad[0]} outside [{MIN_MOS}, {MAX_MOS}]")
            batch = batch._replace(labels=labels).select(keep)
        kept.append(batch)
        n_kept += len(batch.lengths)
    return _concatenate(kept)


def generate_labeled_dataset(
    config: GeneratorConfig,
    n_sessions: int,
    weights: ModelWeights,
    *,
    noise_std: float = 0.0,
    skip_clamped: bool = False,
) -> LabeledDataset:
    """:func:`generate_columns` as a labeled dataset, which builds its traces on request."""
    return LabeledDataset(generate_columns(config, n_sessions, weights, noise_std=noise_std,
                                           skip_clamped=skip_clamped))
