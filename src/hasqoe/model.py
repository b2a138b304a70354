"""Histogram model of streaming-session QoE.

A session is described by the per-segment quality values it played (MOS
units, continuous in [1, 5]) and by the playback interruptions it
suffered.  The model summarises a session as 22 normalized histogram
frequencies:

* 5 quality-level bins (share of segments played at each MOS level),
* 10 down-switch bins keyed by (starting level, drop amplitude),
* 1 grouped bin for quality maintaining and up-switches,
* 6 interruption-duration bins.

Predicted QoE is a weighted linear combination of those frequencies,
floored at 1.0 MOS.  ``paper_weights`` returns the published reference
weight set bundled with the package.

Features come from one batch pass: :func:`feature_matrix` bins the
concatenated segments and stalls of many sessions in numpy and counts
them per session, taking runs of whole sessions of a few thousand
segments at a time so its temporaries stay small whatever the dataset
size.  The comparison models' statistics (``baselines.baseline_matrix``)
are computed over the same runs.  :func:`extract_features` is a batch of
one, and :func:`predict_matrix` scores a feature matrix in
:func:`predict`'s summation order.  :func:`bin_quality`,
:func:`classify_switch` and :func:`bin_interruption` are the per-value
definitions of the bins that pass counts.

The 22-slot layout is defined once, by ``FEATURE_NAMES`` and the group
slices next to it, and the bins are fixed: the interruption edges are
``DEFAULT_INTERRUPTION_EDGES``, so a weights file always means the same
bins.  The JSON readers take ``true``, strings and ``null`` for no
number (exit 1); an overflowing prediction exits 3.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from itertools import chain

import numpy as np

from .errors import UsageError, ValidationError

MIN_MOS = 1.0
MAX_MOS = 5.0

#: Interruption-duration bin edges in seconds.  Bins are left-open,
#: right-closed: (0, 0.25], (0.25, 0.5], (0.5, 1], (1, 2], (2, 3], (3, inf).
DEFAULT_INTERRUPTION_EDGES: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 3.0)

#: The (starting bin, amplitude bin) pairs a down-switch can land in.
#: From level i the deepest possible drop is to level 1, i.e. amplitude
#: -(i - 1); level 1 has no room to switch down at all.
DOWN_SWITCH_BINS: tuple[tuple[int, int], ...] = (
    (2, -1),
    (3, -2), (3, -1),
    (4, -3), (4, -2), (4, -1),
    (5, -4), (5, -3), (5, -2), (5, -1),
)

#: The name of each of the 22 slots of a feature row or weight vector, in
#: canonical order: the 5 quality levels, the ``DOWN_SWITCH_BINS``, the
#: grouped maintaining/up-switch bin and the 6 interruption-duration bins.
#: Feature CSV columns carry these names.
FEATURE_NAMES: tuple[str, ...] = (
    *(f"quality_bin_{n}" for n in range(1, 6)),
    *(f"down_switch_{i}_{j}" for i, j in DOWN_SWITCH_BINS),
    "non_negative_switch",
    *(f"interruption_bin_{k}" for k in range(1, len(DEFAULT_INTERRUPTION_EDGES) + 2)),
)
N_PARAMETERS = len(FEATURE_NAMES)
_DOWN_SWITCH_SET = frozenset(DOWN_SWITCH_BINS)

# Where each group sits in FEATURE_NAMES, in feature rows and in weight vectors.
QUALITY_SLOTS = slice(0, 5)
DOWN_SWITCH_SLOTS = slice(QUALITY_SLOTS.stop, QUALITY_SLOTS.stop + len(DOWN_SWITCH_BINS))
GROUPED_SLOT = DOWN_SWITCH_SLOTS.stop
INTERRUPTION_SLOTS = slice(GROUPED_SLOT + 1, N_PARAMETERS)
#: The event frequencies: normalized by the event count, subtracted by the model.
EVENT_SLOTS = slice(DOWN_SWITCH_SLOTS.start, N_PARAMETERS)


def _check_mos(value: float, label: str) -> float:
    value = float(value)
    if not math.isfinite(value) or not MIN_MOS <= value <= MAX_MOS:
        raise ValidationError(f"{label} {value!r} outside [{MIN_MOS}, {MAX_MOS}]")
    return value


#: The Python types a JSON number decodes to.  ``bool`` is a subclass of
#: ``int``, so fields are checked with ``type``, not ``isinstance``.
_JSON_NUMBER_TYPES = frozenset((int, float))


def _json_number(value, label: str) -> float:
    """A number field of a JSON record as a float; booleans, strings and null are not numbers."""
    if type(value) not in _JSON_NUMBER_TYPES:
        raise UsageError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise UsageError(f"{label} {value} is too large") from None


def _json_integer(value, label: str) -> int:
    """A whole-number field of a JSON record (``3`` or ``3.0``, not ``2.7``) as an int."""
    number = _json_number(value, label)
    if not number.is_integer():
        raise UsageError(f"{label} must be a whole number, got {number!r}")
    return int(number)


@dataclass(frozen=True)
class InterruptionEvent:
    """A playback stall after ``after_segment`` segments, lasting ``duration_s``."""

    after_segment: int
    duration_s: float

    def __post_init__(self) -> None:
        after_segment = int(self.after_segment)
        if after_segment != self.after_segment:
            raise ValidationError(
                f"after_segment {self.after_segment!r} must be a whole number"
            )
        object.__setattr__(self, "after_segment", after_segment)
        object.__setattr__(self, "duration_s", float(self.duration_s))
        if self.after_segment < 1:
            # A stall before any playback is initial delay, which this
            # model does not cover.
            raise ValidationError(
                f"after_segment {self.after_segment} must be >= 1"
            )
        if not math.isfinite(self.duration_s) or self.duration_s <= 0.0:
            raise ValidationError(
                f"interruption duration {self.duration_s!r} must be a positive number"
            )

    def to_dict(self) -> dict:
        return {"after_segment": self.after_segment, "duration_s": self.duration_s}

    @classmethod
    def from_dict(cls, data: dict) -> "InterruptionEvent":
        if not isinstance(data, dict):
            raise UsageError(f"interruption record must be an object, got {data!r}")
        try:
            after_segment = _json_integer(data["after_segment"], "'after_segment'")
            duration_s = _json_number(data["duration_s"], "'duration_s'")
        except KeyError as exc:
            raise UsageError(f"interruption record missing key {exc}") from None
        return cls(after_segment, duration_s)


@dataclass(frozen=True)
class SessionTrace:
    """One playback session: segment quality values plus interruptions.

    ``ground_truth_mos`` carries a subjective session rating when known.
    ``tag`` is free-form dataset metadata (e.g. ``"multi-factor"``) used
    by the evaluation protocol to select test pools.
    """

    segments: tuple[float, ...]
    interruptions: tuple[InterruptionEvent, ...] = ()
    ground_truth_mos: float | None = None
    tag: str | None = None

    def __post_init__(self) -> None:
        segments = tuple(map(float, self.segments))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "interruptions", tuple(self.interruptions))
        if not segments:
            raise ValidationError("session must contain at least one segment")
        for k, q in enumerate(segments):
            if not MIN_MOS <= q <= MAX_MOS:  # also false for NaN
                raise ValidationError(
                    f"segment {k} quality {q!r} outside [{MIN_MOS}, {MAX_MOS}]"
                )
        for event in self.interruptions:
            if not isinstance(event, InterruptionEvent):
                raise ValidationError(f"interruption {event!r} is not an InterruptionEvent")
            if event.after_segment > len(segments):
                raise ValidationError(
                    f"after_segment {event.after_segment} exceeds "
                    f"segment count {len(segments)}"
                )
        if self.ground_truth_mos is not None:
            object.__setattr__(
                self,
                "ground_truth_mos",
                _check_mos(self.ground_truth_mos, "ground-truth MOS"),
            )

    def to_dict(self) -> dict:
        data: dict = {
            "segments": list(self.segments),
            "interruptions": [e.to_dict() for e in self.interruptions],
        }
        if self.ground_truth_mos is not None:
            data["mos"] = self.ground_truth_mos
        if self.tag is not None:
            data["tag"] = self.tag
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SessionTrace":
        if not isinstance(data, dict):
            raise UsageError(f"session record must be an object, got {type(data).__name__}")
        if "segments" not in data:
            raise UsageError("session record missing 'segments'")
        segments = data["segments"]
        if not isinstance(segments, (list, tuple)) or not _JSON_NUMBER_TYPES.issuperset(
            map(type, segments)
        ):
            raise UsageError("'segments' must be an array of numbers")
        raw_events = data.get("interruptions", [])
        if not isinstance(raw_events, (list, tuple)):
            raise UsageError("'interruptions' must be an array of objects")
        events = tuple(InterruptionEvent.from_dict(e) for e in raw_events)
        mos = data.get("mos")
        if mos is not None:
            mos = _json_number(mos, "'mos'")
        tag = data.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise UsageError(f"'tag' must be a string, got {tag!r}")
        try:
            return cls(segments, events, mos, tag)
        except OverflowError:  # an integer beyond the float range
            raise UsageError("'segments' must be an array of numbers") from None


@dataclass(frozen=True)
class SwitchEvent:
    """A segment boundary: starting quality bin and amplitude bin.

    ``amplitude_bin`` < 0 is a down-switch; 0 covers quality maintaining
    and sub-half-step wobble; > 0 is an up-switch.
    """

    starting_quality_bin: int
    amplitude_bin: int


def bin_quality(q: float) -> int:
    """Map a quality value in [1, 5] to its level bin 1..5.

    Bins are half-open on the right, so a value exactly on an edge
    (e.g. 4.5) belongs to the upper bin.
    """
    return int(math.floor(_check_mos(q, "quality value") + 0.5))


def bin_interruption(duration_s: float) -> int:
    """Map a stall duration in seconds to its bin 1..6 (left-open, right-closed)."""
    duration_s = float(duration_s)
    if not math.isfinite(duration_s) or duration_s <= 0.0:
        raise ValidationError(
            f"interruption duration {duration_s!r} must be a positive number"
        )
    return bisect_left(DEFAULT_INTERRUPTION_EDGES, duration_s) + 1


def classify_switch(q_before: float, q_after: float) -> SwitchEvent:
    """Classify the boundary between two consecutive segments.

    Both values lie in [1, 5], so the amplitude bin j lies in -4..4, and as
    ``q_before < i + 0.5`` and rounding is monotone, a drop keeps i + j >= 1.
    """
    q_before = _check_mos(q_before, "quality value")
    q_after = _check_mos(q_after, "quality value")
    return SwitchEvent(bin_quality(q_before), int(math.floor(q_after - q_before + 0.5)))


class _SlotGroups:
    """The 22 slots as the four fields of a frozen dataclass.

    In order: a tuple of the quality levels, a dict keyed by
    ``DOWN_SWITCH_BINS``, the grouped value and a tuple of the
    interruption bins.  ``_NOUN`` names the 22 values in error messages.
    """

    def __post_init__(self) -> None:
        levels, down, grouped, stalls = self.__dataclass_fields__
        for name, slots in ((levels, QUALITY_SLOTS), (stalls, INTERRUPTION_SLOTS)):
            values = tuple(map(float, getattr(self, name)))
            if len(values) != slots.stop - slots.start:
                raise ValidationError(f"{name} must have {slots.stop - slots.start} entries")
            object.__setattr__(self, name, values)
        object.__setattr__(self, grouped, float(getattr(self, grouped)))
        bins = getattr(self, down)
        if bins.keys() != _DOWN_SWITCH_SET:
            raise ValidationError(
                f"{down} must cover exactly the valid down-switch bins {sorted(DOWN_SWITCH_BINS)}"
            )
        object.__setattr__(self, down, {b: float(bins[b]) for b in DOWN_SWITCH_BINS})

    def as_vector(self) -> tuple[float, ...]:
        """The 22 values in ``FEATURE_NAMES`` order."""
        levels, down, grouped, stalls = (getattr(self, name) for name in self.__dataclass_fields__)
        return (*levels, *(down[b] for b in DOWN_SWITCH_BINS), grouped, *stalls)

    @classmethod
    def from_vector(cls, values):
        """The inverse of :meth:`as_vector`."""
        values = list(values)  # converted to floats by __post_init__
        if len(values) != N_PARAMETERS:
            raise ValidationError(f"expected {N_PARAMETERS} {cls._NOUN}, got {len(values)}")
        return cls(
            values[QUALITY_SLOTS],
            dict(zip(DOWN_SWITCH_BINS, values[DOWN_SWITCH_SLOTS])),
            values[GROUPED_SLOT],
            values[INTERRUPTION_SLOTS],
        )


@dataclass(frozen=True)
class FeatureVector(_SlotGroups):
    """Normalized histogram frequencies for one session.

    ``f_quality`` is normalized by the segment count; ``f_downswitch``,
    ``f_um`` and ``f_interruption`` by the total event count (segment
    boundaries plus interruptions) and are all zero when a session has
    no events.
    """

    f_quality: tuple[float, ...]
    f_downswitch: dict[tuple[int, int], float]
    f_um: float
    f_interruption: tuple[float, ...]

    _NOUN = "frequencies"

    def __post_init__(self) -> None:
        super().__post_init__()
        for v in self.as_vector():
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"frequency {v!r} outside [0, 1]")


def _switch_columns() -> np.ndarray:
    """Feature column of a boundary, indexed by (starting level i, amplitude bin j + 4).

    Down-switches map to their ``DOWN_SWITCH_BINS`` column, maintaining
    and up-switches to the grouped column; -1 marks pairs no boundary
    lands in.
    """
    table = np.full((6, 9), -1, dtype=np.intp)
    table[1:, 4:] = GROUPED_SLOT
    for column, (i, j) in enumerate(DOWN_SWITCH_BINS, start=DOWN_SWITCH_SLOTS.start):
        table[i, j + 4] = column
    table.flags.writeable = False
    return table


_SWITCH_COLUMN = _switch_columns()

#: Segments per run of sessions that a batch pass takes at once, which
#: bounds the size of its temporaries.
_CHUNK_SEGMENTS = 8192


def _session_runs(sessions):
    """The sessions in runs of whole sessions of about ``_CHUNK_SEGMENTS`` segments.

    Yields ``(rows, lengths, quality, n_stalls, durations)`` per run: the
    slice of ``sessions`` it covers, each session's segment and stall
    count, and the segment qualities and stall durations of the run,
    concatenated session after session.  A longer session is a run of its
    own.  A pass that works run by run keeps its temporaries bounded, so
    its memory use does not grow with the dataset beyond the sessions and
    the result.
    """
    stops, size = [], 0
    for k, session in enumerate(sessions):
        if size and size + len(session.segments) > _CHUNK_SEGMENTS:
            stops.append(k)
            size = 0
        size += len(session.segments)
    if sessions:
        stops.append(len(sessions))
    for start, stop in zip([0, *stops], stops):
        run = sessions[start:stop]
        lengths = np.fromiter((len(s.segments) for s in run), np.intp, len(run))
        n_stalls = np.fromiter((len(s.interruptions) for s in run), np.intp, len(run))
        quality = np.fromiter(chain.from_iterable(s.segments for s in run), float, lengths.sum())
        durations = np.fromiter(
            (e.duration_s for s in run for e in s.interruptions), float, n_stalls.sum()
        )
        yield slice(start, stop), lengths, quality, n_stalls, durations


def _switch_bins(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The level bin of every value of ``q`` and the amplitude bin of every step to the next.

    These are the float operations of :func:`bin_quality` and
    :func:`classify_switch`: levels lie in 1..5 and amplitude bins in
    -4..4.  Where ``q`` concatenates sessions, the steps across their
    boundaries are the caller's to drop.
    """
    return np.floor(q + 0.5).astype(np.intp), np.floor(q[1:] - q[:-1] + 0.5).astype(np.intp)


def _count_into(out: np.ndarray, lengths, q, n_stalls, durations) -> None:
    """Write the 22 frequencies of each session of a run into its row of ``out``."""
    ends = np.cumsum(lengths)
    levels, amplitudes = _switch_bins(q)

    # Each value is counted at a flat index row * 22 + column of ``out``.
    row_starts = np.arange(0, out.size, N_PARAMETERS)
    segment_rows = np.repeat(row_starts, lengths)
    switches = segment_rows[:-1] + _SWITCH_COLUMN[levels[:-1], amplitudes + 4]
    switches[ends[:-1] - 1] = out.size  # a boundary between two sessions: dropped below
    stalls = (
        np.repeat(row_starts, n_stalls)
        + INTERRUPTION_SLOTS.start
        + np.searchsorted(DEFAULT_INTERRUPTION_EDGES, durations, side="left")
    )
    cells = np.concatenate((segment_rows + (levels - 1), switches, stalls))
    counts = np.bincount(cells, minlength=out.size + 1)[:-1].reshape(out.shape)
    out[:, QUALITY_SLOTS] = counts[:, QUALITY_SLOTS] / lengths[:, None]
    # A session without events has no event counts, so any divisor gives its zeros.
    out[:, EVENT_SLOTS] = counts[:, EVENT_SLOTS] / np.maximum(lengths - 1 + n_stalls, 1)[:, None]


def feature_matrix(sessions) -> np.ndarray:
    """The 22 histogram frequencies of every session, one row each.

    Columns follow ``FEATURE_NAMES`` and are unsigned.  The bins of the
    concatenated segments and stalls are counted run by run
    (:func:`_session_runs`).
    """
    sessions = tuple(sessions)
    matrix = np.zeros((len(sessions), N_PARAMETERS))
    for rows, *run in _session_runs(sessions):
        _count_into(matrix[rows], *run)
    return matrix


def extract_features(trace: SessionTrace) -> FeatureVector:
    """Compute the 22 histogram frequencies of a session.

    Every consecutive-segment boundary counts as an event, including
    zero-amplitude quality maintaining; maintaining and up-switches are
    grouped into the single ``f_um`` frequency.  This is
    :func:`feature_matrix` of one session.
    """
    return FeatureVector.from_vector(feature_matrix((trace,))[0].tolist())


@dataclass(frozen=True)
class ModelWeights(_SlotGroups):
    """The 22 model weights.

    ``alpha`` rewards time spent at each quality level, ``beta_down``
    penalizes down-switches per (starting bin, amplitude bin),
    ``beta_um`` penalizes the grouped maintaining/up-switch frequency,
    and ``gamma`` penalizes each interruption-duration bin.
    """

    alpha: tuple[float, ...]
    beta_down: dict[tuple[int, int], float]
    beta_um: float
    gamma: tuple[float, ...]

    _NOUN = "weights"

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "beta_down": [
                {"i": i, "j": j, "w": self.beta_down[(i, j)]}
                for (i, j) in DOWN_SWITCH_BINS
            ],
            "beta_um": self.beta_um,
            "gamma": list(self.gamma),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelWeights":
        if not isinstance(data, dict):
            raise UsageError("weights record must be an object")
        try:
            entries = data["beta_down"]
            bins = [(_json_integer(e["i"], "'i'"), _json_integer(e["j"], "'j'")) for e in entries]
            if len(set(bins)) != len(bins):
                raise UsageError("bad weights record: 'beta_down' names an (i, j) bin twice")
            weights = cls(
                alpha=[_json_number(v, "'alpha'") for v in data["alpha"]],
                beta_down=dict(zip(bins, (_json_number(e["w"], "'w'") for e in entries))),
                beta_um=_json_number(data["beta_um"], "'beta_um'"),
                gamma=[_json_number(v, "'gamma'") for v in data["gamma"]],
            )
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad weights record: {exc!r}") from None
        if not all(map(math.isfinite, weights.as_vector())):
            raise UsageError("bad weights record: every weight must be a finite number")
        return weights


def paper_weights() -> ModelWeights:
    """The published reference weight set bundled with the package."""
    text = resources.files("hasqoe").joinpath("data/paper_weights.json").read_text("utf-8")
    return ModelWeights.from_dict(json.loads(text))


def perceptual_quality(features: FeatureVector, weights: ModelWeights) -> float:
    """Quality-driven score: level reward minus switch penalties (no floor)."""
    reward = sum(a * f for a, f in zip(weights.alpha, features.f_quality))
    down = sum(
        weights.beta_down[b] * features.f_downswitch[b] for b in DOWN_SWITCH_BINS
    )
    return float(reward - down - weights.beta_um * features.f_um)


def interruption_degradation(features: FeatureVector, weights: ModelWeights) -> float:
    """Penalty contributed by playback interruptions."""
    return float(sum(g * f for g, f in zip(weights.gamma, features.f_interruption)))


def _ordered_sum(weights, columns: np.ndarray) -> np.ndarray:
    """Row sums of ``weights * columns``, added term by term like ``sum(w * f ...)``."""
    total = np.zeros(len(columns))
    for weight, column in zip(weights, columns.T):
        total += weight * column
    return total


def _raw_scores(features: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """The linear score of every row of a :func:`feature_matrix`, before the 1.0 floor.

    The terms are added in the order :func:`perceptual_quality` and
    :func:`interruption_degradation` add them, not as one matrix
    product, so each value equals their difference bit for bit.
    """
    w = weights.as_vector()
    quality = (
        _ordered_sum(w[QUALITY_SLOTS], features[:, QUALITY_SLOTS])
        - _ordered_sum(w[DOWN_SWITCH_SLOTS], features[:, DOWN_SWITCH_SLOTS])
        - w[GROUPED_SLOT] * features[:, GROUPED_SLOT]
    )
    return quality - _ordered_sum(w[INTERRUPTION_SLOTS], features[:, INTERRUPTION_SLOTS])


def predict_matrix(features: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """:func:`predict` for every row of a :func:`feature_matrix`, bit for bit."""
    return np.maximum(_raw_scores(features, weights), MIN_MOS)


def predict(trace: SessionTrace, weights: ModelWeights) -> float:
    """Predicted session MOS: quality score minus stall penalty, floored at 1.0."""
    features = extract_features(trace)
    return max(
        perceptual_quality(features, weights) - interruption_degradation(features, weights),
        MIN_MOS,
    )
