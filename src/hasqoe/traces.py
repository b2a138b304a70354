"""Sessions as objects, and the scalar model they are checked against.

:class:`SessionTrace` is one validated session and the public way to
hand sessions to the library.  The command line never needs it: it
reads, counts, labels and writes sessions as the columns of a
``model._SessionBatch``.  This module holds what only traces need:

* the per-record reader (:func:`sessions_from_records`), which
  explains a run of records that the column checks of ``io``'s one
  reader reject, so that every error message is defined once;
* the conversions between traces and a batch with its labels and tags
  (:func:`batch_of`, :func:`traces_of`);
* the scalar, per-session model: :func:`bin_quality`,
  :func:`bin_interruption`, :func:`classify_switch`,
  :func:`extract_features`, :func:`perceptual_quality`,
  :func:`interruption_degradation` and :func:`predict`.  The batch
  passes of ``model`` give the same numbers, and the tests hold them to
  these.

Nothing a valid input takes through the command line imports this
module, so its classes and functions cost a run nothing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, starmap

import numpy as np

from .errors import UsageError, ValidationError
from .model import (
    DEFAULT_INTERRUPTION_EDGES,
    DOWN_SWITCH_BINS,
    MAX_MOS,
    MIN_MOS,
    ModelWeights,
    _check_mos,
    _finite,
    _json_integer,
    _json_number,
    _json_numbers,
    _SessionBatch,
    _SlotGroups,
    feature_matrix,
)


@dataclass(frozen=True)
class InterruptionEvent:
    """A playback stall after ``after_segment`` segments, lasting ``duration_s``."""

    after_segment: int
    duration_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "after_segment",
                           _json_integer(self.after_segment, "'after_segment'"))
        object.__setattr__(self, "duration_s", _json_number(self.duration_s, "'duration_s'"))
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
            after_segment, duration_s = data["after_segment"], data["duration_s"]
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
        # The types of every field, then their ranges: a session file's order.
        try:
            segments = _json_numbers(self.segments, "'segments'")
        except UsageError:  # a file's one message for any segments that are not numbers
            raise UsageError("'segments' must be an array of numbers") from None
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "interruptions", tuple(self.interruptions))
        mos, tag = self.ground_truth_mos, self.tag
        if mos is not None:
            object.__setattr__(self, "ground_truth_mos", _json_number(mos, "'mos'"))
        if tag is not None and not isinstance(tag, str):
            raise UsageError(f"'tag' must be a string, got {tag!r}")
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
        if mos is not None:
            _check_mos(self.ground_truth_mos, "ground-truth MOS")

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
        raw_events = data.get("interruptions", [])
        if not isinstance(raw_events, (list, tuple)):
            raise UsageError("'interruptions' must be an array of objects")
        events = tuple(InterruptionEvent.from_dict(e) for e in raw_events)
        return cls(data["segments"], events, data.get("mos"), data.get("tag"))


def sessions_from_records(records, start: int = 0) -> list[SessionTrace]:
    """One :class:`SessionTrace` per decoded JSON record; an error names the record's index.

    The first record has index ``start``, as when it is not the first of its file.
    """
    traces = []
    for index, obj in enumerate(records, start):
        try:
            traces.append(SessionTrace.from_dict(obj))
        except (UsageError, ValidationError) as exc:
            raise type(exc)(f"session {index}: {exc}") from None
    return traces


def batch_of(traces) -> _SessionBatch:
    """The batch of a sequence of traces, with their labels (NaN for none) and tags."""
    stalls = [e for s in traces for e in s.interruptions]
    n = len(traces)
    return _SessionBatch(
        np.fromiter((len(s.segments) for s in traces), np.intp, n),
        np.fromiter(chain.from_iterable(s.segments for s in traces), float),
        np.fromiter((len(s.interruptions) for s in traces), np.intp, n),
        np.fromiter((e.after_segment for e in stalls), np.intp, len(stalls)),
        np.fromiter((e.duration_s for e in stalls), float, len(stalls)),
        np.fromiter((math.nan if s.ground_truth_mos is None else s.ground_truth_mos
                     for s in traces), float, n),
        np.fromiter((s.tag for s in traces), object, n),
    )


def traces_of(batch: _SessionBatch) -> list[SessionTrace]:
    """The inverse of :func:`batch_of`: a trace of each session, with its label and tag."""
    (ends, stall_ends), values = batch._ends(), batch.quality.tolist()
    events = list(starmap(InterruptionEvent, zip(batch.after.tolist(), batch.durations.tolist())))
    return [
        SessionTrace(values[ends[k]:ends[k + 1]], events[stall_ends[k]:stall_ends[k + 1]],
                     None if math.isnan(label) else label, tag)
        for k, (label, tag) in enumerate(zip(batch.labels.tolist(), batch.tags.tolist()))
    ]


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


def extract_features(trace: SessionTrace) -> FeatureVector:
    """Compute the 22 histogram frequencies of a session.

    Every consecutive-segment boundary counts as an event, including
    zero-amplitude quality maintaining; maintaining and up-switches are
    grouped into the single ``f_um`` frequency.  This is
    ``model.feature_matrix`` of one session.
    """
    return FeatureVector.from_vector(feature_matrix((trace,))[0].tolist())


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


def predict(trace: SessionTrace, weights: ModelWeights) -> float:
    """Predicted session MOS: quality score minus stall penalty, floored at 1.0.

    A score that overflows the float range raises ``DegenerateMetricError`` before the floor
    could hide it, as in ``model.predict_matrix``.
    """
    features = extract_features(trace)
    score = perceptual_quality(features, weights) - interruption_degradation(features, weights)
    return max(_finite(score), MIN_MOS)
