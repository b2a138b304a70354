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
floored at 1.0 MOS.  ``ModelWeights`` holds the 22 weights; the published
reference set bundled with the package is read by ``io.paper_weights``.

Features come from one batch pass over a private columnar form of the
sessions (``_SessionBatch``), in the runs one rule cuts (``_run_rows``):
:func:`feature_matrix`, the generator's labels and ``baselines.baseline_matrix``
count over such runs.  A batch also carries each session's label and tag,
so a dataset is one value: session files are decoded straight into a
batch in the same runs (``io.read_dataset``), the generator makes one and
the dataset writer encodes one, a run at a time.  Every function that
takes sessions, :func:`feature_matrix` among them, takes either a batch
or a sequence of traces, and converts traces through :func:`_batch`.
The one switch rule is here: a step inside a session (``_session_steps``)
switches when its amplitude bin is nonzero (``_step_bins``).

``SessionTrace``, ``InterruptionEvent`` and the scalar, per-session
model (``bin_quality``, ``classify_switch``, ``extract_features``,
``predict`` and the rest) live in ``hasqoe.traces``.

The 22-slot layout is defined once, by ``FEATURE_NAMES`` and the group
slices next to it, and the bins are fixed: the interruption edges are
``DEFAULT_INTERRUPTION_EDGES``, so a weights file always means the same
bins.  A record's ``from_dict`` takes ``true``, strings and ``null`` for
no number (exit 1); an overflowing prediction exits 3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetricError, UsageError, ValidationError

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


def _json_number(value, label: str) -> float:
    """A number field as a float: a JSON or numpy number, not a boolean, string or null."""
    if type(value) is float:  # the common case, without the abstract-class checks
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise UsageError(f"{label} {value} is too large") from None


_FLOAT = frozenset((float,))


def _json_numbers(values, label: str) -> tuple[float, ...]:
    """A list, tuple or one-dimensional numpy array of numbers as a tuple of floats."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        raise UsageError(f"{label} must be an array of numbers, got {values!r}")
    if _FLOAT.issuperset(map(type, values)):  # the common case, without a call per value
        return tuple(values)
    return tuple(map(_json_number, values, repeat(label)))


def _json_record(cls, data, label: str) -> dict:
    """A JSON object naming only fields of the dataclass ``cls``, and each one without a default."""
    if not isinstance(data, dict):
        raise UsageError(f"{label} must be an object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise UsageError(f"unknown {label} keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise UsageError(f"missing {label} keys: {missing}")
    return dict(data)


def _json_integer(value, label: str) -> int:
    """A whole-number field (``3`` or ``3.0``, not ``2.7``) as an int; integers are exact."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = _json_number(value, label)
    if not number.is_integer():
        raise UsageError(f"{label} must be a whole number, got {number!r}")
    return int(number)


class _SlotGroups:
    """The 22 slots as the four fields of a frozen dataclass.

    In order: a tuple of the quality levels, a dict keyed by
    ``DOWN_SWITCH_BINS``, the grouped value and a tuple of the
    interruption bins.  ``_NOUN`` names the 22 values in error messages.
    """

    def __post_init__(self) -> None:
        levels, down, grouped, stalls = self.__dataclass_fields__
        bins = getattr(self, down)
        if not isinstance(bins, dict):
            raise UsageError(f"{down!r} must be a dict keyed by down-switch bin, got {bins!r}")
        # Every value's type, in field order, before any count: a weights file's order.
        values = {levels: _json_numbers(getattr(self, levels), repr(levels)),
                  down: {b: _json_number(w, "'w'") for b, w in bins.items()},  # a file's name
                  grouped: _json_number(getattr(self, grouped), repr(grouped)),
                  stalls: _json_numbers(getattr(self, stalls), repr(stalls))}
        for name, slots in ((levels, QUALITY_SLOTS), (stalls, INTERRUPTION_SLOTS)):
            if len(values[name]) != slots.stop - slots.start:
                raise ValidationError(f"{name} must have {slots.stop - slots.start} entries")
        if values[down].keys() != _DOWN_SWITCH_SET:
            raise ValidationError(
                f"{down} must cover exactly the valid down-switch bins {sorted(DOWN_SWITCH_BINS)}"
            )
        values[down] = {b: values[down][b] for b in DOWN_SWITCH_BINS}
        for name, value in values.items():
            object.__setattr__(self, name, value)

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
#: The most sessions in one run.  Decoded short sessions cost about 1 kB
#: each beyond their floats, which the segment bound does not see.
_RUN_SESSIONS = 128


def _run_rows(lengths):
    """Row slices of whole sessions: the one rule for where a run of sessions ends.

    A run closes before a session that would take it past ``_CHUNK_SEGMENTS`` segments, or once
    it holds ``_RUN_SESSIONS`` sessions.  A slice comes as soon as the length after it is seen.
    """
    start = size = 0
    for k, length in enumerate(chain(lengths, [math.inf])):  # a sentinel ends the last run
        if k > start and (size + length > _CHUNK_SEGMENTS or k - start >= _RUN_SESSIONS):
            yield slice(start, k)
            start, size = k, 0
        size += length


class _SessionBatch(NamedTuple):
    """Sessions as columns: per-session counts, then per-segment and per-stall values in order.

    The last two fields hold each session's label (NaN for none) and tag (an object column of
    ``str`` or None).  A NamedTuple, so ``np.concatenate`` of batches, field by field, is the
    batch of all their sessions.  :func:`_batch` takes traces or a batch to a batch, and
    ``traces.traces_of`` converts back to traces.
    """

    lengths: np.ndarray
    quality: np.ndarray
    n_stalls: np.ndarray
    after: np.ndarray
    durations: np.ndarray
    labels: np.ndarray
    tags: np.ndarray

    def _ends(self) -> tuple[list[int], list[int]]:
        """Where each session's segments and stalls end, after a leading 0."""
        return tuple(np.insert(np.cumsum(n), 0, 0).tolist() for n in (self.lengths, self.n_stalls))

    def runs(self):
        """``(rows, run)`` per slice of :func:`_run_rows`; ``run`` views the rows' columns."""
        ends, stall_ends = self._ends()
        for rows in _run_rows(self.lengths.tolist()):
            stalls = slice(stall_ends[rows.start], stall_ends[rows.stop])
            yield rows, _SessionBatch(
                self.lengths[rows], self.quality[ends[rows.start]:ends[rows.stop]],
                self.n_stalls[rows], self.after[stalls], self.durations[stalls],
                self.labels[rows], self.tags[rows],
            )

    def select(self, keep: np.ndarray) -> "_SessionBatch":
        """The batch of the sessions where the boolean column ``keep`` is true."""
        segments, stalls = np.repeat(keep, self.lengths), np.repeat(keep, self.n_stalls)
        return _SessionBatch(self.lengths[keep], self.quality[segments], self.n_stalls[keep],
                             self.after[stalls], self.durations[stalls], self.labels[keep],
                             self.tags[keep])


def _concatenate(batches) -> _SessionBatch:
    """The batch of the sessions of ``batches``, in order."""
    return _SessionBatch(*map(np.concatenate, zip(*batches)))


def _batch(sessions) -> _SessionBatch:
    """A ``_SessionBatch`` as it is, or the batch of a sequence of traces."""
    if isinstance(sessions, _SessionBatch):
        return sessions
    from .traces import batch_of

    return batch_of(tuple(sessions))


def _step_bins(q: np.ndarray) -> np.ndarray:
    """The amplitude bin of every step of ``q`` to the next.

    These are the float operations of ``traces.classify_switch``: bins lie
    in -4..4, and a step whose bin is nonzero switches.  Where ``q``
    concatenates sessions, :func:`_session_steps` gives a session's own steps.
    """
    return np.floor(q[1:] - q[:-1] + 0.5).astype(np.intp)


def _switch_bins(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The level bin of every value of ``q`` (``traces.bin_quality``, 1..5) and its step bins."""
    return np.floor(q + 0.5).astype(np.intp), _step_bins(q)


def _session_steps(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's session row, and the mask of the steps that stay inside one session."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    return rows, rows[1:] == rows[:-1]


def _switch_counts(lengths: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The switches of each session of the concatenated qualities ``q``, by the two rules above."""
    rows, within = _session_steps(lengths)
    return np.bincount(rows[:-1][within & (_step_bins(q) != 0)], minlength=len(lengths))


def _count_into(out: np.ndarray, batch: _SessionBatch) -> None:
    """Write the 22 frequencies of each session of a run into its row of ``out``."""
    lengths, n_stalls = batch.lengths, batch.n_stalls
    levels, amplitudes = _switch_bins(batch.quality)
    rows, within = _session_steps(lengths)

    # Each value is counted at a flat index row * 22 + column of ``out``.
    segment_cells = rows * N_PARAMETERS
    switches = (segment_cells[:-1] + _SWITCH_COLUMN[levels[:-1], amplitudes + 4])[within]
    stalls = (
        np.repeat(np.arange(0, out.size, N_PARAMETERS), n_stalls)
        + INTERRUPTION_SLOTS.start
        + np.searchsorted(DEFAULT_INTERRUPTION_EDGES, batch.durations, side="left")
    )
    cells = np.concatenate((segment_cells + (levels - 1), switches, stalls))
    counts = np.bincount(cells, minlength=out.size).reshape(out.shape)
    out[:, QUALITY_SLOTS] = counts[:, QUALITY_SLOTS] / lengths[:, None]
    # A session without events has no event counts, so any divisor gives its zeros.
    out[:, EVENT_SLOTS] = counts[:, EVENT_SLOTS] / np.maximum(lengths - 1 + n_stalls, 1)[:, None]


def feature_matrix(sessions) -> np.ndarray:
    """Each session's 22 histogram frequencies, unsigned, as a row in ``FEATURE_NAMES`` order.

    ``sessions`` is a sequence of traces or a ``_SessionBatch``, counted a run at a time.
    """
    batch = _batch(sessions)
    matrix = np.zeros((len(batch.lengths), N_PARAMETERS))
    for rows, run in batch.runs():
        _count_into(matrix[rows], run)
    return matrix


#: The fields of one entry of a weights file's ``beta_down`` list.
_BETA_DOWN_KEYS = frozenset(("i", "j", "w"))


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

    def __post_init__(self) -> None:
        super().__post_init__()
        if not all(map(math.isfinite, self.as_vector())):
            raise UsageError("bad weights record: every weight must be a finite number")

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
        kwargs = _json_record(cls, data, "weights record")
        entries = kwargs["beta_down"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise UsageError("'beta_down' must be an array of objects")
        for entry in entries:
            unknown, missing = entry.keys() - _BETA_DOWN_KEYS, _BETA_DOWN_KEYS - entry.keys()
            if unknown or missing:
                raise UsageError(f"unknown 'beta_down' entry keys: {sorted(unknown)}" if unknown
                                 else f"missing 'beta_down' entry keys: {sorted(missing)}")
        bins = [(_json_integer(e["i"], "'i'"), _json_integer(e["j"], "'j'")) for e in entries]
        if len(set(bins)) != len(bins):
            raise UsageError("bad weights record: 'beta_down' names an (i, j) bin twice")
        kwargs["beta_down"] = {b: e["w"] for b, e in zip(bins, entries)}
        return cls(**kwargs)


def _ordered_sum(weights, columns: np.ndarray) -> np.ndarray:
    """Row sums of ``weights * columns``, added term by term like ``sum(w * f ...)``."""
    total = np.zeros(len(columns))
    for weight, column in zip(weights, columns.T):
        total += weight * column
    return total


def _raw_scores(features: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """The linear score of every row of a :func:`feature_matrix`, before the 1.0 floor.

    The terms are added in the order ``traces.perceptual_quality`` and
    ``traces.interruption_degradation`` add them, not as one matrix
    product, so each value equals their difference bit for bit.
    """
    w = weights.as_vector()
    quality = (
        _ordered_sum(w[QUALITY_SLOTS], features[:, QUALITY_SLOTS])
        - _ordered_sum(w[DOWN_SWITCH_SLOTS], features[:, DOWN_SWITCH_SLOTS])
        - w[GROUPED_SLOT] * features[:, GROUPED_SLOT]
    )
    return quality - _ordered_sum(w[INTERRUPTION_SLOTS], features[:, INTERRUPTION_SLOTS])


def _finite(scores: np.ndarray) -> np.ndarray:
    """``scores``, unless overflowing weights made any of them non-finite."""
    if np.isfinite(scores).all():
        return scores
    raise DegenerateMetricError("predictions overflow the float range; the weights are too large")


def predict_matrix(features: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """``traces.predict`` for every row of a :func:`feature_matrix`, bit for bit.

    A score that overflows the float range raises before the floor could hide it.
    """
    return np.maximum(_finite(_raw_scores(features, weights)), MIN_MOS)

