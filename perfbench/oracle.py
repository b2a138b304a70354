"""An independent scalar reading of the histogram model, used to check outputs.

It follows the model as the README states it, not the package's code, so
a rewrite of the package's feature layer is checked against something it
cannot have changed.  Sessions are plain dicts in the JSON file format.
"""

from __future__ import annotations

import math

#: Interruption bins are left-open, right-closed: (0, .25], (.25, .5], (.5, 1], (1, 2], (2, 3], (3, inf).
INTERRUPTION_EDGES = (0.25, 0.5, 1.0, 2.0, 3.0)

#: (starting level, amplitude) of the 10 down-switch bins, in column order.
DOWN_SWITCH_BINS = (
    (2, -1),
    (3, -2), (3, -1),
    (4, -3), (4, -2), (4, -1),
    (5, -4), (5, -3), (5, -2), (5, -1),
)

#: The published reference weights in column order: alpha (5), beta_down (10), beta_um, gamma (6).
PAPER_WEIGHTS = (
    1.11, 2.20, 3.20, 4.00, 4.50,
    7.89, 14.36, 3.93, 18.99, 4.13, 0.01, 24.76, 18.69, 3.93, 0.01,
    0.00,
    0.00, 8.42, 16.15, 24.16, 45.58, 50.65,
)

#: Quality columns enter the prediction with +, event columns with -.
SIGNS = (1.0,) * 5 + (-1.0,) * 17

N_FEATURES = 22


def bin_quality(q: float) -> int:
    """Level 1..5 of a quality value; x.5 belongs to the upper level."""
    return min(max(math.floor(q + 0.5), 1), 5)


def switch_bin(before: float, after: float) -> tuple[int, int]:
    """(starting level, amplitude bin) of a segment boundary."""
    i = bin_quality(before)
    j = max(-4, min(4, math.floor(after - before + 0.5)))
    if j < 0 and i + j < 1:
        j = 1 - i
    return i, j


def interruption_bin(duration_s: float) -> int:
    """Index 0..5 of a stall duration's bin."""
    return sum(1 for edge in INTERRUPTION_EDGES if duration_s > edge)


def features(session: dict) -> list[float]:
    """The 22 normalized frequencies of a session, in column order."""
    segments = session["segments"]
    durations = [e["duration_s"] for e in session.get("interruptions", [])]
    n = len(segments)
    quality = [0] * 5
    for q in segments:
        quality[bin_quality(q) - 1] += 1
    down = dict.fromkeys(DOWN_SWITCH_BINS, 0)
    um = 0
    for before, after in zip(segments, segments[1:]):
        i, j = switch_bin(before, after)
        if j < 0:
            down[(i, j)] += 1
        else:
            um += 1
    stalls = [0] * 6
    for d in durations:
        stalls[interruption_bin(d)] += 1
    events = (n - 1) + len(durations)
    scale = 1.0 / events if events else 0.0
    return (
        [c / n for c in quality]
        + [down[b] * scale for b in DOWN_SWITCH_BINS]
        + [um * scale]
        + [c * scale for c in stalls]
    )


def linear_score(row: list[float], weights=PAPER_WEIGHTS) -> float:
    """Signed weighted sum of a feature row, before the 1.0 floor."""
    return math.fsum(s * w * f for s, w, f in zip(SIGNS, weights, row))


def predict(session: dict, weights=PAPER_WEIGHTS) -> float:
    """Predicted MOS: the linear score floored at 1.0."""
    return max(linear_score(features(session), weights), 1.0)


def has_switch(session: dict) -> bool:
    """True when some boundary's amplitude bin is nonzero."""
    segments = session["segments"]
    return any(switch_bin(a, b)[1] != 0 for a, b in zip(segments, segments[1:]))


def tag(session: dict) -> str:
    """The generator's tag: multi-factor when a session has both switches and stalls."""
    if has_switch(session) and session.get("interruptions"):
        return "multi-factor"
    return "single-factor"
