"""Seeded input datasets for the benchmark, independent of ``hasqoe.synth``.

Only ``random.Random.random`` is drawn from, whose stream Python keeps
stable across versions, so a seed names the same files everywhere.
Values are rounded to two decimals and some are put exactly on the bin
edges (qualities x.5, 1.0 and 5.0; stalls of 0.25, 0.5, 1, 2 and 3 s) so
the output checks reach every boundary.  Single-segment sessions keep
the 22-column design full rank: without them the quality columns and
the event columns both sum to one and the design loses a rank.
"""

from __future__ import annotations

import random

import oracle

EDGE_DURATIONS = (0.25, 0.5, 1.0, 2.0, 3.0)


def _pick(rng: random.Random, values):
    return values[min(int(rng.random() * len(values)), len(values) - 1)]


def _int_between(rng: random.Random, low: int, high: int) -> int:
    return low + min(int(rng.random() * (high - low + 1)), high - low)


def _quality(rng: random.Random, level: int) -> float:
    u = rng.random()
    if u < 0.15:
        value = float(level)  # exactly 1.0 or 5.0 at the ends of the scale
    elif u < 0.30:
        value = level + _pick(rng, (-0.5, 0.5))  # exactly on a bin edge
    else:
        value = round(level + 0.9 * (rng.random() - 0.5), 2)
    return min(max(value, 1.0), 5.0)


def _duration(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return _pick(rng, EDGE_DURATIONS)
    return max(round(6.0 * rng.random(), 2), 0.01)


def session(rng: random.Random, n_segments: int, stall_prob: float, force_stall: bool) -> dict:
    """One labeled session: a level walk with steps of up to 4 and Bernoulli stalls."""
    level = _int_between(rng, 1, 5)
    segments = []
    for k in range(n_segments):
        if k and rng.random() < 0.45:
            step = _int_between(rng, 1, 4) * _pick(rng, (-1, 1))
            level = min(max(level + step, 1), 5)
        segments.append(_quality(rng, level))
    after = [k for k in range(1, n_segments + 1) if rng.random() < stall_prob]
    if force_stall and not after:
        after = [_int_between(rng, 1, n_segments)]
    data = {
        "segments": segments,
        "interruptions": [{"after_segment": k, "duration_s": _duration(rng)} for k in after],
    }
    noise = 0.6 * (rng.random() - 0.5)
    data["mos"] = round(min(max(oracle.predict(data) + noise, 1.0), 5.0), 4)
    data["tag"] = oracle.tag(data)
    return data


def dataset(seed: int, n_sessions: int, segments: tuple[int, int], stall_prob: float) -> list[dict]:
    """``n_sessions`` labeled sessions; about 3 % of them have a single segment."""
    rng = random.Random(seed)
    sessions = []
    for _ in range(n_sessions):
        n = 1 if rng.random() < 0.03 else _int_between(rng, *segments)
        sessions.append(session(rng, n, stall_prob, force_stall=rng.random() < 0.7))
    return sessions
