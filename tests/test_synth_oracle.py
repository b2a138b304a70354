"""The batch generator against a scalar oracle that reads the same uniforms.

``oracle_session`` draws a session's block of uniforms from its own
generator as ``synth`` does, then reads it one value at a time: it picks
categories by scanning cumulative probabilities, clamps the walk with
``min``/``max``, tags with ``classify_switch`` and checks every
bin-mixture duration with ``bin_interruption``.  ``oracle_labeled`` is
the one-candidate-at-a-time labelling loop.  The batch output must equal
the oracle's sessions exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasqoe import (
    DEFAULT_INTERRUPTION_EDGES,
    GeneratorConfig,
    InterruptionEvent,
    LabeledDataset,
    QualityWalk,
    SessionTrace,
    StallDurations,
    UsageError,
    bin_interruption,
    classify_switch,
    extract_features,
    generate_labeled_dataset,
    generate_session,
    generate_sessions,
    interruption_degradation,
    paper_weights,
    perceptual_quality,
)


def pick(probs, u: float) -> int:
    """The first category whose cumulative probability exceeds ``u``."""
    total, cumulative = 0.0, []
    for p in probs:
        total += p
        cumulative.append(total)
    for k, c in enumerate(cumulative):
        if u < c / total:
            assert probs[k] > 0.0, f"picked category {k} of probability 0"
            return k
    raise AssertionError("u beyond the last category")


def oracle_duration(stalls: StallDurations, u_bin: float, u: float) -> float:
    p = stalls.params
    if stalls.name == "constant":
        return float(p["value"])
    if stalls.name == "uniform":
        low, high = float(p["low"]), float(p["high"])
    else:
        edges = (0.0, *DEFAULT_INTERRUPTION_EDGES, float(p["tail_max"]))
        k = pick(p["bin_probs"], u_bin)
        low, high = edges[k], edges[k + 1]
    duration = max(high - (high - low) * u, math.nextafter(low, high))
    assert low < duration <= high or low == duration == high
    if stalls.name == "bin_mixture":
        assert bin_interruption(duration) == k + 1
    return duration


def oracle_session(config: GeneratorConfig, rng: np.random.Generator):
    """One session and its label noise, from the same three draws as ``synth``."""
    if isinstance(config.n_segments, tuple):
        low, high = config.n_segments
        count = int(rng.integers(low, high + 1))
    else:
        count = config.n_segments
    block = rng.random((count, 6)).tolist()
    noise = float(rng.standard_normal())

    walk = config.quality_walk
    level = 1 + pick(walk.initial_probs, block[0][0])
    segments, events = [], []
    for t, (u_move, u_step, u_jitter, u_stall, u_bin, u_duration) in enumerate(block):
        if t > 0:
            move = pick((walk.p_down, walk.p_stay, walk.p_up), u_move) - 1
            step = 1 + pick(walk.step_probs, u_step)
            level = min(max(level + move * step, 1), 5)
        segments.append(min(max(level + walk.jitter * (2.0 * u_jitter - 1.0), 1.0), 5.0))
        if t > 0 and u_stall < config.stall_prob_per_boundary:
            duration = oracle_duration(config.stall_durations, u_bin, u_duration)
            events.append(InterruptionEvent(t, duration))
    varies = any(classify_switch(a, b).amplitude_bin != 0 for a, b in zip(segments, segments[1:]))
    tag = "multi-factor" if varies and events else "single-factor"
    return SessionTrace(segments, events, tag=tag), noise


def oracle_sessions(config: GeneratorConfig, n: int) -> tuple[SessionTrace, ...]:
    substreams = np.random.SeedSequence(config.rng_seed).spawn(n)
    return tuple(oracle_session(config, np.random.default_rng(s))[0] for s in substreams)


def oracle_labeled(config, n, weights, noise_std, skip_clamped) -> LabeledDataset:
    root = np.random.SeedSequence(config.rng_seed)
    sessions = []
    attempts = 0
    while len(sessions) < n:
        if attempts >= 20 * n + 100:
            raise UsageError(f"gave up after {attempts} attempts")
        attempts += 1
        trace, noise = oracle_session(config, np.random.default_rng(root.spawn(1)[0]))
        features = extract_features(trace)
        raw = perceptual_quality(features, weights) - interruption_degradation(features, weights)
        if skip_clamped and raw < 1.0:
            continue
        label = min(max(max(raw, 1.0) + noise_std * noise, 1.0), 5.0)
        sessions.append(dataclasses.replace(trace, ground_truth_mos=label))
    return LabeledDataset(tuple(sessions))


def probabilities(n: int):
    """``n`` probabilities summing to 1, often with zeros at either end.

    A single 1 is left an integer, as a JSON recipe may give it.
    """
    return (
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
        .filter(any)
        .map(lambda w: tuple(w) if sum(w) == 1 else tuple(x / sum(w) for x in w))
    )


stall_durations = st.one_of(
    st.floats(0.01, 10.0).map(lambda v: StallDurations("constant", {"value": v})),
    st.tuples(st.floats(0.01, 3.0), st.floats(0.0, 3.0)).map(
        lambda t: StallDurations("uniform", {"low": t[0], "high": t[0] + t[1]})
    ),
    st.tuples(probabilities(6), st.floats(3.01, 10.0)).map(
        lambda t: StallDurations("bin_mixture", {"bin_probs": t[0], "tail_max": t[1]})
    ),
)


@st.composite
def configs(draw) -> GeneratorConfig:
    p_down, p_stay, p_up = draw(probabilities(3))
    walk = QualityWalk(
        initial_probs=draw(probabilities(5)),
        p_down=p_down,
        p_stay=p_stay,
        p_up=p_up,
        step_probs=draw(probabilities(4)),
        jitter=draw(st.sampled_from((0.0, 0.49)) | st.floats(0.0, 0.49)),
    )
    n_segments = draw(
        st.integers(1, 12)
        | st.tuples(st.integers(1, 6), st.integers(0, 10)).map(lambda t: (t[0], t[0] + t[1]))
    )
    return GeneratorConfig(
        n_segments=n_segments,
        quality_walk=walk,
        stall_prob_per_boundary=draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
        stall_durations=draw(stall_durations),
        rng_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None)
@given(configs(), st.integers(1, 8))
def test_sessions_equal_the_oracle(config, n) -> None:
    assert generate_sessions(config, n) == oracle_sessions(config, n)
    assert generate_session(config) == oracle_session(config, np.random.default_rng(config.rng_seed))[0]


@settings(max_examples=60, deadline=None)
@given(configs(), st.integers(1, 6), st.sampled_from((0.0, 0.3)), st.booleans())
def test_labeled_datasets_equal_the_oracle(config, n, noise_std, skip_clamped) -> None:
    weights = paper_weights()
    try:
        expected = oracle_labeled(config, n, weights, noise_std, skip_clamped)
    except UsageError:
        with pytest.raises(UsageError, match="clamp"):
            generate_labeled_dataset(
                config, n, weights, noise_std=noise_std, skip_clamped=skip_clamped
            )
        return
    got = generate_labeled_dataset(
        config, n, weights, noise_std=noise_std, skip_clamped=skip_clamped
    )
    assert got == expected


def test_default_config_equals_the_oracle() -> None:
    config = GeneratorConfig(rng_seed=3)
    assert generate_sessions(config, 300) == oracle_sessions(config, 300)
    weights = paper_weights()
    for noise_std, skip_clamped in ((0.0, False), (0.2, True)):
        assert generate_labeled_dataset(
            config, 120, weights, noise_std=noise_std, skip_clamped=skip_clamped
        ) == oracle_labeled(config, 120, weights, noise_std, skip_clamped)
