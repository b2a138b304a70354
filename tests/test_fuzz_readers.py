"""Fuzz tests of the JSON readers: every input parses or raises UsageError/ValidationError.

Inputs are arbitrary JSON values and valid records with one or two
values replaced anywhere inside them, so every field of every nested
record is reached: by ``NaN``, ``Infinity``, booleans, strings, ``null``,
arrays, objects and integers beyond the float range.  Whatever parses
must also be usable: weights and coefficients are finite floats, and a
generator config generates a session.
"""

import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hasqoe import (
    BaselineCoefficients,
    GeneratorConfig,
    ModelWeights,
    QualityWalk,
    StallDurations,
    UsageError,
    ValidationError,
    generate_sessions,
    io,
    paper_weights,
)

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
#: Replacement values: edge numbers and wrong types.
replacements = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**400, 1e308, -1, 0, 1, 2, 2.5, 0.0, -0.5, 0.5,
     None, True, False, "1", [], [1.0], {}, {"x": 1.0}]
)


def _paths(value, path=()):
    """The path to ``value`` (the empty path) and to every value inside it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def mutants(*valid):
    """One of the ``valid`` JSON values with one or two values inside it replaced."""

    @st.composite
    def mutant(draw):
        value = draw(st.sampled_from(valid))
        for _ in range(draw(st.integers(1, 2))):
            path = draw(st.sampled_from(list(_paths(value))[1:]))
            value = _replaced(value, path, draw(replacements))
        return value

    return mutant()


def parses(read, value) -> bool:
    try:
        read(value)
    except (UsageError, ValidationError):
        return False
    return True


def read_sessions(value):
    return io.sessions_from_text(json.dumps(value), "fuzz")


@settings(max_examples=300)
@given(json_values)
def test_arbitrary_json_values(value) -> None:
    for read in (read_sessions, ModelWeights.from_dict, BaselineCoefficients.from_dict,
                 QualityWalk.from_dict, StallDurations.from_dict, GeneratorConfig.from_dict):
        parses(read, value)


SESSIONS = [
    {"segments": [4.2, 3.0, 5.0], "interruptions": [{"after_segment": 2, "duration_s": 0.8}],
     "mos": 3.6, "tag": "multi-factor"},
    {"segments": [1.0]},
]


@settings(max_examples=500)
@given(mutants(SESSIONS, SESSIONS[0]), st.booleans())
def test_session_files(value, ndjson) -> None:
    if ndjson and isinstance(value, list):
        parses(lambda v: io.sessions_from_text("\n".join(map(json.dumps, v)), "fuzz"), value)
    else:
        parses(read_sessions, value)


@settings(max_examples=500)
@given(mutants(paper_weights().to_dict()))
def test_weights_records(value) -> None:
    if parses(ModelWeights.from_dict, value):
        vector = ModelWeights.from_dict(value).as_vector()
        assert all(type(w) is float and math.isfinite(w) for w in vector)


@settings(max_examples=500)
@given(
    mutants(
        {"model": "guo", "coefficients": {"median_quality": 0.5, "min_quality": 0.25},
         "intercept": 0.5},
        {"model": "liu", "coefficients": {"stall_count": -0.1}},
    )
)
def test_baseline_coefficient_records(value) -> None:
    if parses(BaselineCoefficients.from_dict, value):
        parsed = BaselineCoefficients.from_dict(value)
        values = (*parsed.coefficients.values(), parsed.intercept)
        assert all(type(v) is float and math.isfinite(v) for v in values)


STALL_DURATIONS = [
    {"name": "bin_mixture", "params": {"bin_probs": [0, 0, 0, 0, 0.5, 0.5], "tail_max": 5.0}},
    {"name": "uniform", "params": {"low": 0.5, "high": 2.0}},
    {"name": "constant", "params": {"value": 2.5}},
]
GENERATOR_CONFIGS = [
    json.loads(json.dumps(
        GeneratorConfig(n_segments=(5, 15), stall_durations=StallDurations(**d)).to_dict()
    ))
    for d in STALL_DURATIONS
]


def generates(config: GeneratorConfig) -> None:
    """An accepted recipe generates: one short session with a stall at every boundary."""
    config = dataclasses.replace(config, n_segments=6, stall_prob_per_boundary=1.0)
    (trace,) = generate_sessions(config, 1)
    assert len(trace.segments) == 6 and len(trace.interruptions) == 5


@settings(max_examples=500)
@given(mutants(*(c["quality_walk"] for c in GENERATOR_CONFIGS)))
def test_quality_walk_records(value) -> None:
    if parses(QualityWalk.from_dict, value):
        generates(GeneratorConfig(quality_walk=QualityWalk.from_dict(value)))


@settings(max_examples=500)
@given(mutants(*STALL_DURATIONS))
def test_stall_duration_records(value) -> None:
    if parses(StallDurations.from_dict, value):
        generates(GeneratorConfig(stall_durations=StallDurations.from_dict(value)))


@settings(max_examples=500)
@given(mutants(*GENERATOR_CONFIGS))
def test_generator_config_records(value) -> None:
    if parses(GeneratorConfig.from_dict, value):
        generates(GeneratorConfig.from_dict(value))
