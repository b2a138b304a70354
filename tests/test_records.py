"""Each record checks its fields once, when it is made.

A Python constructor rejects what the record's file reader rejects, with
the same exception class and message: one table per record, each row a
bad value given to the constructor and written into a file record.
"""

import json
import math

import pytest

from hasqoe import (
    BaselineCoefficients,
    InterruptionEvent,
    LinearModel,
    ModelWeights,
    SessionTrace,
    UsageError,
    ValidationError,
    io,
    paper_weights,
)

PAPER = paper_weights()
FINITE_WEIGHTS = "bad weights record: every weight must be a finite number"
FINITE_COEFFICIENTS = "bad coefficients record: every value must be a finite number"
NOT_SEGMENTS = "'segments' must be an array of numbers"


def raised(make) -> tuple:
    """The class and message of the error ``make()`` raises."""
    with pytest.raises((UsageError, ValidationError)) as info:
        make()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    ("change", "error", "message"),
    [
        ({"beta_um": True}, UsageError, "'beta_um' must be a number, got True"),
        ({"beta_um": None}, UsageError, "'beta_um' must be a number, got None"),
        ({"alpha": ("1.11", "2.2", "3.2", "4.0", "4.5")}, UsageError,
         "'alpha' must be a number, got '1.11'"),
        ({"alpha": ["x"] * 5}, UsageError, "'alpha' must be a number, got 'x'"),
        ({"alpha": 5}, UsageError, "'alpha' must be an array of numbers, got 5"),
        ({"gamma": (math.inf,) * 6}, UsageError, FINITE_WEIGHTS),
        ({"gamma": (0.0,) * 5 + (math.nan,)}, UsageError, FINITE_WEIGHTS),
        ({"beta_um": -math.inf}, UsageError, FINITE_WEIGHTS),
        ({"beta_down": {**PAPER.beta_down, (2, -1): "7.89"}}, UsageError,
         "'w' must be a number, got '7.89'"),
        ({"beta_down": {**PAPER.beta_down, (3, -2): math.nan}}, UsageError, FINITE_WEIGHTS),
        ({"alpha": (1.0,) * 4}, ValidationError, "alpha must have 5 entries"),
        ({"beta_down": {(2, -1): 1.0}}, ValidationError,
         "beta_down must cover exactly the valid down-switch bins [(2, -1), (3, -2), (3, -1), "
         "(4, -3), (4, -2), (4, -1), (5, -4), (5, -3), (5, -2), (5, -1)]"),
    ],
)
def test_weights_reject_what_weights_files_reject(change, error, message) -> None:
    fields = {"alpha": PAPER.alpha, "beta_down": PAPER.beta_down, "beta_um": PAPER.beta_um,
              "gamma": PAPER.gamma, **change}
    entries = [{"i": i, "j": j, "w": w} for (i, j), w in fields["beta_down"].items()]
    record = json.loads(json.dumps({**fields, "beta_down": entries}))
    assert raised(lambda: ModelWeights(**fields)) == (error, message)
    assert raised(lambda: ModelWeights.from_dict(record)) == (error, message)


GUO = {"median_quality": 0.5, "min_quality": 0.25}


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ((5, [1, 2]), "'model' must be a string, got 5"),
        (("guo", [1, 2]), "'coefficients' must be an object, got [1, 2]"),
        (("guo", {"median_quality": "1", "min_quality": True}, math.nan),
         "coefficient 'median_quality' must be a number, got '1'"),
        (("guo", {"median_quality": 1.0, "min_quality": True}),
         "coefficient 'min_quality' must be a number, got True"),
        (("guo", GUO, None), "'intercept' must be a number, got None"),
        (("guo", GUO, math.nan), FINITE_COEFFICIENTS),
        (("guo", {**GUO, "min_quality": math.inf}), FINITE_COEFFICIENTS),
    ],
)
def test_coefficients_reject_what_coefficient_files_reject(fields, message) -> None:
    record = json.loads(json.dumps(dict(zip(("model", "coefficients", "intercept"), fields))))
    assert raised(lambda: BaselineCoefficients(*fields)) == (UsageError, message)
    assert raised(lambda: BaselineCoefficients.from_dict(record)) == (UsageError, message)


@pytest.mark.parametrize(
    ("coefficients", "message"),
    [
        ({1: 0.5}, "coefficient names must be strings, got 1"),
        ({"median_quality": 0.5, None: 0.25}, "coefficient names must be strings, got None"),
        # Types are checked before ranges, and names before values.
        ({1: math.inf}, "coefficient names must be strings, got 1"),
        ({1: "0.5"}, "coefficient names must be strings, got 1"),
    ],
)
def test_coefficient_names_are_strings(coefficients, message) -> None:
    # A JSON object's keys are strings, so only a Python caller can give another name.
    assert raised(lambda: BaselineCoefficients("guo", coefficients)) == (UsageError, message)


UNKNOWN_STATISTIC = ("unknown statistic {!r}; known statistics: ['mean_quality', "
                     "'mean_sq_down_amplitude', 'median_quality', 'min_quality', 'stall_count', "
                     "'stall_duration_sum', 'std_quality', 'switch_count', 'weighted_quality_sum']")


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        (("guo",), "'statistics' must be 'histogram' or a tuple of statistic names, got 'guo'"),
        ((["min_quality"],),
         "'statistics' must be 'histogram' or a tuple of statistic names, got ['min_quality']"),
        ((("sharpness",),), UNKNOWN_STATISTIC.format("sharpness")),
        ((("min_quality", 1),), UNKNOWN_STATISTIC.format(1)),
        ((("min_quality", ["min_quality"]),), UNKNOWN_STATISTIC.format(["min_quality"])),
        (("histogram", (1.0,) * 21),
         f"'weights' must be 22 finite numbers, one per column, got {(1.0,) * 21}"),
        (("histogram", (1.0,) * 21 + (math.nan,)),
         f"'weights' must be 22 finite numbers, one per column, got {(1.0,) * 21 + (math.nan,)}"),
        ((("median_quality", "min_quality"), (0.5, 0.25)),
         "'weights' must be 3 finite numbers, one per column, got (0.5, 0.25)"),
        ((("min_quality",), (0.5, math.inf)),
         "'weights' must be 2 finite numbers, one per column, got (0.5, inf)"),
        (("histogram", ("1.0",) * 22), "'weights' must be a number, got '1.0'"),
        (("histogram", 1.0), "'weights' must be an array of numbers, got 1.0"),
        (("histogram", None, "no"), "'nonnegative' must be true or false, got 'no'"),
        (("histogram", None, 1), "'nonnegative' must be true or false, got 1"),
        (("histogram", (1.0,) * 22, True),
         "'nonnegative' constrains a refit; fixed 'weights' are not solved for"),
    ],
)
def test_linear_models_check_their_fields(fields, message) -> None:
    # The runners give valid fields; a Python caller must not get numpy's error at predict time.
    assert raised(lambda: LinearModel(*fields)) == (UsageError, message)


@pytest.mark.parametrize(
    ("after_segment", "duration_s", "error", "message"),
    [
        (True, 1.0, UsageError, "'after_segment' must be a number, got True"),
        (None, 1.0, UsageError, "'after_segment' must be a number, got None"),
        (2.7, 1.0, UsageError, "'after_segment' must be a whole number, got 2.7"),
        (math.nan, 1.0, UsageError, "'after_segment' must be a whole number, got nan"),
        (2, "1.5", UsageError, "'duration_s' must be a number, got '1.5'"),
        (2, False, UsageError, "'duration_s' must be a number, got False"),
        pytest.param(2, 10**400, UsageError, f"'duration_s' {10**400} is too large",
                     id="duration-beyond-the-float-range"),
        (0, 1.0, ValidationError, "after_segment 0 must be >= 1"),
        (1, 0, ValidationError, "interruption duration 0.0 must be a positive number"),
        (1, math.inf, ValidationError, "interruption duration inf must be a positive number"),
    ],
)
def test_interruptions_reject_what_session_files_reject(after_segment, duration_s, error,
                                                        message) -> None:
    record = json.loads(json.dumps({"after_segment": after_segment, "duration_s": duration_s}))
    assert raised(lambda: InterruptionEvent(after_segment, duration_s)) == (error, message)
    assert raised(lambda: InterruptionEvent.from_dict(record)) == (error, message)
    session = {"segments": [3.0, 3.0], "interruptions": [record]}
    assert raised(lambda: io.dataset_from_text(json.dumps(session), "f.json")) == (
        error, f"session 0: {message}")


@pytest.mark.parametrize(
    ("fields", "error", "message"),
    [
        ({"segments": [True, 3.0]}, UsageError, NOT_SEGMENTS),
        ({"segments": ["3.5"]}, UsageError, NOT_SEGMENTS),
        ({"segments": [3.0, None]}, UsageError, NOT_SEGMENTS),
        ({"segments": [3.0, 10**400]}, UsageError, NOT_SEGMENTS),
        ({"segments": "3.0"}, UsageError, NOT_SEGMENTS),
        ({"segments": [3.0], "tag": 5}, UsageError, "'tag' must be a string, got 5"),
        ({"segments": [3.0], "tag": ["a"]}, UsageError, "'tag' must be a string, got ['a']"),
        ({"segments": [3.0], "mos": True}, UsageError, "'mos' must be a number, got True"),
        ({"segments": [3.0], "mos": "4.0"}, UsageError, "'mos' must be a number, got '4.0'"),
        ({"segments": []}, ValidationError, "session must contain at least one segment"),
        ({"segments": [3.0, 7.0]}, ValidationError, "segment 1 quality 7.0 outside [1.0, 5.0]"),
        ({"segments": [3.0, math.nan]}, ValidationError,
         "segment 1 quality nan outside [1.0, 5.0]"),
        ({"segments": [3.0, 3.0], "stalls": [(3, 1.0)]}, ValidationError,
         "after_segment 3 exceeds segment count 2"),
        ({"segments": [3.0], "mos": 5.5}, ValidationError,
         "ground-truth MOS 5.5 outside [1.0, 5.0]"),
        # Types are checked before ranges, in the constructor as in a file.
        ({"segments": [7.0], "mos": "4.0"}, UsageError, "'mos' must be a number, got '4.0'"),
        ({"segments": [7.0], "tag": 5}, UsageError, "'tag' must be a string, got 5"),
    ],
)
def test_sessions_reject_what_session_files_reject(fields, error, message) -> None:
    segments, stalls = fields["segments"], fields.get("stalls", [])
    mos, tag = fields.get("mos"), fields.get("tag")
    record = {"segments": segments,
              "interruptions": [{"after_segment": a, "duration_s": d} for a, d in stalls]}
    record.update({key: value for key, value in (("mos", mos), ("tag", tag)) if value is not None})

    def construct():
        return SessionTrace(segments, [InterruptionEvent(a, d) for a, d in stalls], mos, tag)

    assert raised(construct) == (error, message)
    parsed = json.loads(json.dumps(record))
    assert raised(lambda: SessionTrace.from_dict(parsed)) == (error, message)
    assert raised(lambda: io.dataset_from_text(json.dumps([record]), "f.json")) == (
        error, f"session 0: {message}")
