import pytest

from hasqoe import InterruptionEvent, SessionTrace, UsageError, ValidationError


def test_trace_coerces_to_tuples_and_floats() -> None:
    trace = SessionTrace([5, 4], [InterruptionEvent(1, 0.5)])
    assert trace.segments == (5.0, 4.0)
    assert isinstance(trace.segments, tuple)
    assert isinstance(trace.interruptions, tuple)


def test_trace_rejects_empty_segments() -> None:
    with pytest.raises(ValidationError, match="at least one segment"):
        SessionTrace(())


def test_trace_rejects_out_of_range_quality() -> None:
    with pytest.raises(ValidationError, match="segment 1 quality 7.0"):
        SessionTrace((3.0, 7.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.999])
def test_trace_names_the_first_bad_segment(bad) -> None:
    with pytest.raises(ValidationError, match=f"segment 2 quality {bad!r} outside"):
        SessionTrace((3.0, 4.0, bad, 9.0))


def test_trace_rejects_an_interruption_that_is_not_an_event() -> None:
    with pytest.raises(ValidationError) as raised:
        SessionTrace((3.0, 4.0), [(1, 0.5)])
    assert str(raised.value) == "interruption (1, 0.5) is not an InterruptionEvent"


def test_interruption_rejects_nonpositive_duration() -> None:
    with pytest.raises(ValidationError):
        InterruptionEvent(1, 0.0)
    with pytest.raises(ValidationError):
        InterruptionEvent(1, -2.5)


def test_interruption_after_segment_must_be_whole() -> None:
    assert InterruptionEvent(3.0, 1.0).after_segment == 3
    assert type(InterruptionEvent(3.0, 1.0).after_segment) is int
    message = "'after_segment' must be a whole number, got 2.7"
    with pytest.raises(UsageError) as raised:
        InterruptionEvent(2.7, 1.0)
    assert str(raised.value) == message
    with pytest.raises(UsageError) as raised:
        InterruptionEvent.from_dict({"after_segment": 2.7, "duration_s": 1.0})
    assert str(raised.value) == message
    assert InterruptionEvent.from_dict({"after_segment": 2.0, "duration_s": 1}) == InterruptionEvent(2, 1.0)


def test_interruption_before_first_segment_is_rejected() -> None:
    # stalls before playback starts are initial delay, which the model
    # does not cover
    with pytest.raises(ValidationError):
        InterruptionEvent(0, 1.0)


def test_interruption_index_bounds() -> None:
    SessionTrace((5.0, 4.0), (InterruptionEvent(2, 1.0),))  # after last segment: fine
    with pytest.raises(ValidationError, match="exceeds"):
        SessionTrace((5.0, 4.0), (InterruptionEvent(3, 1.0),))


def test_ground_truth_mos_range() -> None:
    assert SessionTrace((3.0,), ground_truth_mos=4.2).ground_truth_mos == 4.2
    with pytest.raises(ValidationError):
        SessionTrace((3.0,), ground_truth_mos=5.4)


def test_round_trip_through_dict() -> None:
    trace = SessionTrace(
        (4.0, 3.2, 5.0),
        (InterruptionEvent(1, 0.7), InterruptionEvent(3, 2.5)),
        ground_truth_mos=3.5,
        tag="multi-factor",
    )
    assert SessionTrace.from_dict(trace.to_dict()) == trace


def test_from_dict_structural_errors_are_usage_errors() -> None:
    with pytest.raises(UsageError, match="segments"):
        SessionTrace.from_dict({"interruptions": []})
    with pytest.raises(UsageError):
        SessionTrace.from_dict({"segments": "abc"})
    with pytest.raises(UsageError):
        SessionTrace.from_dict({"segments": [3.0], "interruptions": [{"duration_s": 1.0}]})
    with pytest.raises(UsageError):
        SessionTrace.from_dict({"segments": [3.0], "mos": "great"})


@pytest.mark.parametrize(
    "record",
    [
        {"segments": [True, 3.0]},
        {"segments": [3.0, None]},
        {"segments": ["3.5"]},
        {"segments": [3.0], "mos": True},
        {"segments": [3.0], "mos": "4.0"},
        {"segments": [3.0], "interruptions": [{"after_segment": True, "duration_s": 1.0}]},
        {"segments": [3.0], "interruptions": [{"after_segment": 1, "duration_s": False}]},
        {"segments": [3.0], "interruptions": [{"after_segment": float("nan"), "duration_s": 1.0}]},
        {"segments": [3.0, 10**400]},
        {"segments": [3.0], "mos": 10**400},
    ],
)
def test_from_dict_rejects_values_that_are_not_json_numbers(record) -> None:
    with pytest.raises(UsageError):
        SessionTrace.from_dict(record)


def test_from_dict_domain_errors_are_validation_errors() -> None:
    with pytest.raises(ValidationError):
        SessionTrace.from_dict({"segments": [9.0]})
