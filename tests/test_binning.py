import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hasqoe import (
    SwitchEvent,
    ValidationError,
    bin_interruption,
    bin_quality,
    classify_switch,
)

mos_values = st.floats(min_value=1.0, max_value=5.0, allow_nan=False)


def _ulps_around(x: float, n: int = 40) -> list[float]:
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


#: Every value of [1, 5] within 40 ulps of a level or amplitude bin edge
#: (a half-integer or an integer), where float rounding picks the bin.
BIN_EDGE_VALUES = [
    q for k in range(2, 11) for q in _ulps_around(k / 2) if 1.0 <= q <= 5.0
]


def _at_every_bin_edge(test):
    """Add the deepest drop to and from every bin-edge value as explicit examples.

    A drop is deepest when it ends at 1.0, since rounding is monotone, so
    these pairs are where a drop below the bottom level would show.
    """
    for q in BIN_EDGE_VALUES:
        test = example(q, 1.0)(example(5.0, q)(test))
    return test


def test_bin_quality_examples() -> None:
    assert bin_quality(4.5) == 5
    assert bin_quality(1.0) == 1
    assert bin_quality(3.49) == 3
    assert bin_quality(5.0) == 5


def test_bin_quality_edges_belong_to_upper_bin() -> None:
    # intervals are closed on the left, open on the right
    assert bin_quality(1.5) == 2
    assert bin_quality(2.5) == 3
    assert bin_quality(3.5) == 4
    assert bin_quality(4.4999) == 4


@pytest.mark.parametrize("bad", [0.999, 5.001, 0.0, -3.0, float("nan"), float("inf")])
def test_bin_quality_rejects_out_of_range(bad: float) -> None:
    with pytest.raises(ValidationError, match=repr(float(bad))):
        bin_quality(bad)


@given(mos_values)
def test_bin_quality_interval_membership(q: float) -> None:
    n = bin_quality(q)
    assert 1 <= n <= 5
    assert n - 0.5 <= q < n + 0.5


def test_bin_interruption_examples() -> None:
    assert bin_interruption(0.25) == 1
    assert bin_interruption(3.0) == 5
    assert bin_interruption(10.0) == 6


def test_bin_interruption_edges_belong_to_lower_bin() -> None:
    # intervals are open on the left, closed on the right
    assert bin_interruption(0.1) == 1
    assert bin_interruption(0.26) == 2
    assert bin_interruption(0.5) == 2
    assert bin_interruption(1.0) == 3
    assert bin_interruption(1.00001) == 4
    assert bin_interruption(2.0) == 4
    assert bin_interruption(3.00001) == 6


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_bin_interruption_rejects_nonpositive(bad: float) -> None:
    with pytest.raises(ValidationError):
        bin_interruption(bad)


@given(st.floats(min_value=1e-9, max_value=100.0, allow_nan=False))
def test_bin_interruption_interval_membership(d: float) -> None:
    edges = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, math.inf)
    bin_index = bin_interruption(d)
    assert 1 <= bin_index <= 6
    assert edges[bin_index - 1] < d <= edges[bin_index]


def test_classify_switch_examples() -> None:
    assert classify_switch(5.0, 1.0) == SwitchEvent(5, -4)
    assert classify_switch(3.0, 3.0) == SwitchEvent(3, 0)
    assert classify_switch(2.2, 4.1) == SwitchEvent(2, 2)


def test_classify_switch_amplitude_edges() -> None:
    # amplitude bins are closed-left half-open intervals like the quality bins
    assert classify_switch(3.0, 3.5).amplitude_bin == 1
    assert classify_switch(3.0, 3.49).amplitude_bin == 0
    assert classify_switch(3.0, 2.5).amplitude_bin == 0
    assert classify_switch(3.0, 2.49).amplitude_bin == -1
    assert classify_switch(5.0, 3.0) == SwitchEvent(5, -2)


def test_classify_switch_rejects_out_of_range() -> None:
    with pytest.raises(ValidationError):
        classify_switch(0.5, 3.0)
    with pytest.raises(ValidationError):
        classify_switch(3.0, 5.5)


@given(mos_values, mos_values)
@_at_every_bin_edge
def test_classify_switch_down_switches_land_in_valid_bins(q_before: float, q_after: float) -> None:
    event = classify_switch(q_before, q_after)
    assert 1 <= event.starting_quality_bin <= 5
    assert -4 <= event.amplitude_bin <= 4
    if event.amplitude_bin < 0:
        # a drop can never go below the bottom level
        assert event.starting_quality_bin + event.amplitude_bin >= 1
