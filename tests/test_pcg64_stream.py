"""The generator's vectorized PCG64 stream against numpy's own generator.

``hasqoe._pcg64`` computes, for many substreams at once, the draws
``synth`` takes from ``default_rng(SeedSequence(seed).spawn(n)[k])``: the
segment count ``integers(low, high + 1)``, the block of ``random()``
doubles and, through numpy, the label noise.  These tests hold each draw
equal to numpy's for seeds of one to seven 32-bit words, for rounds that
start past child 0, and for the unspawned ``SeedSequence(seed)`` that
:func:`hasqoe.generate_session` draws from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasqoe import _pcg64

seeds = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64 - 1),
    st.integers(min_value=2**64, max_value=2**128 - 1),
    st.integers(min_value=2**128, max_value=2**224),
)

#: Segment-count ranges: of one value, short and long; spans of 32 bits
#: are drawn apart below.
ranges = st.one_of(
    st.integers(1, 50).map(lambda n: (n, n)),
    st.tuples(st.integers(1, 20), st.integers(1, 60)).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(st.integers(1, 3), st.integers(200, 700)).map(lambda t: (t[0], t[0] + t[1])),
)


def numpy_draws(seed: int, first: int, n: int, low: int, high: int, blocks: bool = True):
    """Each child's count, doubles and normal, as ``synth`` drew them through ``numpy.random``."""
    draws = []
    for child in np.random.SeedSequence(seed).spawn(first + n)[first:]:
        rng = np.random.default_rng(child)
        count = int(rng.integers(low, high + 1))
        if blocks:
            draws.append((count, rng.random(6 * count), rng.standard_normal()))
        else:
            draws.append(count)
    return draws


@settings(max_examples=120, deadline=None)
@given(seeds, st.integers(0, 20000), st.integers(1, 12), ranges, st.integers(1, 5))
def test_each_substreams_draws_are_numpys(seed, first, n, bounds, chunk_rows) -> None:
    low, high = bounds
    lanes = _pcg64.seed(seed, np.arange(first, first + n))
    counts, after = _pcg64.integers(lanes, low, high)
    expected = numpy_draws(seed, first, n, low, high)
    assert counts.tolist() == [count for count, _, _ in expected]
    for rows in (_pcg64._CHUNK_ROWS, chunk_rows):  # also a few rows at a time
        _pcg64._CHUNK_ROWS, saved = rows, _pcg64._CHUNK_ROWS
        try:
            doubles = _pcg64.random(after, 6 * counts)
        finally:
            _pcg64._CHUNK_ROWS = saved
        assert np.array_equal(doubles, np.concatenate([block for _, block, _ in expected]))
    noise = _pcg64.standard_normal(after, 6 * counts)
    assert noise.tolist() == [normal for _, _, normal in expected]


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 100), st.integers(1, 40), st.integers(1, 2**31),
       st.integers(1, 2**20), st.booleans())
def test_counts_from_spans_of_32_bits_are_numpys(seed, first, n, low, offset, widest) -> None:
    # Lemire's method rejects a 32-bit draw below 2**32 % span: up to half of them for
    # spans just above 2**31, few for spans just under the bound of 2**32 - 1.
    span = 2**32 - offset if widest else 2**31 + offset
    high = low + span - 1
    counts, _ = _pcg64.integers(_pcg64.seed(seed, np.arange(first, first + n)), low, high)
    assert counts.tolist() == numpy_draws(seed, first, n, low, high, blocks=False)


@settings(max_examples=60, deadline=None)
@given(seeds, ranges)
def test_the_unspawned_seeds_draws_are_numpys(seed, bounds) -> None:
    low, high = bounds
    rng = np.random.default_rng(seed)
    counts, after = _pcg64.integers(_pcg64.seed(seed), low, high)
    count = int(rng.integers(low, high + 1))
    assert counts.tolist() == [count]
    assert np.array_equal(_pcg64.random(after, 6 * counts), rng.random(6 * count))
    assert _pcg64.standard_normal(after, 6 * counts).tolist() == [rng.standard_normal()]


def test_a_session_longer_than_a_chunk_of_rows_is_numpys() -> None:
    rows = _pcg64._CHUNK_ROWS * _pcg64._ROW
    counts = np.array([3, 2 * rows + 5, 7])
    lanes = _pcg64.seed(11, np.arange(3))
    expected = [np.random.default_rng(child).random(count)
                for child, count in zip(np.random.SeedSequence(11).spawn(3), counts)]
    assert np.array_equal(_pcg64.random(lanes, counts), np.concatenate(expected))


@pytest.mark.parametrize("seed", [0, 2**32 + 1, 2**130 + 7])
def test_the_seeded_lanes_hold_numpys_pcg64_state(seed) -> None:
    lanes = _pcg64.seed(seed, np.arange(5))
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(5)):
        state = np.random.PCG64(child).state["state"]
        assert lanes.numbers(k) == (state["state"], state["inc"])
