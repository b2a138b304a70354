"""The protocol's test-set draws against numpy's own generator.

``evaluation.split_masks`` computes numpy's
``default_rng(SeedSequence(seed).spawn(n)[k]).choice(pool, size, replace=False)``
stream without loading ``numpy.random``, except for a tail shuffle, which
numpy's own generator draws from the split's stream.  These tests hold
the two equal:
over seeds of one to seven 32-bit words, pools on both sides of
``choice``'s switch from Floyd's algorithm to a tail shuffle (more than
10000 sessions and a test set of more than ``pool // 50``), and test sizes
up to the whole pool.  Each split's stream is seeded in Python
(``_pcg64.streams``), and a test holds it equal to the generator's
vectorized seeding.  One draw is pinned as a literal, so the stream
stays frozen even if a later numpy changes ``choice``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasqoe import GeneratorConfig, UsageError, generate_labeled_dataset, io, paper_weights
from hasqoe import _pcg64
from hasqoe.cli import main
from hasqoe.evaluation import SplitProtocol, split_masks

seeds = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32),
    st.integers(min_value=2**64, max_value=2**66),
    st.integers(min_value=2**128, max_value=2**200),
)


@st.composite
def pools_and_sizes(draw):
    pool = draw(st.one_of(
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=9990, max_value=10010),
        st.integers(min_value=10001, max_value=25000),
    ))
    size = draw(st.one_of(
        st.integers(min_value=2, max_value=pool),
        st.sampled_from([pool // 50, pool // 50 + 1, pool]).filter(lambda n: n >= 2),
    ))
    return pool, size


def numpy_test_sets(seed: int, repetitions: int, pool: int, size: int) -> list[list[int]]:
    return [
        sorted(np.random.default_rng(substream).choice(pool, size, replace=False).tolist())
        for substream in np.random.SeedSequence(seed).spawn(repetitions)
    ]


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=3), pools_and_sizes())
def test_each_test_set_is_the_one_numpy_draws(seed, repetitions, pool_and_size) -> None:
    pool, size = pool_and_size
    tags = ["pool"] * pool + ["train"]  # one session outside the pool leaves a training set
    masks = split_masks(tags, SplitProtocol(repetitions, size, "pool", seed))
    drawn = [np.flatnonzero(mask).tolist() for mask in masks]
    assert drawn == numpy_test_sets(seed, repetitions, pool, size)


@settings(max_examples=50)
@given(seeds, st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=2**32 - 2))
def test_a_bounded_draw_is_numpys(seed, split, high) -> None:
    # Highs above 2**31 reject up to half of the draws, so the rejection loop is exercised too.
    expected = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(split,)))
    draws = _pcg64.draws32(*_pcg64.seed(seed, [split]).numbers(0))
    actual = [_pcg64.bounded(draws, high) for _ in range(20)]
    assert actual == expected.integers(0, high, size=20, endpoint=True).tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(seeds, st.just(2**128 + 7), st.integers(min_value=2**96, max_value=2**160)),
       st.integers(min_value=0, max_value=64))
def test_each_split_stream_is_its_seeded_lane(seed, n) -> None:
    lanes = _pcg64.seed(seed, range(n))
    assert list(_pcg64.streams(seed, n)) == [lanes.numbers(k) for k in range(n)]


def test_a_protocol_run_seeds_no_lanes(tmp_path, monkeypatch, capsys) -> None:
    path = str(tmp_path / "d.json")
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=2), 300, paper_weights(),
                                       noise_std=0.1)
    io.write_dataset(dataset.batch, path)
    calls, seed_lanes = [], _pcg64.seed

    def spy(*args):
        calls.append(args)
        return seed_lanes(*args)

    monkeypatch.setattr(_pcg64, "seed", spy)
    assert main(["evaluate", "--input", path, "--refit", "--splits", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["per_split"]) == 2
    assert calls == []


def test_seed_0s_first_test_set_over_1700_sessions_is_pinned() -> None:
    tags = ["multi-factor"] * 1700 + ["single-factor"]
    mask = split_masks(tags, SplitProtocol(n_repetitions=50))[0]
    assert np.flatnonzero(mask).tolist() == [
        1, 8, 11, 36, 58, 77, 92, 143, 145, 147, 191, 203, 285, 302, 330, 333, 339, 344,
        368, 420, 427, 437, 447, 486, 510, 562, 603, 637, 641, 656, 685, 690, 706, 708,
        730, 752, 761, 764, 769, 780, 786, 803, 808, 835, 880, 944, 1012, 1015, 1023, 1024,
        1040, 1044, 1051, 1066, 1076, 1079, 1087, 1098, 1107, 1123, 1133, 1167, 1183, 1194,
        1225, 1233, 1269, 1287, 1292, 1326, 1331, 1333, 1361, 1379, 1387, 1394, 1449, 1454,
        1479, 1490, 1509, 1520, 1540, 1557, 1591, 1597, 1598, 1599, 1638, 1658,
    ]


def test_split_and_child_indices_fit_one_32_bit_word() -> None:
    # numpy hashes a child index of 2**32 or more as two words; the seeding here as one.
    with pytest.raises(UsageError, match=r"^n_repetitions 4294967297 must be at most 2\*\*32$"):
        SplitProtocol(n_repetitions=2**32 + 1)
    assert SplitProtocol(n_repetitions=2**32).n_repetitions == 2**32
    with pytest.raises(UsageError, match=r"^child index 4294967296 must be below 2\*\*32$"):
        _pcg64.seed(0, [2**32])
    assert _pcg64.seed(0, [2**32 - 1]).size == 1


def test_a_seed_is_a_non_negative_integer() -> None:
    with pytest.raises(UsageError, match=r"^rng_seed -1 must be >= 0$"):
        SplitProtocol(rng_seed=-1)
    with pytest.raises(UsageError, match=r"^'rng_seed' must be a whole number, got 1\.5$"):
        SplitProtocol(rng_seed=1.5)
    seed = SplitProtocol(rng_seed=np.int64(7)).rng_seed
    assert seed == 7 and type(seed) is int
