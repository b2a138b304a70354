import json
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from hasqoe import (
    GeneratorConfig,
    InterruptionEvent,
    ModelWeights,
    QualityWalk,
    SessionTrace,
    StallDurations,
    UsageError,
    bin_interruption,
    bin_quality,
    classify_switch,
    extract_features,
    generate_labeled_dataset,
    generate_session,
    generate_sessions,
    interruption_degradation,
    model,
    paper_weights,
    perceptual_quality,
    predict,
    synth,
)


def test_generation_is_deterministic() -> None:
    config = GeneratorConfig(rng_seed=77)
    assert generate_sessions(config, 25) == generate_sessions(config, 25)
    assert generate_session(config) == generate_session(config)
    other = GeneratorConfig(rng_seed=78)
    assert generate_sessions(other, 25) != generate_sessions(config, 25)


def test_prefix_stability_of_substreams() -> None:
    # session k does not depend on how many sessions follow it
    config = GeneratorConfig(rng_seed=5)
    assert generate_sessions(config, 30)[:10] == generate_sessions(config, 10)


def test_spawning_at_once_equals_spawning_one_by_one() -> None:
    # generate_labeled_dataset spawns each round's substreams at once and
    # relies on them continuing the ones spawned before
    for seed, k in ((0, 1), (7, 25), (2**40 + 3, 130)):
        root = np.random.SeedSequence(seed)
        one_by_one = [root.spawn(1)[0] for _ in range(k)]
        at_once = np.random.SeedSequence(seed).spawn(k)
        assert [s.spawn_key for s in at_once] == [s.spawn_key for s in one_by_one]
        assert all(
            (a.generate_state(4) == b.generate_state(4)).all()
            for a, b in zip(at_once, one_by_one)
        )


def test_labeled_prefix_does_not_depend_on_the_count_or_the_round_size(monkeypatch) -> None:
    weights = paper_weights()
    config = GeneratorConfig(rng_seed=41)
    for noise_std in (0.0, 0.3):
        long = generate_labeled_dataset(config, 30, weights, noise_std=noise_std, skip_clamped=True)
        short = generate_labeled_dataset(config, 10, weights, noise_std=noise_std, skip_clamped=True)
        assert long.sessions[:10] == short.sessions
        for size in (1, 7):
            monkeypatch.setattr(synth, "_round_size", lambda needed, attempts, kept: size)
            assert generate_labeled_dataset(
                config, 30, weights, noise_std=noise_std, skip_clamped=True
            ) == long
            monkeypatch.undo()


def _within_5_sigma(counts: Counter, expected: dict) -> None:
    n = sum(counts.values())
    assert set(counts) <= set(expected)
    for category, p in expected.items():
        sigma = (n * p * (1.0 - p)) ** 0.5
        assert abs(counts[category] - n * p) <= 5.0 * sigma, (category, counts[category], n * p)


def test_draws_follow_the_configured_probabilities() -> None:
    walk = QualityWalk(
        initial_probs=(0.1, 0.3, 0.0, 0.2, 0.4),
        p_down=0.25, p_stay=0.35, p_up=0.4,
        step_probs=(0.1, 0.2, 0.3, 0.4),
    )
    stalls = StallDurations("bin_mixture", {"bin_probs": (0.3, 0.0, 0.1, 0.2, 0.15, 0.25)})
    config = GeneratorConfig(
        quality_walk=walk, stall_prob_per_boundary=0.2, stall_durations=stalls, rng_seed=9
    )
    initial, from_bottom, from_top, stalled, stall_bins = (Counter() for _ in range(5))
    for trace in generate_sessions(config, 2000):
        levels = [bin_quality(q) for q in trace.segments]
        initial[levels[0]] += 1
        # From level 1 an up-move never clamps and a down-move always
        # does, so the step up is seen whole; from level 5 the step down.
        for a, b in zip(levels, levels[1:]):
            if a == 1:
                from_bottom[b - a] += 1
            elif a == 5:
                from_top[b - a] += 1
        boundaries_with_stall = {e.after_segment for e in trace.interruptions}
        assert len(boundaries_with_stall) == len(trace.interruptions)
        stalled[True] += len(boundaries_with_stall)
        stalled[False] += len(trace.segments) - 1 - len(boundaries_with_stall)
        stall_bins.update(bin_interruption(e.duration_s) for e in trace.interruptions)
    _within_5_sigma(initial, {k + 1: p for k, p in enumerate(walk.initial_probs) if p})
    steps = dict(enumerate(walk.step_probs, start=1))
    _within_5_sigma(
        from_bottom, {0: walk.p_down + walk.p_stay, **{s: walk.p_up * p for s, p in steps.items()}}
    )
    _within_5_sigma(
        from_top, {0: walk.p_up + walk.p_stay, **{-s: walk.p_down * p for s, p in steps.items()}}
    )
    _within_5_sigma(stalled, {True: 0.2, False: 0.8})
    _within_5_sigma(stall_bins, {k + 1: p for k, p in enumerate(stalls.params["bin_probs"]) if p})


def test_generated_sessions_are_valid() -> None:
    for trace in generate_sessions(GeneratorConfig(rng_seed=13), 400):
        assert len(trace.segments) >= 1
        assert all(1.0 <= q <= 5.0 for q in trace.segments)
        for event in trace.interruptions:
            assert 1 <= event.after_segment <= len(trace.segments)
            assert event.duration_s > 0.0
        assert trace.tag in ("single-factor", "multi-factor")


def test_tagging_matches_content() -> None:
    for trace in generate_sessions(GeneratorConfig(rng_seed=19), 300):
        varies = any(
            classify_switch(a, b).amplitude_bin != 0
            for a, b in zip(trace.segments, trace.segments[1:])
        )
        expected = "multi-factor" if varies and trace.interruptions else "single-factor"
        assert trace.tag == expected


def test_no_stalls_when_probability_zero() -> None:
    config = GeneratorConfig(stall_prob_per_boundary=0.0, rng_seed=3)
    assert all(not s.interruptions for s in generate_sessions(config, 100))


def test_stay_probability_one_gives_constant_quality() -> None:
    walk = QualityWalk(p_down=0.0, p_stay=1.0, p_up=0.0, jitter=0.0)
    config = GeneratorConfig(n_segments=20, quality_walk=walk, rng_seed=21)
    for trace in generate_sessions(config, 50):
        assert len(set(trace.segments)) == 1


def test_jitter_stays_inside_the_level_bin() -> None:
    config = GeneratorConfig(rng_seed=23)
    for trace in generate_sessions(config, 200):
        for q in trace.segments:
            assert 1.0 <= q <= 5.0


def test_default_config_covers_every_bin() -> None:
    sessions = generate_sessions(GeneratorConfig(rng_seed=0), 1000)
    quality = Counter()
    down = Counter()
    stalls = Counter()
    for trace in sessions:
        for q in trace.segments:
            quality[bin_quality(q)] += 1
        for a, b in zip(trace.segments, trace.segments[1:]):
            event = classify_switch(a, b)
            if event.amplitude_bin < 0:
                down[(event.starting_quality_bin, event.amplitude_bin)] += 1
        for event in trace.interruptions:
            stalls[bin_interruption(event.duration_s)] += 1
    assert len(quality) == 5
    assert len(down) == 10
    assert len(stalls) == 6


def test_labeled_dataset_labels_match_model_when_noiseless() -> None:
    weights = paper_weights()
    dataset = generate_labeled_dataset(GeneratorConfig(rng_seed=29), 150, weights)
    for session in dataset.sessions:
        assert session.ground_truth_mos == min(predict(session, weights), 5.0)
        varies = any(
            classify_switch(a, b).amplitude_bin != 0
            for a, b in zip(session.segments, session.segments[1:])
        )
        assert session.tag == ("multi-factor" if varies and session.interruptions else "single-factor")


def test_skip_clamped_keeps_only_linear_sessions() -> None:
    weights = paper_weights()
    dataset = generate_labeled_dataset(
        GeneratorConfig(rng_seed=31), 150, weights, skip_clamped=True
    )
    for session in dataset.sessions:
        fv = extract_features(session)
        raw = perceptual_quality(fv, weights) - interruption_degradation(fv, weights)
        assert raw >= 1.0


#: The plant-and-recover recipe of the acceptance tests: about seven in
#: eight of its candidates score below the 1.0 floor.
_MOSTLY_CLAMPED = GeneratorConfig(
    n_segments=(1, 60),
    quality_walk=QualityWalk(
        initial_probs=(0.08, 0.12, 0.20, 0.25, 0.35),
        p_down=0.25,
        p_stay=0.45,
        p_up=0.30,
        step_probs=(0.45, 0.30, 0.15, 0.10),
    ),
    stall_prob_per_boundary=0.15,
    stall_durations=StallDurations(
        "bin_mixture", {"bin_probs": [0.10, 0.15, 0.15, 0.15, 0.20, 0.25], "tail_max": 5.0}
    ),
    rng_seed=7,
)


@pytest.mark.parametrize("skip_clamped", [True, False])
def test_each_returned_session_is_built_once_and_no_other(monkeypatch, skip_clamped) -> None:
    built = Counter()
    for cls in (SessionTrace, InterruptionEvent):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    dataset = generate_labeled_dataset(
        _MOSTLY_CLAMPED, 600, paper_weights(), skip_clamped=skip_clamped
    )
    assert built == Counter()  # the dataset holds columns until its traces are asked for
    sessions = dataset.sessions
    assert built["SessionTrace"] == len(sessions) == 600
    assert built["InterruptionEvent"] == sum(len(s.interruptions) for s in sessions)


@pytest.mark.parametrize("skip_clamped", [False, True])
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_any_run_size_gives_the_same_dataset(skip_clamped, noise_std) -> None:
    def generate():
        return generate_labeled_dataset(
            _MOSTLY_CLAMPED, 40, paper_weights(), noise_std=noise_std, skip_clamped=skip_clamped
        )

    expected = generate()
    for chunk_segments in range(1, 41):
        with mock.patch.object(model, "_CHUNK_SEGMENTS", chunk_segments):
            assert generate() == expected, chunk_segments


@pytest.mark.parametrize("round_sessions", [1, 3, 7])
def test_any_round_cap_gives_the_same_sessions(round_sessions) -> None:
    def generate():
        labeled = [
            generate_labeled_dataset(_MOSTLY_CLAMPED, 20, paper_weights(), noise_std=0.3,
                                     skip_clamped=skip_clamped)
            for skip_clamped in (False, True)
        ]
        return labeled, generate_sessions(_MOSTLY_CLAMPED, 20)

    expected = generate()
    with mock.patch.object(synth, "_ROUND_SESSIONS", round_sessions):
        assert generate() == expected


def test_rounds_of_long_sessions_hold_no_more_segments_than_default_rounds(monkeypatch) -> None:
    config = GeneratorConfig(n_segments=(900, 1000), rng_seed=4)
    rounds, seed = [], synth._pcg64.seed

    def spy(entropy, children=None):
        rounds.append(len(children))
        return seed(entropy, children)

    def generate():
        return synth.generate_columns(config, 400, paper_weights(), noise_std=0.1)

    with mock.patch.object(synth._pcg64, "seed", spy):
        batch = generate()
    assert len(rounds) > 1 and sum(rounds) == 400
    assert max(rounds) * 1000 <= 40 * synth._ROUND_SESSIONS
    monkeypatch.setattr(synth, "_ROUND_SESSIONS", 1000)  # rounds of 40 sessions
    for column, expected in zip(generate(), batch, strict=True):
        assert column.tolist() == expected.tolist()


def test_noise_is_seeded_and_bounded() -> None:
    weights = paper_weights()
    config = GeneratorConfig(rng_seed=37)
    a = generate_labeled_dataset(config, 60, weights, noise_std=0.3)
    b = generate_labeled_dataset(config, 60, weights, noise_std=0.3)
    assert a == b
    assert all(1.0 <= s.ground_truth_mos <= 5.0 for s in a.sessions)
    clean = generate_labeled_dataset(config, 60, weights)
    assert any(
        x.ground_truth_mos != y.ground_truth_mos
        for x, y in zip(a.sessions, clean.sessions)
    )


def test_generator_usage_errors() -> None:
    with pytest.raises(UsageError):
        generate_sessions(GeneratorConfig(), 0)
    with pytest.raises(UsageError):
        generate_labeled_dataset(GeneratorConfig(), 0, paper_weights())
    for noise_std in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError, match="noise_std"):
            generate_labeled_dataset(GeneratorConfig(), 10, paper_weights(), noise_std=noise_std)
    for options in ({"noise_std": 0.1}, {"skip_clamped": True}):
        with pytest.raises(UsageError, match="only make sense with weights$"):
            synth.generate_columns(GeneratorConfig(), 10, **options)
    with pytest.raises(UsageError):
        GeneratorConfig(n_segments=0)
    with pytest.raises(UsageError):
        GeneratorConfig(n_segments=(5, 2))
    with pytest.raises(UsageError, match=r"high - low must be below 4294967295$"):
        GeneratorConfig(n_segments=(3, 2**32 + 2))
    assert GeneratorConfig(n_segments=(3, 2**32 + 1)).n_segments == (3, 2**32 + 1)
    for n_segments in (2**40 + 1, (10**20, 10**20 + 1)):
        with pytest.raises(UsageError, match=r"must not exceed 2\*\*40 segments$"):
            GeneratorConfig(n_segments=n_segments)
    assert GeneratorConfig(n_segments=2**40).n_segments == 2**40
    with pytest.raises(UsageError):
        GeneratorConfig(stall_prob_per_boundary=1.5)
    with pytest.raises(UsageError):
        QualityWalk(p_down=0.5, p_stay=0.5, p_up=0.5)
    with pytest.raises(UsageError):
        QualityWalk(jitter=0.6)
    with pytest.raises(UsageError):
        StallDurations("weibull")


@pytest.mark.parametrize("n_sessions, message", [
    (2.5, "'n_sessions' must be a whole number, got 2.5"),
    (True, "'n_sessions' must be a number, got True"),
    ("3", "'n_sessions' must be a number, got '3'"),
])
def test_n_sessions_must_be_a_whole_number(n_sessions, message) -> None:
    with pytest.raises(UsageError) as raised:
        generate_sessions(GeneratorConfig(), n_sessions)
    assert str(raised.value) == message
    with pytest.raises(UsageError) as raised:
        generate_labeled_dataset(GeneratorConfig(), n_sessions, paper_weights())
    assert str(raised.value) == message


@pytest.mark.parametrize("n_sessions", [3.0, np.int64(3)])
def test_n_sessions_reads_whole_numbers_as_ints(n_sessions) -> None:
    config = GeneratorConfig(rng_seed=7)
    assert generate_sessions(config, n_sessions) == generate_sessions(config, 3)
    labeled = generate_labeled_dataset(config, n_sessions, paper_weights()).sessions
    assert labeled == generate_labeled_dataset(config, 3, paper_weights()).sessions


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"n_segments": 2.7}, "'n_segments' must be a whole number, got 2.7"),
        ({"n_segments": (1.5, 3.9)}, "'n_segments' must be a whole number, got 1.5"),
        ({"n_segments": True}, "'n_segments' must be a number, got True"),
        ({"n_segments": (1, np.bool_(True))}, "'n_segments' must be a number, got "),
        ({"n_segments": "7"}, "'n_segments' must be a number, got '7'"),
        ({"rng_seed": 1.5}, "'rng_seed' must be a whole number, got 1.5"),
        ({"rng_seed": None}, "'rng_seed' must be a number, got None"),
        ({"rng_seed": False}, "'rng_seed' must be a number, got False"),
        ({"stall_prob_per_boundary": "0.1"}, "'stall_prob_per_boundary' must be a number"),
    ],
)
def test_python_callers_get_the_recipe_checks(kwargs, message) -> None:
    with pytest.raises(UsageError, match=f"^{re.escape(message)}"):
        GeneratorConfig(**kwargs)


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda: QualityWalk(p_down=True, p_stay=0.7, p_up=0.0), "'p_down' must be a number"),
        (lambda: QualityWalk(jitter=None), "'jitter' must be a number, got None"),
        (lambda: QualityWalk(step_probs="0.4"), "'step_probs' must be an array of numbers"),
        (lambda: QualityWalk(initial_probs=np.array(0.2)), "'initial_probs' must be an array"),
        (lambda: QualityWalk(initial_probs=np.full((1, 5), 0.2)), "'initial_probs' must be a number"),
        (lambda: StallDurations("constant", {"value": "2"}), "'value' must be a number, got '2'"),
        (lambda: StallDurations("bin_mixture", {"bin_probs": [1, 0, 0, 0, 0, None]}),
         "'bin_probs' must be a number, got None"),
        (lambda: QualityWalk(initial_probs=(0.25,) * 4), "initial_probs must have 5 entries"),
        (lambda: QualityWalk(step_probs=(0.5, 0.5)),
         "step_probs must have 4 entries (step sizes 1..4)"),
        (lambda: StallDurations("bin_mixture", {"bin_probs": [0.5, 0.5]}),
         "bin_probs must have 6 entries"),
    ],
)
def test_python_callers_get_the_record_checks(make, message) -> None:
    with pytest.raises(UsageError, match=f"^{re.escape(message)}"):
        make()


def test_python_callers_keep_numpy_numbers() -> None:
    config = GeneratorConfig(
        n_segments=(np.int64(2), np.float64(9.0)),
        quality_walk=QualityWalk(initial_probs=np.full(5, 0.2), p_down=np.float32(0.25),
                                 p_stay=np.float64(0.5), p_up=0.25, jitter=np.float64(0.1)),
        stall_prob_per_boundary=np.float64(0.3),
        stall_durations=StallDurations("bin_mixture", {"bin_probs": np.array(synth.DEFAULT_BIN_PROBS),
                                                        "tail_max": np.int64(5)}),
        rng_seed=np.uint64(2**64 - 1),
    )
    plain = GeneratorConfig(
        n_segments=(2, 9),
        quality_walk=QualityWalk(p_down=0.25, p_stay=0.5, p_up=0.25, jitter=0.1),
        stall_prob_per_boundary=0.3,
        stall_durations=StallDurations("bin_mixture", {"tail_max": 5.0}),
        rng_seed=2**64 - 1,
    )
    assert config == plain
    assert type(config.n_segments[1]) is int and type(config.rng_seed) is int
    assert type(config.quality_walk.p_stay) is float
    assert config.quality_walk.initial_probs == (0.2,) * 5
    assert GeneratorConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    assert generate_sessions(config, 4) == generate_sessions(plain, 4)
    # Integers are held exactly, at any size.
    assert GeneratorConfig(rng_seed=2**53 + 1).rng_seed == 2**53 + 1
    assert GeneratorConfig(n_segments=np.float64(3.0)).n_segments == 3


def test_impossible_skip_clamped_config_fails_cleanly() -> None:
    # every session of this config clamps: two segments, huge stall
    config = GeneratorConfig(
        n_segments=2,
        stall_prob_per_boundary=1.0,
        stall_durations=StallDurations("constant", {"value": 60.0}),
        rng_seed=1,
    )
    # 20 * 10 + 100 candidates are drawn before giving up, whatever the rounds
    with pytest.raises(UsageError, match="after 300 attempts: .*clamp"):
        generate_labeled_dataset(config, 10, paper_weights(), skip_clamped=True)


def test_a_score_of_exactly_one_is_not_clamped() -> None:
    # every single-segment session scores exactly 1.0 under these weights
    weights = ModelWeights.from_vector([1.0] * 5 + [0.0] * 17)
    dataset = generate_labeled_dataset(
        GeneratorConfig(n_segments=1, rng_seed=2), 20, weights, skip_clamped=True
    )
    assert all(s.ground_truth_mos == 1.0 for s in dataset.sessions)


def test_category_draws_never_run_past_the_last_category() -> None:
    # probabilities may sum to 1 - 1e-9; the cumulative ones are rescaled to end at 1
    probs = (0.25, 0.25, 0.5 - 1e-9)
    u = np.array([0.0, 0.3, 0.5 - 1e-10, 1.0 - 1e-10, np.nextafter(1.0, 0.0)])
    assert synth._pick(probs, u).tolist() == [0, 1, 1, 2, 2]


def test_stall_duration_distributions() -> None:
    rng = np.random.default_rng(11)
    constant = StallDurations("constant", {"value": 2.5})
    assert (constant.durations(rng.random(20), rng.random(20)) == 2.5).all()
    uniform = StallDurations("uniform", {"low": 0.5, "high": 1.5})
    draws = uniform.durations(rng.random(200), rng.random(200))
    assert all(0.5 < d <= 1.5 for d in draws)
    mixture = StallDurations("bin_mixture", {"bin_probs": [0, 0, 0, 0, 0, 1.0]})
    assert all(3.0 < d <= 6.0 for d in mixture.durations(rng.random(50), rng.random(50)))
    # the ends of [0, 1): the upper edge of a bin is reached, the lower one
    # is not, also where 0.5 - 0.25 * (1 - 2**-53) rounds to 0.25
    ends = np.array([0.0, 1 - 2**-53])
    assert uniform.durations(ends, ends).tolist() == [1.5, 0.5 + 2**-53]
    second_bin = StallDurations("bin_mixture", {"bin_probs": [0, 1, 0, 0, 0, 0]})
    assert [bin_interruption(d) for d in second_bin.durations(ends, ends)] == [2, 2]


def test_config_round_trip_through_dict() -> None:
    config = GeneratorConfig(
        n_segments=(5, 15),
        quality_walk=QualityWalk(jitter=0.1),
        stall_prob_per_boundary=0.2,
        stall_durations=StallDurations("uniform", {"low": 0.5, "high": 2.0}),
        rng_seed=123,
    )
    assert GeneratorConfig.from_dict(config.to_dict()) == config
    with pytest.raises(UsageError):
        GeneratorConfig.from_dict({"segments": 4})
