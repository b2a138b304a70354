import inspect
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

import hasqoe
from hasqoe import (
    GeneratorConfig,
    InterruptionEvent,
    LabeledDataset,
    SessionTrace,
    SplitProtocol,
    evaluate_predictions,
    generate_labeled_dataset,
    io,
    paper_weights,
    run_split_protocol,
)
from hasqoe.cli import main


DATA = Path(__file__).parent / "data"


def run_cli(*args: str) -> int:
    return main(list(args))


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def labeled_path(tmp_path_factory) -> str:
    dataset = generate_labeled_dataset(
        GeneratorConfig(rng_seed=41), 80, paper_weights(), noise_std=0.2
    )
    path = tmp_path_factory.mktemp("data") / "labeled.json"
    io.write_dataset(dataset.sessions, str(path))
    return str(path)


# ---------------------------------------------------------------- gen


def test_gen_writes_valid_dataset(tmp_path) -> None:
    out = tmp_path / "sessions.json"
    assert run_cli("gen", "--count", "12", "--output", str(out), "--seed", "3") == 0
    sessions = io.read_sessions(str(out))
    assert len(sessions) == 12
    assert all(s.ground_truth_mos is None for s in sessions)


def test_gen_is_reproducible_byte_for_byte(tmp_path) -> None:
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    run_cli("gen", "--count", "10", "--output", str(a), "--seed", "5")
    run_cli("gen", "--count", "10", "--output", str(b), "--seed", "5")
    run_cli("gen", "--count", "10", "--output", str(c), "--seed", "6")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_with_weights_labels_sessions(tmp_path) -> None:
    out = tmp_path / "labeled.json"
    assert (
        run_cli(
            "gen", "--count", "15", "--output", str(out),
            "--weights", "paper", "--noise-std", "0.1", "--seed", "2",
        )
        == 0
    )
    sessions = io.read_sessions(str(out))
    assert all(
        s.ground_truth_mos is not None and 1.0 <= s.ground_truth_mos <= 5.0
        for s in sessions
    )


def test_gen_reads_config_file_and_seed_overrides_it(tmp_path) -> None:
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(GeneratorConfig(n_segments=7, rng_seed=1).to_dict())
    )
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    run_cli("gen", "--count", "5", "--output", str(out1), "--config", str(config_path))
    run_cli("gen", "--count", "5", "--output", str(out2),
            "--config", str(config_path), "--seed", "99")
    sessions = io.read_sessions(str(out1))
    assert all(len(s.segments) == 7 for s in sessions)
    assert out1.read_bytes() != out2.read_bytes()


def test_gen_reads_whole_number_probabilities(tmp_path) -> None:
    config_path, out = tmp_path / "config.json", tmp_path / "out.json"
    config_path.write_text(json.dumps({
        "quality_walk": {"p_down": 0, "p_stay": 1, "p_up": 0, "jitter": 0},
        "stall_prob_per_boundary": 1,
        "stall_durations": {"params": {"bin_probs": [0, 0, 0, 0, 0, 1]}},
    }))
    assert run_cli("gen", "--count", "20", "--output", str(out), "--config", str(config_path)) == 0
    for session in io.read_sessions(str(out)):
        assert len(set(session.segments)) == 1
        assert all(e.duration_s > 3.0 for e in session.interruptions)
        assert len(session.interruptions) == len(session.segments) - 1


def test_gen_rejects_bad_count() -> None:
    assert run_cli("gen", "--count", "0", "--output", "unused.json") == 1


UNKNOWN_DISTRIBUTION = "known: bin_mixture, uniform, constant"


@pytest.mark.parametrize(
    ("config", "message"),
    [
        ({"quality_walk": 5}, "quality_walk must be an object"),
        ({"n_segments": "abc"}, "'n_segments' must be a number, got 'abc'"),
        ({"stall_durations": {"params": 5}},
         "bin_mixture params must be an object with keys from ['bin_probs', 'tail_max']"),
        ({"stall_prob_per_boundary": True}, "'stall_prob_per_boundary' must be a number, got True"),
        ({"n_segments": [2, 5.5]}, "'n_segments' must be a whole number, got 5.5"),
        ({"n_segments": None}, "'n_segments' must be a number, got None"),
        ({"rng_seed": -1}, "rng_seed -1 must be >= 0"),
        ({"rng_seed": "7"}, "'rng_seed' must be a number, got '7'"),
        ({"quality_walk": {"jitter": None}}, "'jitter' must be a number, got None"),
        ({"quality_walk": {"step_probs": 1.0}}, "'step_probs' must be an array of numbers, got 1.0"),
        ({"quality_walk": {"p_down": True, "p_stay": False, "p_up": False}},
         "'p_down' must be a number, got True"),
        ({"quality_walk": {"step_probs": [0.5, 0.5, 0.0, float("nan")]}},
         "step_probs (0.5, 0.5, 0.0, nan) must be non-negative and sum to 1"),
        ({"stall_durations": 5}, "stall_durations must be an object"),
        ({"stall_durations": {"name": ["constant"]}},
         f"unknown stall duration distribution ['constant']; {UNKNOWN_DISTRIBUTION}"),
        ({"stall_durations": {"name": "uniform", "params": {"low": "0.5"}}},
         "'low' must be a number, got '0.5'"),
        ({"stall_durations": {"name": "constant", "params": {"valeu": 2.0}}},
         "constant params must be an object with keys from ['value']"),
        ({"stall_durations": {"name": "constant", "params": {"value": float("inf")}}},
         "stall duration inf must be positive"),
        ({"stall_durations": {"params": {"bin_probs": [0.5, 0.5, 0, 0, 0, float("nan")]}}},
         "bin_probs (0.5, 0.5, 0.0, 0.0, 0.0, nan) must be non-negative and sum to 1"),
        ({"stall_durations": {"params": {"tail_max": float("nan")}}}, "tail_max nan must exceed 3.0"),
        ({"stall_durations": {"params": {"tail_max": float("inf")}}}, "tail_max inf must exceed 3.0"),
        ({"stall_durations": {"name": "uniform", "params": {"high": float("inf")}}},
         "bad uniform stall range (0.1, inf]"),
        ({"quality_walk": {"p_stay": "x"}}, "'p_stay' must be a number, got 'x'"),
        ({"quality_walk": {"p_up": 0.5}},
         "move probabilities (0.3, 0.4, 0.5) must be non-negative and sum to 1"),
        ({"stall_durations": {"params": {"bin_probs": [1, 0, 0, 0, 0, True]}}},
         "'bin_probs' must be a number, got True"),
        ({"n_segments": [1]}, "n_segments range (1,) must be (low, high)"),
        ({"rng_seed": 1.5}, "'rng_seed' must be a whole number, got 1.5"),
    ],
)
def test_gen_rejects_malformed_config(tmp_path, capsys, config, message) -> None:
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    assert run_cli("gen", "--count", "3", "--output", str(out), "--config", str(path)) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_reads_recipe_seeds_and_counts_exactly(tmp_path, capsys) -> None:
    # 2**53 + 1 and 2**53 are one float apart; as integers they are two seeds.
    outputs = []
    for seed in ("9007199254740993", "9007199254740992"):
        path, out = tmp_path / f"{seed}.json", tmp_path / f"{seed}-out.json"
        path.write_text(f'{{"rng_seed": {seed}}}')
        assert run_cli("gen", "--count", "3", "--output", str(out), "--config", str(path)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]
    path = tmp_path / "range.json"
    path.write_text('{"n_segments": [1e20, 100000000000000000001]}')
    assert run_cli("gen", "--count", "2", "--output", str(tmp_path / "o.json"),
                   "--config", str(path)) == 1
    assert capsys.readouterr().err == (
        "error: n_segments (100000000000000000000, 100000000000000000001) "
        "must not exceed 2**40 segments\n"
    )


def test_gen_rejects_a_segment_count_range_of_more_than_32_bits(tmp_path, capsys) -> None:
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text('{"n_segments": [1, 1000000000000]}')
    assert run_cli("gen", "--count", "2", "--output", str(out), "--config", str(path)) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: n_segments range (1, 1000000000000) is too wide: "
        "high - low must be below 4294967295\n"
    )


@pytest.mark.parametrize(
    ("n_segments", "message"),
    [
        # Within the bound: the allocation fails at once, at 5.46 TiB.
        ("1000000000000", "Unable to allocate"),
        ("100000000000000000000", "n_segments 100000000000000000000 must not exceed 2**40"),
        ("[100000000000000000000, 100000000000000000001]", "must not exceed 2**40 segments"),
    ],
)
def test_gen_segment_count_too_large_is_one_error_line(tmp_path, capsys, n_segments, message):
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(f'{{"n_segments": {n_segments}}}')
    assert run_cli("gen", "--count", "2", "--output", str(out), "--config", str(path)) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_memory_error_without_a_message_is_one_error_line(monkeypatch, capsys) -> None:
    def exhausted(_args):
        raise MemoryError

    monkeypatch.setattr(hasqoe.cli, "cmd_predict", exhausted)
    assert run_cli("predict", "--input", "example", "--weights", "paper") == 1
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("noise", ["nan", "inf", "-inf"])
def test_gen_rejects_non_finite_noise(tmp_path, capsys, noise) -> None:
    out = tmp_path / "out.json"
    assert run_cli("gen", "--count", "3", "--output", str(out), "--weights", "paper",
                   f"--noise-std={noise}") == 1
    assert "noise_std" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_negative_seed(tmp_path) -> None:
    out = tmp_path / "out.json"
    assert run_cli("gen", "--count", "3", "--output", str(out), "--seed", "-1") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_gen_nan_label_is_validation_error(tmp_path, capsys) -> None:
    # alpha - beta_down overflows to inf - inf, a NaN score, which is kept
    # as "not below 1" and so reaches a label.
    weights = paper_weights().to_dict()
    weights["alpha"] = [1.7e308] * 5
    for entry in weights["beta_down"]:
        entry["w"] = -1.7e308
    path, out = tmp_path / "weights.json", tmp_path / "out.json"
    path.write_text(json.dumps(weights))
    assert run_cli("gen", "--weights", str(path), "--noise-std", "1e308", "--count", "50",
                   "--seed", "3", "--output", str(out)) == 2
    assert capsys.readouterr().err == "error: ground-truth MOS nan outside [1.0, 5.0]\n"
    assert not out.exists()


def overflowing_weights(path: Path, sign: float) -> str:
    """Paper weights with every alpha at ``sign * -1.7e308`` and beta_um and gamma at the opposite.

    With ``sign=1`` every raw score overflows to -inf, with ``sign=-1`` to +inf.
    """
    weights = paper_weights().to_dict()
    weights["alpha"] = [-sign * 1.7e308] * 5
    weights["beta_um"] = sign * 1.7e308
    weights["gamma"] = [sign * 1.7e308] * 6
    path.write_text(json.dumps(weights))
    return str(path)


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_scores_that_overflow_below_the_floor_are_one_numerical_error(
    tmp_path, capsys, command
) -> None:
    # The floor would make every -inf score 1.0; the overflow is reported instead.
    data = tmp_path / "data.json"
    assert run_cli("gen", "--count", "50", "--weights", "paper", "--seed", "3",
                   "--output", str(data)) == 0
    weights = overflowing_weights(tmp_path / "weights.json", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would add stderr lines
        assert run_cli(command, "--input", str(data), "--weights", weights) == 3
    assert capsys.readouterr() == (
        "", "error: predictions overflow the float range; the weights are too large\n"
    )


CORRELATION_OVERFLOWS = "sums of squares overflow the float range; correlation is undefined"


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["--no-compensation"], CORRELATION_OVERFLOWS),
        (["--splits", "2", "--test-pool", "all", "--no-compensation", "--format", "csv"],
         CORRELATION_OVERFLOWS),
        ([], "predictions overflow the float range; compensation is degenerate"),
    ],
)
def test_metrics_that_overflow_are_one_numerical_error(tmp_path, capsys, args, message) -> None:
    # Every prediction is finite, near 1e160, but a metric's sum of squares is not: it must not
    # come out as 0.0, inf or a traceback.
    data = tmp_path / "data.json"
    assert run_cli("gen", "--count", "300", "--weights", "paper", "--noise-std", "0.1",
                   "--seed", "1", "--output", str(data)) == 0
    weights = paper_weights().to_dict()
    weights["alpha"] = [1e160, 2e160, 3e160, 4e160, 5e160]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(weights))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("evaluate", "--input", str(data), "--weights", str(path), *args) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


LIU_COEFFICIENTS = {"model": "liu", "intercept": 1.0, "coefficients": {
    "weighted_quality_sum": 0.8, "mean_sq_down_amplitude": -0.1, "stall_duration_sum": -0.05,
    "stall_count": -0.3}}


@pytest.mark.parametrize(
    "args",
    [[], ["--splits", "2", "--test-pool", "all", "--test-size", "5"], ["--coefficients", "liu"]],
)
def test_baseline_statistics_that_overflow_are_one_numerical_error(tmp_path, capfd, labeled_path,
                                                                    args) -> None:
    # Each stall is finite, but their sum is not.  LAPACK writes its complaints about an
    # infinite matrix to a file descriptor, past sys.stdout and sys.stderr, so both are read there.
    sessions = json.loads(Path(labeled_path).read_text())
    sessions[0]["interruptions"] = [{"after_segment": 1, "duration_s": 1e308}] * 2
    data = tmp_path / "data.json"
    data.write_text(json.dumps(sessions))
    coefficients = tmp_path / "liu.json"
    coefficients.write_text(json.dumps(LIU_COEFFICIENTS))
    args = [str(coefficients) if arg == "liu" else arg for arg in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("evaluate", "--input", str(data), "--baseline", "liu", *args) == 3
    assert capfd.readouterr() == (
        "", "error: session 0: stall_duration_sum overflows the float range\n")


def test_gen_inf_label_is_validation_error(tmp_path, capsys) -> None:
    # Every score overflows to +inf, which the clip would turn into a label of 5.0.
    out = tmp_path / "out.json"
    weights = overflowing_weights(tmp_path / "weights.json", -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("gen", "--count", "5", "--weights", weights, "--output", str(out)) == 2
    assert capsys.readouterr().err == "error: ground-truth MOS inf outside [1.0, 5.0]\n"
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
def test_output_files_follow_the_umask(tmp_path, monkeypatch, umask) -> None:
    monkeypatch.chdir(tmp_path)
    Path("d.json").write_text("[]")
    Path("d.json").chmod(0o600)
    previous = os.umask(umask)
    try:
        assert run_cli("gen", "--count", "40", "--weights", "paper", "--output", "d.json") == 0
        assert run_cli("fit", "--input", "d.json", "--output", "w.json", "--report", "r.json") == 0
        assert run_cli("predict", "--input", "d.json", "--weights", "w.json", "--output", "p.csv") == 0
    finally:
        os.umask(previous)
    for name in ("d.json", "w.json", "r.json", "p.csv"):
        assert Path(name).stat().st_mode & 0o777 == 0o666 & ~umask, name


@pytest.mark.parametrize(
    "args",
    [
        ("gen", "--count", "3", "--output", "{target}"),
        ("predict", "--input", "example", "--weights", "paper", "--output", "{target}"),
        ("fit", "--input", "{labeled}", "--output", "{target}"),
        ("fit", "--input", "{labeled}", "--output", "{weights}", "--report", "{target}"),
        ("evaluate", "--input", "{labeled}", "--weights", "paper", "--output", "{target}"),
    ],
)
def test_a_write_into_a_missing_directory_names_the_output(tmp_path, capsys, labeled_path,
                                                           args) -> None:
    target = str(tmp_path / "missing" / "out.json")
    weights = str(tmp_path / "weights.json")
    assert run_cli(*(a.format(target=target, labeled=labeled_path, weights=weights)
                     for a in args)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {target!r}\n"
    assert ".tmp-" not in captured.err


#: Every path flag of every subcommand, in groups that make a command with the flags after them.
PATH_FLAGS = [
    (("--input", "--weights", "--output"), ("predict",)),
    (("--input", "--output", "--report"), ("fit",)),
    (("--input", "--weights", "--output"), ("evaluate",)),
    (("--external-predictions",), ("evaluate", "--input", "missing.json")),
    (("--coefficients",), ("evaluate", "--input", "missing.json", "--baseline", "guo")),
    (("--output", "--config", "--weights"), ("gen", "--count", "2")),
]


@pytest.mark.parametrize(
    "command, flags, empty",
    [pytest.param(command, flags, empty, id=f"{command[0]}{empty}")
     for flags, command in PATH_FLAGS for empty in flags],
)
def test_an_empty_path_is_one_error_line_before_any_file_is_read(tmp_path, monkeypatch, capsys,
                                                                 command, flags, empty) -> None:
    # Every other path names a missing file, so reading any would report it instead.
    monkeypatch.chdir(tmp_path)
    args = chain.from_iterable((flag, "" if flag == empty else f"{flag[2:]}.json") for flag in flags)
    assert run_cli(*command, *args) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: argument {empty}: expected a path, got ''\n")
    assert list(tmp_path.iterdir()) == []


#: The modules the benchmark's tracer wraps; it looks each up after ``import hasqoe.cli``.
TRACED = [f"hasqoe.{name}" for name in
          ("baselines", "cli", "evaluation", "fitting", "io", "model", "synth")]


def test_importing_the_cli_loads_neither_traces_nor_scipy() -> None:
    src = str(Path(hasqoe.__file__).parents[1])
    code = ("import sys, hasqoe.cli; "
            "print(sorted(m for m in sys.modules if m in ('hasqoe.traces', 'scipy')), "
            f"sorted(set({TRACED!r}) - set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "[] []\n"


def test_the_package_lists_every_public_name() -> None:
    assert set(hasqoe.__all__) <= set(dir(hasqoe))


def test_protocol_runs_leave_numpy_random_unloaded(labeled_path, tmp_path) -> None:
    # The split masks compute numpy's draws themselves from pools of up to
    # 10,000 sessions, so no evaluate run on them imports numpy.random.
    src = str(Path(hasqoe.__file__).parents[1])
    large = str(tmp_path / "large.json")
    io.write_dataset(generate_labeled_dataset(GeneratorConfig(rng_seed=42), 2000, paper_weights(),
                                              noise_std=0.2).batch, large)
    common = ["--input", labeled_path, "--splits", "2", "--test-size", "20", "--test-pool", "all"]
    runs = [["evaluate", "--refit", *common], ["evaluate", "--baseline", "guo", *common],
            ["evaluate", "--input", large, "--refit", "--test-pool", "all", "--splits", "50"]]
    code = ("import sys, hasqoe.cli; "
            f"codes = [hasqoe.cli.main(argv) for argv in {runs!r}]; "
            "print(codes, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_generating_leaves_numpy_random_unloaded(tmp_path) -> None:
    # The generator computes numpy's draws itself, and draws label noise only when it is asked for.
    src = str(Path(hasqoe.__file__).parents[1])
    out = str(tmp_path / "out.json")
    runs = [["gen", "--count", "30", "--output", out],
            ["gen", "--count", "30", "--weights", "paper", "--noise-std", "0", "--output", out],
            ["gen", "--count", "30", "--weights", "paper", "--skip-clamped", "--output", out]]
    code = ("import sys, hasqoe.cli; "
            f"codes = [hasqoe.cli.main(argv) for argv in {runs!r}]; "
            "print(codes, 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] False"


def test_a_traced_benchmark_op_runs_the_cli(tmp_path) -> None:
    src = Path(hasqoe.__file__).parents[1]
    op = Path(__file__).parents[1] / "perfbench" / "op.py"
    result_path = tmp_path / "result.json"
    subprocess.run([sys.executable, str(op), str(result_path), str(src), "1", "--",
                    "predict", "--input", "example", "--weights", "paper"],
                   capture_output=True, cwd=tmp_path, check=True)
    result = json.loads(result_path.read_text())
    assert result["exit_code"] == 0 and result["error"] is None
    assert result["trace"]["cli.main"]["calls"] == 1
    assert result["trace"]["io.read_dataset"]["calls"] == 1


# ------------------------------------------------------------ predict


def test_predict_the_example_to_stdout(capsys) -> None:
    assert run_cli("predict", "--input", "example", "--weights", "paper") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,prediction"
    assert lines[1] == "0,4.500000"


def test_predict_dataset_to_csv_file(tmp_path, labeled_path) -> None:
    out = tmp_path / "pred.csv"
    assert (
        run_cli("predict", "--input", labeled_path, "--weights", "paper",
                "--output", str(out))
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 80
    for line in lines[1:]:
        value = float(line.split(",")[1])
        assert 1.0 <= value <= 5.0


def test_predict_feature_columns(capsys) -> None:
    assert (
        run_cli("predict", "--input", "example", "--weights", "paper", "--features")
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert len(header) == 2 + 22
    assert header[2] == "quality_bin_1"
    assert header[7] == "down_switch_2_-1"
    assert "non_negative_switch" in header
    assert header[-1] == "interruption_bin_6"
    row = lines[1].split(",")
    assert row[6] == "1.000000"  # quality_bin_5 of the constant-5.0 example


def test_predict_json_format(capsys) -> None:
    assert (
        run_cli("predict", "--input", "example", "--weights", "paper",
                "--format", "json", "--features")
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["index"] == 0
    assert payload[0]["prediction"] == pytest.approx(4.5)
    assert len(payload[0]["features"]) == 22


def test_predict_accepts_written_weight_files(tmp_path, capsys) -> None:
    weights_path = tmp_path / "weights.json"
    io.write_weights(paper_weights(), str(weights_path))
    assert (
        run_cli("predict", "--input", "example", "--weights", str(weights_path)) == 0
    )
    assert "4.500000" in capsys.readouterr().out


def test_predict_missing_weights_file_is_usage_error(capsys) -> None:
    assert run_cli("predict", "--input", "example", "--weights", "no-such.json") == 1
    assert "error:" in capsys.readouterr().err


def test_predict_out_of_range_quality_is_validation_error(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"segments": [7.0], "interruptions": []}))
    assert run_cli("predict", "--input", str(bad), "--weights", "paper") == 2
    assert "session 0" in capsys.readouterr().err


def test_predict_garbage_json_is_usage_error(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("[{not json")
    assert run_cli("predict", "--input", str(bad), "--weights", "paper") == 1


def test_a_deeply_nested_object_is_usage_error(tmp_path, capsys) -> None:
    path = tmp_path / "deep.json"
    path.write_text('{"segments": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert run_cli("predict", "--input", str(path), "--weights", "paper") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: invalid JSON: maximum recursion depth")


@pytest.mark.parametrize(
    ("option", "before", "after", "line"),
    [
        ("--input", '[{"segments": [3.0]}, ', "]", ""),
        ("--input", '{"segments": ', "}", ""),
        ("--input", '{"segments": [3.0]}\n', "\n", " line 1"),
        ("--weights", '{"alpha": ', "}", ""),
    ],
    ids=["array", "object", "ndjson", "weights"],
)
def test_deeply_nested_json_is_usage_error_without_a_traceback(tmp_path, option, before,
                                                              after, line) -> None:
    text = before + "[" * 100_000 + "]" * 100_000 + after
    path = tmp_path / "deep.json"
    path.write_text(text)
    files = {"--input": "example", "--weights": "paper", option: str(path)}
    env = {**os.environ, "PYTHONPATH": str(Path(hasqoe.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "hasqoe.cli", "predict", *chain(*files.items())],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {path}{line}: invalid JSON: maximum recursion depth")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "record",
    [
        {"segments": [True, 3.0]},
        {"segments": [3.0, "3.5"]},
        {"segments": [3.0], "mos": True},
        {"segments": [3.0, 3.0], "interruptions": [{"after_segment": True, "duration_s": 1.0}]},
        {"segments": [3.0, 3.0], "interruptions": [{"after_segment": 1, "duration_s": True}]},
        {"segments": [3.0, 3.0], "interruptions": [{"after_segment": 1.5, "duration_s": 1.0}]},
        {"segments": [3.0, 3.0, 3.0], "interruptions": [{"after_segment": 2.7, "duration_s": 1.0}]},
        {"segments": [3.0, 10**400]},
    ],
)
def test_predict_rejects_coerced_session_fields(tmp_path, capsys, record) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"segments": [4.0]}, record]))
    assert run_cli("predict", "--input", str(bad), "--weights", "paper") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "session 1" in captured.err


def test_predict_accepts_integral_after_segment(tmp_path, capsys) -> None:
    data = tmp_path / "sessions.json"
    data.write_text(json.dumps(
        {"segments": [5, 5, 5], "interruptions": [{"after_segment": 3.0, "duration_s": 4}]}
    ))
    assert run_cli("predict", "--input", str(data), "--weights", "paper") == 0
    assert capsys.readouterr().out == "index,prediction\n0,1.000000\n"


@pytest.mark.parametrize(
    ("name", "args"),
    [
        ("predict_features.csv", ()),
        ("predict_features.json", ("--format", "json")),
    ],
)
def test_predict_output_is_pinned(tmp_path, name, args) -> None:
    # Recorded from the per-segment implementation; the input holds every
    # quality and stall bin edge, single-segment and event-free sessions.
    out = tmp_path / name
    assert (
        run_cli("predict", "--input", str(DATA / "predict_input.json"), "--weights", "paper",
                "--features", *args, "--output", str(out))
        == 0
    )
    assert out.read_bytes() == (DATA / name).read_bytes()


_LABELED = ("gen", "--count", "40", "--weights", "paper", "--noise-std", "0.2")
_PINNED_INPUT = str(DATA / "gen_noise.json")
_GUO = str(DATA / "guo_coefficients.json")
_REFIT = ("evaluate", "--input", _PINNED_INPUT, "--refit", "--splits", "3",
          "--test-pool", "all", "--test-size", "5")


@pytest.mark.parametrize(
    ("name", "stdout", "args"),
    [
        ("gen_noise.json", None, (*_LABELED, "--seed", "11")),
        ("gen_skip_clamped.json", None, (*_LABELED, "--skip-clamped", "--seed", "12")),
        ("gen_unlabeled.json", None, ("gen", "--count", "30", "--seed", "13")),
        ("fit_weights.json", "fit_stdout.json", ("fit", "--input", _PINNED_INPUT)),
        ("evaluate_refit.json", None, _REFIT),
        (
            "fit_nonnegative_weights.json",
            "fit_nonnegative_stdout.json",
            ("fit", "--input", _PINNED_INPUT, "--nonnegative"),
        ),
        ("evaluate_weights.json", None, ("evaluate", "--input", _PINNED_INPUT, "--weights", "paper")),
        ("evaluate_liu.json", None, ("evaluate", "--input", _PINNED_INPUT, "--baseline", "liu")),
        (
            "evaluate_guo_coefficients.json",
            None,
            ("evaluate", "--input", _PINNED_INPUT, "--baseline", "guo", "--coefficients", _GUO),
        ),
        (
            "evaluate_guo_coefficients_splits.json",
            None,
            ("evaluate", "--input", _PINNED_INPUT, "--baseline", "guo", "--coefficients", _GUO,
             "--splits", "3", "--test-pool", "all", "--test-size", "5"),
        ),
        ("evaluate_refit.csv", None, (*_REFIT, "--format", "csv")),
        ("evaluate_refit_compensate_test.csv", None, (*_REFIT, "--format", "csv",
                                                       "--compensate-on", "test")),
        ("evaluate_refit_no_compensation.csv", None, (*_REFIT, "--format", "csv",
                                                       "--no-compensation")),
        ("evaluate_refit_no_compensation.json", None, (*_REFIT, "--no-compensation")),
    ],
)
@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
def test_gen_fit_and_evaluate_output_is_pinned(tmp_path, capsys, name, stdout, args) -> None:
    # The first five were recorded from the generator that built a trace
    # per candidate, the four refit CSV and --no-compensation pins before
    # the reports and CSV tables shared one writer each, evaluate_liu.json
    # after fits moved to the Gram matrix, the rest before fit and the
    # baselines shared one solve; fit and evaluate read the first generated
    # file.
    out = tmp_path / name
    assert run_cli(*args, "--output", str(out)) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
    assert capsys.readouterr().out == ((DATA / stdout).read_text() if stdout else "")


def test_the_liu_pin_moved_by_rounding_alone() -> None:
    # Recorded again when liu's fit moved from its rows' SVD to its Gram
    # matrix; these are the values that the row solve wrote.
    report = json.loads((DATA / "evaluate_liu.json").read_text())
    row_solve = {"pcc": 0.8720201543172511, "rmse": 0.4054936459440076,
                 "slope": 1.1393345042078882, "intercept": -0.2750433460319963}
    assert report.keys() == row_solve.keys()
    assert all(abs(report[name] - value) <= 1e-12 for name, value in row_solve.items())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_predict_overflowing_weights_is_numerical_error(tmp_path, capsys, fmt) -> None:
    weights = paper_weights().to_dict()
    weights["alpha"] = [1.7e308] * 5
    weights["beta_down"] = [dict(entry, w=-1.7e308) for entry in weights["beta_down"]]
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(weights))
    data = tmp_path / "sessions.json"
    data.write_text(json.dumps({"segments": [5.0, 3.0]}))
    assert run_cli("predict", "--input", str(data), "--weights", str(path), "--format", fmt) == 3
    assert capsys.readouterr().out == ""


def test_predict_rejects_non_finite_weights(tmp_path, capsys) -> None:
    weights = paper_weights().to_dict()
    weights["gamma"][2] = float("nan")
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(weights))
    assert run_cli("predict", "--input", "example", "--weights", str(path),
                   "--format", "json") == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ("predict", "--weights", "paper", "--features"),
        ("predict", "--weights", "paper", "--format", "json"),
        ("fit", "--output", "weights.json"),
        ("fit", "--output", "weights.json", "--nonnegative"),
        ("evaluate", "--refit", "--splits", "2", "--test-size", "20"),
        ("evaluate", "--weights", "paper"),
        ("evaluate", "--weights", "paper", "--splits", "2", "--test-size", "20"),
        ("evaluate", "--baseline", "liu"),
        ("evaluate", "--baseline", "vriendt", "--splits", "2", "--test-size", "20"),
        ("evaluate", "--baseline", "guo", "--coefficients", "guo.json"),
        ("gen", "--count", "60", "--output", "g.json"),
        ("gen", "--count", "60", "--weights", "paper", "--noise-std", "0.2", "--output", "g.json"),
        ("gen", "--count", "60", "--weights", "paper", "--skip-clamped", "--output", "g.json"),
    ],
)
def test_file_inputs_build_no_session_objects(tmp_path, monkeypatch, capsys, labeled_path,
                                             args) -> None:
    (tmp_path / "guo.json").write_text(json.dumps(
        {"model": "guo", "coefficients": {"median_quality": 0.6, "min_quality": 0.3}}
    ))
    monkeypatch.chdir(tmp_path)
    built = Counter()
    for cls in (SessionTrace, InterruptionEvent):
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    command, *rest = args
    if command == "gen":  # generated sessions, from columns to the file
        assert run_cli(*args) == 0
        assert len(io.read_dataset("g.json").tags) == 60
    else:
        assert run_cli(command, "--input", labeled_path, *rest) == 0
        assert capsys.readouterr().out
    assert built == Counter()
    io.read_sessions(labeled_path)  # the per-record reader is counted
    assert built["SessionTrace"] == 80


@pytest.mark.parametrize(
    "args",
    [
        ("predict", "--weights", "paper", "--features"),
        ("fit", "--output", "weights.json"),
        ("evaluate", "--weights", "paper"),
        ("evaluate", "--baseline", "liu", "--splits", "2", "--test-size", "20"),
    ],
)
def test_array_and_ndjson_files_give_the_same_output(tmp_path, monkeypatch, capsys,
                                                     labeled_path, args) -> None:
    records = json.loads(Path(labeled_path).read_text())
    (tmp_path / "labeled.ndjson").write_text("".join(json.dumps(r) + "\n" for r in records))
    monkeypatch.chdir(tmp_path)
    command, *rest = args
    outputs = []
    for path in (labeled_path, "labeled.ndjson"):
        assert run_cli(command, "--input", path, *rest) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_ndjson_lines_end_at_lf_alone(tmp_path, monkeypatch, capsys, labeled_path,
                                      separator) -> None:
    # Each character is a line end to str.splitlines, but JSON allows it raw in a string.
    records = json.loads(Path(labeled_path).read_text())[:2]
    records[0]["tag"] = f"x{separator}y"
    monkeypatch.chdir(tmp_path)
    Path("array.json").write_text(json.dumps(records, ensure_ascii=False), encoding="utf-8")
    Path("lines.ndjson").write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    outputs = []
    for path in ("array.json", "lines.ndjson"):
        assert run_cli("predict", "--input", path, "--weights", "paper") == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[0].out and outputs[0].out == outputs[1].out


# ---------------------------------------------------------------- fit


@pytest.mark.parametrize(
    "change",
    [
        {"beta_um": True},
        {"beta_um": None},
        {"alpha": [1.11, 2.2, "3.2", 4.0, 4.5]},
        {"gamma": [0.0, 8.42, 16.15, 24.16, 45.58, False]},
        {"beta_down": [{"i": 2, "j": -1, "w": True}]},
        {"beta_down": [{"i": "2", "j": -1, "w": 7.89}]},
        {"beta_down": [{"i": 2.5, "j": -1, "w": 7.89}]},
        {"beta_down": [{"i": 2, "j": None, "w": 7.89}]},
        # an eleventh entry that names the (2, -1) bin again
        {"beta_down": [{"i": 2, "j": -1, "w": 7.89}, {"i": 2, "j": -1, "w": 99.0}]},
    ],
)
def test_weights_files_reject_non_numbers(tmp_path, capsys, change) -> None:
    weights = paper_weights().to_dict()
    if "beta_down" in change:
        # Replace the (2, -1) entry and keep the other nine.
        change = {"beta_down": change["beta_down"] + weights["beta_down"][1:]}
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({**weights, **change}))
    assert run_cli("predict", "--input", "example", "--weights", str(path)) == 1
    assert capsys.readouterr().out == ""


def test_weights_files_reject_unknown_beta_down_entry_keys(tmp_path, capsys) -> None:
    weights = paper_weights().to_dict()
    weights["beta_down"][0]["W"] = 99.0
    weights["beta_down"][1]["note"] = "x"
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(weights))
    assert run_cli("predict", "--input", "example", "--weights", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown 'beta_down' entry keys: ['W']" in captured.err


@pytest.mark.parametrize(
    "record",
    [
        {"model": "guo", "coefficients": {"median_quality": "1", "min_quality": 1.0}},
        {"model": "guo", "coefficients": {"median_quality": True, "min_quality": 1.0}},
        {"model": "guo", "coefficients": {"median_quality": 1.0, "min_quality": None}},
        {"model": "guo", "coefficients": {"median_quality": 1.0, "min_quality": 1.0},
         "intercept": False},
        {"model": None, "coefficients": {"median_quality": 1.0, "min_quality": 1.0}},
        {"model": "guo", "coefficients": [1.0, 1.0]},
    ],
)
def test_coefficient_files_reject_non_numbers(tmp_path, capsys, labeled_path, record) -> None:
    path = tmp_path / "coefficients.json"
    path.write_text(json.dumps(record))
    assert run_cli("evaluate", "--input", labeled_path, "--baseline", "guo",
                   "--coefficients", str(path)) == 1
    assert capsys.readouterr().out == ""


def test_weights_and_coefficient_files_reject_unknown_keys(tmp_path, capsys, labeled_path) -> None:
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({**paper_weights().to_dict(), "gama": [0.0] * 6, "beta_up": 1.0}))
    assert run_cli("predict", "--input", "example", "--weights", str(weights)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown weights record keys: ['beta_up', 'gama']" in captured.err
    coefficients = tmp_path / "coefficients.json"
    coefficients.write_text(json.dumps(
        {"model": "guo", "coefficients": {"median_quality": 0.6, "min_quality": 0.3},
         "intercpt": 0.5}
    ))
    for splits in ((), ("--splits", "2", "--test-size", "20", "--test-pool", "all")):
        assert run_cli("evaluate", "--input", labeled_path, "--baseline", "guo",
                       "--coefficients", str(coefficients), *splits) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown coefficients record keys: ['intercpt']" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ("predict", "--weights", "paper"),
        ("predict", "--weights", "paper", "--format", "json"),
        ("fit",),
        ("evaluate", "--weights", "paper"),
        ("evaluate", "--refit", "--splits", "2"),
    ],
)
def test_a_file_with_no_sessions_is_rejected(tmp_path, capsys, args) -> None:
    data, output = tmp_path / "empty.json", tmp_path / "out"
    data.write_text("[]\n")
    command, *rest = args
    assert run_cli(command, "--input", str(data), "--output", str(output), *rest) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no sessions" in captured.err
    assert not output.exists()


def test_fit_round_trip_recovers_generating_weights(tmp_path, capsys) -> None:
    data = tmp_path / "train.json"
    run_cli("gen", "--count", "250", "--output", str(data),
            "--weights", "paper", "--skip-clamped", "--seed", "8")
    weights_out = tmp_path / "weights.json"
    assert run_cli("fit", "--input", str(data), "--output", str(weights_out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["training_rmse"] < 1e-8
    assert report["training_pcc"] > 0.999999
    fitted = io.read_weights(str(weights_out))
    reference = paper_weights()
    for got, want in zip(fitted.as_vector(), reference.as_vector()):
        assert got == pytest.approx(want, abs=1e-6)


def test_fit_writes_report_file(tmp_path, labeled_path) -> None:
    weights_out = tmp_path / "weights.json"
    report_out = tmp_path / "report.json"
    assert (
        run_cli("fit", "--input", labeled_path, "--output", str(weights_out),
                "--report", str(report_out))
        == 0
    )
    report = json.loads(report_out.read_text())
    assert set(report) == {"training_rmse", "training_pcc", "condition_warning"}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("missing", ["--output", "--report"])
def test_fit_writes_neither_file_unless_both_can_be_written(tmp_path, capsys, labeled_path,
                                                           missing, existing) -> None:
    paths = {"--output": tmp_path / "w.json", "--report": tmp_path / "r.json"}
    paths[missing] = tmp_path / "missing" / paths[missing].name
    (other,) = (path for flag, path in paths.items() if flag != missing)
    if existing:
        other.write_bytes(b"old bytes\n")
    args = chain.from_iterable((flag, str(path)) for flag, path in paths.items())
    assert run_cli("fit", "--input", labeled_path, *args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(paths[missing])!r}\n"
    assert list(tmp_path.iterdir()) == ([other] if existing else [])  # and no temp file
    if existing:
        assert other.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("report", ["w.json", "./w.json", "link.json"])
def test_fit_rejects_one_file_for_the_weights_and_the_report(tmp_path, monkeypatch, capsys,
                                                             report) -> None:
    # The input is missing, so reading it first would report that instead.
    monkeypatch.chdir(tmp_path)
    os.symlink("w.json", "link.json")
    assert run_cli("fit", "--input", "missing.json", "--output", "w.json", "--report", report) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: --report {report} and --output w.json name the same file\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json"]


def test_fit_is_deterministic(tmp_path, labeled_path) -> None:
    w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("fit", "--input", labeled_path, "--output", str(w1), "--report", str(r1))
    run_cli("fit", "--input", labeled_path, "--output", str(w2), "--report", str(r2))
    assert w1.read_bytes() == w2.read_bytes()
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.filterwarnings("ignore:fitting 22 weights", "ignore:design matrix is rank-deficient")
def test_fit_report_writes_undefined_pcc_as_null(tmp_path, capsys) -> None:
    # Constant labels leave the training PCC undefined.
    data = tmp_path / "constant.json"
    data.write_text(json.dumps([{"segments": [float(q)], "mos": 3.0} for q in range(1, 6)]))
    weights_out, report_out = tmp_path / "w.json", tmp_path / "report.json"
    assert run_cli("fit", "--input", str(data), "--output", str(weights_out)) == 0
    assert strict_json(capsys.readouterr().out)["training_pcc"] is None
    assert run_cli("fit", "--input", str(data), "--output", str(weights_out),
                   "--report", str(report_out)) == 0
    assert strict_json(report_out.read_text())["training_pcc"] is None
    strict_json(weights_out.read_text())


def test_fit_rejects_unlabeled_dataset(tmp_path) -> None:
    data = tmp_path / "unlabeled.json"
    run_cli("gen", "--count", "30", "--output", str(data), "--seed", "4")
    assert run_cli("fit", "--input", str(data), "--output", str(tmp_path / "w.json")) == 1


@pytest.mark.parametrize("args", [("fit", "--output", "w.json"), ("evaluate", "--weights", "paper")])
def test_the_example_input_has_no_label(tmp_path, monkeypatch, capsys, args) -> None:
    monkeypatch.chdir(tmp_path)
    command, *rest = args
    assert run_cli(command, "--input", "example", *rest) == 1
    assert capsys.readouterr().err == "error: session 0 has no ground-truth MOS label\n"
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------- evaluate


def test_evaluate_direct_with_fixed_weights(capsys, labeled_path) -> None:
    assert run_cli("evaluate", "--input", labeled_path, "--weights", "paper") == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"pcc", "rmse", "slope", "intercept"}
    assert report["pcc"] > 0.9


def test_evaluate_no_compensation_omits_the_line(capsys, labeled_path) -> None:
    assert (
        run_cli("evaluate", "--input", labeled_path, "--weights", "paper",
                "--no-compensation")
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"pcc", "rmse"}


def test_evaluate_matches_library_call(capsys, labeled_path) -> None:
    run_cli("evaluate", "--input", labeled_path, "--weights", "paper",
            "--no-compensation")
    report = json.loads(capsys.readouterr().out)
    dataset = LabeledDataset(tuple(io.read_sessions(labeled_path)))
    from hasqoe import predict

    expected = evaluate_predictions(
        [predict(s, paper_weights()) for s in dataset.sessions], dataset.labels()
    )
    assert report["pcc"] == pytest.approx(expected.pcc, abs=1e-12)
    assert report["rmse"] == pytest.approx(expected.rmse, abs=1e-12)


def test_evaluate_requires_exactly_one_mode(labeled_path) -> None:
    assert run_cli("evaluate", "--input", labeled_path) == 1
    assert (
        run_cli("evaluate", "--input", labeled_path, "--weights", "paper",
                "--baseline", "guo")
        == 1
    )


def test_evaluate_refit_requires_splits(labeled_path) -> None:
    assert run_cli("evaluate", "--input", labeled_path, "--refit") == 1


def test_evaluate_too_many_splits_is_one_error_line(labeled_path, capsys) -> None:
    # Without the bound, 10**20 splits died in np.arange with a ValueError traceback.
    assert run_cli("evaluate", "--input", labeled_path, "--refit", "--splits", str(10**20),
                   "--test-pool", "all", "--test-size", "5") == 1
    assert capsys.readouterr().err == (
        "error: n_repetitions 100000000000000000000 must be at most 2**32\n"
    )


@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
def test_evaluate_protocol_json_and_determinism(tmp_path, labeled_path) -> None:
    args = (
        "evaluate", "--input", labeled_path, "--refit",
        "--splits", "5", "--test-size", "20", "--test-pool", "all", "--seed", "9",
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(*args, "--output", str(out1)) == 0
    assert run_cli(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert len(report["per_split"]) == 5
    assert set(report["per_split"][0]) == {"split", "pcc", "rmse", "slope", "intercept"}


def test_evaluate_protocol_csv_table(capsys, labeled_path) -> None:
    assert (
        run_cli("evaluate", "--input", labeled_path, "--weights", "paper",
                "--splits", "4", "--test-size", "15", "--test-pool", "all",
                "--format", "csv")
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "split,pcc,rmse,slope,intercept"
    assert len(lines) == 1 + 4


def test_evaluate_direct_csv_is_usage_error(labeled_path) -> None:
    assert (
        run_cli("evaluate", "--input", labeled_path, "--weights", "paper",
                "--format", "csv")
        == 1
    )


def test_evaluate_baseline_fitted_and_from_file(tmp_path, capsys, labeled_path) -> None:
    assert run_cli("evaluate", "--input", labeled_path, "--baseline", "guo") == 0
    capsys.readouterr()

    from hasqoe import fit_baseline_coefficients

    dataset = LabeledDataset(tuple(io.read_sessions(labeled_path)))
    coefficients = fit_baseline_coefficients(dataset, "vriendt")
    path = tmp_path / "coefficients.json"
    io.write_json(coefficients.to_dict(), str(path))
    assert (
        run_cli("evaluate", "--input", labeled_path, "--baseline", "vriendt",
                "--coefficients", str(path))
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert -1.0 <= report["pcc"] <= 1.0


def test_evaluate_baseline_rejects_coefficients_of_another_model(
    tmp_path, capsys, labeled_path
) -> None:
    from hasqoe import fit_baseline_coefficients

    dataset = LabeledDataset(tuple(io.read_sessions(labeled_path)))
    path = tmp_path / "guo.json"
    io.write_json(fit_baseline_coefficients(dataset, "guo").to_dict(), str(path))
    for splits in ((), ("--splits", "2", "--test-size", "20", "--test-pool", "all")):
        assert (
            run_cli("evaluate", "--input", labeled_path, "--baseline", "liu",
                    "--coefficients", str(path), *splits)
            == 1
        )
        assert "'guo', not 'liu'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coefficients",
    [
        {"stall_count": 1.0},
        {"median_quality": 1.0},
        {"median_quality": 1.0, "min_quality": 1.0, "mean_quality": 1.0},
    ],
)
def test_evaluate_baseline_rejects_coefficients_of_other_statistics(
    tmp_path, capsys, labeled_path, coefficients
) -> None:
    path = tmp_path / "coefficients.json"
    path.write_text(json.dumps({"model": "guo", "coefficients": coefficients}))
    for splits in ((), ("--splits", "2", "--test-size", "20", "--test-pool", "all")):
        assert run_cli("evaluate", "--input", labeled_path, "--baseline", "guo",
                       "--coefficients", str(path), *splits) == 1
        assert "must name exactly its statistics" in capsys.readouterr().err


#: The evaluate cases that give no model, or two, and what argparse says.
_MODE_ERRORS = {
    ("evaluate", "--weights", "paper", "--refit", "--splits", "2"):
        "argument --refit: not allowed with argument --weights",
    ("evaluate",): "one of the arguments --weights --refit --baseline --external-predictions",
    ("evaluate", "--external-predictions", "p.csv", "--splits", "2"):
        "--external-predictions cannot be combined with --splits",
    ("evaluate", "--refit", "--splits", "2", "--no-compensation", "--compensate-on", "test"):
        "--compensate-on cannot be combined with --no-compensation",
    ("evaluate", "--external-predictions", "p.csv", "--format", "csv"):
        "error: --format csv cannot be combined with --external-predictions\n",
}


@pytest.mark.parametrize(
    "args",
    [
        ("evaluate", "--weights", "paper", "--coefficients", "missing.json"),
        ("evaluate", "--refit", "--splits", "2", "--test-size", "20", "--test-pool", "all",
         "--coefficients", "missing.json"),
        ("evaluate", "--weights", "paper", "--nonnegative"),
        ("evaluate", "--baseline", "guo", "--nonnegative"),
        ("gen", "--count", "5", "--skip-clamped"),
        ("gen", "--count", "5", "--noise-std", "0.2"),
        ("evaluate", "--weights", "paper", "--test-size", "5"),
        ("evaluate", "--weights", "paper", "--test-size", "5", "--compensate-on", "test"),
        ("evaluate", "--baseline", "guo", "--test-pool", "all"),
        ("evaluate", "--weights", "paper", "--seed", "3"),
        ("evaluate", "--weights", "paper", "--compensate-on", "train"),
        ("evaluate", "--weights", "paper", "--refit", "--splits", "2"),
        ("evaluate", "--refit"),
        ("evaluate", "--external-predictions", "p.csv", "--splits", "2"),
        ("evaluate",),
        ("evaluate", "--refit", "--splits", "2", "--no-compensation", "--compensate-on", "test"),
        ("evaluate", "--weights", "paper", "--format", "csv"),
        ("evaluate", "--external-predictions", "p.csv", "--format", "csv"),
    ],
)
def test_flags_of_another_mode_are_rejected(tmp_path, capsys, labeled_path, args) -> None:
    output = tmp_path / "out.json"
    command, *rest = args
    # evaluate checks its flags before it reads the input, so a missing input hides no flag error.
    inputs = (labeled_path, str(tmp_path / "missing.json")) if command == "evaluate" else (None,)
    for source in inputs:
        target = ("--input", source) if source else ()
        assert run_cli(command, *target, "--output", str(output), *rest) == 1
        assert _MODE_ERRORS.get(args, "only make") in capsys.readouterr().err
        assert not output.exists()


@pytest.mark.parametrize("kind", ["sessions", "weights", "coefficients", "recipe", "predictions"])
def test_a_file_that_is_not_utf8_exits_1_with_one_error_line(tmp_path, capsys, labeled_path,
                                                              kind) -> None:
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b'{"segments": [3.0]}\n0,3.5\xff\n')
    argv = {
        "sessions": ("predict", "--input", str(bad), "--weights", "paper"),
        "weights": ("predict", "--input", labeled_path, "--weights", str(bad)),
        "coefficients": ("evaluate", "--input", labeled_path, "--baseline", "guo",
                         "--coefficients", str(bad)),
        "recipe": ("gen", "--count", "3", "--output", str(tmp_path / "out.json"),
                   "--config", str(bad)),
        "predictions": ("evaluate", "--input", labeled_path, "--external-predictions", str(bad)),
    }[kind]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["sessions", "weights"])
def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_offset_in_the_file(
        tmp_path, capsys, labeled_path, kind) -> None:
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xef\xbb\xbf[{"segments": [3.0]}]\xff')  # 25 bytes, the last at offset 24
    argv = {
        "sessions": ("predict", "--input", str(bad), "--weights", "paper"),
        "weights": ("predict", "--input", labeled_path, "--weights", str(bad)),
    }[kind]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 24: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize(
    "kind", ["array", "ndjson", "weights", "coefficients", "recipe", "predictions"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys, labeled_path, kind) -> None:
    records = json.loads(Path(labeled_path).read_text())
    text = {
        "array": json.dumps(records),
        "ndjson": "".join(json.dumps(record) + "\n" for record in records),
        "weights": json.dumps(paper_weights().to_dict()),
        "coefficients": '{"model": "guo", "coefficients": '
                        '{"median_quality": 0.6, "min_quality": 0.3}, "intercept": 0.8}',
        "recipe": '{"n_segments": [2, 30], "rng_seed": 3}',
        "predictions": "".join(f"{k},{3.0 + k / 100}\n" for k in range(len(records))),  # no header
    }[kind]
    outcomes = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path, output = tmp_path / f"{name}.txt", tmp_path / f"{name}.out"
        path.write_bytes(bom + text.encode("utf-8"))
        argv = {
            "array": ("predict", "--input", str(path), "--weights", "paper"),
            "ndjson": ("predict", "--input", str(path), "--weights", "paper"),
            "weights": ("predict", "--input", labeled_path, "--weights", str(path)),
            "coefficients": ("evaluate", "--input", labeled_path, "--baseline", "guo",
                             "--coefficients", str(path)),
            "recipe": ("gen", "--count", "5", "--config", str(path)),
            "predictions": ("evaluate", "--input", labeled_path,
                            "--external-predictions", str(path)),
        }[kind]
        code = run_cli(*argv, "--output", str(output))
        outcomes.append((code, output.read_bytes(), capsys.readouterr()))
    assert outcomes[0][0] == 0 and outcomes[1] == outcomes[0]


@pytest.mark.parametrize(
    "mode", [("--weights",), ("--baseline", "guo", "--coefficients"), ("--external-predictions",)])
def test_evaluate_reads_its_model_file_before_the_input(tmp_path, capsys, mode) -> None:
    model, data = tmp_path / "no-model.json", tmp_path / "no-input.json"
    assert run_cli("evaluate", "--input", str(data), *mode, str(model)) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory: "
                                              f"{str(model)!r}")


def test_protocol_flags_default_only_with_splits(tmp_path, capsys) -> None:
    data = tmp_path / "data.json"
    assert run_cli("gen", "--count", "400", "--output", str(data), "--weights", "paper",
                   "--noise-std", "0.2", "--seed", "3") == 0
    capsys.readouterr()
    explicit = ("--test-size", "90", "--test-pool", "multi-factor", "--seed", "0",
                "--compensate-on", "train")
    reports = []
    for flags in ((), explicit):
        assert run_cli("evaluate", "--input", str(data), "--refit", "--splits", "3", *flags) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert run_cli("evaluate", "--input", str(data), "--refit", "--splits", "3",
                   "--compensate-on", "test") == 0
    assert capsys.readouterr().out != reports[0]


def test_evaluate_rejects_non_finite_weights_and_coefficients(tmp_path, capsys, labeled_path) -> None:
    weights = paper_weights().to_dict()
    weights["alpha"][0] = float("inf")
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps(weights))
    coefficients_path = tmp_path / "coefficients.json"
    coefficients_path.write_text(
        '{"model": "guo", "coefficients": {"median_quality": NaN, "min_quality": 1.0}}'
    )
    for mode in (("--weights", str(weights_path)),
                 ("--baseline", "guo", "--coefficients", str(coefficients_path))):
        assert run_cli("evaluate", "--input", labeled_path, *mode) == 1
        assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_evaluate_overflowing_weights_and_coefficients_is_numerical_error(
    tmp_path, capsys
) -> None:
    # Every session has a down-switch, so alpha and -beta_down both add 1.7e308.
    # Test sets of 2 leave 2 sessions to fit the compensation line on.
    data = tmp_path / "sessions.json"
    data.write_text(json.dumps([
        {"segments": [5.0, 3.0], "mos": 2.0},
        {"segments": [5.0, 4.0], "mos": 3.0},
        {"segments": [4.0, 2.0], "mos": 4.0},
        {"segments": [3.0, 1.0], "mos": 2.5},
    ]))
    weights = paper_weights().to_dict()
    weights["alpha"] = [1.7e308] * 5
    weights["beta_down"] = [dict(entry, w=-1.7e308) for entry in weights["beta_down"]]
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps(weights))
    coefficients_path = tmp_path / "coefficients.json"
    coefficients_path.write_text(json.dumps(
        {"model": "guo", "coefficients": {"median_quality": 1.7e308, "min_quality": 1.7e308}}
    ))
    for mode in (("--weights", str(weights_path)),
                 ("--baseline", "guo", "--coefficients", str(coefficients_path))):
        for splits in ((), ("--splits", "2", "--test-size", "2", "--test-pool", "all")):
            assert run_cli("evaluate", "--input", str(data), *mode, *splits) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "overflow" in captured.err


@pytest.mark.parametrize("mode", [["--refit"], ["--baseline", "guo"]])
def test_evaluate_rejects_a_negative_seed(capsys, labeled_path, mode) -> None:
    assert run_cli("evaluate", "--input", labeled_path, *mode, "--splits", "2",
                   "--test-size", "20", "--test-pool", "all", "--seed", "-1") == 1
    assert capsys.readouterr().err == "error: rng_seed -1 must be >= 0\n"


def test_evaluate_baseline_protocol(capsys, labeled_path) -> None:
    assert (
        run_cli("evaluate", "--input", labeled_path, "--baseline", "liu",
                "--splits", "3", "--test-size", "20", "--test-pool", "all")
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert len(report["per_split"]) == 3


def test_evaluate_external_predictions(tmp_path, capsys, labeled_path) -> None:
    from hasqoe import predict

    sessions = io.read_sessions(labeled_path)
    csv_path = tmp_path / "external.csv"
    rows = ["session-id,predicted-mos"]
    rows += [f"{k},{predict(s, paper_weights()):.6f}" for k, s in enumerate(sessions)]
    csv_path.write_text("\n".join(rows) + "\n")
    assert (
        run_cli("evaluate", "--input", labeled_path,
                "--external-predictions", str(csv_path))
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["pcc"] > 0.9


def test_evaluate_external_predictions_missing_id(tmp_path, labeled_path) -> None:
    csv_path = tmp_path / "partial.csv"
    csv_path.write_text("0,3.5\n1,2.5\n")
    assert (
        run_cli("evaluate", "--input", labeled_path,
                "--external-predictions", str(csv_path))
        == 1
    )


@pytest.mark.parametrize("bad_row", ["5000,3.5", "-3,3.5"])
def test_evaluate_external_predictions_unknown_id(tmp_path, labeled_path, bad_row) -> None:
    csv_path = tmp_path / "extra.csv"
    rows = [f"{k},3.5" for k in range(80)] + [bad_row]
    csv_path.write_text("\n".join(rows) + "\n")
    assert (
        run_cli("evaluate", "--input", labeled_path,
                "--external-predictions", str(csv_path))
        == 1
    )


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_evaluate_external_predictions_not_finite(tmp_path, capsys, labeled_path, value) -> None:
    csv_path = tmp_path / "nan.csv"
    rows = [f"{k},{3.0 + k / 100}" for k in range(80)]
    rows[7] = f"7,{value}"
    csv_path.write_text("\n".join(rows) + "\n")
    assert (
        run_cli("evaluate", "--input", labeled_path,
                "--external-predictions", str(csv_path))
        == 1
    )
    assert capsys.readouterr().out == ""


def test_evaluate_external_predictions_header_after_blank_lines(
    tmp_path, capsys, labeled_path
) -> None:
    rows = [f"{k},{3.0 + k / 100}" for k in range(80)]
    reports = []
    for name, lead in (("plain.csv", ""), ("blank.csv", "\n \n,\nsession-id,predicted-mos\n")):
        csv_path = tmp_path / name
        csv_path.write_text(lead + "\n".join(rows) + "\n")
        assert run_cli("evaluate", "--input", labeled_path,
                       "--external-predictions", str(csv_path)) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("row, bad", [
    (1, "1,2_0"),  # int() and float() read "2_0" as 20.0 and "1_0" as 10
    (10, "1_0,3.5"),
    (0, "0,3.5,extra"),  # a third field, which was silently dropped
    (5, "5,3.5,"),
])
def test_evaluate_external_predictions_malformed_row(
    tmp_path, capsys, labeled_path, row, bad
) -> None:
    rows = [f"{k},{3.0 + k / 100}" for k in range(80)]
    rows[row] = bad
    csv_path = tmp_path / "malformed.csv"
    csv_path.write_text("session-id,predicted-mos\n" + "\n".join(rows) + "\n")
    assert run_cli("evaluate", "--input", labeled_path,
                   "--external-predictions", str(csv_path)) == 1
    assert f"row {row + 1}:" in capsys.readouterr().err


def test_evaluate_external_predictions_reject_splits(tmp_path, labeled_path) -> None:
    csv_path = tmp_path / "external.csv"
    csv_path.write_text("0,3.5\n")
    assert (
        run_cli("evaluate", "--input", labeled_path,
                "--external-predictions", str(csv_path), "--splits", "3")
        == 1
    )


def test_evaluate_constant_predictions_is_numerical_error(tmp_path, labeled_path) -> None:
    sessions = io.read_sessions(labeled_path)
    csv_path = tmp_path / "constant.csv"
    csv_path.write_text("".join(f"{k},3.0\n" for k in range(len(sessions))))
    assert (
        run_cli("evaluate", "--input", labeled_path,
                "--external-predictions", str(csv_path))
        == 3
    )


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (("--weights", "paper", "--splits", "2", "--test-size", "80", "--test-pool", "all"),
         "test_size leaves no sessions to train on"),
        (("--external-predictions", "header-only.csv"), "header-only.csv: no predictions found"),
        (("--external-predictions", "missing.csv", "--format", "csv"),
         "--format csv cannot be combined with --external-predictions"),
        (("--weights", "paper", "--splits", "2", "--test-size", "79", "--test-pool", "all"),
         "test_size 79 leaves 1 training session; "
         "compensation on the training set needs at least 2"),
        (("--refit", "--splits", "1", "--test-size", "79", "--test-pool", "all",
          "--compensate-on", "train"),
         "test_size 79 leaves 1 training session; "
         "compensation on the training set needs at least 2"),
    ],
    ids=["no-training-sessions", "header-only-predictions", "external-predictions-as-csv",
         "one-training-session", "one-training-session-refit"],
)
def test_evaluate_usage_errors_are_one_line(tmp_path, monkeypatch, capsys, labeled_path, args,
                                            message) -> None:
    monkeypatch.chdir(tmp_path)
    Path("header-only.csv").write_text("session-id,predicted-mos\n")
    assert run_cli("evaluate", "--input", labeled_path, *args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args", [("--no-compensation",), ("--compensate-on", "test")])
def test_one_training_session_is_scored_without_compensation_on_it(capsys, labeled_path,
                                                                   args) -> None:
    assert run_cli("evaluate", "--input", labeled_path, "--weights", "paper", "--splits", "2",
                   "--test-size", "79", "--test-pool", "all", *args) == 0
    assert len(json.loads(capsys.readouterr().out)["per_split"]) == 2


@pytest.mark.parametrize("args", [(), ("--no-compensation",)])
def test_evaluating_one_session_names_what_is_missing(tmp_path, capsys, labeled_path,
                                                      args) -> None:
    one = tmp_path / "one.json"
    one.write_text(json.dumps(json.loads(Path(labeled_path).read_text())[:1]))
    assert run_cli("evaluate", "--input", str(one), "--weights", "paper", *args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: evaluate needs at least 2 labeled sessions, got 1\n"


class Stopped(Exception):
    """Not an error that ``main`` reports."""


def test_the_protocol_defaults_are_the_records(monkeypatch, capsys, labeled_path) -> None:
    calls = []

    def spy(dataset, protocol, model, **options):
        calls.append((protocol, options))
        raise Stopped

    monkeypatch.setattr(hasqoe.cli, "run_split_protocol", spy)
    with pytest.raises(Stopped):
        run_cli("evaluate", "--input", labeled_path, "--weights", "paper", "--splits", "2")
    compensation_on = inspect.signature(run_split_protocol).parameters["compensation_on"]
    assert calls == [(SplitProtocol(n_repetitions=2),
                      {"compensate": True, "compensation_on": compensation_on.default})]
    with pytest.raises(SystemExit):
        run_cli("evaluate", "--help")
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in [("--test-size", SplitProtocol.test_size),
                          ("--test-pool", SplitProtocol.test_pool),
                          ("--seed", SplitProtocol.rng_seed),
                          ("--compensate-on", compensation_on.default)]:
        assert f"(default: {default}; only with --splits)" in text.split(flag, 2)[2], flag


def test_evaluate_pool_too_small_is_usage_error(labeled_path) -> None:
    assert (
        run_cli("evaluate", "--input", labeled_path, "--weights", "paper",
                "--splits", "3", "--test-size", "5000")
        == 1
    )


# ------------------------------------------------------------- parser


def test_unknown_subcommand_and_empty_argv() -> None:
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1


def test_unknown_flag() -> None:
    assert run_cli("predict", "--input", "example", "--weights", "paper",
                   "--bogus") == 1
