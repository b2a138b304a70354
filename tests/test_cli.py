import json
from collections import Counter
from pathlib import Path

import pytest

from hasqoe import (
    GeneratorConfig,
    InterruptionEvent,
    LabeledDataset,
    SessionTrace,
    evaluate_predictions,
    generate_labeled_dataset,
    io,
    paper_weights,
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


@pytest.mark.parametrize(
    "config",
    [
        {"quality_walk": 5},
        {"n_segments": "abc"},
        {"stall_durations": {"params": 5}},
        {"stall_prob_per_boundary": True},
        {"n_segments": [2, 5.5]},
        {"n_segments": None},
        {"rng_seed": -1},
        {"rng_seed": "7"},
        {"quality_walk": {"jitter": None}},
        {"quality_walk": {"step_probs": 1.0}},
        {"quality_walk": {"p_down": True, "p_stay": False, "p_up": False}},
        {"quality_walk": {"step_probs": [0.5, 0.5, 0.0, float("nan")]}},
        {"stall_durations": 5},
        {"stall_durations": {"name": ["constant"]}},
        {"stall_durations": {"name": "uniform", "params": {"low": "0.5"}}},
        {"stall_durations": {"name": "constant", "params": {"valeu": 2.0}}},
        {"stall_durations": {"name": "constant", "params": {"value": float("inf")}}},
        {"stall_durations": {"params": {"bin_probs": [0.5, 0.5, 0, 0, 0, float("nan")]}}},
        {"stall_durations": {"params": {"tail_max": float("nan")}}},
        {"stall_durations": {"params": {"tail_max": float("inf")}}},
        {"stall_durations": {"name": "uniform", "params": {"high": float("inf")}}},
    ],
)
def test_gen_rejects_malformed_config(tmp_path, capsys, config) -> None:
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(json.dumps(config))
    assert run_cli("gen", "--count", "3", "--output", str(out), "--config", str(path)) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


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


# ------------------------------------------------------------ predict


def test_predict_bundled_example_to_stdout(capsys) -> None:
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


@pytest.mark.parametrize(
    ("name", "stdout", "args"),
    [
        ("gen_noise.json", None, (*_LABELED, "--seed", "11")),
        ("gen_skip_clamped.json", None, (*_LABELED, "--skip-clamped", "--seed", "12")),
        ("gen_unlabeled.json", None, ("gen", "--count", "30", "--seed", "13")),
        ("fit_weights.json", "fit_stdout.json", ("fit", "--input", _PINNED_INPUT)),
        (
            "evaluate_refit.json",
            None,
            ("evaluate", "--input", _PINNED_INPUT, "--refit", "--splits", "3",
             "--test-pool", "all", "--test-size", "5"),
        ),
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
    ],
)
@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
def test_gen_fit_and_evaluate_output_is_pinned(tmp_path, capsys, name, stdout, args) -> None:
    # The first five were recorded from the generator that built a trace
    # per candidate, the rest before fit and the baselines shared one
    # solve; fit and evaluate read the first generated file.
    out = tmp_path / name
    assert run_cli(*args, "--output", str(out)) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
    assert capsys.readouterr().out == ((DATA / stdout).read_text() if stdout else "")


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
    io.write_baseline_coefficients(coefficients, str(path))
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
    io.write_baseline_coefficients(fit_baseline_coefficients(dataset, "guo"), str(path))
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
        ("evaluate",),
    ],
)
def test_flags_of_another_mode_are_rejected(tmp_path, capsys, labeled_path, args) -> None:
    output = tmp_path / "out.json"
    command, *rest = args
    target = ("--input", labeled_path) if command == "evaluate" else ()
    assert run_cli(command, *target, "--output", str(output), *rest) == 1
    assert _MODE_ERRORS.get(args, "only make") in capsys.readouterr().err
    assert not output.exists()


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
    data = tmp_path / "sessions.json"
    data.write_text(json.dumps([
        {"segments": [5.0, 3.0], "mos": 2.0},
        {"segments": [5.0, 4.0], "mos": 3.0},
        {"segments": [4.0, 2.0], "mos": 4.0},
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
