import json

import pytest

from hasqoe import (
    DOWN_SWITCH_BINS,
    GeneratorConfig,
    ModelWeights,
    UsageError,
    ValidationError,
    generate_sessions,
    paper_weights,
)
from hasqoe import io

REFERENCE_ALPHA = (1.11, 2.20, 3.20, 4.00, 4.50)
REFERENCE_BETA_DOWN = {
    (2, -1): 7.89,
    (3, -1): 3.93,
    (3, -2): 14.36,
    (4, -1): 0.01,
    (4, -2): 4.13,
    (4, -3): 18.99,
    (5, -1): 0.01,
    (5, -2): 3.93,
    (5, -3): 18.69,
    (5, -4): 24.76,
}
REFERENCE_GAMMA = (0.00, 8.42, 16.15, 24.16, 45.58, 50.65)


def test_bundled_weights_match_reference_tables_exactly() -> None:
    w = paper_weights()
    assert w.alpha == REFERENCE_ALPHA
    assert w.beta_down == REFERENCE_BETA_DOWN
    assert w.beta_um == 0.0
    assert w.gamma == REFERENCE_GAMMA


def test_bundled_weights_round_trip(tmp_path) -> None:
    w = paper_weights()
    assert ModelWeights.from_dict(w.to_dict()) == w
    path = tmp_path / "weights.json"
    io.write_weights(w, str(path))
    assert io.read_weights(str(path)) == w


def test_read_weights_paper_alias() -> None:
    assert io.read_weights("paper") == paper_weights()


def test_vector_round_trip() -> None:
    w = paper_weights()
    assert ModelWeights.from_vector(w.as_vector()) == w
    assert len(w.as_vector()) == 22


def test_weights_validation() -> None:
    w = paper_weights()
    with pytest.raises(ValidationError):
        ModelWeights(w.alpha[:4], w.beta_down, 0.0, w.gamma)
    missing = dict(w.beta_down)
    missing.pop((5, -4))
    with pytest.raises(ValidationError):
        ModelWeights(w.alpha, missing, 0.0, w.gamma)
    extra = dict(w.beta_down)
    extra[(1, -1)] = 1.0
    with pytest.raises(ValidationError):
        ModelWeights(w.alpha, extra, 0.0, w.gamma)
    with pytest.raises(ValidationError):
        ModelWeights.from_vector((1.0,) * 21)


def test_weights_from_dict_rejects_malformed() -> None:
    with pytest.raises(UsageError):
        ModelWeights.from_dict({"alpha": [1, 2, 3, 4, 5]})
    with pytest.raises(UsageError):
        ModelWeights.from_dict([1, 2, 3])


def test_weights_json_schema(tmp_path) -> None:
    path = tmp_path / "weights.json"
    io.write_weights(paper_weights(), str(path))
    data = json.loads(path.read_text())
    assert set(data) == {"alpha", "beta_down", "beta_um", "gamma"}
    assert len(data["alpha"]) == 5
    assert len(data["gamma"]) == 6
    assert {(e["i"], e["j"]) for e in data["beta_down"]} == set(DOWN_SWITCH_BINS)
    assert all(set(e) == {"i", "j", "w"} for e in data["beta_down"])


def test_read_dataset_array_ndjson_and_single(tmp_path) -> None:
    records = [
        {"segments": [5.0, 4.0], "mos": 4.1, "tag": "multi-factor"},
        {"segments": [3.0], "interruptions": [{"after_segment": 1, "duration_s": 0.7}]},
    ]
    array_path = tmp_path / "a.json"
    array_path.write_text(json.dumps(records))
    ndjson_path = tmp_path / "b.ndjson"
    ndjson_path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    single_path = tmp_path / "c.json"
    single_path.write_text(json.dumps(records[0]))

    from_array = io.read_sessions(str(array_path))
    from_ndjson = io.read_sessions(str(ndjson_path))
    assert from_array == from_ndjson
    assert len(from_array) == 2
    assert from_array[0].ground_truth_mos == 4.1
    assert from_array[0].tag == "multi-factor"
    assert io.read_sessions(str(single_path)) == [from_array[0]]


def test_read_sessions_reports_offending_record(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"segments": [5.0]}, {"segments": [9.0]}]))
    with pytest.raises(ValidationError, match="session 1"):
        io.read_sessions(str(path))


def test_read_sessions_rejects_garbage(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(UsageError, match="invalid JSON"):
        io.read_sessions(str(path))
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(UsageError, match="empty"):
        io.read_sessions(str(empty))


def test_dataset_round_trip(tmp_path) -> None:
    sessions = io.sessions_from_text(
        json.dumps(
            [
                {"segments": [5.0, 4.4], "mos": 4.0, "tag": "single-factor"},
                {
                    "segments": [2.0, 2.0, 3.0],
                    "interruptions": [{"after_segment": 2, "duration_s": 1.5}],
                    "mos": 2.2,
                },
            ]
        ),
        "inline",
    )
    path = tmp_path / "ds.json"
    io.write_dataset(sessions, str(path))
    assert io.read_sessions(str(path)) == sessions


@pytest.mark.parametrize("slice_size", [1, 2, 3, 7, 100])
def test_write_dataset_in_slices_writes_one_array(tmp_path, monkeypatch, slice_size) -> None:
    sessions = generate_sessions(GeneratorConfig(rng_seed=3), 7)
    path = tmp_path / "ds.json"
    monkeypatch.setattr(io, "_WRITE_SLICE", slice_size)
    io.write_dataset(iter(sessions), str(path))
    whole = json.dumps([s.to_dict() for s in sessions], separators=(",", ":"))
    assert path.read_text() == whole + "\n"
    io.write_dataset([], str(path))
    assert path.read_text() == "[]\n"


def test_external_predictions_csv(tmp_path) -> None:
    path = tmp_path / "ext.csv"
    path.write_text("session-id,predicted-mos\n0,4.2\n1,3.9\n")
    assert io.read_external_predictions(str(path)) == {0: 4.2, 1: 3.9}
    headerless = tmp_path / "raw.csv"
    headerless.write_text("0,4.2\n1,3.9\n")
    assert io.read_external_predictions(str(headerless)) == {0: 4.2, 1: 3.9}
    dup = tmp_path / "dup.csv"
    dup.write_text("0,4.2\n0,3.9\n")
    with pytest.raises(UsageError, match="duplicate"):
        io.read_external_predictions(str(dup))


def test_example_sessions_bundled() -> None:
    sessions = io.example_sessions()
    assert len(sessions) == 1
    assert set(sessions[0].segments) == {5.0}
