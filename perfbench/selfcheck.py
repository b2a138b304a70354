"""Self-check of the benchmark at a tiny size; it asserts no timing.

    python3 perfbench/selfcheck.py

For every workload it runs each op once untraced and once traced, and
requires that the output checks pass and that the traced call counts
equal their closed forms (a wrapper that missed an import site would
undercount).  It then corrupts outputs to show the checks reject them,
and looks for the edge values the full-size inputs must contain.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import checks
import gen_inputs
import oracle
import run


def check_ops(workdir: str) -> None:
    for workload in sorted(run.WHY):
        for cycle, op in enumerate(run.build_ops(workload, 3, workdir, "tiny")):
            for traced in (False, True):
                record = run.run_op(op, workdir, traced, cycle, index=cycle)
                assert not record.problems, (workload, op.kind, record.problems)
                assert not record.mismatches, (workload, op.kind, record.mismatches)
                assert record.segments > 0, (workload, op.kind)
                if traced:
                    assert record.trace["cli.main"]["calls"] == 1, (workload, op.kind)
            print(f"ok  {workload:<20} {op.kind}")


def check_rejections() -> None:
    sessions = gen_inputs.dataset(5, 6, (3, 8), stall_prob=0.3)
    rows = [oracle.features(s) for s in sessions]
    lines = ["index,prediction," + ",".join(f"c{k}" for k in range(22))]
    for k, row in enumerate(rows):
        lines.append(",".join([str(k), f"{max(oracle.linear_score(row), 1.0):.6f}"] + [f"{v:.6f}" for v in row]))
    good = "\n".join(lines) + "\n"
    assert checks.predictions(good, sessions, rows) == []
    bad_prediction = good.replace(lines[2].split(",")[1], "0.999000", 1)
    assert checks.predictions(bad_prediction, sessions, rows)
    assert checks.predictions("\n".join(lines[:-1]) + "\n", sessions, rows)

    report = {"pcc": 0.5, "rmse": 0.2, "slope": 1.0, "intercept": 0.0,
              "per_split": [{"split": 0, "pcc": 0.5, "rmse": 0.2, "slope": 1.0, "intercept": 0.0}]}
    assert checks.protocol(json.dumps(report), 1, [[0.5, 0.2, 1.0, 0.0]]) == []
    assert checks.protocol(json.dumps(report), 1, [[0.6, 0.2, 1.0, 0.0]])
    assert checks.protocol(json.dumps(report), 2, None)
    report["per_split"][0]["pcc"] = report["pcc"] = 1.5
    assert checks.protocol(json.dumps(report), 1, None)

    generated = [dict(s, mos=min(oracle.predict(s), 5.0)) for s in sessions]
    assert checks.generated(json.dumps(generated), len(sessions))[0] == []
    generated[0]["mos"] += 0.01
    assert checks.generated(json.dumps(generated), len(sessions))[0]
    print("ok  corrupted outputs are rejected")


def check_edges() -> None:
    sessions = gen_inputs.dataset(0, run.SIZES["full"]["protocol_sessions"], (1, 40), stall_prob=0.1)
    qualities = {q for s in sessions for q in s["segments"]}
    durations = {e["duration_s"] for s in sessions for e in s["interruptions"]}
    assert {1.0, 1.5, 2.5, 3.5, 4.5, 5.0} <= qualities
    assert set(gen_inputs.EDGE_DURATIONS) <= durations
    assert any(len(s["segments"]) == 1 for s in sessions)
    multi = sum(s["tag"] == "multi-factor" for s in sessions)
    assert multi > len(sessions) // 2, multi
    print(f"ok  edge values present; {multi} of {len(sessions)} sessions multi-factor")


def main() -> None:
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=os.path.join(run.HERE, ".work"))
    try:
        check_ops(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_rejections()
    check_edges()


if __name__ == "__main__":
    main()
