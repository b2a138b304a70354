"""Benchmark of the hasqoe command line: one closed-loop client, fresh process per op.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``hasqoe`` CLI invocation in a new interpreter, because
every user invocation pays the import and the BLAS warm-up.  The client
times a fixed reference task, starts the op, waits for it to end and
checks its output, and runs whole cycles of its workload's ops until
``--seconds`` have passed.  Inputs come from ``gen_inputs`` and the
seed; the program only reads the files they are written to.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``setup_s``, the fastest set-up of an op in the run, in seconds (see
``end_to_end`` for why not the median);
``op_wall_per_ref``, op wall time over reference-task time (see
``reference_task`` for why times are given relative to it); and
``peak_rss_mb``.  The ops get one BLAS thread (see ``measure``).  With
``--trace 1`` traced and untraced cycles alternate, BLAS threading is
left as the environment sets it, and the last line holds the per-layer
metrics from ``tracer`` (per traced op, averaged over the run's traced
ops) and the tracing overhead.  The line before the last one records
the environment and the run's details, among them the op times in
seconds: median, mean and tail, with the tail's percentile and op count.

Workloads (why each exists is in ``WHY``):

* protocol-refit      ``evaluate --refit --splits S`` on ~2000 short sessions
* protocol-baselines  ``evaluate --baseline guo|vriendt|liu --splits S``, rotating
* score-long          ``predict --features`` and ``fit``, alternating, on long sessions
* generate            ``gen --count N --weights paper --noise-std 0``

``selfcheck.py`` checks the benchmark itself at a tiny size, and
``record_reference.py`` records the reference outputs ``checks`` uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import checks
import gen_inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OP = os.path.join(HERE, "op.py")

WHY = {
    "protocol-refit": "the paper's protocol: per-split feature recomputation and the lstsq fit dominate",
    "protocol-baselines": "same protocol through the baseline statistics; never extracts histogram features",
    "score-long": "long sessions: per-segment parsing and feature work, one lstsq early in each process",
    "generate": "the only workload where synth and dataset writing do the work",
}

#: Input sizes.  ``tiny`` serves the self-check.
SIZES = {
    "full": {"protocol_sessions": 2000, "test_size": 90, "refit_splits": 1, "baseline_splits": 1,
             "long_sessions": 300, "gen_count": 400},
    "tiny": {"protocol_sessions": 120, "test_size": 20, "refit_splits": 1, "baseline_splits": 1,
             "long_sessions": 8, "gen_count": 20},
}

#: Functions whose calls, total and self time are per-layer metrics.
TIMED = (
    "io.read_sessions", "io.write_dataset", "io.predictions_csv_text",
    "model.extract_features", "model.predict",
    "fitting.design_matrix", "fitting.fit", "fitting.lstsq_min_norm",
    "baselines.extract_baseline_features", "baselines.fit_baseline_coefficients",
    "baselines.baseline_predict",
    "evaluation.run_split_protocol", "evaluation.linear_compensate",
    "synth.generate_labeled_dataset", "synth.generate_session",
    "cli.main",
)
COUNTED = ("model.classify_switch", "model.bin_quality")
LAYERS = ("io", "model", "fitting", "baselines", "evaluation", "synth")

END_TO_END_UNITS = {"setup_s": "s", "op_wall_per_ref": "ratio", "peak_rss_mb": "MiB"}


@dataclass
class Op:
    """One CLI invocation and how to judge its output."""

    kind: str
    argv: list[str]
    sessions: int
    check: Callable[[str, str], tuple[list[str], int]]  # (stdout, workdir) -> (problems, segments)
    expected_calls: dict[str, int] = field(default_factory=dict)
    first_seed: int | None = None  # when set, op k of a run gets --seed first_seed + k


def _write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle)


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _reference(seed: int, size: str) -> dict:
    if size != "full":
        return {}
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle).get(str(seed), {})


def _count_segments(sessions) -> int:
    return sum(len(s["segments"]) for s in sessions)


def protocol_ops(workload: str, seed: int, workdir: str, size: dict, reference: dict) -> list[Op]:
    sessions = gen_inputs.dataset(seed, size["protocol_sessions"], (1, 40), stall_prob=0.1)
    _write_json(os.path.join(workdir, "protocol.json"), sessions)
    n, t = len(sessions), size["test_size"]
    n_segments = _count_segments(sessions)
    common = ["--input", "protocol.json", "--test-size", str(t), "--seed", str(seed)]
    models = ["refit"] if workload == "protocol-refit" else ["guo", "vriendt", "liu"]
    ops = []
    for model in models:
        splits = size["refit_splits" if model == "refit" else "baseline_splits"]
        per_split = 2 * (n - t) + t  # fit on train, predict test, predict train to compensate
        if model == "refit":
            argv = ["evaluate", "--refit", "--splits", str(splits), *common]
            calls = {"model.extract_features": splits * per_split, "fitting.fit": splits,
                     "fitting.lstsq_min_norm": splits, "baselines.extract_baseline_features": 0}
        else:
            argv = ["evaluate", "--baseline", model, "--splits", str(splits), *common]
            calls = {"baselines.extract_baseline_features": splits * per_split,
                     "baselines.fit_baseline_coefficients": splits,
                     "fitting.lstsq_min_norm": splits, "model.extract_features": 0, "fitting.fit": 0}
        calls.update({"io.read_sessions": 1, "evaluation.run_split_protocol": 1})

        def check(stdout, _workdir, splits=splits, expected=reference.get(model)):
            return checks.protocol(stdout, splits, expected), n_segments

        ops.append(Op(model, argv, n, check, calls))
    return ops


def score_long_ops(seed: int, workdir: str, size: dict, reference: dict) -> list[Op]:
    sessions = gen_inputs.dataset(seed, size["long_sessions"], (200, 400), stall_prob=0.1)
    _write_json(os.path.join(workdir, "long.json"), sessions)
    rows = [oracle.features(s) for s in sessions]
    labels = [s["mos"] for s in sessions]
    n, n_segments = len(sessions), _count_segments(sessions)

    def check_predict(stdout, _workdir):
        return checks.predictions(stdout, sessions, rows), n_segments

    def check_fit(stdout, workdir):
        weights = _read(os.path.join(workdir, "weights.json"))
        return checks.fit(weights, stdout, rows, labels, reference.get("fit")), n_segments

    predict = Op("predict", ["predict", "--input", "long.json", "--weights", "paper", "--features"],
                 n, check_predict,
                 {"model.extract_features": 2 * n, "model.predict": n, "io.read_sessions": 1,
                  "io.predictions_csv_text": 1})
    fit = Op("fit", ["fit", "--input", "long.json", "--output", "weights.json"],
             n, check_fit,
             {"model.extract_features": n, "fitting.design_matrix": 1, "fitting.fit": 1,
              "fitting.lstsq_min_norm": 1, "io.read_sessions": 1})
    return [predict, fit]


def generate_ops(seed: int, size: dict) -> list[Op]:
    count = size["gen_count"]

    def check(_stdout, workdir):
        return checks.generated(_read(os.path.join(workdir, "generated.json")), count)

    argv = ["gen", "--count", str(count), "--output", "generated.json", "--weights", "paper",
            "--noise-std", "0"]
    calls = {"synth.generate_labeled_dataset": 1, "synth.generate_session": count,
             "model.extract_features": count, "io.write_dataset": 1}
    return [Op("gen", argv, count, check, calls, first_seed=seed * 100003)]


def build_ops(workload: str, seed: int, workdir: str, size_name: str = "full") -> list[Op]:
    """The cycle of ops a workload repeats, with its input files written to ``workdir``."""
    size = SIZES[size_name]
    reference = _reference(seed, size_name)
    if workload.startswith("protocol-"):
        return protocol_ops(workload, seed, workdir, size, reference)
    if workload == "score-long":
        return score_long_ops(seed, workdir, size, reference)
    return generate_ops(seed, size)


@dataclass
class Record:
    kind: str
    traced: bool
    cycle: int
    setup_s: float = math.nan
    wall_s: float = math.nan
    reference_s: float = math.nan  # the reference task, run just before the op
    cpu_s: float = math.nan
    rss_mb: float = math.nan
    sessions: int = 0
    segments: int = 0
    problems: list[str] = field(default_factory=list)
    trace: dict = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)  # traced counts off their closed form


def _reference_text() -> str:
    rng = random.Random(0)
    return json.dumps([{"segments": [rng.choice((1.0, 2.5, 3.7, 4.5, 5.0)) for _ in range(30)],
                        "mos": 1.0 + 4.0 * rng.random()} for _ in range(300)])


_REFERENCE_TEXT = _reference_text()


def reference_task() -> float:
    """Seconds this process takes for a fixed task much like an op's own work.

    On a 2-vCPU virtual machine that shares its host, the speed of a vCPU
    switches between two states, about 1.7x apart, that last from seconds
    to minutes: a 30 s run's mean, median and even its fastest op move by
    20-45 % between runs of the same code, at any run length from 10 to
    60 s.  The task runs right before each op, so an op's time over the
    task's time cancels the state.  It parses JSON sessions and counts
    qualities per session, which slows as much as the ops do in the slow
    state (a plain arithmetic loop slows 10 % more).  It calls nothing of
    hasqoe, so no change to the program can move it.
    """
    start = time.perf_counter()
    for _ in range(18):
        for session in json.loads(_REFERENCE_TEXT):
            counts: dict[int, int] = {}
            for quality in session["segments"]:
                counts[int(quality)] = counts.get(int(quality), 0) + 1
            sum(n / len(session["segments"]) for n in counts.values())
    return time.perf_counter() - start


def run_op(op: Op, workdir: str, traced: bool, cycle: int, index: int = 0,
           env: dict | None = None) -> Record:
    """Time the reference task, spawn the op's process, wait for it, and check its output."""
    argv = list(op.argv)
    if op.first_seed is not None:
        argv += ["--seed", str(op.first_seed + index)]
    result_path = os.path.join(workdir, "result.json")
    stdout_path = os.path.join(workdir, "stdout.txt")
    for path in (result_path, stdout_path):
        if os.path.exists(path):
            os.unlink(path)
    record = Record(op.kind, traced, cycle, sessions=op.sessions, reference_s=reference_task())
    command = [sys.executable, OP, result_path, SRC, "1" if traced else "0", "--", *argv]
    with open(stdout_path, "w") as stdout, open(os.path.join(workdir, "stderr.txt"), "w") as stderr:
        spawned = time.monotonic()
        process = subprocess.Popen(command, cwd=workdir, stdin=subprocess.DEVNULL,
                                   stdout=stdout, stderr=stderr, env=env)
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
    record.cpu_s = usage.ru_utime + usage.ru_stime
    record.rss_mb = usage.ru_maxrss / 1024.0
    try:
        result = json.loads(_read(result_path))
    except (OSError, json.JSONDecodeError):
        tail = _read(os.path.join(workdir, "stderr.txt"))[-500:]
        record.problems.append(f"exit status {process.returncode}, no result: {tail}")
        return record
    record.setup_s = result["ready"] - spawned
    record.wall_s = result["wall_s"]
    record.trace = result.get("trace", {})
    if result["exit_code"] != 0 or result["error"] or process.returncode != 0:
        tail = _read(os.path.join(workdir, "stderr.txt"))[-500:]
        record.problems.append(f"exit code {result['exit_code']} {result['error'] or ''} {tail}")
        return record
    problems, record.segments = op.check(_read(stdout_path), workdir)
    record.problems.extend(problems)
    if traced:
        for key, want in op.expected_calls.items():
            got = record.trace.get(key, {}).get("calls", 0)
            if got != want:
                record.mismatches.append(f"{key}.calls {got} != {want}")
    return record


def measure(ops: list[Op], workdir: str, seconds: float, trace: bool) -> list[Record]:
    """Run whole cycles until ``seconds`` have passed; with ``trace``, alternate traced cycles.

    In untraced runs the ops get one BLAS thread.  With two threads on a
    2-core host, where the scheduler puts the worker thread decides
    whether an op takes 1x or 1.6x, at random per process, and the odds
    drift with the host's load.  Traced runs leave BLAS threading as the
    environment sets it, so ``fitting.lstsq_min_norm.max_s`` and
    ``.cpu_s`` show what the threads cost a user.
    """
    env = None if trace else dict(os.environ, OPENBLAS_NUM_THREADS="1")
    records = []
    deadline = time.monotonic() + seconds
    cycle = 0
    while True:
        modes = (False,) if not trace else ((False, True) if cycle % 4 == 0 else (True, False))
        for traced in modes:
            for op in ops:
                records.append(run_op(op, workdir, traced, cycle, len(records), env))
            cycle += 1
        if time.monotonic() >= deadline:
            return records


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 values beyond it.

    Returns (value, percentile, values beyond).  With 20 values or fewer
    that percentile would not be above the median, so the maximum stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def per_cycle_median(records: list[Record], attribute: str) -> float:
    """Median over cycles of the mean per op in each cycle.

    A cycle holds one op of each kind, so the median of a workload that
    mixes a slow and a fast kind is not a flip between the two.
    """
    cycles: dict[int, list[float]] = {}
    for record in records:
        cycles.setdefault(record.cycle, []).append(getattr(record, attribute))
    return statistics.median(statistics.fmean(values) for values in cycles.values())


def per_reference(records: list[Record], attribute: str) -> float:
    """Mean over op kinds of the kind's summed ``attribute`` over its summed reference time.

    Sums, not medians: with two BLAS threads (traced runs) an op's time
    has two modes (in some processes the OpenBLAS worker thread shares the
    main thread's core for the first second, and each lstsq call in it
    costs 0.13 s instead of 1 ms), and a median jumps between them as
    their mix shifts from run to run.
    """
    kinds: dict[str, list[Record]] = {}
    for record in records:
        kinds.setdefault(record.kind, []).append(record)
    return statistics.fmean(sum(getattr(r, attribute) for r in group) / sum(r.reference_s for r in group)
                            for group in kinds.values())


def end_to_end(records: list[Record]) -> tuple[dict, dict]:
    """The bounded metrics, and the op times in seconds for reading only.

    Every op sets up anew, and ``setup_s`` is the fastest set-up of the
    run.  Set-up is in seconds, so the reference task cannot cancel the
    host's speed states for it; the median set-up of a run moves with them
    (by 28 % between two sets of runs of the same code), while nearly
    every run has some op that set up in the fast state.
    """
    ok = [r for r in records if not r.problems] or records
    walls = [r.wall_s for r in ok]
    tail_value, percentile, beyond = tail(walls)
    metrics = {
        "setup_s": min(r.setup_s for r in ok),
        "op_wall_per_ref": per_reference(ok, "wall_s"),
        "peak_rss_mb": per_cycle_median(ok, "rss_mb"),
    }
    # Seconds as measured: the host's drift moves them too far between runs to bound them.
    details = {"ops": len(records),
               "op_s_p50": per_cycle_median(ok, "wall_s"), "op_s_mean": statistics.fmean(walls),
               "op_s_tail": tail_value, "tail_percentile": percentile, "tail_ops_beyond": beyond,
               "op_cpu_s_p50": per_cycle_median(ok, "cpu_s"),
               "segments_per_s": sum(r.segments for r in ok) / sum(walls),
               "setup_s_p50": statistics.median(r.setup_s for r in ok),
               "reference_s_p50": statistics.median(r.reference_s for r in ok),
               "op_s_p50_by_kind": {kind: statistics.median(r.wall_s for r in ok if r.kind == kind)
                                    for kind in sorted({r.kind for r in ok})}}
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}, details


def per_layer(records: list[Record]) -> tuple[dict, dict]:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = len(traced)

    def stat(key: str, name: str) -> float:
        return sum(r.trace.get(key, {}).get(name, 0) for r in traced)

    metrics = {}
    for key in TIMED:
        metrics[f"{key}.calls"] = (stat(key, "calls") / n, "count")
        metrics[f"{key}.total_s"] = (stat(key, "total_s") / n, "s")
        metrics[f"{key}.self_s"] = (stat(key, "self_s") / n, "s")
    for key in COUNTED:
        metrics[f"{key}.calls"] = (stat(key, "calls") / n, "count")
    metrics["fitting.lstsq_min_norm.max_s"] = (
        max((r.trace.get("fitting.lstsq_min_norm", {}).get("max_s", 0.0) for r in traced), default=0.0), "s")
    metrics["fitting.lstsq_min_norm.cpu_s"] = (stat("fitting.lstsq_min_norm", "cpu_s") / n, "s")
    sessions = sum(r.sessions for r in traced)
    generated = sum(r.sessions for r in traced if r.kind == "gen")
    metrics["model.extract_features.calls_per_session"] = (
        stat("model.extract_features", "calls") / sessions, "ratio")
    metrics["baselines.extract_baseline_features.calls_per_session"] = (
        stat("baselines.extract_baseline_features", "calls") / sessions, "ratio")
    metrics["synth.attempts_per_session"] = (
        stat("synth.generate_session", "calls") / generated if generated else 0.0, "ratio")
    for layer in LAYERS:
        errors = sum(s["errors"] for r in traced for k, s in r.trace.items() if k.startswith(f"{layer}."))
        metrics[f"{layer}.errors"] = (errors, "count")
    mismatches = [m for r in traced for m in r.mismatches]
    metrics["trace.count_mismatches"] = (len(mismatches), "count")
    metrics["trace.overhead_ratio"] = (
        per_reference(traced, "wall_s") / per_reference(untraced, "wall_s"), "ratio")
    details = {"ops": len(records), "traced_ops": n, "count_mismatches": sorted(set(mismatches))[:20]}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, details


def _git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        head = _read(head_path).strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(ROOT, ".git", ref)
            if os.path.exists(ref_path):
                return _read(ref_path).strip()
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment(workdir: str) -> dict:
    """The numeric stack as an op process sees it, plus the machine's state."""
    probe_path = os.path.join(workdir, "probe.json")
    subprocess.run([sys.executable, OP, "--probe", probe_path, SRC], cwd=workdir, check=True,
                   stdin=subprocess.DEVNULL, timeout=120)
    env = json.loads(_read(probe_path))
    env.update({
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
    })
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hasqoe", "cli.py")):
        print(f"error: no hasqoe sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        env = environment(workdir)
        ops = build_ops(args.workload, args.seed, workdir)
        records = measure(ops, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["op_blas_threads"] = "as found" if args.trace else "1 (OPENBLAS_NUM_THREADS=1)"

    failed = [r for r in records if r.problems]
    metrics, details = (per_layer if args.trace else end_to_end)(records)
    details.update({"workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
                    "trace": args.trace, "ops_failed_ratio": len(failed) / len(records),
                    "failures": [f"{r.kind}: {r.problems[:3]}" for r in failed[:5]],
                    "environment": env})
    print(json.dumps(details))
    for record in failed[:5]:
        print(f"failed {record.kind} op: {record.problems[:3]}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
