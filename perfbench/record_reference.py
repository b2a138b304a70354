"""Record the reference outputs that ``checks`` compares later runs with.

    python3 perfbench/record_reference.py

For seeds 0-9 it runs each protocol op and the ``fit`` op of the full
size once, and writes their per-split metrics and fitted weights to
``reference.json``.  Rerun it only when the program's outputs are meant
to change, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import run

SEEDS = range(10)


def record(seed: int, workdir: str) -> dict:
    size = run.SIZES["full"]
    entry = {}
    ops = run.protocol_ops("protocol-refit", seed, workdir, size, {})
    ops += run.protocol_ops("protocol-baselines", seed, workdir, size, {})
    ops += run.score_long_ops(seed, workdir, size, {})
    for cycle, op in enumerate(ops):
        if op.kind == "predict":
            continue
        record = run.run_op(op, workdir, traced=False, cycle=cycle)
        if record.problems:
            raise SystemExit(f"seed {seed} {op.kind}: {record.problems}")
        if op.kind == "fit":
            weights = json.loads(run._read(os.path.join(workdir, "weights.json")))
            entry["fit"] = run.checks.weight_vector(weights)
        else:
            report = json.loads(run._read(os.path.join(workdir, "stdout.txt")))
            entry[op.kind] = [[s[key] for key in run.checks.SPLIT_KEYS] for s in report["per_split"]]
    return entry


def main() -> None:
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=os.path.join(run.HERE, ".work"))
    try:
        reference = {str(seed): record(seed, workdir) for seed in SEEDS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
