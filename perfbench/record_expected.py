#!/usr/bin/env python3
"""Write expected.json: for each workload at the default seed, the sha256 of
its instance files (concatenated in order) and the weight that
``pairdom solve --json`` reports on each instance.

The benchmark checks answers at the default seed against these weights.
Run it from the repository root after a change to the workloads:
  python3 perfbench/record_expected.py
"""

import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    importlib.import_module("pairdom.cli")
    record = {"seed": run.DEFAULT_SEED, "workloads": {}}
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    try:
        for workload in workloads.WORKLOADS:
            instances = workloads.make_instances(workload, run.DEFAULT_SEED)
            texts = [inst.to_text() for inst in instances]
            weights = []
            for inst, text in zip(instances, texts):
                path = tmp / "instance.pd"
                path.write_text(text, encoding="ascii")
                _, rc, stdout = run.run_op(run.solve_argv(workload, path))
                weight, _, why = run.judge(inst, rc, stdout)
                if why:
                    raise RuntimeError(f"{workload}: {why}")
                weights.append(weight)
            record["workloads"][workload] = {
                "sha256": workloads.sha256_text("".join(texts)), "weights": weights}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
