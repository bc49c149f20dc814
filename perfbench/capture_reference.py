"""Rewrite reference.json: criteria and tables of every scenario at seed 0.

Run from the root of a checkout, only when a change is meant to move the
pinned numbers, and say so in that change::

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import quasidiff as qd  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    out_dir = os.path.join(ROOT, ".perfbench_out", "reference")
    reference = {}
    for name in qd.SCENARIOS:
        cfg = qd.ScenarioConfig(scenario=name, seed=workloads.DEFAULT_SEED, out_dir=out_dir)
        qd.run_scenario(cfg)
        doc = workloads.result_doc(out_dir, name)
        reference[name] = {"criteria": doc["criteria"], "tables": doc["tables"]}
    shutil.rmtree(out_dir)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
