"""One benchmark process: set up a workload, run one pass, check it.

Run by ``run.py``, once per pass, in a fresh interpreter::

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        [--setup-only] [--spans PATH]

It prints one JSON line: the monotonic clock reading when set-up ended (the
parent subtracts its own reading at launch), the wall time of each step of
the pass, peak resident set and checks, the SHA-256 of every scenario result file, and,
with ``--spans``, the per-layer metrics of the traced pass (the raw spans go
to PATH).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import quasidiff  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    if not os.path.abspath(quasidiff.__file__).startswith(SRC + os.sep):
        sys.exit(f"quasidiff was imported from {quasidiff.__file__}, not from {SRC}")
    setup, steps, check = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)

    trace = None
    if args.spans:
        # installed before set-up, so generators called there are traced too
        trace = tracer.Tracer()
        trace.install()
    inputs = setup(args.seed, args.out, smoke=False)
    report = {"setup_done": time.monotonic()}
    if not args.setup_only:
        outputs, report["step_s"] = workloads.run(steps(inputs))
        report["wall_s"] = sum(report["step_s"].values())
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace is not None:
            trace.uninstall()
            report["layers"] = tracer.layer_metrics(trace.spans)
            trace.write(args.spans)
        report["checks"] = [[name, bool(ok)] for name, ok in check(inputs, outputs, args.seed)]
        report["results"] = {}
        for path in sorted(glob.glob(os.path.join(args.out, "*-result.json"))):
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            report["results"][os.path.basename(path)] = digest
    print(json.dumps(report))


if __name__ == "__main__":
    main()
