"""quasidiff benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: a closed loop with one caller.  Each pass is one full workload
in a fresh interpreter (``child.py``), one after another, the way users run
one ``quasidiff scenario`` process per experiment; nothing a pass caches
reaches the next.  A pass starts while it, and the set-up samples still
owed, should end within ``--seconds``; at least one pass runs.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      -- wall time of one pass, taken step by step: each step
                     (a scenario or a direct call) counts with its fastest
                     time over the run's passes (see ``fastest_pass_s``);
* ``setup_s``     -- median time from launching a process to the end of its
                     set-up (interpreter start, ``import quasidiff``, input
                     generation), over five processes: every pass process,
                     then set-up-only processes for the rest;
* ``peak_rss_mb`` -- median peak resident set of a pass process.

The share of failed checks, ``failed_frac``, is printed with them and is
``failed / attempted`` of the result line; it is not a metric of its own
because it is 0 whenever the outputs are right.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (medians over traced passes) plus
``trace_overhead_frac``, traced over untraced ``wall_s``, minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A summary with
machine facts, every pass and every check is written to
``.perfbench_out/<workload>-seed<N>-trace<0|1>.json``; the traced run also
keeps the last traced pass's spans beside it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import tracer
from names import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _child(args, out_dir: str, setup_only: bool = False, spans: str | None = None) -> dict:
    """Run one process; return its report with ``setup_s`` added."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out", out_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass process timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(
            f"pass process exited with code {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_done"] - launched
    report["process_s"] = time.monotonic() - launched
    return report


def _blas_threads():
    """OpenBLAS's own thread setting, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "git_commit": commit,
        "seed": seed,
    }


def _determinism_checks(passes) -> list:
    """Every pass of a run must write byte-identical scenario result files.

    A run of one process has nothing to compare, so it makes no such check.
    """
    first = passes[0]["results"]
    checks = []
    for i, p in enumerate(passes[1:], start=1):
        for name, digest in first.items():
            checks.append((f"pass{i}:{name}:identical", p["results"].get(name) == digest))
        if p["results"].keys() != first.keys():
            checks.append((f"pass{i}:result-files", False))
    return checks


def fastest_pass_s(passes) -> float:
    """Sum over a pass's steps of each step's fastest time across ``passes``.

    Other tenants of the machine slow a step for a few seconds at a time;
    the fastest of several runs of the same step is the one they disturbed
    least, so this sum repeats far better than any one pass's wall time.
    """
    return sum(min(p["step_s"][name] for p in passes) for name in passes[0]["step_s"])


def measure(args, run_dir: str) -> dict:
    """Run the passes of one benchmark run; return metrics, checks and raw data."""
    # untimed warm-up: byte-compiles the sources and fills the file cache,
    # costs a user pays once, not on every run
    _child(args, os.path.join(run_dir, "warmup"), setup_only=True)
    plain, traced = [], []
    started = time.monotonic()
    while True:
        n = len(plain)
        plain.append(_child(args, os.path.join(run_dir, f"pass{n}")))
        if args.trace:
            spans = os.path.join(run_dir, "spans.json")
            traced.append(_child(args, os.path.join(run_dir, f"traced{n}"), spans=spans))
        elapsed = time.monotonic() - started
        # stop unless one more pass and the set-up samples still owed end
        # within --seconds
        owed = 0 if args.trace else max(0, SETUP_SAMPLES - len(plain) - 1)
        if elapsed + elapsed / len(plain) + owed * plain[0]["setup_s"] > args.seconds:
            break
    # every untraced pass process is a set-up sample; set-up-only processes
    # make up the rest of SETUP_SAMPLES (traced runs report no set-up time)
    setups = [p["setup_s"] for p in plain]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        path = os.path.join(run_dir, f"setup{len(setups)}")
        setups.append(_child(args, path, setup_only=True)["setup_s"])
    processes = plain + traced

    checks = [tuple(c) for p in processes for c in p["checks"]]
    checks += _determinism_checks(processes)
    wall = fastest_pass_s(plain)
    if not args.trace:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END_UNITS
    else:
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in tracer.LAYER_UNITS
            if name != "trace_overhead_frac"
        }
        metrics["trace_overhead_frac"] = fastest_pass_s(traced) / wall - 1.0
        units = tracer.LAYER_UNITS
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": checks,
        "passes": plain,
        "traced_passes": traced,
        "setup_samples": setups,
        "determinism_checked": len(processes) > 1,
    }


def run_workload(args) -> int:
    """One benchmark run of ``args.workload``: print its metrics and result line."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT_ROOT, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = measure(args, run_dir)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        spans = os.path.join(run_dir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(OUT_ROOT, f"{tag}-spans.json"))
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = result["checks"]
    failed = sum(1 for _, ok in checks if not ok)
    summary = {
        "workload": args.workload,
        "machine": machine_facts(args.seed),
        "seconds": args.seconds,
        "failed_checks": [name for name, ok in checks if not ok],
        "attempted": len(checks),
        "failed": failed,
        **result,
    }
    with open(os.path.join(OUT_ROOT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  set-up samples {len(result['setup_samples'])}")
    print("machine " + json.dumps(summary["machine"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {failed / len(checks):.6g} ratio ({failed} of {len(checks)} checks)")
    if not result["determinism_checked"]:
        print("  result files not compared across passes: the run made one pass")
    for name in summary["failed_checks"]:
        print(f"  FAILED {name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quasidiff", "__init__.py")):
        print(f"no quasidiff sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        status = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
