"""Benchmark of the sparseact CLI and public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Workloads are ``dense``, ``sampled`` and ``learn`` (see workloads.py and
layers.json); ``all`` runs the three in turn.  Each workload runs in its own
fresh process (harness.py), built from the checkout's ``src`` with no
install step.  BLAS threads in that process are capped so that BLAS
threads times the workload's Monte-Carlo threads is at most the CPU count.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  When the program
cannot be built or run, the exit code is non-zero and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Monte-Carlo threads each workload asks for; capped at the CPU count.
MC_THREADS = {"dense": 1, "sampled": 2, "learn": 1}
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_workload(workload: str, args) -> dict | None:
    """Run one workload in a fresh process; its result, or None on failure."""
    nproc = len(os.sched_getaffinity(0))
    mc_threads = min(MC_THREADS[workload], nproc)
    blas_threads = str(max(1, nproc // mc_threads))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas_threads
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "harness.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mc-threads", str(mc_threads),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(exc.stdout or "")
        print(f"error: {workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print(f"error: {workload} exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*MC_THREADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sparseact" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(MC_THREADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
