#!/usr/bin/env python3
"""Benchmark of the tvgsr CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload covid-shaped --seed 1 --seconds 25 --trace 0

Run from the repository root. Each run makes its inputs from the seed in
one fresh process and measures in another, both with the BLAS thread count
fixed in the environment, so that the count holds in any worker processes
too and the CG iteration counts repeat exactly. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
Run files go to .perfbench_out/<workload>-seed<seed>-trace<t>/.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("covid-shaped", "large-graph", "analyze")
BLAS_THREADS = "1"
DEADLINE_S = 175


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline):
    """Run one step in its own process group; kill the whole group at the deadline."""
    proc = subprocess.Popen([sys.executable, str(HERE / "measure.py"), *argv],
                            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark step {argv[0]} passed the {DEADLINE_S} s deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any worker left behind
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"benchmark step {argv[0]} exited with code {proc.returncode}")
    return out


def main():
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tvgsr" / "__init__.py").is_file():
        print(f"perfbench: no tvgsr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(run_dir)]
    run_child(["generate", *common], deadline)
    out = run_child(["measure", *common, "--seconds", str(args.seconds),
                     "--trace", str(args.trace)], deadline)
    for bulky in ("inputs", "ops", "warmup", "probe"):
        shutil.rmtree(run_dir / bulky, ignore_errors=True)
    lines = out.strip().splitlines()
    print("\n".join(lines), flush=True)
    return 0 if lines and lines[-1].startswith('{"correct"') else 1


if __name__ == "__main__":
    sys.exit(main())
