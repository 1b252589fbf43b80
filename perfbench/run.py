"""The repository's benchmark: one workload per run, one JSON line out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload alloc-large --seed 1 --seconds 30 --trace 0

The workload runs in a child process (``worker.py``) with
``PYTHONHASHSEED`` pinned, because ``ursa`` output and compile time
depend on Python's string-hash order; with the seed pinned, runs
repeat.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; details of failed
operations and of failed checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("alloc-large", "program-suite", "serve-mix")
#: The hash seed every workload process runs under.
HASH_SEED = "1"
#: The second hash seed the determinism replays are compiled under.
REPLAY_HASH_SEED = "2"
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
#: The first ones run before the measured run and the rest after it, so
#: that the samples span the run.
SETUP_SAMPLES = 7
SETUP_BEFORE = 4
#: Time allowed to a set-up or replay process, and to the measured run
#: beyond its ``--seconds`` (its last round or pass ends after them).
CHILD_TIMEOUT_S = 120


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: List[str], hash_seed: str = HASH_SEED,
               timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run ``worker.py`` to completion and return its standard output."""
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=child_env(hash_seed), stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.terminate()  # the worker stops its server on SIGTERM
        try:
            process.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        raise RuntimeError(f"worker {' '.join(args)} timed out")
    if process.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {process.returncode}")
    return out


def setup_seconds(workload: str, seed: int, samples: int) -> List[float]:
    """Fresh interpreter to inputs built, timed from outside."""
    times = []
    for _ in range(samples):
        began = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", workload, "--seed", str(seed), "--setup-only"],
            env=child_env(HASH_SEED), stdout=subprocess.PIPE, text=True,
        )
        line = process.stdout.readline()
        times.append(time.perf_counter() - began)
        process.stdout.close()
        if process.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {workload} failed")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout (no src/repro)",
              file=sys.stderr)
        return 2

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "alloc-large":
        replays = run_worker(["--workload", args.workload, "--seed",
                              str(args.seed), "--replay"], REPLAY_HASH_SEED).strip()
        run_args += ["--replay-signatures", replays]
    timed_setup = not args.trace and args.workload != "serve-mix"
    if timed_setup:
        setup = setup_seconds(args.workload, args.seed, SETUP_BEFORE)
    out = run_worker(run_args, timeout=1.5 * args.seconds + CHILD_TIMEOUT_S)
    result = json.loads(out.strip().splitlines()[-1])
    if timed_setup:
        setup += setup_seconds(args.workload, args.seed,
                               SETUP_SAMPLES - SETUP_BEFORE)
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup), "unit": "s",
        }
    detail = result.pop("detail")
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
