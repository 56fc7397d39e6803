"""Benchmark of the golomb toolkit: one workload per call.

Run from the root of a checkout::

    python3 perfbench/run.py --workload prove_seq --seed 1 --seconds 36 --trace 0

The workload runs in a fresh Python process (``perfbench/worker.py``) that
imports ``golomb`` from ``./src``.  With ``--trace 0`` the last line of
standard output carries every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it carries every per-layer metric, taken from spans recorded
in a second, traced worker, plus the tracing overhead (traced minus
untraced value of each end-to-end metric the worker measures).  Per-layer
metrics a workload does not exercise read 0.  The line before it,
``info {...}``, records the machine, the code and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170
# Share of --seconds each of the two workers of a traced run may measure for.
TRACED_SHARE = 0.4
NODE_DEFINITION = (
    "one candidate mark position examined in _dfs, plus one per fan-out prefix when jobs > 1"
)


class BenchmarkError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: str) -> float:
    """Median wall seconds for a fresh interpreter to ``import golomb``."""
    probe = "import golomb, sys; sys.stdout.write(golomb.__file__)"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=child_env(root), cwd=root, timeout=60)
        times.append(time.perf_counter() - t0)
        where = os.path.realpath(proc.stdout)
        if proc.returncode != 0 or not where.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
            raise BenchmarkError("import golomb failed or did not load ./src: %s" % proc.stderr.strip())
    return statistics.median(times)


def run_worker(root: str, workload: str, seed: int, budget: float, trace: int) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(root), cwd=root,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError("worker for %s ran past %d s" % (workload, WORKER_TIMEOUT_S))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError("worker for %s exited %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def src_line_count(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="golomb benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOAD_JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(root, "src", "golomb", "__init__.py")):
            raise BenchmarkError("no golomb sources under ./src; run from the root of a checkout")
        setup_s = measure_setup(root)
        if args.trace:
            plain = run_worker(root, args.workload, args.seed, args.seconds * TRACED_SHARE, 0)
            traced = run_worker(root, args.workload, args.seed, args.seconds * TRACED_SHARE, 1)
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            values = dict(traced["layers"])
            for name, value in traced["e2e"].items():
                values["trace.overhead." + name] = value - plain["e2e"][name]
            wanted = spec["per_layer"]
        else:
            result = run_worker(root, args.workload, args.seed, float(args.seconds), 0)
            attempted, failed = result["attempted"], result["failed"]
            values = dict(result["e2e"], setup_s=setup_s)
            wanted = spec["end_to_end"]
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "src_lines": src_line_count(root),
        "node_definition": NODE_DEFINITION,
        "setup_s": setup_s,
    }
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
