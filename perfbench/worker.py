"""Run one benchmark workload in this fresh interpreter and print its figures.

``run.py`` starts this as::

    python3 perfbench/worker.py --workload W --seed S --budget SECONDS --trace 0|1

from the root of a checkout, with ``src`` on ``PYTHONPATH``.  The last line
of standard output is one JSON object: ``attempted`` and ``failed`` (outputs
checked against the oracle), ``e2e`` (the end-to-end figures) and, when
traced, ``layers`` (per-layer figures taken from the spans).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import oracle
from run import child_env
from tracing import Tracer

from golomb.cli import main as cli_main
from golomb.constructions import (
    QuadraticFamilyParams,
    TriangularParams,
    construct_cubic,
    construct_half_cubic,
    construct_triangular,
    find_quadratic_collision,
)
from golomb.core import build_difference_triangle, verify_graceful
from golomb.search import SearchConfig, search_optimal

WORK_DIR = ".perfbench_work"
CLI_SUBCOMMANDS = ("construct", "verify", "triangle", "search", "bench", "counterexample")
CHILD_TIMEOUT_S = 120


class Context:
    """What one workload run measures: op times, oracle verdicts and spans."""

    def __init__(self, workload: str, seed: int, budget: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.budget = budget
        self.tracer = Tracer(traced)
        self.ops = []  # wall seconds of each timed operation
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.e2e = None
        # Whose peak RSS is reported: the process that runs golomb.
        self.rss_of = resource.RUSAGE_SELF
        self.start = time.perf_counter()

    def check(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print("oracle: %s: %s" % (what, "; ".join(problems[:3])), file=sys.stderr)

    def repeat(self, one_pass) -> None:
        """Run ``one_pass`` until another would end past the budget; at least once.

        The end-to-end figures are taken here, before any extra work a traced
        run does afterwards.
        """
        while True:
            t0 = time.perf_counter()
            one_pass()
            now = time.perf_counter()
            if now - self.start + (now - t0) > self.budget:
                break
        self.e2e = end_to_end(self)


# -- prove_seq ----------------------------------------------------------------

def _prove(ctx: Context, order: int, jobs: int) -> float:
    """One checked proof of optimality; returns its wall seconds."""
    with ctx.tracer.span("search.search_optimal", order=order, jobs=jobs) as attrs:
        t0 = time.perf_counter()
        result = search_optimal(SearchConfig(order=order, parallelism=jobs))
        elapsed = time.perf_counter() - t0
        attrs["nodes"] = result.nodes_explored
    ctx.check(
        "search n=%d jobs=%d" % (order, jobs),
        oracle.check_search(order, result.ruler.marks, result.length, result.optimal),
    )
    return elapsed


def prove(ctx: Context) -> None:
    """Prove orders 8 and 9 once, then order 10 as often as the budget allows."""
    jobs = inputs.capped_jobs(inputs.WORKLOAD_JOBS[ctx.workload])
    top = inputs.HEADLINE_ORDER
    for order in inputs.PROVE_ORDERS[:-1]:
        _prove(ctx, order, jobs)
    ctx.repeat(lambda: ctx.ops.append(_prove(ctx, top, jobs)))
    if not ctx.tracer.enabled:
        return
    fanout = inputs.capped_jobs(inputs.FANOUT_JOBS)
    if fanout > jobs:
        # One fan-out proof, not counted as an operation, gives the jobs=2 ratios.
        _prove(ctx, top, fanout)
    ms, nodes = {}, {}
    for s in ctx.tracer.spans:
        key = (s["attrs"]["order"], s["attrs"]["jobs"])
        ms.setdefault(key, []).append((s["end"] - s["start"]) * 1000.0)
        nodes.setdefault(key, []).append(s["attrs"]["nodes"])
    p50 = lambda table, order, j: statistics.median(table[(order, j)])
    for order in inputs.PROVE_ORDERS:
        ctx.layers["search.nodes.n%d" % order] = p50(nodes, order, jobs)
        ctx.layers["search.prove_ms.n%d" % order] = p50(ms, order, jobs)
    ctx.layers["search.nodes_per_s.n10"] = p50(nodes, top, jobs) / p50(ms, top, jobs) * 1000.0
    if fanout > jobs:
        ctx.layers["search.speedup_jobs2.n10"] = p50(ms, top, jobs) / p50(ms, top, fanout)
        ctx.layers["search.node_overhead_jobs2.n10"] = p50(nodes, top, fanout) / p50(nodes, top, jobs)


# -- verify_batch -------------------------------------------------------------

_CONSTRUCT = {
    "halfcubic": ("constructions.construct_half_cubic", lambda s: construct_half_cubic(s["order"])),
    "cubic": ("constructions.construct_cubic", lambda s: construct_cubic(s["order"])),
    "triangular": (
        "constructions.construct_triangular",
        lambda s: construct_triangular(TriangularParams(order=s["order"], modulus=s["modulus"])),
    ),
}


def verify(ctx: Context) -> None:
    """Construct, triangulate and verify every ruler of the batch, pass after pass."""
    batch = inputs.verify_batch(ctx.seed)
    expected = []
    for spec in batch:
        marks = oracle.family_marks(spec["family"], spec["order"], spec["modulus"])
        expected.append((marks, hash(tuple(oracle.differences(marks))), oracle.first_duplicate(marks)))

    def one_pass():
        for spec, (marks, tri_hash, dup) in zip(batch, expected):
            name, build = _CONSTRUCT[spec["family"]]
            tr = ctx.tracer
            with tr.span("verify_batch.ruler", family=spec["family"], order=spec["order"]):
                t0 = time.perf_counter()
                with tr.span(name):
                    ruler = build(spec)
                with tr.span("core.build_difference_triangle"):
                    tri = build_difference_triangle(ruler)
                with tr.span("core.verify_graceful") as attrs:
                    report = verify_graceful(ruler)
                    attrs["graceful"] = report.graceful
                ctx.ops.append(time.perf_counter() - t0)
            w = report.witness
            got = None if w is None else (w.value, w.first, w.second)
            problems = []
            if ruler.marks != marks:
                problems.append("constructed marks differ from the family formula")
            if tri.order != len(marks) or hash(tri.entries) != tri_hash:
                problems.append("difference triangle differs from the oracle's")
            if (report.graceful, got) != (dup is None, dup):
                problems += oracle.check_report(marks, report.graceful, got)
            ctx.check("verify %s n=%d" % (spec["family"], spec["order"]), problems)

    ctx.repeat(one_pass)
    if ctx.tracer.enabled:
        tr = ctx.tracer
        graceful = len(tr.durations_ms("core.verify_graceful", graceful=True))
        witness = len(tr.durations_ms("core.verify_graceful", graceful=False))
        ctx.layers.update({
            "core.build_difference_triangle.ms_p50": tr.p50_ms("core.build_difference_triangle"),
            "core.verify_graceful.graceful.ms_p50": tr.p50_ms("core.verify_graceful", graceful=True),
            "core.verify_graceful.witness.ms_p50": tr.p50_ms("core.verify_graceful", graceful=False),
            "core.verify_graceful.witness_share": witness / (graceful + witness),
            "constructions.construct_triangular.ms_p50": tr.p50_ms("constructions.construct_triangular"),
        })


# -- cli_script ---------------------------------------------------------------

def cli(ctx: Context) -> None:
    """Run the seeded script as ``golomb`` subprocesses, one at a time."""
    root = os.getcwd()
    script = inputs.cli_script(ctx.seed)
    workdir = os.path.join(root, WORK_DIR, "cli-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        argvs = []
        for k, cmd in enumerate(script):
            path = os.path.join(workdir, "marks-%d.txt" % k)
            if cmd["file"] is not None:
                with open(path, "w") as fh:
                    fh.write(cmd["file"])
            argvs.append([path if a == "{file}" else a for a in cmd["argv"]])
        _cli_passes(ctx, root, script, argvs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_passes(ctx: Context, root: str, script: list, argvs: list) -> None:
    env = child_env(root)
    ctx.rss_of = resource.RUSAGE_CHILDREN
    verified = set()  # (command, exit code, stdout digest) already checked

    def check(k: int, rc: int, out: bytes) -> None:
        key = (k, rc, hashlib.sha256(out).digest())
        problems = [] if key in verified else oracle.check_cli(script[k]["argv"], script[k]["file"], rc, out)
        if not problems:
            verified.add(key)
        ctx.check(" ".join(script[k]["argv"]), problems)

    def one_pass():
        for k, argv in enumerate(argvs):
            with ctx.tracer.span("cli.subprocess", command=argv[0]):
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "golomb.cli"] + argv,
                    capture_output=True, env=env, cwd=root, timeout=CHILD_TIMEOUT_S,
                )
                ctx.ops.append(time.perf_counter() - t0)
            check(k, proc.returncode, proc.stdout)

    ctx.repeat(one_pass)
    if not ctx.tracer.enabled:
        return
    tr = ctx.tracer
    stdout_bytes = dict.fromkeys(CLI_SUBCOMMANDS, 0)
    for k, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        with tr.span("cli.main", command=argv[0]):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(argv)
        data = out.getvalue().encode()
        stdout_bytes[argv[0]] += len(data)
        check(k, rc, data)
        if argv[0] == "counterexample":
            a, b, c = (int(argv[argv.index(opt) + 1]) for opt in ("--a", "--b", "--c"))
            with tr.span("constructions.find_quadratic_collision"):
                w = find_quadratic_collision(QuadraticFamilyParams(a=a, b=b, c=c))
            ctx.check("find_quadratic_collision a=%d b=%d c=%d" % (a, b, c),
                      oracle.check_collision(a, b, c, w.n, [w.i1, w.j1], [w.i2, w.j2], w.value))
    for sub in CLI_SUBCOMMANDS:
        ctx.layers["cli.%s.ms_p50" % sub] = tr.p50_ms("cli.main", command=sub)
        ctx.layers["cli.stdout_bytes.%s" % sub] = stdout_bytes[sub]
    ctx.layers["cli.startup_ms"] = tr.p50_ms("cli.subprocess") - tr.p50_ms("cli.main")
    ctx.layers["constructions.find_quadratic_collision.ms_p50"] = tr.p50_ms("constructions.find_quadratic_collision")


WORKLOADS = {"prove_seq": prove, "verify_batch": verify, "cli_script": cli}


def end_to_end(ctx: Context) -> dict:
    ms = sorted(t * 1000.0 for t in ctx.ops)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    rss_kb = resource.getrusage(ctx.rss_of).ru_maxrss
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "ops_per_s": len(ms) / (sum(ms) / 1000.0),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (ctx.attempted - ctx.failed) / ctx.attempted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ctx = Context(args.workload, args.seed, args.budget, bool(args.trace))
    WORKLOADS[args.workload](ctx)
    out = {"attempted": ctx.attempted, "failed": ctx.failed, "e2e": ctx.e2e}
    if ctx.tracer.enabled:
        out["layers"] = ctx.layers
        trace_path = os.path.join(WORK_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(WORK_DIR, exist_ok=True)
        ctx.tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "budget_s": args.budget})
        out["trace_file"] = trace_path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
