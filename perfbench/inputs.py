"""Seeded inputs for the benchmark workloads.

Every function here is pure: the same seed gives byte-identical inputs
(compare ``json.dumps`` of the results).  The generator never imports
``golomb``; the program under test sees only what these functions return.

Seeds vary the values inside each input class but keep the class mix and
the size of each class fixed, so the figures of two seeds measure the same
amount of work.  Seed ``HELD_OUT_SEED`` is never used while tuning the
benchmark or a change; it is kept for confirming a claim afterwards.
"""

from __future__ import annotations

import os
import random

HELD_OUT_SEED = 1009

# Orders of the proof workloads and the one whose time is the headline.
PROVE_ORDERS = (8, 9, 10)
HEADLINE_ORDER = 10

# Threads or processes each workload asks of the program.  The load always
# comes from a single benchmark process.  A traced prove_seq run adds one
# proof with FANOUT_JOBS to measure the fan-out layer.
WORKLOAD_JOBS = {
    "prove_seq": 1,
    "verify_batch": 1,
    "cli_script": 1,
}
FANOUT_JOBS = 2

VERIFY_BATCH_SIZE = 64
VERIFY_MIN_ORDER = 100
VERIFY_MAX_ORDER = 400

# Order of every large quadratic counterexample in the CLI script: the value
# of 2a^2 + b^2 + 2ab + 2a + 3b + 2 + c at a = b = 300, c = 0.
CLI_BIG_COUNTEREXAMPLE_ORDER = 451502


def capped_jobs(requested: int, cpu_count: int | None = None) -> int:
    """Parallelism to pass to the search: ``requested``, capped at the core count."""
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    return max(1, min(requested, cpu_count))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def verify_batch(seed: int, size: int = VERIFY_BATCH_SIZE) -> list:
    """Rulers for the verify workload, as ``{"family", "order", "modulus"}``.

    Orders are stratified over [100, 400] and the family of each stratum is
    fixed, so every seed has the same spread of sizes and families; the seed
    moves each order within its stratum, picks the triangular moduli and
    shuffles the batch.  Each block of four strata holds one half-cubic, one
    cubic and two triangular rulers with a modulus below n/3; every modulus
    in that range collides at these orders, so half of each batch is
    non-graceful and takes the witness path.
    """
    rng = _rng("verify_batch", seed)
    span = VERIFY_MAX_ORDER - VERIFY_MIN_ORDER + 1
    families = ("halfcubic", "triangular", "cubic", "triangular")
    batch = []
    for k in range(size):
        family = families[k % len(families)]
        order = VERIFY_MIN_ORDER + int((k + rng.random()) * span / size)
        modulus = None
        if family == "triangular":
            modulus = rng.randint(max(1, order // 10), order // 3)
        batch.append({"family": family, "order": order, "modulus": modulus})
    rng.shuffle(batch)
    return batch


def _small_ruler(rng: random.Random) -> list:
    """A short mark list for a marks file: graceful or not, maybe shifted."""
    n = rng.randint(5, 40)
    modulus = rng.choice([n, n - 2, max(1, n // 4), rng.randint(1, n)])
    marks = [(i - 1) * (i - 2) // 2 * modulus + (i - 1) for i in range(1, n + 1)]
    shift = rng.choice([0, 0, rng.randint(1, 500)])
    return [m + shift for m in marks]


def _counterexample(rng: random.Random, big: bool) -> list:
    if big:
        # Fix the order, and so the work, of every large counterexample.
        a = rng.randint(280, 300)
        b = rng.randint(280, 300)
        base = 2 * a * a + b * b + 2 * a * b + 2 * a + 3 * b + 2
        c = CLI_BIG_COUNTEREXAMPLE_ORDER - base
    else:
        a, b, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 10)
    return ["counterexample", "--a", str(a), "--b", str(b), "--c", str(c)]


def cli_script(seed: int) -> list:
    """The command script of the CLI workload, one ``golomb`` call per entry.

    Each entry is ``{"argv": [...], "file": text or None}``; a ``{file}``
    argument stands for a marks file holding ``text``.  The mix is fixed:
    26 light calls that cost about one interpreter start, 8 medium calls
    (``search --n 8``, ``bench --n-max 8``, one timed-out search) and 6
    large counterexamples of order 451 502.  The median command lands among
    the light calls and the 90th percentile among the large ones.
    """
    rng = _rng("cli_script", seed)
    fmt = lambda: ["--format", rng.choice(["text", "json"])]
    script = []

    def add(argv, text=None):
        script.append({"argv": [str(a) for a in argv], "file": text})

    # Light: construct (8), verify (6), triangle (5), counterexample (4),
    # small search (1), usage errors (2).
    for method in ["halfcubic", "halfcubic", "cubic", "cubic", "pow2", "triangular", "triangular", "triangular"]:
        n = rng.randint(10, 63) if method == "pow2" else rng.randint(20, 60)
        argv = ["construct", "--method", method, "--n", n]
        if method == "triangular":
            argv += ["--modulus", rng.randint(1, n)]
        add(argv + fmt())
    for _ in range(5):
        text = "# seeded marks file\n" + "\n".join(
            " ".join(str(m) for m in _small_ruler(rng)) for _ in range(rng.randint(4, 8))
        ) + "\n"
        add(["verify", "--file", "{file}"] + fmt(), text)
    add(["verify"] + _small_ruler(rng)[: rng.randint(5, 12)] + fmt())
    for _ in range(3):
        marks = sorted(rng.sample(range(0, 120), rng.randint(5, 12)))
        add(["triangle"] + marks + fmt())
    for method in ["cubic", rng.choice(["halfcubic", "pow2"])]:
        add(["triangle", "--method", method, "--n", rng.randint(10, 40)] + fmt())
    for _ in range(4):
        add(_counterexample(rng, big=False) + fmt())
    add(["search", "--n", rng.randint(5, 7)] + fmt())
    add(["construct", "--method", "triangular", "--n", rng.randint(10, 60)] + fmt())
    add(["search", "--n", rng.randint(16, 40)] + fmt())

    # Medium.
    for _ in range(3):
        add(["search", "--n", 8] + fmt())
    for out in ["csv", "csv", "json", "json"]:
        add(["bench", "--n-max", 8, "--format", out])
    add(["search", "--n", 11, "--timeout", "100ms"] + fmt())

    # Heavy: three of each output format, so the tail mix is fixed.
    for out in ["text", "text", "text", "json", "json", "json"]:
        add(_counterexample(rng, big=True) + ["--format", out])

    rng.shuffle(script)
    return script
