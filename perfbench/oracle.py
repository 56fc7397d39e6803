"""Independent answers the benchmark checks every ``golomb`` output against.

Nothing here imports ``golomb``.  Each ``check_*`` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json

SCHEMA = "golomb/1"

# Lexicographically smallest optimal ruler of each order, as published
# (Dollas, Rankin & McCracken, IEEE Trans. IT 44(1), 1998).  For n = 8..10
# the optimum is unique up to mirror image.
OPTIMAL_RULERS = {
    2: (0, 1),
    3: (0, 1, 3),
    4: (0, 1, 4, 6),
    5: (0, 1, 4, 9, 11),
    6: (0, 1, 4, 10, 12, 17),
    7: (0, 1, 4, 10, 18, 23, 25),
    8: (0, 1, 4, 9, 15, 22, 32, 34),
    9: (0, 1, 5, 12, 25, 27, 35, 41, 44),
    10: (0, 1, 6, 10, 23, 26, 34, 41, 53, 55),
}
OPTIMAL_LENGTH = {n: r[-1] for n, r in OPTIMAL_RULERS.items()}
OPTIMAL_LENGTH[11] = 72

EXIT_OK, EXIT_NOT_GRACEFUL, EXIT_USAGE, EXIT_TIMEOUT = 0, 1, 2, 3
SEARCH_MAX_ORDER = 15
POW2_MAX_ORDER = 63


# -- rulers ---------------------------------------------------------------

def triangular_marks(order: int, modulus: int) -> tuple:
    """x_i = C(i-1, 2) * modulus + (i-1) for i = 1..order."""
    return tuple((i - 1) * (i - 2) // 2 * modulus + (i - 1) for i in range(1, order + 1))


def family_modulus(family: str, order: int, modulus=None) -> int:
    if family == "cubic":
        return order
    if family == "halfcubic":
        return order // 2 if order % 2 == 0 else (order - 1) // 2
    return modulus


def family_marks(family: str, order: int, modulus=None) -> tuple:
    if family == "pow2":
        return tuple(2 ** (i - 1) - 1 for i in range(1, order + 1))
    return triangular_marks(order, family_modulus(family, order, modulus))


def differences(marks) -> list:
    """Every pairwise difference, row-major: entry (i, j) is marks[i] - marks[i-j]."""
    return [marks[i] - marks[i - j] for i in range(1, len(marks)) for j in range(1, i + 1)]


def first_duplicate(marks):
    """``None`` for a graceful ruler, else ``(value, (i1, j1), (i2, j2))``.

    The witness is the smallest repeated difference and its first two
    positions in row-major order: the lexicographically first duplicate.
    """
    diffs = differences(marks)
    if len(set(diffs)) == len(diffs):
        return None
    first_at = {}
    pairs = {}
    k = 0
    for i in range(1, len(marks)):
        for j in range(1, i + 1):
            v = diffs[k]
            k += 1
            if v not in first_at:
                first_at[v] = (i, j)
            elif v not in pairs:
                pairs[v] = (first_at[v], (i, j))
    value = min(pairs)
    return (value,) + pairs[value]


def check_report(marks, graceful, witness) -> list:
    """Check a gracefulness verdict; ``witness`` is ``(value, pos1, pos2)`` or None."""
    expected = first_duplicate(marks)
    if graceful != (expected is None):
        return ["verdict graceful=%s is wrong for %d marks" % (graceful, len(marks))]
    if expected is None:
        return [] if witness is None else ["graceful verdict carries a witness"]
    if witness is None:
        return ["non-graceful verdict without witness"]
    value, (i1, j1), (i2, j2) = witness
    problems = []
    for i, j in ((i1, j1), (i2, j2)):
        if not (1 <= j <= i < len(marks)) or marks[i] - marks[i - j] != value:
            problems.append("witness position (%d,%d) does not hold %d" % (i, j, value))
    if tuple(witness) != expected:
        problems.append("witness %r is not the first duplicate %r" % (witness, expected))
    return problems


def check_search(order: int, marks, length: int, optimal: bool) -> list:
    """A proven search result must be the published lex-min optimum."""
    marks = tuple(marks)
    problems = []
    if not optimal:
        problems.append("order %d: search did not prove optimality" % order)
    if length != OPTIMAL_LENGTH[order] or marks[-1] != length:
        problems.append("order %d: length %d, published optimum %d" % (order, length, OPTIMAL_LENGTH[order]))
    if marks != OPTIMAL_RULERS[order]:
        problems.append("order %d: ruler %r is not the published optimum" % (order, marks))
    mirror = tuple(marks[-1] - m for m in reversed(marks))
    if marks > mirror:
        problems.append("order %d: ruler is larger than its mirror" % order)
    return problems


def check_timed_search(order: int, marks, length: int, optimal: bool) -> list:
    """A search stopped by its time limit returns some graceful incumbent."""
    marks = tuple(marks)
    if optimal:
        if order in OPTIMAL_RULERS:
            return check_search(order, marks, length, optimal)
        if length != OPTIMAL_LENGTH.get(order, length):
            return ["order %d: claimed optimum %d is wrong" % (order, length)]
    problems = []
    if len(marks) != order or marks[0] != 0 or marks[-1] != length:
        problems.append("order %d: malformed incumbent %r" % (order, marks))
    elif first_duplicate(marks) is not None:
        problems.append("order %d: incumbent is not graceful" % order)
    if length < OPTIMAL_LENGTH.get(order, 0):
        problems.append("order %d: length %d beats the published optimum" % (order, length))
    return problems


def quadratic_collision(a: int, b: int, c: int) -> dict:
    """Order and duplicated positions the paper gives for x = a i^2 + b n i + c i."""
    n = 2 * a * a + b * b + 2 * a * b + 2 * a + 3 * b + 2 + c
    x = lambda i: a * i * i + b * n * i + c * i  # 0-based index i
    i1, j1 = n - 1, b + 1
    i2 = j2 = 2 * a + b + 1
    return {"n": n, "first": [i1, j1], "second": [i2, j2], "value": x(i1) - x(i1 - j1),
            "check": x(i2) - x(i2 - j2)}


def check_collision(a, b, c, n, first, second, value) -> list:
    want = quadratic_collision(a, b, c)
    if want["value"] != want["check"]:
        return ["oracle: paper positions disagree for a=%d b=%d c=%d" % (a, b, c)]
    got = {"n": n, "first": list(first), "second": list(second), "value": value}
    return [] if got == {k: want[k] for k in got} else ["collision %r, expected %r" % (got, want)]


# -- CLI --------------------------------------------------------------------

def _options(argv):
    """Split a golomb argv into (subcommand, {--option: value}, [ints])."""
    sub, opts, pos = argv[0], {}, []
    rest = list(argv[1:])
    while rest:
        tok = rest.pop(0)
        if tok.startswith("--"):
            opts[tok] = rest.pop(0)
        else:
            pos.append(int(tok))
    return sub, opts, pos


def _kv_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(": ")
        out.setdefault(key, val)
    return out


def _ints(text: str) -> list:
    return [int(t) for t in text.split()]


def _parse_witness_line(text: str):
    # "value V at (i1,j1) and (i2,j2)"
    words = text.replace("(", " ").replace(")", " ").replace(",", " ").split()
    return (int(words[1]), (int(words[3]), int(words[4])), (int(words[6]), int(words[7])))


def _json_witness(obj):
    w = obj.get("witness")
    return None if w is None else (w["value"], tuple(w["first"]), tuple(w["second"]))


def _normalize(marks):
    return tuple(m - marks[0] for m in marks), marks[0]


def _verdict_exit(graceful_all: bool) -> int:
    return EXIT_OK if graceful_all else EXIT_NOT_GRACEFUL


def check_cli(argv, file_text, rc: int, stdout: bytes) -> list:
    """Check one ``golomb`` call: its exit code and everything it printed."""
    sub, opts, pos = _options(argv)
    fmt = opts.get("--format", "text")
    text = stdout.decode()
    try:
        if sub == "construct":
            return _check_construct(opts, fmt, rc, text)
        if sub == "verify":
            return _check_verify(opts, pos, file_text, fmt, rc, text)
        if sub == "triangle":
            return _check_triangle(opts, pos, fmt, rc, text)
        if sub == "search":
            return _check_search_cli(opts, fmt, rc, text)
        if sub == "bench":
            return _check_bench(opts, fmt, rc, text)
        if sub == "counterexample":
            return _check_counterexample(opts, fmt, rc, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return ["%s: unparseable output (%s: %s)" % (sub, type(exc).__name__, exc)]
    return ["unknown subcommand %r" % sub]


def _usage(rc, text):
    problems = [] if rc == EXIT_USAGE else ["exit %d, expected usage error 2" % rc]
    if text:
        problems.append("usage error printed data on stdout")
    return problems


def _load(text):
    obj = json.loads(text)
    if obj.get("schema") != SCHEMA:
        raise ValueError("schema %r" % obj.get("schema"))
    return obj


def _check_construct(opts, fmt, rc, text):
    method, n = opts["--method"], int(opts["--n"])
    modulus = int(opts["--modulus"]) if "--modulus" in opts else None
    if (method == "triangular") != (modulus is not None) or (method == "pow2" and n > POW2_MAX_ORDER):
        return _usage(rc, text)
    marks = family_marks(method, n, modulus)
    dup = first_duplicate(marks)
    problems = [] if rc == _verdict_exit(dup is None) else ["construct exit %d" % rc]
    if fmt == "json":
        obj = _load(text)
        got_marks, graceful, witness = tuple(obj["marks"]), obj["graceful"], _json_witness(obj)
        if obj["length"] != marks[-1] or obj["n"] != n or obj["method"] != method:
            problems.append("construct json header wrong")
        if method in ("cubic", "halfcubic") and obj["bound"] != marks[-1]:
            problems.append("construct bound %d, ruler length %d" % (obj["bound"], marks[-1]))
    else:
        kv = _kv_lines(text)
        got_marks, graceful = tuple(_ints(kv["marks"])), kv["graceful"] == "yes"
        witness = _parse_witness_line(kv["witness"]) if "witness" in kv else None
    if got_marks != marks:
        problems.append("construct %s n=%d printed wrong marks" % (method, n))
    return problems + check_report(marks, graceful, witness)


def _check_verify(opts, pos, file_text, fmt, rc, text):
    if "--file" in opts:
        raw = [_ints(line) for line in file_text.splitlines() if line.strip() and not line.startswith("#")]
    else:
        raw = [pos]
    if any(b <= a for r in raw for a, b in zip(r, r[1:])):
        return _usage(rc, text)
    rulers = [_normalize(r) for r in raw]
    verdicts = [first_duplicate(m) is None for m, _ in rulers]
    problems = [] if rc == _verdict_exit(all(verdicts)) else ["verify exit %d" % rc]
    if fmt == "json":
        obj = _load(text)
        results = obj["results"] if "--file" in opts else [obj]
        got = [(tuple(r["marks"]), r.get("normalized_shift", 0), r["graceful"], _json_witness(r)) for r in results]
    else:
        got = []
        for block in text.split("marks: ")[1:]:
            kv = _kv_lines("marks: " + block)
            shift = int(kv["normalized"].split("-")[1]) if "normalized" in kv else 0
            witness = _parse_witness_line(kv["witness"]) if "witness" in kv else None
            got.append((tuple(_ints(kv["marks"])), shift, kv["graceful"] == "yes", witness))
    if len(got) != len(rulers):
        return problems + ["verify printed %d results for %d rulers" % (len(got), len(rulers))]
    for (marks, shift), (g_marks, g_shift, graceful, witness) in zip(rulers, got):
        if (g_marks, g_shift) != (marks, shift):
            problems.append("verify normalized %r wrongly" % (marks,))
        problems += check_report(marks, graceful, witness)
    return problems


def _check_triangle(opts, pos, fmt, rc, text):
    if "--method" in opts:
        marks = family_marks(opts["--method"], int(opts["--n"]), int(opts.get("--modulus", 0)) or None)
    else:
        marks, _ = _normalize(pos)
    diffs = differences(marks)
    rows = [diffs[i * (i - 1) // 2: i * (i + 1) // 2] for i in range(1, len(marks))]
    problems = [] if rc == EXIT_OK else ["triangle exit %d" % rc]
    if fmt == "json":
        obj = _load(text)
        if tuple(obj["marks"]) != marks:
            problems.append("triangle printed wrong marks")
        got = obj["rows"]
    else:
        got = [_ints(line) for line in text.splitlines()]
    if got != rows:
        problems.append("triangle rows wrong for %d marks" % len(marks))
    return problems


def _check_search_cli(opts, fmt, rc, text):
    n = int(opts["--n"])
    if not 2 <= n <= SEARCH_MAX_ORDER:
        return _usage(rc, text)
    if fmt == "json":
        obj = _load(text)
        marks, length, optimal, nodes = obj["marks"], obj["length"], obj["optimal"], obj["nodes"]
    else:
        kv = _kv_lines(text)
        marks, length = _ints(kv["marks"]), int(kv["length"])
        optimal, nodes = kv["optimal"] == "yes", int(kv["nodes"])
    problems = [] if rc == (EXIT_OK if optimal else EXIT_TIMEOUT) else ["search exit %d" % rc]
    if nodes < 1:
        problems.append("search reported no nodes")
    if "--timeout" in opts:
        return problems + check_timed_search(n, marks, length, optimal)
    return problems + check_search(n, marks, length, optimal)


BENCH_COLUMNS = ["n", "lower_bound", "optimal", "pow2", "thm1", "thm1_nminus2", "thm2"]


def bench_row(n: int) -> dict:
    return {
        "n": n,
        "lower_bound": n * (n - 1) // 2,
        "optimal": OPTIMAL_LENGTH[n],
        "pow2": family_marks("pow2", n)[-1] if n <= POW2_MAX_ORDER else None,
        "thm1": family_marks("cubic", n)[-1],
        "thm1_nminus2": triangular_marks(n, n - 2)[-1],
        "thm2": family_marks("halfcubic", n)[-1],
    }


def _check_bench(opts, fmt, rc, text):
    n_max = int(opts["--n-max"])
    want = [bench_row(n) for n in range(2, n_max + 1)]
    problems = [] if rc == EXIT_OK else ["bench exit %d" % rc]
    if fmt == "json":
        got = _load(text)["rows"]
    else:
        lines = text.splitlines()
        if lines[0] != ",".join(BENCH_COLUMNS):
            problems.append("bench csv header %r" % lines[0])
        got = [
            {k: (None if v == "?" else int(v)) for k, v in zip(BENCH_COLUMNS, line.split(","))}
            for line in lines[1:]
        ]
    if got != want:
        problems.append("bench rows differ from the published optima and family lengths")
    return problems


def _check_counterexample(opts, fmt, rc, text):
    a, b, c = int(opts["--a"]), int(opts["--b"]), int(opts["--c"])
    problems = [] if rc == EXIT_OK else ["counterexample exit %d" % rc]
    if fmt == "json":
        obj = _load(text)
        if (obj["a"], obj["b"], obj["c"], obj["verified"]) != (a, b, c, True):
            problems.append("counterexample json header wrong")
        n, seq = obj["n"], obj["sequence"]
        first, second, value = obj["first"], obj["second"], obj["value"]
    else:
        lines = text.splitlines()
        kv = _kv_lines(text)
        n, seq = int(kv["n"]), _ints(kv["sequence"])
        value, first, second = _parse_witness_line(kv["collision"])
        if lines[-1] != "verified":
            problems.append("counterexample text lacks 'verified'")
    if seq != [a * i * i + b * n * i + c * i for i in range(n)]:
        problems.append("counterexample sequence wrong")
    return problems + check_collision(a, b, c, n, first, second, value)
