"""Command-line front end: construct, verify, triangle, search, bench, counterexample.

Exit codes: 0 success, 1 non-graceful verdict, 2 usage/input error,
3 search stopped by the time limit.  stdout carries data, stderr diagnostics.
The console script ends quietly on SIGPIPE when its reader closes stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
from typing import List, Optional, Sequence, Tuple

from .core import GracefulnessReport, Ruler, _row, verify_graceful
from .constructions import (
    QuadraticFamilyParams,
    TriangularParams,
    construct_cubic,
    construct_half_cubic,
    construct_powers_of_two,
    construct_triangular,
    cubic_bound,
    find_quadratic_collision,
    half_cubic_bound,
    quadratic_sequence,
)
from .search import BenchRow, SearchConfig, compare_constructions, search_optimal

SCHEMA = "golomb/1"

EXIT_OK = 0
EXIT_NOT_GRACEFUL = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3

BENCH_MAX_ORDER = 10_000  # bench holds every row of its table before printing any
RULER_MAX_ORDER = 2000  # construct and verify hold all C(n,2) differences, triangle writes them
COUNTEREXAMPLE_MAX_TERMS = 10**6  # counterexample prints the whole sequence
_TERMS_PER_WRITE = 4096  # counterexample writes its sequence this many terms at a time

# --method name -> (builder(n), length bound(n) or None); triangular also
# needs --modulus, so _build builds it
METHODS = {
    "pow2": (construct_powers_of_two, None),
    "cubic": (construct_cubic, cubic_bound),
    "halfcubic": (construct_half_cubic, half_cubic_bound),
    "triangular": (None, None),
}


def _parse_duration(text: str) -> float:
    """Parse '250ms', '1.5s', '2m', or a bare number of seconds."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*(us|ms|s|m)?\s*", text)
    if not m:
        raise ValueError("cannot parse duration %r" % text)
    value = float(m.group(1))
    unit = m.group(2) or "s"
    scale = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0}[unit]
    return value * scale


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _print_fields(fields: dict) -> None:
    """One ``key: value`` line per field; the marks are space-joined."""
    for key, val in fields.items():
        print("%s: %s" % (key, " ".join(map(str, val)) if key == "marks" else val))


def _report_json(report: GracefulnessReport, obj: dict) -> dict:
    obj["graceful"] = report.graceful
    w = report.witness
    if w is not None:
        obj["witness"] = {"first": list(w.first), "second": list(w.second), "value": w.value}
    return obj


def _print_report(report: GracefulnessReport) -> None:
    print("graceful: %s" % ("yes" if report.graceful else "no"))
    w = report.witness
    if w is not None:
        print(
            "witness: value %d at (%d,%d) and (%d,%d)"
            % (w.value, w.first[0], w.first[1], w.second[0], w.second[1])
        )


def _check_order(n: int) -> None:
    if n > RULER_MAX_ORDER:
        raise ValueError("a ruler of %d marks is above the cap of %d" % (n, RULER_MAX_ORDER))


def _build(method: str, n: int, modulus: Optional[int]) -> Ruler:
    if method == "triangular" and modulus is None:
        raise ValueError("--modulus is required for --method triangular")
    if method != "triangular" and modulus is not None:
        raise ValueError("--modulus only applies to --method triangular")
    _check_order(n)
    if modulus is not None:
        return construct_triangular(TriangularParams(order=n, modulus=modulus))
    build, _ = METHODS[method]
    return build(n)


def cmd_construct(args) -> int:
    method = args.method
    n = args.n
    ruler = _build(method, n, args.modulus)
    report = verify_graceful(ruler)
    fields = {"n": n, "method": method, "marks": list(ruler.marks), "length": ruler.length()}
    _, bound = METHODS[method]
    if bound is not None:
        fields["bound"] = bound(n)
    if args.format == "json":
        _emit(_report_json(report, {"schema": SCHEMA, **fields}))
    else:
        _print_fields(fields)
        _print_report(report)
    return EXIT_OK if report.graceful else EXIT_NOT_GRACEFUL


def _read_mark_lines(path: str) -> List[List[int]]:
    rulers = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rulers.append([int(tok) for tok in line.split()])
            except ValueError:
                raise ValueError("%s:%d: cannot parse marks" % (path, lineno))
    if not rulers:
        raise ValueError("%s: no rulers found" % path)
    return rulers


def _normalize_marks(raw: Sequence[int]) -> Tuple[Ruler, int]:
    if not raw:
        raise ValueError("need at least one mark")
    _check_order(len(raw))
    for a, b in zip(raw, raw[1:]):
        if b == a:
            raise ValueError("duplicate mark %d in input" % a)
        if b < a:
            raise ValueError("marks must be sorted increasing")
    shift = raw[0]
    return Ruler(tuple(m - shift for m in raw)), shift


def cmd_verify(args) -> int:
    if args.file is not None:
        if args.marks:
            raise ValueError("give marks as arguments or --file, not both")
        mark_lists = _read_mark_lines(args.file)
    else:
        if not args.marks:
            raise ValueError("no marks given")
        mark_lists = [args.marks]

    results = []
    for raw in mark_lists:
        ruler, shift = _normalize_marks(raw)
        results.append((ruler, shift, verify_graceful(ruler)))

    if args.format == "json":
        objs = []
        for ruler, shift, report in results:
            # the verdict goes before the shift; _report_json sets it again in place
            obj = {"schema": SCHEMA, "marks": list(ruler.marks), "graceful": report.graceful}
            if shift:
                obj["normalized_shift"] = shift
            objs.append(_report_json(report, obj))
        _emit(objs[0] if args.file is None else {"schema": SCHEMA, "results": objs})
    else:
        for ruler, shift, report in results:
            fields = {"marks": ruler.marks}
            if shift:
                fields["normalized"] = "shifted by %+d" % -shift
            _print_fields(fields)
            _print_report(report)
    return EXIT_OK if all(report.graceful for _, _, report in results) else EXIT_NOT_GRACEFUL


def cmd_triangle(args) -> int:
    if args.method is not None:
        if args.marks:
            raise ValueError("give marks or --method, not both")
        if args.n is None:
            raise ValueError("--method needs --n")
        ruler = _build(args.method, args.n, args.modulus)
    else:
        if not args.marks:
            raise ValueError("no marks given")
        if args.n is not None or args.modulus is not None:
            raise ValueError("--n and --modulus only apply with --method")
        ruler, _ = _normalize_marks(args.marks)
    if ruler.order < 2:
        raise ValueError("triangle needs at least 2 marks")
    marks = ruler.marks
    rows = range(1, len(marks))
    if args.format == "json":
        # the same bytes as json.dumps of the whole object, without the whole triangle in memory
        sys.stdout.write(json.dumps({"schema": SCHEMA, "marks": list(marks)})[:-1] + ', "rows": [')
        for i in rows:
            sys.stdout.write("%s[%s]" % (", " if i > 1 else "", ", ".join(map(str, _row(marks, i)))))
        sys.stdout.write("]}\n")
    else:
        for i in rows:
            sys.stdout.write(" ".join(map(str, _row(marks, i))) + "\n")
    return EXIT_OK


def cmd_search(args) -> int:
    n = args.n
    time_limit = _parse_duration(args.timeout) if args.timeout is not None else None
    config = SearchConfig(order=n, time_limit=time_limit, parallelism=args.jobs)
    result = search_optimal(config)
    fields = {
        "marks": list(result.ruler.marks),
        "length": result.length,
        "optimal": result.optimal,
        "nodes": result.nodes_explored,
    }
    if args.format == "json":
        _emit({"schema": SCHEMA, "n": n, **fields, "elapsed_s": round(result.elapsed, 6)})
    else:
        # optimal keeps its place in the copy; elapsed comes last
        optimal = "yes" if result.optimal else "no"
        _print_fields(dict(fields, optimal=optimal, elapsed="%.3fs" % result.elapsed))
    return EXIT_OK if result.optimal else EXIT_TIMEOUT


def cmd_bench(args) -> int:
    if args.exact_cutoff < 0:
        raise ValueError("--exact-cutoff must be at least 0, got %d" % args.exact_cutoff)
    if args.n_max > BENCH_MAX_ORDER:
        raise ValueError("--n-max %d is above the cap of %d" % (args.n_max, BENCH_MAX_ORDER))
    rows = compare_constructions(args.n_max, exact_cutoff=args.exact_cutoff)
    if args.format == "json":
        _emit({"schema": SCHEMA, "rows": [r._asdict() for r in rows]})
        return EXIT_OK
    table = [BenchRow._fields] + [["?" if v is None else str(v) for v in r] for r in rows]
    if args.format == "csv":
        for row in table:
            print(",".join(row))
    else:
        widths = [max(len(row[i]) for row in table) for i in range(len(BenchRow._fields))]
        for row in table:
            print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    params = QuadraticFamilyParams(a=args.a, b=args.b, c=args.c)
    witness = find_quadratic_collision(params)
    if witness.n > COUNTEREXAMPLE_MAX_TERMS:
        raise ValueError(
            "the collision needs %d sequence terms, above the cap of %d terms"
            % (witness.n, COUNTEREXAMPLE_MAX_TERMS)
        )
    seq = quadratic_sequence(params, witness.n)
    if args.format == "json":
        head = {"schema": SCHEMA, "a": args.a, "b": args.b, "c": args.c, "n": witness.n}
        tail = {
            "first": [witness.i1, witness.j1],
            "second": [witness.i2, witness.j2],
            "value": witness.value,
            "verified": True,
        }
        # the same bytes as json.dumps of the whole object, without the whole line in memory
        sys.stdout.write(json.dumps(head)[:-1] + ', "sequence": [')
        _write_terms(seq, ", ")
        sys.stdout.write("], " + json.dumps(tail)[1:] + "\n")
    else:
        print("n: %d" % witness.n)
        sys.stdout.write("sequence: ")
        _write_terms(seq, " ")
        sys.stdout.write("\n")
        print(
            "collision: value %d at (%d,%d) and (%d,%d)"
            % (witness.value, witness.i1, witness.j1, witness.i2, witness.j2)
        )
        print("verified")
    return EXIT_OK


def _write_terms(seq: Sequence[int], sep: str) -> None:
    """Write the terms joined by ``sep``, a slice at a time, each with one ``%``."""
    template = sep.join(["%d"] * _TERMS_PER_WRITE)
    for start in range(0, len(seq), _TERMS_PER_WRITE):
        terms = tuple(seq[start:start + _TERMS_PER_WRITE])
        if len(terms) < _TERMS_PER_WRITE:
            template = sep.join(["%d"] * len(terms))
        sys.stdout.write((sep if start else "") + template % terms)


def _add_format(parser, choices=("text", "json")) -> None:
    parser.add_argument("--format", choices=list(choices), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="golomb",
        description="Construct, verify, and search Golomb rulers via difference triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a ruler from one of the explicit families")
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--modulus", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check that all pairwise differences are distinct")
    p.add_argument("marks", type=int, nargs="*")
    p.add_argument("--file", default=None, help="marks file: one ruler per line, # comments")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("triangle", help="render the difference triangle")
    p.add_argument("marks", type=int, nargs="*")
    p.add_argument("--method", choices=list(METHODS), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--modulus", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("search", help="exact optimal ruler by branch-and-bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--timeout", default=None, help="e.g. 500ms, 10s, 2m")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; the search runs on one thread",
    )
    _add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="compare construction lengths against exact optima")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--exact-cutoff", type=int, default=9)
    _add_format(p, choices=("text", "json", "csv"))
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "counterexample",
        help="duplicated difference forced by any quadratic family "
        "(prints the sequence, at most %d terms)" % COUNTEREXAMPLE_MAX_TERMS,
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our contract
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # a closed stdout ends the process like any Unix filter, not as an OSError
    if hasattr(signal, "SIGPIPE"):  # POSIX only
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
