import json
import os
import signal
import subprocess
import sys
import tracemalloc

import pytest

import golomb
from golomb import QuadraticFamilyParams, cli, find_quadratic_collision, quadratic_sequence
from golomb.cli import main
from golomb.search import _Search


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_halfcubic_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--method", "halfcubic", "--n", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 6
        assert obj["method"] == "halfcubic"
        assert obj["marks"] == [0, 1, 5, 12, 22, 35]
        assert obj["length"] == 35
        assert obj["bound"] == 35
        assert obj["graceful"] is True
        assert obj["schema"] == "golomb/1"

    def test_pow2_text(self, capsys):
        code, out, _ = run(capsys, "construct", "--method", "pow2", "--n", "3")
        assert code == 0
        assert "marks: 0 1 3" in out
        assert "graceful: yes" in out

    def test_triangular_collapsed_modulus(self, capsys):
        code, out, _ = run(capsys, "construct", "--method", "triangular", "--n", "6", "--modulus", "1")
        assert code == 1
        assert "graceful: no" in out
        assert "witness" in out

    def test_triangular_needs_modulus(self, capsys):
        code, _, err = run(capsys, "construct", "--method", "triangular", "--n", "6")
        assert code == 2
        assert "modulus" in err

    def test_modulus_rejected_elsewhere(self, capsys):
        code, _, err = run(capsys, "construct", "--method", "cubic", "--n", "6", "--modulus", "3")
        assert code == 2

    def test_pow2_overflow(self, capsys):
        code, _, err = run(capsys, "construct", "--method", "pow2", "--n", "64")
        assert code == 2
        assert "order-too-large" in err

    def test_csv_rejected(self, capsys):
        code, _, _ = run(capsys, "construct", "--method", "pow2", "--n", "3", "--format", "csv")
        assert code == 2


class TestRulerOrderCap:
    CAP = cli.RULER_MAX_ORDER
    ABOVE = [str(m) for m in range(CAP + 1)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--method", "halfcubic", "--n", str(CAP + 1)],
            ["construct", "--method", "triangular", "--modulus", "1", "--n", str(CAP + 1)],
            ["triangle", "--method", "cubic", "--n", str(CAP + 1)],
            ["triangle"] + ABOVE,
            ["verify"] + ABOVE,
        ],
    )
    def test_above_the_cap_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        message = "a ruler of %d marks is above the cap of %d" % (self.CAP + 1, self.CAP)
        assert err == "error: %s\n" % message

    def test_above_the_cap_is_refused_before_building(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("built a ruler above the cap")

        monkeypatch.setattr(cli, "construct_triangular", fail)
        argv = ["construct", "--method", "triangular", "--modulus", "1", "--n", "10000000"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "above the cap" in err

    def test_file_line_above_the_cap_is_refused(self, capsys, tmp_path):
        path = tmp_path / "rulers.txt"
        path.write_text("0 1 3\n" + " ".join(self.ABOVE) + "\n")
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "above the cap" in err

    def test_triangle_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "triangle", "--method", "cubic", "--n", str(self.CAP))
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == self.CAP - 1
        assert rows[-1].split()[-1] == str(golomb.cubic_bound(self.CAP))


class TestVerify:
    def test_graceful(self, capsys):
        code, out, _ = run(capsys, "verify", "0", "1", "4", "9", "11")
        assert code == 0
        assert "graceful: yes" in out

    def test_not_graceful(self, capsys):
        code, out, _ = run(capsys, "verify", "0", "1", "2")
        assert code == 1
        assert "witness: value 1" in out

    def test_normalization_disclosed(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "6", "9", "14", "16")
        assert code == 0
        assert "marks: 0 1 4 9 11" in out
        assert "shifted by -5" in out

    def test_negative_first_mark_is_shifted_up(self, capsys):
        code, out, _ = run(capsys, "verify", "-5", "0", "3")
        assert code == 0
        assert "marks: 0 5 8\nnormalized: shifted by +5\n" in out
        code, out, _ = run(capsys, "verify", "-5", "0", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["normalized_shift"] == -5

    def test_unsorted_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "0", "4", "1")
        assert code == 2

    def test_duplicates_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "0", "4", "4")
        assert code == 2
        assert "duplicate" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "rulers.txt"
        path.write_text("# optimal order 5\n0 1 4 9 11\n0 1 2\n")
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == 1
        assert out.count("graceful: yes") == 1
        assert out.count("graceful: no") == 1

    def test_file_json(self, capsys, tmp_path):
        path = tmp_path / "rulers.txt"
        path.write_text("0 1 3\n")
        code, out, _ = run(capsys, "verify", "--file", str(path), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["results"][0]["graceful"] is True

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 one 3\n")
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == 2

    def test_json_round_trip_with_construct(self, capsys):
        _, out, _ = run(capsys, "construct", "--method", "halfcubic", "--n", "7", "--format", "json")
        marks = json.loads(out)["marks"]
        code, out, _ = run(capsys, "verify", *[str(m) for m in marks])
        assert code == 0


class TestTriangle:
    def test_marks(self, capsys):
        code, out, _ = run(capsys, "triangle", "0", "1", "4", "9", "16")
        assert code == 0
        assert out == "1\n3 4\n5 8 9\n7 12 15 16\n"

    def test_two_marks(self, capsys):
        code, out, _ = run(capsys, "triangle", "0", "1")
        assert code == 0
        assert out == "1\n"

    def test_three_marks(self, capsys):
        code, out, _ = run(capsys, "triangle", "0", "1", "3")
        assert out == "1\n2 3\n"

    def test_method(self, capsys):
        code, out, _ = run(capsys, "triangle", "--method", "cubic", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == [[1], [4, 5]]

    def test_single_mark_rejected(self, capsys):
        code, _, _ = run(capsys, "triangle", "0")
        assert code == 2

    def test_modulus_rejected_elsewhere(self, capsys):
        code, out, err = run(capsys, "triangle", "--method", "cubic", "--n", "4", "--modulus", "3")
        assert code == 2
        assert out == ""
        assert err == "error: --modulus only applies to --method triangular\n"

    @pytest.mark.parametrize(
        "flags", [["--modulus", "3"], ["--n", "9"], ["--n", "3", "--modulus", "1"]]
    )
    def test_n_and_modulus_rejected_with_marks(self, capsys, flags):
        code, out, err = run(capsys, "triangle", "0", "1", "3", *flags)
        assert code == 2
        assert out == ""
        assert err == "error: --n and --modulus only apply with --method\n"

    # orders 2, 3 and 200, and marks up to the top of the unsigned 64-bit range
    @pytest.mark.parametrize(
        "marks",
        [
            (0, 1),
            (0, 1, 3),
            golomb.construct_cubic(200).marks,
            (0, 1, 2**64 - 2, 2**64 - 1),
            (0, 3, 7, 2**64 - 1),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_streamed_rows_match_the_triangle(self, capsys, marks, fmt):
        rows = golomb.build_difference_triangle(golomb.Ruler(marks)).rows()
        if fmt == "json":
            expected = json.dumps({"schema": "golomb/1", "marks": list(marks), "rows": rows}) + "\n"
        else:
            expected = "".join(" ".join(str(v) for v in row) + "\n" for row in rows)
        code, out, _ = run(capsys, "triangle", *map(str, marks), "--format", fmt)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rows_are_not_held_in_memory(self, monkeypatch, fmt):
        # 1000 marks make 499 500 differences: tens of MB if the rows were held at once
        with open(os.devnull, "w") as null:
            monkeypatch.setattr(sys, "stdout", null)
            tracemalloc.start()
            try:
                code = main(["triangle", "--method", "cubic", "--n", "1000", "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20


class TestSearch:
    def test_n5(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "5")
        assert code == 0
        assert "marks: 0 1 4 9 11" in out
        assert "length: 11" in out
        assert "optimal: yes" in out

    def test_n2(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "2")
        assert code == 0
        assert "marks: 0 1" in out
        assert "nodes: 1\n" in out  # order 2 searches like any other

    def test_json(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "6", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["length"] == 17
        assert obj["optimal"] is True

    def test_timeout_exit_code(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "11", "--timeout", "20ms")
        assert code == 3
        assert "optimal: no" in out

    def test_zero_timeout_stops_at_once(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "9", "--timeout", "0s")
        assert code == 3
        assert "length: 44\noptimal: no\n" in out  # the record for order 9

    def test_short_timeout_returns_the_record(self, capsys):
        # the proof of G(12) takes seconds; its incumbent is the optimum all along
        code, out, _ = run(capsys, "search", "--n", "12", "--timeout", "50ms")
        assert code == 3
        assert "length: 85\noptimal: no\n" in out

    def test_order_cap(self, capsys):
        # SearchConfig refuses both ends of the range, and main maps that to exit 2
        for n, message in [
            (1, "order must be at least 2, got 1"),
            (16, "exact search is limited to orders up to 15, got 16"),
        ]:
            code, out, err = run(capsys, "search", "--n", str(n))
            assert (code, out, err) == (2, "", "error: %s\n" % message)

    def test_bad_timeout(self, capsys):
        code, _, err = run(capsys, "search", "--n", "5", "--timeout", "soon")
        assert code == 2

    @pytest.mark.parametrize("text", ["", " "])
    def test_blank_timeout_is_refused(self, capsys, text):
        # an empty duration is an error like any other, not "no time limit"
        code, out, err = run(capsys, "search", "--n", "6", "--timeout", text)
        assert code == 2
        assert out == ""
        assert err == "error: cannot parse duration %r\n" % text

    def test_jobs_below_one(self, capsys):
        code, out, err = run(capsys, "search", "--n", "5", "--jobs", "0")
        assert code == 2
        assert out == ""
        assert "error: parallelism must be at least 1" in err


class TestBench:
    def test_csv_n5(self, capsys):
        code, out, _ = run(capsys, "bench", "--n-max", "5", "--exact-cutoff", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,lower_bound,optimal,pow2,thm1,thm1_nminus2,thm2"
        assert lines[-1] == "5,10,11,15,34,22,16"

    def test_csv_question_mark_beyond_cutoff(self, capsys):
        code, out, _ = run(capsys, "bench", "--n-max", "6", "--exact-cutoff", "4", "--format", "csv")
        rows = {line.split(",")[0]: line for line in out.strip().splitlines()[1:]}
        assert rows["6"].split(",")[2] == "?"

    def test_n_max_2(self, capsys):
        code, out, _ = run(capsys, "bench", "--n-max", "2", "--exact-cutoff", "2", "--format", "csv")
        assert out.strip().splitlines()[1] == "2,1,1,1,1,1,1"

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--n-max", "4", "--exact-cutoff", "4")
        assert code == 0
        assert "thm2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bench", "--n-max", "3", "--exact-cutoff", "3", "--format", "json")
        rows = json.loads(out)["rows"]
        assert rows[-1] == {
            "n": 3, "lower_bound": 3, "optimal": 3, "pow2": 3,
            "thm1": 5, "thm1_nminus2": 3, "thm2": 3,
        }

    def test_exact_search_above_the_search_cap_is_refused(self, capsys, monkeypatch):
        def run_search(self):
            raise AssertionError("exact search started")

        monkeypatch.setattr(_Search, "run", run_search)
        for n_max, cutoff in (("16", "16"), ("40", "20")):
            code, out, err = run(capsys, "bench", "--n-max", n_max, "--exact-cutoff", cutoff)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "up to 15" in err
        # order 15 itself is within the cap and reaches the search
        with pytest.raises(AssertionError, match="exact search started"):
            main(["bench", "--n-max", "15", "--exact-cutoff", "15"])

    def test_only_the_searched_orders_meet_the_cap(self, capsys):
        for n_max, cutoff, last in (("8", "100", ["8", "28", "34"]), ("20", "4", ["20", "190", "?"])):
            code, out, _ = run(capsys, "bench", "--n-max", n_max, "--exact-cutoff", cutoff, "--format", "csv")
            assert code == 0
            assert out.strip().splitlines()[-1].split(",")[:3] == last

    def test_negative_exact_cutoff_is_refused(self, capsys):
        code, out, err = run(capsys, "bench", "--n-max", "5", "--exact-cutoff", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: --exact-cutoff must be at least 0, got -3\n"

    def test_bad_n_max(self, capsys):
        code, _, _ = run(capsys, "bench", "--n-max", "1")
        assert code == 2

    def test_n_max_above_the_cap_is_refused_before_building(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built the table")

        monkeypatch.setattr(cli, "compare_constructions", fail)
        above = cli.BENCH_MAX_ORDER + 1
        code, out, err = run(capsys, "bench", "--n-max", str(above), "--exact-cutoff", "0")
        assert code == 2
        assert out == ""
        assert err == "error: --n-max %d is above the cap of %d\n" % (above, cli.BENCH_MAX_ORDER)

    def test_n_max_at_the_cap(self, capsys):
        cap = cli.BENCH_MAX_ORDER
        code, out, _ = run(capsys, "bench", "--n-max", str(cap), "--exact-cutoff", "0", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == cap  # the header and orders 2..cap
        assert lines[-1].split(",")[:3] == [str(cap), str(golomb.lower_bound(cap)), "?"]


class TestCounterexample:
    def test_positive_a(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--a", "1", "--b", "1", "--c", "0")
        assert code == 0
        assert "n: 12" in out
        assert "value 64 at (11,2) and (4,4)" in out
        assert "verified" in out

    def test_negative_a(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--a", "-1", "--b", "3", "--c", "0")
        assert code == 0
        assert "n: 14" in out
        assert "value 80 at (13,4) and (2,2)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "counterexample", "--a", "1", "--b", "1", "--c", "0", "--format", "json")
        obj = json.loads(out)
        assert obj["n"] == 12
        assert obj["value"] == 64
        assert obj["verified"] is True

    @pytest.mark.parametrize(
        "a,b,c,needle",
        [
            ("0", "1", "0", "a must be nonzero"),
            ("1", "0", "0", "b must be positive"),
            ("1", "1", "-3", "c must exceed"),
            ("-2", "1", "9", "2a + b must be positive"),
        ],
    )
    def test_constraint_errors(self, capsys, a, b, c, needle):
        code, _, err = run(capsys, "counterexample", "--a", a, "--b", b, "--c", c)
        assert code == 2
        assert needle in err

    def test_order_above_the_cap_is_refused_before_building(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("sequence built above the cap")

        monkeypatch.setattr(cli, "quadratic_sequence", build)
        # a = b = 1 gives n = 12 + c, so this is one term past the cap
        for a, b, c in (("1", "1", str(cli.COUNTEREXAMPLE_MAX_TERMS - 11)), ("100000", "100000", "0")):
            code, out, err = run(capsys, "counterexample", "--a", a, "--b", b, "--c", c)
            assert code == 2
            assert out == ""
            assert "cap of 1000000 terms" in err


    # a = b = 1 gives n = 12 + c: one slice, several, and exactly two
    @pytest.mark.parametrize("n", [12, 3 * 4096 + 5, 2 * 4096])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_streamed_output_matches_whole_line(self, capsys, n, fmt):
        params = QuadraticFamilyParams(a=1, b=1, c=n - 12)
        w = find_quadratic_collision(params)
        seq = quadratic_sequence(params, w.n)
        assert w.n == n
        if fmt == "json":
            expected = json.dumps(
                {
                    "schema": "golomb/1", "a": 1, "b": 1, "c": n - 12, "n": n, "sequence": seq,
                    "first": [w.i1, w.j1], "second": [w.i2, w.j2], "value": w.value, "verified": True,
                }
            ) + "\n"
        else:
            expected = (
                "n: %d\nsequence: %s\ncollision: value %d at (%d,%d) and (%d,%d)\nverified\n"
                % (n, " ".join(str(v) for v in seq), w.value, w.i1, w.j1, w.i2, w.j2)
            )
        code, out, _ = run(capsys, "counterexample", "--a", "1", "--b", "1", "--c", str(n - 12), "--format", fmt)
        assert code == 0
        # equal word lists mean equal text; pytest reports a list's first difference quickly
        assert out.split(" ") == expected.split(" ")


def test_import_leaves_thread_pool_dataclasses_and_inspect_out():
    src = os.path.dirname(os.path.dirname(golomb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # dataclasses pulls in inspect, ast, dis and tokenize, which every start-up would pay for
    modules = ["concurrent.futures", "dataclasses", "inspect"]
    probe = "import sys, golomb.cli; print(*[m for m in %r if m in sys.modules])" % modules
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX signal")
def test_closed_stdout_ends_quietly():
    src = os.path.dirname(os.path.dirname(golomb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "golomb.cli", "bench", "--n-max", "3000", "--exact-cutoff", "0"]
    # the table is larger than a pipe's buffer, so the writer is still writing
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
