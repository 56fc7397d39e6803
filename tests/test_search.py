import hashlib
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

from golomb import (
    SearchConfig,
    compare_constructions,
    construct_half_cubic,
    half_cubic_bound,
    lower_bound,
    search_optimal,
    verify_graceful,
)
from golomb import search, tails
from golomb.search import _RECORDS, _Search, _tail_tables


def naive_optimal(n):
    """Enumerate every increasing sequence up to the half-cubic bound."""
    bound = half_cubic_bound(n)
    best = None
    for rest in combinations(range(1, bound + 1), n - 1):
        marks = (0,) + rest
        diffs = [b - a for i, a in enumerate(marks) for b in marks[i + 1 :]]
        if len(diffs) != len(set(diffs)):
            continue
        key = (marks[-1], marks)
        if best is None or key < best:
            best = key
    return best


# sha256 of src/golomb/tails.bin; ``python -m golomb.tails --check`` rebuilds it
TAILS_SHA256 = "ca485fa9cf25d234a78285715f96ca91aec1416aee2331aa295753c33332d5a9"

KNOWN_OPTIMA = {2: 1, 3: 3, 4: 6, 5: 11, 6: 17, 7: 25, 8: 34, 9: 44}

# G(n) up to the search cap, as published (Dollas, Rankin & McCracken 1998;
# distributed.net OGR-14 and OGR-15 confirmed 127 and 151)
PUBLISHED_LENGTHS = {**KNOWN_OPTIMA, 10: 55, 11: 72, 12: 85, 13: 106, 14: 127, 15: 151}

# the lex-min optimal rulers the search proves; the prove-g13 CI job checks 13
PINNED_RULERS = {
    10: (0, 1, 6, 10, 23, 26, 34, 41, 53, 55),
    11: (0, 1, 4, 13, 28, 33, 47, 54, 64, 70, 72),
    13: (0, 2, 5, 25, 37, 43, 59, 70, 85, 89, 98, 99, 106),
}

# nodes_explored of search_optimal, summed over the pass through the orders;
# a change to a bound updates this table and states the old and new counts
NODE_COUNTS = {
    2: 1, 3: 2, 4: 6, 5: 22, 6: 91, 7: 420, 8: 1_665, 9: 5_455, 10: 19_458,
    11: 692_031,
}


class TestSearchOptimal:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_naive_oracle(self, n):
        length, marks = naive_optimal(n)
        result = search_optimal(SearchConfig(order=n))
        assert result.optimal
        assert result.length == length
        assert result.ruler.marks == marks

    @pytest.mark.parametrize("n", range(2, 9))
    def test_known_lengths(self, n):
        result = search_optimal(SearchConfig(order=n))
        assert result.optimal
        assert result.length == KNOWN_OPTIMA[n]

    def test_lexicographic_tiebreak(self):
        assert search_optimal(SearchConfig(order=4)).ruler.marks == (0, 1, 4, 6)
        assert search_optimal(SearchConfig(order=5)).ruler.marks == (0, 1, 4, 9, 11)

    def test_result_is_graceful_and_bounded(self):
        from golomb import verify_graceful

        for n in range(2, 8):
            result = search_optimal(SearchConfig(order=n))
            assert verify_graceful(result.ruler).graceful
            assert result.length >= lower_bound(n)

    def test_strict_bound_above_order_four(self):
        for n in range(2, 9):
            length = search_optimal(SearchConfig(order=n)).length
            if n <= 4:
                assert length == lower_bound(n)
            else:
                assert length > lower_bound(n)

    def test_monotone_in_order(self):
        lengths = [search_optimal(SearchConfig(order=n)).length for n in range(2, 9)]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_mirror_canonical(self):
        for n in range(3, 9):
            marks = search_optimal(SearchConfig(order=n)).ruler.marks
            assert marks[1] - marks[0] <= marks[-1] - marks[-2]

    @pytest.mark.parametrize(
        "n, time_limit",
        [(n, None) for n in range(2, 11)] + [(n, t) for n in (11, 12) for t in (0.05, 0.3)],
    )
    def test_every_recorded_ruler_is_canonical(self, monkeypatch, n, time_limit):
        # the first-gap order alone keeps mirror images out; nothing canonicalizes
        recorded = []
        record = _Search._record

        def keeping_record(self, span, lst):
            record(self, span, lst)
            recorded.append(self.best)

        monkeypatch.setattr(_Search, "_record", keeping_record)
        search_optimal(SearchConfig(order=n, time_limit=time_limit))
        assert recorded
        for marks in recorded:  # a 2-mark ruler's one gap is both its first and its last
            assert marks[1] - marks[0] < marks[-1] - marks[-2] or len(marks) == 2, marks

    @pytest.mark.parametrize(
        "n, marks", [(5, (0, 1, 4, 9, 11)), (9, (0, 1, 5, 12, 25, 27, 35, 41, 44))]
    )
    def test_search_is_exhaustive_at_the_optimum(self, n, marks):
        below = _Search(n, _tail_tables(), marks[-1] - 1, None).run()
        assert not below.timed_out
        assert below.best is None
        at = _Search(n, _tail_tables(), marks[-1], None).run()
        assert at.best == marks

    @pytest.mark.parametrize("n", sorted(NODE_COUNTS))
    def test_node_count(self, n):
        result = search_optimal(SearchConfig(order=n))
        assert result.nodes_explored == NODE_COUNTS[n]
        if n == 11:  # the one proof whose tails reach past the table, k = 8
            assert result.optimal
            assert result.ruler.marks == PINNED_RULERS[11]

    def test_proves_n10(self):
        result = search_optimal(SearchConfig(order=10))
        assert result.optimal
        assert result.ruler.marks == PINNED_RULERS[10]

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            SearchConfig(order=1)

    @pytest.mark.parametrize("limit", [float("nan"), -1.0, -1e-9, float("-inf")])
    def test_time_limit_below_zero_or_nan_is_refused(self, limit):
        # a NaN deadline would never pass, and a negative one would stop the search at once
        with pytest.raises(ValueError, match="^time_limit must be a non-negative number, got "):
            SearchConfig(order=9, time_limit=limit)

    def test_timeout_returns_incumbent(self):
        result = search_optimal(SearchConfig(order=11, time_limit=0.05))
        assert not result.optimal
        # order 11 starts at its record, so it has no longer ruler to return
        assert result.length == PUBLISHED_LENGTHS[11]
        assert verify_graceful(result.ruler).graceful

    @pytest.mark.parametrize("n", [14, 15])
    def test_zero_time_limit_returns_the_record(self, n):
        result = search_optimal(SearchConfig(order=n, time_limit=0.0))
        assert not result.optimal
        assert result.length == PUBLISHED_LENGTHS[n]
        assert len(result.ruler.marks) == n
        assert is_golomb(result.ruler.marks)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deadline_reaches_sub_searches(self, jobs):
        # the table gives G(2..8); G(9) takes about 0.006 s and G(10) about
        # 0.02 s more on a 2-core host, so the limit expires in the G(10)
        # sub-search and the order-12 record comes back
        start = time.monotonic()
        result = search_optimal(SearchConfig(order=12, time_limit=0.01, parallelism=jobs))
        assert time.monotonic() - start < 1.0
        assert not result.optimal
        assert verify_graceful(result.ruler).graceful
        assert result.ruler.marks == (0, 2, 6, 24, 29, 40, 43, 55, 68, 75, 76, 85)

    @pytest.mark.parametrize(
        "n, orders",
        [(2, [2]), (3, [3]), (4, [4]), (10, [10]), (11, [9, 11])],
    )
    def test_order_n_minus_one_is_not_searched(self, monkeypatch, n, orders):
        searched = []
        run = _Search.run

        def counting_run(self):
            searched.append(self.n)
            return run(self)

        monkeypatch.setattr(_Search, "run", counting_run)
        assert search_optimal(SearchConfig(order=n)).optimal
        assert searched == orders

    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_parallel_matches_sequential(self, jobs):
        seq = search_optimal(SearchConfig(order=7))
        par = search_optimal(SearchConfig(order=7, parallelism=jobs))
        assert par.optimal
        assert par.length == seq.length
        assert par.ruler.marks == seq.ruler.marks


class FakeClock:
    """A stand-in for ``time`` whose clock passes a 1 s deadline after ``readings`` readings."""

    def __init__(self, readings):
        self.readings = readings

    def monotonic(self):
        self.readings -= 1
        return 0.0 if self.readings >= 0 else 2.0


class TestStopAtTheDeadline:
    """Stopped searches that do not depend on the host's speed.

    ``search_optimal`` reads the clock once at the start, ``run`` once per
    order and ``_dfs`` once every 4096 nodes, so the reading that passes the
    deadline fixes where the search stops.
    """

    @pytest.mark.parametrize(
        "n, readings, nodes",
        [
            (10, 3, 8_192),  # order 10, at its second node check
            (11, 4, 5_455 + 4_096),  # order 11, after order 9 has finished
            (12, 2, 4_096),  # inside order 9
        ],
    )
    def test_stopped_search(self, monkeypatch, n, readings, nodes):
        monkeypatch.setattr(search, "time", FakeClock(readings))
        result = search_optimal(SearchConfig(order=n, time_limit=1.0))
        assert not result.optimal
        assert result.nodes_explored == nodes
        assert result.ruler.marks == _RECORDS[n]

    def test_orders_after_the_deadline_stop_at_once(self, monkeypatch):
        searched = []
        run = _Search.run

        def counting_run(self):
            run(self)
            searched.append((self.n, self.nodes, self.timed_out))
            return self

        monkeypatch.setattr(search, "time", FakeClock(2))
        monkeypatch.setattr(_Search, "run", counting_run)
        search_optimal(SearchConfig(order=12, time_limit=1.0))
        assert searched == [(9, 4_096, True), (10, 0, True), (12, 0, True)]


class TestRecords:
    """The published rulers that each order's search starts from decide no result."""

    @pytest.mark.parametrize("n", range(2, 16))
    def test_record_is_a_canonical_optimal_ruler(self, n):
        marks = _RECORDS[n]
        assert len(marks) == n and marks[0] == 0
        assert is_golomb(marks)
        assert marks == canonical(marks)
        assert marks[-1] == PUBLISHED_LENGTHS[n]
        assert marks == PINNED_RULERS.get(n, marks)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_search_from_the_half_cubic_bound_finds_the_same_ruler(self, n):
        # the half-cubic ruler is optimal at n = 3, where nothing shorter is found
        full = _Search(n, _tail_tables(), half_cubic_bound(n) - 1, None).run()
        assert not full.timed_out
        assert (full.best or construct_half_cubic(n).marks) == search_optimal(SearchConfig(order=n)).ruler.marks

    @pytest.mark.parametrize("n", [3, 5, 8, 10, 11])
    def test_half_cubic_records_change_no_result(self, monkeypatch, n):
        # a valid but longer record costs nodes only; at n = 11 order 9 starts there too
        expected = search_optimal(SearchConfig(order=n))
        for k in range(2, 16):
            monkeypatch.setitem(_RECORDS, k, construct_half_cubic(k).marks)
        result = search_optimal(SearchConfig(order=n))
        assert result.optimal
        assert result.ruler.marks == expected.ruler.marks
        assert result.nodes_explored >= expected.nodes_explored


def canonical(marks):
    """The lexicographically smaller of a ruler and its mirror image."""
    mirror = tuple(marks[-1] - m for m in reversed(marks))
    return min(tuple(marks), mirror)


def is_golomb(marks):
    diffs = [b - a for i, a in enumerate(marks) for b in marks[i + 1 :]]
    return len(diffs) == len(set(diffs))


def golomb_prefix(gaps):
    """Marks from the gaps, skipping any gap that would repeat a difference."""
    marks = [0]
    for gap in gaps:
        if is_golomb(marks + [marks[-1] + gap]):
            marks.append(marks[-1] + gap)
    return marks


class PathSearch(_Search):
    """The kernel, made to descend only along the given gaps.

    Every call of the kernel is recorded with its arguments, so a test reads
    the bitmaps the kernel holds at each step and the gaps it offers next.
    Past the file's tables, T_k is taken as 0 for every key, leaving only
    the bounds that need no sub-search.
    """

    def __init__(self, n, gaps, limit):
        super().__init__(n, [*_tail_tables(), *[bytes(65_536)] * n], limit, None)
        self.gaps = gaps
        self.calls = []

    def _dfs(self, d, pos, lst, dist, comp, gap):
        self.calls.append((d, pos, lst, dist, comp, gap))
        if d <= len(self.gaps) and gap == self.gaps[d - 1]:
            super()._dfs(d, pos, lst, dist, comp, gap)


class TestPlacementBitmaps:
    @given(st.lists(st.integers(min_value=1, max_value=40), max_size=10))
    def test_comp_is_exactly_the_inadmissible_gaps(self, gaps):
        marks = golomb_prefix(gaps)
        path = [b - a for a, b in zip(marks, marks[1:])]
        last = marks[-1]
        # two marks beyond the path, so the offered gaps meet no symmetry rule
        kernel = PathSearch(len(marks) + 2, path, limit=4 * last + 200)
        gap_range = range(1, 2 * last + 42)
        kernel.run()
        offered = [call for call in kernel.calls if call[0] == len(marks) and call[5] in gap_range]
        diffs = {b - a for i, a in enumerate(marks) for b in marks[i + 1 :]}
        admissible = [g for g in gap_range if is_golomb(marks + [last + g])]
        assert [call[5] for call in offered] == admissible
        assert len({call[1:5] for call in offered}) == 1
        _, pos, lst, dist, comp, _ = offered[0]
        assert pos == last
        assert lst == sum(1 << (last - m) for m in marks[:-1])
        assert dist == sum(1 << d for d in diffs)
        for g in gap_range:
            assert bool(comp >> g & 1) == (g not in admissible), g


class TestUnusedDifferenceBound:
    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=9))
    def test_kernel_reaches_a_ruler_at_its_own_length(self, gaps):
        marks = canonical(golomb_prefix(gaps))
        assume(len(marks) >= 3)
        path = [b - a for a, b in zip(marks, marks[1:])]
        kernel = PathSearch(len(marks), path, limit=marks[-1])
        kernel.run()
        assert kernel.best == marks

    def test_n10_node_count(self):
        sequential = search_optimal(SearchConfig(order=10))
        assert sequential.nodes_explored == NODE_COUNTS[10]
        # parallelism selects nothing, so the same search runs
        jobs2 = search_optimal(SearchConfig(order=10, parallelism=2))
        assert jobs2.nodes_explored == sequential.nodes_explored
        assert jobs2.ruler.marks == sequential.ruler.marks


def table_tail(k, used):
    """T_k from the checked-in table, keyed by the differences 1..16 in ``used``."""
    key = sum(1 << (u - 1) for u in used if 1 <= u <= 16)
    return _tail_tables()[k][key]


def shortest_avoiding(k, forbidden):
    """T_k by brute force: the shortest (k+1)-mark ruler with no difference in ``forbidden``."""
    span = k
    while True:
        for inner in combinations(range(1, span), k - 1):
            marks = (0,) + inner + (span,)
            if is_golomb(marks) and not any(b - a in forbidden for a, b in combinations(marks, 2)):
                return span
        span += 1


def shortest_avoiding_by_sets(k, forbidden):
    """T_k by a depth-first search over sets of differences, span by span."""

    def extend(marks, used, span):
        if len(marks) == k:
            new = {span - m for m in marks}
            return not new & (used | forbidden)
        for mark in range(marks[-1] + 1, span - (k - len(marks)) + 1):
            new = {mark - m for m in marks}
            if not new & (used | forbidden) and extend(marks + [mark], used | new, span):
                return True
        return False

    span = k
    while not extend([0], set(), span):
        span += 1
    return span


class TestTailTable:
    """T_k(F), the shortest (k+1)-mark ruler avoiding F, read from ``tails.bin``."""

    # gaps up to 16 keep tails near the shortest, where an entry too high shows
    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=3, max_size=11))
    def test_bound_holds_on_every_prefix(self, gaps):
        marks = golomb_prefix(gaps)
        n = len(marks)
        for d in range(max(0, n - 8), n - 1):  # prefix marks[:d], tail marks[d:] of k + 1 marks
            k, span = n - 1 - d, marks[-1] - marks[d]
            used = {b - a for i, a in enumerate(marks[:d]) for b in marks[i + 1 : d]}
            assert table_tail(k, used) <= span
            # the tail also avoids every difference it does not use itself
            own = {b - a for a, b in combinations(marks[d:], 2)}
            assert table_tail(k, set(range(1, 17)) - own) <= span

    @pytest.mark.parametrize("k", [1, 2, 3])
    @given(key=st.integers(min_value=0, max_value=0xFFFF))
    def test_matches_brute_force(self, k, key):
        forbidden = {i + 1 for i in range(16) if key >> i & 1}
        assert table_tail(k, forbidden) == shortest_avoiding(k, forbidden)

    # too slow for combinations, so a fixed handful of keys, each raising T_k
    # above T_k({}); about 0.1 s per k = 6 key and 1 s per k = 7 key
    @pytest.mark.parametrize(
        "k, key",
        [(6, 0x0001), (6, 0x0420), (6, 0x8001), (6, 0xC209), (6, 0xD82C), (7, 0x0108), (7, 0x1010)],
    )
    def test_long_tails_match_a_set_search(self, k, key):
        forbidden = {i + 1 for i in range(16) if key >> i & 1}
        assert table_tail(k, forbidden) == shortest_avoiding_by_sets(k, forbidden)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @given(key=st.integers(min_value=0, max_value=0xFFFF))
    def test_kernel_finds_the_shortest_avoiding_ruler(self, k, key):
        # the order-(k+1) kernel, F taken as used, finds nothing below T_k(F) and a ruler at it
        forbidden = {i + 1 for i in range(16) if key >> i & 1}
        span = shortest_avoiding(k, forbidden)

        def search(limit):
            return _Search(k + 1, _tail_tables(), limit, None).run(key << 1)

        assert search(span - 1).best is None
        marks = search(span).best
        assert marks[-1] == span and is_golomb(marks)
        assert not {b - a for a, b in combinations(marks, 2)} & forbidden

    @pytest.mark.parametrize("key", [0x0001, 0x0420, 0x8001, 0xC209, 0xD82C])
    def test_builder_reproduces_long_tails(self, key):
        # the k = 6 keys of test_long_tails_match_a_set_search
        span = tails._shortest(6, key, _tail_tables())
        assert span == table_tail(6, {i + 1 for i in range(16) if key >> i & 1})

    @pytest.mark.parametrize("k", [1, 2, 3])
    @given(key=st.integers(min_value=0, max_value=0xFFFF))
    def test_builder_matches_brute_force(self, k, key):
        # the search runs from a feasible length until no shorter ruler is left
        forbidden = {i + 1 for i in range(16) if key >> i & 1}
        assert tails._shortest(k, key, _tail_tables()) == shortest_avoiding(k, forbidden)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @given(key=st.integers(min_value=0, max_value=0xFFFF))
    def test_builder_reproduces_the_table(self, k, key):
        # each entry is one search over the tables of smaller k, whatever the key order
        assert tails._shortest(k, key, _tail_tables()) == _tail_tables()[k][key]

    @pytest.mark.parametrize("k", range(1, 8))
    def test_no_forbidden_difference_gives_the_optimum(self, k):
        assert table_tail(k, set()) == KNOWN_OPTIMA[k + 1]

    def test_settled_optima_are_the_known_ones(self):
        # G(k) = T_{k-1}({}) for k = 1..8, from T_0 and the file's seven tables
        tables = _tail_tables()
        assert len(tables) == 8
        assert {k: tables[k - 1][0] for k in range(1, 9)} == {1: 0, **{k: KNOWN_OPTIMA[k] for k in range(2, 9)}}

    def test_file_is_pinned(self):
        tables = _tail_tables()
        assert tables[0] == bytes(65_536)
        data = b"".join(bytes(table) for table in tables[1:])
        assert len(data) == 7 * 65_536
        assert hashlib.sha256(data).hexdigest() == TAILS_SHA256


class TestTailsFrontEnd:
    """``python -m golomb.tails``: rewrite the table, or rebuild and compare."""

    @pytest.fixture
    def table(self, monkeypatch, tmp_path):
        path = tmp_path / "tails.bin"
        monkeypatch.setattr(tails, "build", lambda: b"\x01\x02\x03")
        monkeypatch.setattr(tails, "_TABLE_PATH", str(path))
        return path

    def test_check_matches(self, table, capsys):
        table.write_bytes(b"\x01\x02\x03")
        assert tails.main(["--check"]) == 0
        assert capsys.readouterr().out == "%s: matches\n" % table

    def test_check_differs(self, table, capsys):
        table.write_bytes(b"\x01\x02")
        assert tails.main(["--check"]) == 1
        assert capsys.readouterr().out == "%s: DIFFERS from a rebuild\n" % table
        assert table.read_bytes() == b"\x01\x02"

    def test_write(self, table, capsys):
        table.write_bytes(b"old")
        assert tails.main([]) == 0
        assert capsys.readouterr().out == "%s: 3 bytes written\n" % table
        assert table.read_bytes() == b"\x01\x02\x03"


class TestCompareConstructions:
    def test_row_n5(self):
        rows = compare_constructions(5, exact_cutoff=5)
        row = rows[-1]
        assert (row.n, row.lower_bound, row.optimal, row.pow2) == (5, 10, 11, 15)
        assert (row.thm1, row.thm1_nminus2, row.thm2) == (34, 22, 16)

    def test_row_n2(self):
        (row,) = compare_constructions(2, exact_cutoff=2)
        assert (row.lower_bound, row.optimal, row.pow2) == (1, 1, 1)
        assert (row.thm1, row.thm1_nminus2, row.thm2) == (1, 1, 1)

    def test_optimal_blank_beyond_cutoff(self):
        rows = compare_constructions(6, exact_cutoff=4)
        by_n = {r.n: r for r in rows}
        assert by_n[4].optimal == 6
        assert by_n[5].optimal is None
        assert by_n[6].optimal is None

    def test_pow2_blank_beyond_64_bits(self):
        rows = compare_constructions(64, exact_cutoff=0)
        by_n = {r.n: r for r in rows}
        assert by_n[63].pow2 == 2**62 - 1
        assert by_n[64].pow2 is None

    def test_optimal_column_matches_known_optima(self):
        rows = compare_constructions(9)
        assert {r.n: r.optimal for r in rows} == KNOWN_OPTIMA

    def test_optimal_column_reads_the_appended_tables(self):
        # past the file, G(9) and G(10) are appended as tables before order 11 reads them
        rows = compare_constructions(11, exact_cutoff=11)
        assert {r.n: r.optimal for r in rows if r.n >= 9} == {9: 44, 10: 55, 11: 72}

    def test_one_search_per_order(self, monkeypatch):
        orders = []
        run = _Search.run

        def counting_run(self):
            orders.append(self.n)
            return run(self)

        monkeypatch.setattr(_Search, "run", counting_run)
        compare_constructions(9, exact_cutoff=9)
        assert orders == [9]

    def test_rejects_small_n_max(self):
        with pytest.raises(ValueError):
            compare_constructions(1)

    def test_exact_search_above_the_records_is_refused(self, monkeypatch):
        def run(self):
            raise AssertionError("exact search started")

        monkeypatch.setattr(_Search, "run", run)
        for n_max, cutoff in ((16, 16), (40, 20)):
            with pytest.raises(ValueError, match="^exact search is limited to orders up to 15$"):
                compare_constructions(n_max, exact_cutoff=cutoff)
        # only the searched orders meet the cap
        assert compare_constructions(20, exact_cutoff=4)[-1].optimal is None
