import pytest
from hypothesis import given, strategies as st

from golomb import (
    Ruler,
    TriangularParams,
    build_difference_triangle,
    construct_cubic,
    construct_triangular,
    decompose_residue,
    lower_bound,
    verify_graceful,
)
from golomb.core import U64_MAX


def ruler_marks(max_order=12, max_mark=200):
    return st.sets(st.integers(1, max_mark), min_size=1, max_size=max_order - 1).map(
        lambda s: (0,) + tuple(sorted(s))
    )


class TestRuler:
    def test_valid(self):
        r = Ruler((0, 1, 3))
        assert r.order == 3
        assert r.length() == 3

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Ruler((1, 2, 4))

    def test_must_increase(self):
        with pytest.raises(ValueError):
            Ruler((0, 3, 3))
        with pytest.raises(ValueError):
            Ruler((0, 5, 2))

    def test_empty(self):
        with pytest.raises(ValueError):
            Ruler(())

    def test_u64_overflow(self):
        with pytest.raises(OverflowError):
            Ruler((0, 2**64))


class TestDifferenceTriangle:
    def test_small(self):
        tri = build_difference_triangle(Ruler((0, 1, 3)))
        assert tri.rows() == [[1], [2, 3]]

    def test_difference_at_u64_max(self):
        tri = build_difference_triangle(Ruler((0, 2**64 - 1)))
        assert tri.rows() == [[2**64 - 1]]

    def test_n5(self):
        tri = build_difference_triangle(Ruler((0, 1, 4, 9, 16)))
        assert tri.rows() == [[1], [3, 4], [5, 8, 9], [7, 12, 15, 16]]

    def test_single_row(self):
        assert build_difference_triangle(Ruler((0, 1))).rows() == [[1]]

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            build_difference_triangle(Ruler((0,)))

    def test_entry_count(self):
        tri = build_difference_triangle(Ruler((0, 1, 4, 9, 11)))
        assert len(tri.entries) == 10  # C(5,2)

    def test_entry_bounds(self):
        tri = build_difference_triangle(Ruler((0, 1, 3)))
        with pytest.raises(IndexError):
            tri.entry(2, 3)
        with pytest.raises(IndexError):
            tri.entry(3, 1)
        with pytest.raises(IndexError):
            tri.entry(1, 0)

    @given(ruler_marks())
    def test_diagonal_recovers_marks(self, marks):
        tri = build_difference_triangle(Ruler(marks))
        diag = [tri.entry(i, i) for i in range(1, len(marks))]
        assert diag == list(marks[1:])

    @given(ruler_marks())
    def test_row_recurrence(self, marks):
        tri = build_difference_triangle(Ruler(marks))
        for i in range(1, len(marks)):
            for j in range(2, i + 1):
                assert tri.entry(i, j) == tri.entry(i, j - 1) + tri.entry(i - j + 1, 1)

    @given(ruler_marks())
    def test_entries_positive(self, marks):
        tri = build_difference_triangle(Ruler(marks))
        assert all(v > 0 for v in tri.entries)


def brute_force_graceful(marks):
    diffs = [b - a for idx, a in enumerate(marks) for b in marks[idx + 1 :]]
    return len(diffs) == len(set(diffs))


def first_duplicate_by_scan(marks):
    """Reference witness: the least (value, i1, j1, i2, j2) over every cell pair."""
    cells = {}  # value -> positions in row-major order
    for i in range(1, len(marks)):
        for j in range(1, i + 1):
            cells.setdefault(marks[i] - marks[i - j], []).append((i, j))
    duplicates = [(value, where[0], where[1]) for value, where in cells.items() if len(where) > 1]
    return min(duplicates, default=None)


class TestVerifyGraceful:
    def test_graceful(self):
        assert verify_graceful(Ruler((0, 1, 3))).graceful

    def test_not_graceful_witness(self):
        report = verify_graceful(Ruler((0, 1, 2)))
        assert not report.graceful
        w = report.witness
        assert (w.value, w.first, w.second) == (1, (1, 1), (2, 1))

    def test_cubic_n5(self):
        assert verify_graceful(Ruler((0, 1, 7, 18, 34))).graceful

    def test_single_mark_graceful(self):
        report = verify_graceful(Ruler((0,)))
        assert report.graceful and report.witness is None

    @given(ruler_marks())
    def test_matches_brute_force(self, marks):
        ruler = Ruler(marks)
        report = verify_graceful(ruler)
        assert report.graceful == brute_force_graceful(marks)
        if not report.graceful:
            tri = build_difference_triangle(ruler)
            w = report.witness
            assert w.first != w.second
            assert tri.entry(*w.first) == tri.entry(*w.second) == w.value

    @given(ruler_marks(max_order=20, max_mark=60))
    def test_witness_is_the_first_duplicate(self, marks):
        report = verify_graceful(Ruler(marks))
        got = None if report.graceful else (report.witness.value, report.witness.first, report.witness.second)
        assert got == first_duplicate_by_scan(marks)

    @pytest.mark.parametrize("n", [50, 100, 150])
    def test_triangular_witness_at_benchmark_orders(self, n):
        # moduli below n/3 collide, as in the benchmark's verify_batch rulers of order 100-400
        for modulus in range(1, n // 3 + 1, 6):
            marks = construct_triangular(TriangularParams(order=n, modulus=modulus)).marks
            report = verify_graceful(Ruler(marks))
            assert not report.graceful
            w = report.witness
            assert (w.value, w.first, w.second) == first_duplicate_by_scan(marks)

    @pytest.mark.parametrize("n", [12, 40, 90])
    def test_witness_of_a_late_large_repeat(self, n):
        # one mark 2x - y past a graceful ruler's end x repeats only x - y, in its last row
        marks = construct_cubic(n).marks
        marks += (2 * marks[-1] - marks[1],)
        w = verify_graceful(Ruler(marks)).witness
        assert (w.value, w.first, w.second) == first_duplicate_by_scan(marks)
        assert (w.value, w.second) == (marks[-2] - marks[1], (n, 1))

    @given(
        st.sets(st.integers(1, 40), max_size=4),
        st.sets(st.integers(1, 60), max_size=8),
    )
    def test_witness_at_the_u64_limit(self, low, high_offsets):
        marks = (0,) + tuple(sorted(low)) + tuple(sorted(U64_MAX - k for k in high_offsets | {0}))
        report = verify_graceful(Ruler(marks))
        got = None if report.graceful else (report.witness.value, report.witness.first, report.witness.second)
        assert got == first_duplicate_by_scan(marks)

    @given(ruler_marks())
    def test_graceful_implies_lower_bound(self, marks):
        ruler = Ruler(marks)
        if verify_graceful(ruler).graceful:
            assert ruler.length() >= lower_bound(ruler.order)


class TestDecomposeResidue:
    @pytest.mark.parametrize(
        "value,modulus,quotient,residue",
        [(17, 5, 3, 2), (0, 7, 0, 0), (14, 7, 2, 0)],
    )
    def test_examples(self, value, modulus, quotient, residue):
        form = decompose_residue(value, modulus)
        assert (form.quotient, form.residue) == (quotient, residue)
        assert form.value == form.quotient * form.modulus + form.residue

    def test_zero_modulus(self):
        with pytest.raises(ValueError):
            decompose_residue(5, 0)

    def test_negative_value(self):
        with pytest.raises(ValueError):
            decompose_residue(-1, 3)

    @given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(1, 10**6))
    def test_equal_residues_divide_difference(self, v, w, modulus):
        a = decompose_residue(v, modulus)
        b = decompose_residue(w, modulus)
        assert 0 <= a.residue < modulus
        if a.residue == b.residue and v != w:
            assert (v - w) % modulus == 0


@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(2, 10**6),
    st.data(),
)
def test_distinct_residues_give_distinct_values(p, q, modulus, data):
    # pN + r != qN + s whenever 0 < r, s < N and r != s
    r = data.draw(st.integers(1, modulus - 1))
    s = data.draw(st.integers(1, modulus - 1).filter(lambda x: x != r))
    assert p * modulus + r != q * modulus + s


class TestLowerBound:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (5, 10), (8, 28)])
    def test_values(self, n, expected):
        assert lower_bound(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            lower_bound(0)
