import re

import pytest
from hypothesis import assume, example, given, strategies as st

from golomb import (
    QuadraticFamilyParams,
    TriangularParams,
    build_difference_triangle,
    check_star_inequality,
    construct_cubic,
    construct_half_cubic,
    construct_powers_of_two,
    construct_triangular,
    cubic_bound,
    find_quadratic_collision,
    half_cubic_bound,
    half_cubic_modulus,
    pow2_bound,
    quadratic_sequence,
    shifted_cubic_bound,
    verify_graceful,
)
from golomb.constructions import _star_margin


class TestPowersOfTwo:
    @pytest.mark.parametrize(
        "n,marks", [(1, (0,)), (4, (0, 1, 3, 7)), (5, (0, 1, 3, 7, 15))]
    )
    def test_examples(self, n, marks):
        assert construct_powers_of_two(n).marks == marks

    def test_order_cap(self):
        assert construct_powers_of_two(63).length() == 2**62 - 1
        with pytest.raises(OverflowError):
            construct_powers_of_two(64)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            construct_powers_of_two(0)

    def test_bound_is_the_length_up_to_the_cap(self):
        for n in range(1, 64):
            assert pow2_bound(n) == construct_powers_of_two(n).length()
        assert pow2_bound(64) is None

    @pytest.mark.parametrize("n", range(1, 25))
    def test_graceful(self, n):
        assert verify_graceful(construct_powers_of_two(n)).graceful


class TestTriangularFamily:
    @pytest.mark.parametrize(
        "n,mod,marks",
        [
            (5, 5, (0, 1, 7, 18, 34)),
            (5, 2, (0, 1, 4, 9, 16)),
            (2, 1, (0, 1)),
        ],
    )
    def test_examples(self, n, mod, marks):
        assert construct_triangular(TriangularParams(order=n, modulus=mod)).marks == marks

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TriangularParams(order=1, modulus=3)
        with pytest.raises(ValueError):
            TriangularParams(order=4, modulus=0)

    def test_small_modulus_not_graceful(self):
        ruler = construct_triangular(TriangularParams(order=6, modulus=1))
        assert not verify_graceful(ruler).graceful


class TestCubic:
    @pytest.mark.parametrize("n,marks", [(2, (0, 1)), (3, (0, 1, 5)), (5, (0, 1, 7, 18, 34))])
    def test_examples(self, n, marks):
        assert construct_cubic(n).marks == marks

    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 5), (5, 34)])
    def test_bound(self, n, expected):
        assert cubic_bound(n) == expected

    @pytest.mark.parametrize("n", range(2, 61))
    def test_graceful_with_exact_length(self, n):
        ruler = construct_cubic(n)
        assert ruler.length() == cubic_bound(n)
        assert verify_graceful(ruler).graceful

    @pytest.mark.parametrize("n", range(3, 31))
    def test_columns_increase_downward(self, n):
        # holds for the constructed families, where row sums grow with i
        for ruler in (construct_cubic(n), construct_half_cubic(n)):
            tri = build_difference_triangle(ruler)
            for j in range(1, n - 1):
                for i in range(j, n - 1):
                    if i + 1 <= n - 1:
                        assert tri.entry(i, j) < tri.entry(i + 1, j)

    @pytest.mark.parametrize("n", range(2, 51))
    def test_column_residues(self, n):
        # every entry of column j of the cubic triangle is j mod n
        tri = build_difference_triangle(construct_cubic(n))
        for i in range(1, n):
            for j in range(1, i + 1):
                assert tri.entry(i, j) % n == j % n


class TestHalfCubic:
    @pytest.mark.parametrize(
        "n,marks",
        [
            (4, (0, 1, 4, 9)),
            (5, (0, 1, 4, 9, 16)),
            (6, (0, 1, 5, 12, 22, 35)),
        ],
    )
    def test_examples(self, n, marks):
        assert construct_half_cubic(n).marks == marks

    @pytest.mark.parametrize("n,expected", [(2, 1), (5, 16), (6, 35)])
    def test_bound(self, n, expected):
        assert half_cubic_bound(n) == expected

    def test_modulus_parity_rule(self):
        assert half_cubic_modulus(5) == 2
        assert half_cubic_modulus(6) == 3

    def test_modulus_is_half_the_order_rounded_down(self):
        for n in range(2, 1001):
            parity_rule = (n - 1) // 2 if n % 2 == 1 else n // 2
            assert half_cubic_modulus(n) == n // 2 == parity_rule

    @pytest.mark.parametrize("n", range(2, 61))
    def test_graceful_with_exact_length(self, n):
        ruler = construct_half_cubic(n)
        assert ruler.length() == half_cubic_bound(n)
        assert verify_graceful(ruler).graceful

    def test_ratio_approaches_half(self):
        ratios = [half_cubic_bound(n) / cubic_bound(n) for n in (11, 51, 101, 201)]
        assert 0.49 < ratios[2] < 0.51
        gaps = [abs(r - 0.5) for r in ratios]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestShiftedCubic:
    @pytest.mark.parametrize("n", range(3, 61))
    def test_modulus_n_minus_2_graceful(self, n):
        ruler = construct_triangular(TriangularParams(order=n, modulus=n - 2))
        assert verify_graceful(ruler).graceful
        assert ruler.length() == shifted_cubic_bound(n)

    def test_degenerate_n2(self):
        assert shifted_cubic_bound(2) == 1


def closed_form_cubic(n):
    return (n - 1) * ((n - 1) ** 2 + 1) // 2


def closed_form_half_cubic(n):
    if n % 2 == 1:
        return (n - 1) + (n - 1) ** 2 * (n - 2) // 4
    return (n - 1) + n * (n - 1) * (n - 2) // 4


def closed_form_shifted_cubic(n):
    return (n - 1) * (n - 2) ** 2 // 2 + (n - 1)


U64_MAX = 2**64 - 1


def last_fitting_order(length):
    """Largest n whose length(n) fits in 64 bits; length grows with n."""
    lo, hi = 2, 2
    while length(hi) <= U64_MAX:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if length(mid) <= U64_MAX else (lo, mid)
    return lo


class TestTriangularLengths:
    """The three bounds against the constructed rulers and the parity-split closed forms."""

    SAMPLED = [2, 3, 4, 5, 6, 7, 64, 65, 500, 501, 1000, 1999, 2000]

    @pytest.mark.parametrize("n", SAMPLED)
    def test_bounds_are_the_constructed_lengths(self, n):
        assert cubic_bound(n) == construct_cubic(n).length() == closed_form_cubic(n)
        assert half_cubic_bound(n) == construct_half_cubic(n).length() == closed_form_half_cubic(n)
        if n > 2:
            shifted = construct_triangular(TriangularParams(order=n, modulus=n - 2))
            assert shifted_cubic_bound(n) == shifted.length() == closed_form_shifted_cubic(n)

    @pytest.mark.parametrize(
        "bound,closed_form",
        [
            (cubic_bound, closed_form_cubic),
            (half_cubic_bound, closed_form_half_cubic),
            (shifted_cubic_bound, closed_form_shifted_cubic),
        ],
    )
    def test_overflow_at_the_first_order_past_64_bits(self, bound, closed_form):
        n = last_fitting_order(closed_form)
        assert bound(n) == closed_form(n)
        message = "value %d outside unsigned 64-bit range" % closed_form(n + 1)
        with pytest.raises(OverflowError, match="^%s$" % re.escape(message)):
            bound(n + 1)

    @pytest.mark.parametrize("bound", [cubic_bound, half_cubic_bound, shifted_cubic_bound])
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_order_below_two_rejected(self, bound, n):
        with pytest.raises(ValueError, match="^order must be at least 2, got %d$" % n):
            bound(n)


class TestStarInequality:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 100])
    def test_examples(self, n):
        assert check_star_inequality(n)

    def test_wide_range(self):
        assert all(check_star_inequality(n) for n in range(2, 1001))

    def test_closed_form_matches_column_loop(self):
        # the column-by-column loop the closed form replaced, as the reference
        def loop_margin(n):
            mod = half_cubic_modulus(n)
            return min(
                (mod + j) * (mod + j - 1) // 2 + 1 - (j * (n - 2) - j * (j - 1) // 2)
                for j in range(1, mod + 1)
            )

        for n in range(2, 2001):
            assert _star_margin(n) == loop_margin(n), n

    def test_matches_actual_block_separation(self):
        # column j's maximum must sit below column N+j's minimum
        for n in range(4, 80):
            tri = build_difference_triangle(construct_half_cubic(n))
            mod = half_cubic_modulus(n)
            for j in range(1, mod + 1):
                if mod + j > n - 1:
                    continue
                col_max = tri.entry(n - 1, j)
                col_min = tri.entry(mod + j, mod + j)
                assert col_max < col_min


class TestQuadraticFamily:
    def test_sequence_examples(self):
        p = QuadraticFamilyParams(a=1, b=1, c=0)
        assert quadratic_sequence(p, 3) == [0, 4, 10]
        assert quadratic_sequence(p, 12)[:6] == [0, 13, 28, 45, 64, 85]
        q = QuadraticFamilyParams(a=-1, b=3, c=0)
        assert quadratic_sequence(q, 14)[:4] == [0, 41, 80, 117]

    @given(st.integers(-20, 20), st.integers(1, 20), st.integers(0, 60), st.integers(3, 80))
    @example(a=-3, b=7, c_offset=0, n=3)
    @example(a=5, b=2, c_offset=20, n=3)
    def test_sequence_matches_the_closed_form(self, a, b, c_offset, n):
        assume(a != 0 and 2 * a + b > 0)
        c = -a - 2 * b + 1 + c_offset
        xs = quadratic_sequence(QuadraticFamilyParams(a=a, b=b, c=c), n)
        assert xs == [a * m * m + b * n * m + c * m for m in range(n)]

    def test_sequence_needs_three_terms(self):
        with pytest.raises(ValueError):
            quadratic_sequence(QuadraticFamilyParams(a=1, b=1, c=0), 2)

    @pytest.mark.parametrize(
        "a,b,c,message",
        [
            (0, 1, 0, "a must be nonzero"),
            (1, 0, 0, "b must be positive"),
            (1, -2, 0, "b must be positive"),
            (-2, 1, 0, "2a + b must be positive"),
            (1, 1, -3, "c must exceed -a - 2b"),
        ],
    )
    def test_constraints(self, a, b, c, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QuadraticFamilyParams(a=a, b=b, c=c)

    def test_collision_positive_a(self):
        w = find_quadratic_collision(QuadraticFamilyParams(a=1, b=1, c=0))
        assert (w.n, w.i1, w.j1, w.i2, w.j2, w.value) == (12, 11, 2, 4, 4, 64)

    def test_collision_negative_a(self):
        w = find_quadratic_collision(QuadraticFamilyParams(a=-1, b=3, c=0))
        assert (w.n, w.i1, w.j1, w.i2, w.j2, w.value) == (14, 13, 4, 2, 2, 80)

    def test_collision_grid(self):
        for a in range(-3, 4):
            if a == 0:
                continue
            for b in range(1, 5):
                if 2 * a + b <= 0:
                    continue
                base = -a - 2 * b
                for c in range(base + 1, base + 7):
                    params = QuadraticFamilyParams(a=a, b=b, c=c)
                    w = find_quadratic_collision(params)
                    xs = quadratic_sequence(params, w.n)
                    assert 1 <= w.j1 <= w.i1 <= w.n - 1
                    assert 1 <= w.j2 <= w.i2 <= w.n - 1
                    assert (w.i1, w.j1) != (w.i2, w.j2)
                    assert xs[w.i1] - xs[w.i1 - w.j1] == w.value
                    assert xs[w.i2] - xs[w.i2 - w.j2] == w.value

    @given(st.integers(-20, 20), st.integers(1, 20), st.integers(0, 60))
    def test_closed_form_matches_the_sequence(self, a, b, c_offset):
        assume(a != 0 and 2 * a + b > 0)
        params = QuadraticFamilyParams(a=a, b=b, c=-a - 2 * b + 1 + c_offset)
        w = find_quadratic_collision(params)
        xs = quadratic_sequence(params, w.n)
        assert len(xs) == w.n
        assert xs[w.i1] - xs[w.i1 - w.j1] == w.value == xs[w.i2] - xs[w.i2 - w.j2]
