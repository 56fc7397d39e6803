"""Explicit ruler families and the quadratic-formula impossibility engine.

The families are x_i = 2^(i-1) - 1 and the triangular x_i = C(i-1,2)*m + (i-1)
at any modulus m: the cubic (m = n), the half-cubic (m = floor(n/2), about
half the length) and m = n - 2, which has a length bound only.  For a
quadratic family inside the constraints of QuadraticFamilyParams, the
collision engine finds the order at which two of its differences coincide.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from .core import Ruler, _check_u64


class _TriangularParamsFields(NamedTuple):
    order: int
    modulus: int


class TriangularParams(_TriangularParamsFields):
    """Order and modulus for the family x_i = C(i-1,2)*modulus + (i-1)."""

    __slots__ = ()

    def __new__(cls, order, modulus):
        if order < 2:
            raise ValueError("order must be at least 2, got %d" % order)
        if modulus < 1:
            raise ValueError("modulus must be positive, got %d" % modulus)
        return super().__new__(cls, order, modulus)


class _QuadraticFamilyParamsFields(NamedTuple):
    a: int
    b: int
    c: int


class QuadraticFamilyParams(_QuadraticFamilyParamsFields):
    """Coefficients of the reduced quadratic x_i = a(i-1)^2 + bn(i-1) + c(i-1).

    The collision engine certifies collisions inside the four constraints
    below only; no code checks the families outside them.
    """

    __slots__ = ()

    def __new__(cls, a, b, c):
        if a == 0:
            raise ValueError("constraint violated: a must be nonzero")
        if b <= 0:
            raise ValueError("constraint violated: b must be positive")
        if 2 * a + b <= 0:
            raise ValueError("constraint violated: 2a + b must be positive")
        if c <= -a - 2 * b:
            raise ValueError("constraint violated: c must exceed -a - 2b")
        return super().__new__(cls, a, b, c)


class CollisionWitness(NamedTuple):
    """A duplicated difference in the quadratic family's triangle at order n."""

    n: int
    i1: int
    j1: int
    i2: int
    j2: int
    value: int


POW2_MAX_ORDER = 63  # 2^(n-1) itself fits a signed 64-bit integer up to here


def pow2_bound(n: int) -> Optional[int]:
    """Length 2^(n-1) - 1 of the powers-of-two ruler, None above POW2_MAX_ORDER."""
    return 2 ** (n - 1) - 1 if n <= POW2_MAX_ORDER else None


def construct_powers_of_two(n: int) -> Ruler:
    """Exponential ruler x_i = 2^(i-1) - 1; always graceful, huge length."""
    if n < 1:
        raise ValueError("order must be positive, got %d" % n)
    if pow2_bound(n) is None:
        raise OverflowError(
            "order-too-large: 2^(n-1) exceeds a signed 64-bit integer for n > %d"
            % POW2_MAX_ORDER
        )
    return Ruler(tuple(pow2_bound(i) for i in range(1, n + 1)))


def construct_triangular(params: TriangularParams) -> Ruler:
    """Build x_i = (i-1)(i-2)/2 * modulus + (i-1).

    Gracefulness is only guaranteed for modulus n, n-2, or the half-cubic
    parity rule; smaller moduli may collide and are left to verify_graceful.
    """
    n, mod = params.order, params.modulus
    return Ruler((0,) + tuple(_triangular_length(i, mod) for i in range(2, n + 1)))


def _triangular_length(n: int, modulus: int) -> int:
    """Last mark C(n-1,2)*modulus + (n-1) of the triangular family at order n."""
    if n < 2:
        raise ValueError("order must be at least 2, got %d" % n)
    return _check_u64((n - 1) * (n - 2) // 2 * modulus + (n - 1))


def construct_cubic(n: int) -> Ruler:
    """Cubic ruler: the triangular family with modulus equal to the order."""
    return construct_triangular(TriangularParams(order=n, modulus=n))


def half_cubic_modulus(n: int) -> int:
    """Parity rule: (n-1)/2 for odd n, n/2 for even n, that is floor(n/2)."""
    if n < 2:
        raise ValueError("order must be at least 2, got %d" % n)
    return n // 2


def construct_half_cubic(n: int) -> Ruler:
    """Half-cubic ruler: triangular family with the parity-rule modulus."""
    return construct_triangular(TriangularParams(order=n, modulus=half_cubic_modulus(n)))


def cubic_bound(n: int) -> int:
    """Length of the cubic ruler: (n-1)((n-1)^2 + 1)/2."""
    return _triangular_length(n, n)


def half_cubic_bound(n: int) -> int:
    """Length of the half-cubic ruler: C(n-1,2)*floor(n/2) + (n-1)."""
    return _triangular_length(n, half_cubic_modulus(n))


def shifted_cubic_bound(n: int) -> int:
    """Length of the triangular family at modulus n - 2 (older published bound)."""
    return _triangular_length(n, n - 2)


def check_star_inequality(n: int) -> bool:
    """Confirm the half-cubic triangle's two residue blocks cannot collide.

    For each column j in the first block, the largest entry must stay below
    the smallest entry of column N+j, the column in the second block with the
    same residue.  In closed form that is

        [j(n-2) - j(j-1)/2] * N + j  <  [(N+j)(N+j-1)/2] * N + N + j

    which reduces to (N+j)(N+j-1)/2 + 1 > j(n-2) - j(j-1)/2.  Always true;
    exposed so tests can confirm it numerically over a large range of n.
    """
    return _star_margin(n) > 0


def _star_margin(n: int) -> int:
    """Smallest value over j = 1..N of the reduced star inequality's LHS - RHS.

    The difference is j^2 + (N-n+1)j + N(N-1)/2 + 1, a convex quadratic in j,
    so its minimum over the columns lies at an endpoint or next to the vertex.
    """
    mod = half_cubic_modulus(n)
    vertex = (n - 1 - mod) // 2
    columns = {1, mod} | {j for j in (vertex, vertex + 1) if 1 <= j <= mod}
    return min(j * j + (mod - n + 1) * j + mod * (mod - 1) // 2 + 1 for j in columns)


def quadratic_sequence(params: QuadraticFamilyParams, n: int) -> list:
    """Evaluate x_i = a(i-1)^2 + bn(i-1) + c(i-1) for i = 1..n.

    Returned as a raw list: for a < 0 the sequence eventually decreases, and
    the collision engine does not need monotonicity.  The first differences
    x_{i+1} - x_i = a(2i-1) + bn + c step by the constant 2a, so the terms
    are their running sums from x_1 = 0.
    """
    if n < 3:
        raise ValueError("order must be at least 3, got %d" % n)
    a, b, c = params
    step = a + b * n + c
    return list(accumulate(range(step, step + 2 * a * (n - 1), 2 * a), initial=0))


def find_quadratic_collision(params: QuadraticFamilyParams) -> CollisionWitness:
    """Produce the order and triangle positions where the family repeats a difference.

    At n = 2a^2 + b^2 + 2ab + 2a + 3b + 2 + c the entries at (n-1, b+1) and
    (2a+b+1, 2a+b+1) coincide.  Both entries are recomputed from the four
    terms they involve before returning; a mismatch would be an
    implementation bug.  No other term of the sequence is evaluated.
    """
    a, b, c = params.a, params.b, params.c
    n = 2 * a * a + b * b + 2 * a * b + 2 * a + 3 * b + 2 + c
    i1, j1 = n - 1, b + 1
    i2 = j2 = 2 * a + b + 1
    for i, j in ((i1, j1), (i2, j2)):
        if not (1 <= j <= i <= n - 1) or not (j < n - 1):
            raise RuntimeError(
                "internal-inconsistency: position (%d, %d) invalid at n=%d" % (i, j, n)
            )

    # t_{i,j} = x_{i+1} - x_{i+1-j}, which is term i minus term i - j, 0-based,
    # and term m is a m^2 + b n m + c m
    x1, y1, x2, y2 = (a * m * m + b * n * m + c * m for m in (i1, i1 - j1, i2, i2 - j2))
    t1, t2 = x1 - y1, x2 - y2
    if t1 != t2:
        raise RuntimeError(
            "internal-inconsistency: entries differ (%d vs %d) at n=%d" % (t1, t2, n)
        )
    return CollisionWitness(n=n, i1=i1, j1=j1, i2=i2, j2=j2, value=t1)
