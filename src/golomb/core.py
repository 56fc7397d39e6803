"""Rulers, difference triangles, and gracefulness verification."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat
from operator import sub
from typing import NamedTuple, Optional, Tuple

U64_MAX = 2**64 - 1


def _check_u64(value: int) -> int:
    if value < 0 or value > U64_MAX:
        raise OverflowError("value %d outside unsigned 64-bit range" % value)
    return value


# A NamedTuple body may not define __new__, so a validated record subclasses its fields.
class _RulerFields(NamedTuple):
    marks: Tuple[int, ...]


class Ruler(_RulerFields):
    """A strictly increasing sequence of integer marks starting at 0.

    The number of marks is the *order*; the largest mark is the *length*
    (the span measured by the ruler, since the first mark is pinned at 0).
    """

    __slots__ = ()

    def __new__(cls, marks):
        marks = tuple(marks)
        if not marks:
            raise ValueError("ruler needs at least one mark")
        if marks[0] != 0:
            raise ValueError("first mark must be 0, got %d" % marks[0])
        for a, b in zip(marks, marks[1:]):
            if b <= a:
                raise ValueError("marks must be strictly increasing")
        _check_u64(marks[-1])
        return super().__new__(cls, marks)

    @property
    def order(self) -> int:
        return len(self.marks)

    def length(self) -> int:
        return self.marks[-1]


class DifferenceTriangle(NamedTuple):
    """Lower-triangular table of every pairwise difference of a ruler.

    Entry (i, j), 1-based with 1 <= j <= i <= order-1, holds
    marks[i+1] - marks[i+1-j] in the ruler's 1-based indexing.  The
    diagonal entry (i, i) recovers mark i+1, since the first mark is 0.
    Storage is a flat row-major lower-triangular array.
    """

    order: int
    entries: Tuple[int, ...]

    def entry(self, i: int, j: int) -> int:
        """Entry in row i, column j (1-based, 1 <= j <= i <= order-1)."""
        if not (1 <= j <= i <= self.order - 1):
            raise IndexError("triangle position (%d, %d) out of range" % (i, j))
        return self.entries[i * (i - 1) // 2 + (j - 1)]

    def row(self, i: int) -> Tuple[int, ...]:
        if not (1 <= i <= self.order - 1):
            raise IndexError("triangle row %d out of range" % i)
        base = i * (i - 1) // 2
        return self.entries[base : base + i]

    def rows(self) -> list:
        return [list(self.row(i)) for i in range(1, self.order)]


class CollisionSite(NamedTuple):
    """Two distinct triangle positions holding the same difference."""

    first: Tuple[int, int]
    second: Tuple[int, int]
    value: int


class _GracefulnessReportFields(NamedTuple):
    graceful: bool
    witness: Optional[CollisionSite]


class GracefulnessReport(_GracefulnessReportFields):
    __slots__ = ()

    def __new__(cls, graceful, witness=None):
        if graceful and witness is not None:
            raise ValueError("graceful report cannot carry a witness")
        if not graceful and witness is None:
            raise ValueError("non-graceful report needs a witness")
        return super().__new__(cls, graceful, witness)


class ResidueForm(NamedTuple):
    """value = quotient * modulus + residue with 0 <= residue < modulus."""

    value: int
    modulus: int
    quotient: int
    residue: int


def _row(marks: Tuple[int, ...], i: int):
    """Triangle row i, 1 <= i < len(marks): marks[i] - marks[i-j] for j = 1..i.

    The row is strictly increasing, so no value repeats inside it.
    """
    return map(sub, repeat(marks[i], i), marks[i - 1 :: -1])


def build_difference_triangle(ruler: Ruler) -> DifferenceTriangle:
    """Arrange all C(n,2) pairwise differences of a ruler into a triangle.

    Raises ValueError for order < 2: a triangle needs at least one row.
    """
    n = ruler.order
    if n < 2:
        raise ValueError("order-too-small: need at least 2 marks, got %d" % n)
    marks = ruler.marks
    # Ruler guarantees 0 = marks[0] < ... < marks[-1] <= U64_MAX, so every
    # difference lies in [1, U64_MAX].  Row i ends at the (i+1)-th mark, 1-based.
    entries = tuple(chain.from_iterable(_row(marks, i) for i in range(1, n)))
    return DifferenceTriangle(order=n, entries=entries)


def verify_graceful(ruler: Ruler) -> GracefulnessReport:
    """Check that all pairwise differences of a ruler are distinct.

    The rows of the difference triangle go into one set in row order, and
    the check stops at the first row that repeats an earlier difference;
    a ruler whose last row adds only new differences is graceful.

    On failure the witness is the lexicographically first duplicate by
    (value, i1, j1, i2, j2), so output is deterministic: the smallest
    repeated value at its first two positions in row-major order.  The
    smallest value that the failing row repeats bounds that value, so the
    witness search sorts only the entries at most that bound.
    """
    marks = ruler.marks
    seen = set()
    size = 0
    for i in range(1, len(marks)):
        seen.update(_row(marks, i))
        size += i
        if len(seen) < size:
            break
    else:
        return GracefulnessReport(graceful=True)
    del seen  # free the set before the witness search builds its own list
    return GracefulnessReport(graceful=False, witness=_first_duplicate(marks, i))


def _first_duplicate(marks: Tuple[int, ...], i: int) -> CollisionSite:
    """Lexicographically first duplicate of a triangle whose row i repeats an earlier row."""
    # v in row i repeats an earlier row when v = marks[q] - marks[p] for p < q < i
    earlier = set(marks[:i])
    bound = next(
        v
        for v in _row(marks, i)
        if not earlier.isdisjoint(map(v.__add__, marks[: bisect_right(marks, marks[i - 1] - v)]))
    )
    # both copies of the smallest repeated value are at most the bound; in
    # each row those entries come from the marks within the bound below its end
    small = []
    for r, top in enumerate(marks):
        lo = bisect_left(marks, top - bound, 0, r)
        small.extend(map(sub, repeat(top, r - lo), marks[lo:r]))
    small.sort()
    value = next(v for v, w in zip(small, islice(small, 1, None)) if v == w)
    # row r holds the value at most once: at column r - k where marks[k] = marks[r] - value
    index = {m: k for k, m in enumerate(marks)}
    first, second = islice(
        ((r, r - index[top - value]) for r, top in enumerate(marks) if top - value in index), 2
    )
    return CollisionSite(first=first, second=second, value=value)


def decompose_residue(value: int, modulus: int) -> ResidueForm:
    """Write value as quotient * modulus + residue, 0 <= residue < modulus."""
    if modulus < 1:
        raise ValueError("modulus must be positive, got %d" % modulus)
    if value < 0:
        raise ValueError("value must be non-negative, got %d" % value)
    quotient, residue = divmod(value, modulus)
    return ResidueForm(value=value, modulus=modulus, quotient=quotient, residue=residue)


def lower_bound(n: int) -> int:
    """Trivial length lower bound C(n,2): one unit per induced difference."""
    if n < 1:
        raise ValueError("order must be positive, got %d" % n)
    return n * (n - 1) // 2
