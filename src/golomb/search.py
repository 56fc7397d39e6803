"""Exact optimal ruler search and the construction benchmark table.

Depth-first branch-and-bound in the style of the distributed.net OGR search.
Marks are placed left to right, and three Python ints serve as bitmaps:

- ``dist``: every difference used so far;
- ``lst``: the distances from the newest mark back to each earlier mark;
- ``comp``: the gaps that would repeat a difference if the next mark were
  placed that far beyond the newest one.

Placing the next mark at gap g updates them as ``lst' = (lst | 1) << g``,
``dist' = dist | lst'`` and ``comp' = (comp >> g) | dist'``.  The terms this
leaves out of ``comp'`` are differences between earlier marks, which are
already in ``dist``, so ``comp'`` is exact and the kernel visits only
admissible gaps, lowest first.

Mark d lies at or beyond G(d+1), unchecked: admissible marks 0..d form a
(d+1)-mark ruler.  Marks d..n-1 form a (k+1)-mark ruler, k = n-1-d, whose
differences avoid ``dist``, so they avoid F, the differences 1..16 in
``dist`` (key ``(dist >> 1) & 0xFFFF``), and span at least T_k(F), the
shortest span of a (k+1)-mark ruler with no difference in F.  Mark d
therefore lies at most at limit - T_k(F), one lookup per depth.

One list holds these bounds: ``tables[k]`` maps the key of F to T_k(F).  It
starts with T_0 = 0 and the tables of ``tails.bin``, exact for k = 1..7 and
every F.  ``golomb.tails`` builds them with this kernel: T_k(F) is the span
of the shortest ruler that an order-(k+1) search finds when it starts with F
in ``dist``, bounded by the tables of smaller k.  Since G(k) = T_{k-1}({}),
the list settles G(1..8), read as ``tables[k-1][0]``.  G(k) for k > 8 comes
from one pass through the larger orders, smallest first, with the same
kernel; each order k it proves appends G(k) for every F as table k-1.
Order n reads only tables[:n-2], G(k) for k <= n-2 (see ``_Search.run``), so
proving G(n) searches only the orders 9..n-2 first and skips G(n-1).

Each order's search starts at the length of its published optimum in
``_RECORDS``, inclusive: it re-finds the lex-min ruler of that length and
exhausts every shorter one, so the record decides no result.  Mirror
symmetry is broken by the first-gap bound in ``_Search.run``, and the
first-gap order yields the canonical ruler directly: from n = 3 every ruler
it records has its first gap below its last (a 2-mark ruler's one gap is
both), so the reported ruler is the lexicographically smallest mark
sequence among co-minimal ones.
"""

from __future__ import annotations

import functools
import os
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .core import Ruler, lower_bound
from .constructions import (
    cubic_bound,
    half_cubic_bound,
    pow2_bound,
    shifted_cubic_bound,
)

_TIME_CHECK_MASK = (1 << 12) - 1  # nodes between deadline checks, a few ms at n = 10
_KEY_BITS = 16  # the differences 1..16 of ``dist`` key the tail table
_KEYS = 1 << _KEY_BITS  # the length of one block of the tail table
_KEY_MASK = _KEYS - 1
_TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tails.bin")

# the published optimal ruler of each order up to 15, first gap below last
_RECORDS = {
    2: (0, 1), 3: (0, 1, 3), 4: (0, 1, 4, 6), 5: (0, 1, 4, 9, 11), 6: (0, 1, 4, 10, 12, 17),
    7: (0, 1, 4, 10, 18, 23, 25), 8: (0, 1, 4, 9, 15, 22, 32, 34),
    9: (0, 1, 5, 12, 25, 27, 35, 41, 44), 10: (0, 1, 6, 10, 23, 26, 34, 41, 53, 55),
    11: (0, 1, 4, 13, 28, 33, 47, 54, 64, 70, 72),
    12: (0, 2, 6, 24, 29, 40, 43, 55, 68, 75, 76, 85),
    13: (0, 2, 5, 25, 37, 43, 59, 70, 85, 89, 98, 99, 106),
    14: (0, 4, 6, 20, 35, 52, 59, 77, 78, 86, 89, 99, 122, 127),
    15: (0, 4, 20, 30, 57, 59, 62, 76, 100, 111, 123, 136, 144, 145, 151),
}
SEARCH_MAX_ORDER = max(_RECORDS)  # the search covers exactly the orders it has a record for


class _SearchConfigFields(NamedTuple):
    order: int
    time_limit: Optional[float]  # seconds
    parallelism: int  # accepted for compatibility; the search runs on one thread


class SearchConfig(_SearchConfigFields):
    __slots__ = ()

    def __new__(cls, order, time_limit=None, parallelism=1):
        if order < 2:
            raise ValueError("order must be at least 2, got %d" % order)
        if order > SEARCH_MAX_ORDER:
            raise ValueError(
                "exact search is limited to orders up to %d, got %d" % (SEARCH_MAX_ORDER, order)
            )
        if time_limit is not None and not time_limit >= 0:  # NaN too: no deadline would pass it
            raise ValueError("time_limit must be a non-negative number, got %r" % time_limit)
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        return super().__new__(cls, order, time_limit, parallelism)


class SearchResult(NamedTuple):
    ruler: Ruler
    length: int
    optimal: bool
    nodes_explored: int
    elapsed: float


@functools.cache
def _tail_tables() -> Tuple[bytes, ...]:
    """T_k(F) by k, from k = 0: table k maps the key of F to T_k(F).

    T_0 = 0.  ``tails.bin``, which ``golomb.tails`` builds, holds one
    65 536-byte table per k from k = 1 on; its length alone says how far k
    goes.  Callers copy this into a list to append the tables they prove.
    """
    with open(_TABLE_PATH, "rb") as fh:
        return (bytes(_KEYS), *iter(lambda: fh.read(_KEYS), b""))


class _Search:
    """Branch-and-bound over the rulers of order ``n``, bounded by ``tables[:n-2]``.

    Mark d reads table n-1-d, T_k with k = n-1-d, at the key of ``dist``;
    marks 0 and 1 read none.  ``limit`` is the largest length still worth
    finding; a ruler found at length L lowers it to L - 1, so among rulers
    of one length the first found, the lexicographically smallest, is kept.
    The deadline drops it to -1, so every loop ends at its next bound check.
    """

    def __init__(self, n: int, tables: Sequence, limit: int, deadline: Optional[float]):
        self.n = n
        self.blocks = [None, None, *tables[:n - 2][::-1]]
        self.limit = limit
        self.deadline = deadline
        self.best: Optional[Tuple[int, ...]] = None
        self.nodes = 0
        self.timed_out = False

    def run(self, forbidden: int = 0) -> "_Search":
        """Explore every ruler under the limit that avoids ``forbidden``, a bitmap like ``dist``.

        First gaps run in ascending order under a limit that only falls, so
        a ruler whose last gap is below its first has its mirror found
        first, which lowers the limit below its length; an equal last gap
        repeats a difference.  So from n = 3 every recorded ruler has its
        first gap below its last and is canonical as found.  Marks 1..n-2
        form an (n-2)-mark ruler that avoids ``forbidden``, so they span at
        least ``inner``, block 2 at its key (G(n-2) in the order pass), and
        twice the first gap fits in limit - inner; the bound is read again
        after each first gap.  It implies first gap <= limit - G(n-1)
        whenever limit >= 2 G(n-1) - G(n-2), so the search does without
        G(n-1).  At n = 2 the first gap is also the last, so it may take the
        whole limit.
        """
        inner, twice = (self.blocks[2][(forbidden >> 1) & _KEY_MASK], 2) if self.n > 2 else (0, 1)
        self._tick()
        gap = 1
        while twice * gap + inner <= self.limit:
            if not forbidden >> gap & 1:
                self._dfs(1, 0, 0, forbidden, forbidden, gap)
            gap += 1
        return self

    def _tick(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.timed_out = True
            self.limit = -1

    def _dfs(self, d: int, pos: int, lst: int, dist: int, comp: int, gap: int) -> None:
        """Place mark d at ``gap`` beyond ``pos``, then every admissible mark d + 1."""
        self.nodes += 1
        pos += gap
        lst = (lst | 1) << gap
        last = self.n - 1
        if d == last:
            self._record(pos, lst)
            return
        if not self.nodes & _TIME_CHECK_MASK:  # below the record, which would raise the limit again
            self._tick()
        dist |= lst
        comp = (comp >> gap) | dist
        d += 1
        tail = self.blocks[d][(dist >> 1) & _KEY_MASK]  # span still needed after mark d
        hi = self.limit - tail - pos
        if hi < 1:
            return
        free = ~comp & ((2 << hi) - 2)
        while free:
            bit = free & -free
            gap = bit.bit_length() - 1
            if gap > self.limit - tail - pos:
                return
            self._dfs(d, pos, lst, dist, comp, gap)
            free ^= bit

    def _record(self, span: int, lst: int) -> None:
        self.best = tuple(span - i for i in range(span, 0, -1) if lst >> i & 1) + (span,)
        self.limit = span - 1


def _search_orders(
    orders: Sequence[int], tables: list, deadline: Optional[float]
) -> List[_Search]:
    """Search the given orders in turn, each bounded by ``tables``.

    Order k reads T_0..T_{k-3}, which the file gives or an earlier order in
    ``orders`` appends: once order k is proved, G(k) = T_{k-1}({}) goes in as
    table k-1, the same for every key, if that is the next table.  Order k
    runs under the length of its record inclusive, so a finished search has
    found a ruler and leaves limit + 1 == G(k).  Once the deadline has
    passed, each later order stops at its first check with 0 nodes; a
    stopped order leaves limit + 1 == 0, a bound that holds but prunes nothing.
    """
    searches = []
    for k in orders:
        search = _Search(k, tables, _RECORDS[k][-1], deadline).run()
        searches.append(search)
        if k == len(tables) + 1:
            tables.append(bytes([search.limit + 1]) * _KEYS)
    return searches


def search_optimal(config: SearchConfig) -> SearchResult:
    """Find the shortest ruler of the given order, with an optimality proof.

    Order n reads G(2..n-2).  The tail table gives G(2..8); one pass
    through the orders proves the rest with the same kernel, then runs
    branch-and-bound at order n from its record; nodes are summed over the
    pass.
    If it completes, the result is optimal and the ruler is the
    lexicographically smallest among co-minimal ones; if the time limit
    expires, at order n or a smaller one, the result has optimal=False and
    the last ruler order n found, else the record it starts from.
    """
    n = config.order
    start = time.monotonic()
    deadline = start + config.time_limit if config.time_limit is not None else None

    tables = list(_tail_tables())
    searches = _search_orders([*range(len(tables) + 1, n - 1), n], tables, deadline)
    last = searches[-1]
    best = last.best or _RECORDS[n]
    return SearchResult(
        ruler=Ruler(best), length=best[-1], optimal=not last.timed_out,
        nodes_explored=sum(search.nodes for search in searches),
        elapsed=time.monotonic() - start,
    )


class BenchRow(NamedTuple):
    """One order's worth of construction lengths next to the exact optimum.

    The fields, in order, are the columns of ``golomb bench``.
    """

    n: int
    lower_bound: int
    optimal: Optional[int]
    pow2: Optional[int]
    thm1: int  # cubic construction
    thm1_nminus2: int  # triangular family at modulus n - 2
    thm2: int  # half-cubic construction


def compare_constructions(n_max: int, exact_cutoff: int = 9) -> List[BenchRow]:
    """Tabulate construction lengths against C(n,2) and the exact optimum.

    The optimum column is filled for n up to exact_cutoff and left unknown
    (None) beyond it.  The tail table gives G(2..8); one pass of exact
    search through the orders above 8 proves each of them once.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2, got %d" % n_max)
    top = min(n_max, exact_cutoff)
    if top > SEARCH_MAX_ORDER:
        raise ValueError("exact search is limited to orders up to %d" % SEARCH_MAX_ORDER)
    tables = list(_tail_tables())
    _search_orders(range(len(tables) + 1, top + 1), tables, None)
    rows = []
    for n in range(2, n_max + 1):
        rows.append(
            BenchRow(
                n=n,
                lower_bound=lower_bound(n),
                optimal=tables[n - 1][0] if n <= top else None,
                pow2=pow2_bound(n),
                thm1=cubic_bound(n),
                thm1_nminus2=shifted_cubic_bound(n),
                thm2=half_cubic_bound(n),
            )
        )
    return rows
