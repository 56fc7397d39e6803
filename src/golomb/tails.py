"""Build and check ``tails.bin``, the search's forbidden-difference tail table.

T_k(F) is the shortest span of a (k+1)-mark ruler none of whose differences
lies in F.  Here F is a set of differences in 1..16, keyed as the search keys
its ``dist`` bitmap: bit i - 1 of the key stands for difference i, so the key
is ``(dist >> 1) & 0xFFFF``.  The file holds T_k(F) for k = 1..7 as one byte
each, k's block of 65 536 bytes at offset (k - 1) * 65 536: 458 752 bytes.
T_1(F) is the smallest difference missing from F, 17 when F holds all of
1..16.  The search reads how far k goes from the file's length, and G(k+1)
as T_k({}), the first byte of each block.

Each entry is exact.  T_k(F) is at least T_k(F') for every F' inside F, so
keys run in increasing order and each starts from the largest T_k(F without
one of its differences).  When a witness ruler of such a subset avoids all of
F, that is the answer; otherwise a depth-first search over marks, with F taken
as differences already used, looks for a ruler of each span from there up.
It bounds the marks still to come by the tables of smaller k.

This is a maintenance tool, not part of the library's interface::

    python -m golomb.tails          # rewrite tails.bin
    python -m golomb.tails --check  # rebuild and compare byte for byte

A build takes about 1 min 40 s on one core (2-core host, Python 3.11.7),
nearly all of it in the k = 6 and 7 blocks.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

KEY_BITS = 16
KEYS = 1 << KEY_BITS
K_MIN, K_MAX = 1, 7
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tails.bin")


def _tail(r: int, dist: int, tables) -> int:
    """T_r of the differences in ``dist``, from the tables built so far.

    T_1 is the smallest positive integer whose bit is clear, and T_0 is 0.
    """
    if r >= 2:
        return tables[r][(dist >> 1) & (KEYS - 1)]
    free = ~(dist | 1)
    return (free & -free).bit_length() - 1 if r else 0


def _reach(r: int, pos: int, lst: int, dist: int, comp: int, limit: int, tables) -> int:
    """Place r more marks beyond ``pos`` within ``limit``, in the search's bitmaps.

    Returns the final ``dist`` of the first ruler found, or 0.  The marks from
    ``pos`` on form an (r+1)-mark ruler avoiding ``dist``, so they span at
    least T_r(dist).
    """
    if r == 1:
        free = ~(comp | 1)
        gap = (free & -free).bit_length() - 1
        return dist | (lst | 1) << gap if pos + gap <= limit else 0
    if pos + _tail(r, dist, tables) > limit:
        return 0
    hi = limit - pos - _tail(r - 1, 0, tables)  # the marks after the next span G(r)
    free = ~comp & ((2 << hi) - 2)
    while free:
        bit = free & -free
        free ^= bit
        gap = bit.bit_length() - 1
        nlst = (lst | 1) << gap
        ndist = dist | nlst
        found = _reach(r - 1, pos + gap, nlst, ndist, (comp >> gap) | ndist, limit, tables)
        if found:
            return found
    return 0


def _shortest(k: int, key: int, start: int, tables) -> tuple:
    """T_k(key) and the key of a witness's own differences, from span ``start`` up.

    ``start`` must be a lower bound.  A ruler and its mirror image avoid the
    same differences, so the first gap is below the last: twice the first gap
    plus one fits in the span less that of the k - 1 marks between them.
    """
    dist = key << 1
    inner = _tail(k - 2, dist, tables)
    limit = start
    while True:
        free = ~dist & ((2 << max((limit - inner - 1) // 2, 0)) - 2)
        while free:
            bit = free & -free
            free ^= bit
            gap = bit.bit_length() - 1
            lst = 1 << gap
            ndist = dist | lst
            found = _reach(k - 1, gap, lst, ndist, (dist >> gap) | ndist, limit, tables)
            if found:
                return limit, (found >> 1) & (KEYS - 1) & ~key
        limit += 1


def build() -> bytes:
    """T_k(F) for k = K_MIN..K_MAX and every key F, one byte each, k by k."""
    tables: List = [None, bytes(_tail(1, key << 1, None) for key in range(KEYS))]
    for k in range(2, K_MAX + 1):
        table = bytearray(KEYS)
        witness = [0] * KEYS  # the key of a shortest ruler's own differences
        for key in range(KEYS):
            subs = [key & ~(1 << i) for i in range(KEY_BITS) if key >> i & 1]
            start = max([table[sub] for sub in subs], default=k)  # k + 1 marks span >= k
            for sub in subs:
                if table[sub] == start and not witness[sub] & key:
                    table[key], witness[key] = start, witness[sub]
                    break
            else:
                table[key], witness[key] = _shortest(k, key, start, tables)
        tables.append(bytes(table))
    return b"".join(tables[K_MIN:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m golomb.tails", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--check", action="store_true", help="rebuild and compare with the file")
    args = parser.parse_args(argv)
    data = build()
    if args.check:
        with open(PATH, "rb") as fh:
            same = fh.read() == data
        print("%s: %s" % (PATH, "matches" if same else "DIFFERS from a rebuild"))
        return 0 if same else 1
    with open(PATH, "wb") as fh:
        fh.write(data)
    print("%s: %d bytes written" % (PATH, len(data)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
