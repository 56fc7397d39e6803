"""Build and check ``tails.bin``, the search's forbidden-difference tail table.

T_k(F) is the shortest span of a (k+1)-mark ruler none of whose differences
lies in F.  Here F is a set of differences in 1..16, keyed as the search keys
its ``dist`` bitmap: bit i - 1 of the key stands for difference i, so the key
is ``(dist >> 1) & 0xFFFF``.  The file holds T_k(F) for k = 1..7 as one byte
each, k's block of 65 536 bytes at offset (k - 1) * 65 536: 458 752 bytes.
The search reads how far k goes from the file's length, and G(k+1) as
T_k({}), the first byte of each block.

Each entry of every block k = 1..7 is exact, and each is one search that
reads only the blocks of smaller k, from T_0 = 0 on.  A k-mark ruler that
avoids F and spans T_{k-1}(F) gives a (k+1)-mark one of span
T_{k-1}(F) + max(T_{k-1}(F), 16) + 1: every difference the new mark adds
exceeds both 16 and the old span, so none is in F or repeats one.  From
that feasible length the search kernel, ``golomb.search._Search``, runs the
order-(k+1) search with F taken as differences already used and the marks
still to come bounded by the tables of smaller k.  Each ruler it finds
lowers its limit until no shorter one exists, so the last ruler found spans
T_k(F).

This is a maintenance tool, not part of the library's interface::

    python -m golomb.tails          # rewrite tails.bin
    python -m golomb.tails --check  # rebuild and compare byte for byte

A build takes 26-50 s of CPU on one core (2-core shared host, Python 3.11.7),
nearly all of it in the k = 6 and 7 blocks.
"""

from __future__ import annotations

import argparse
import sys

from .search import _KEY_BITS, _KEYS, _TABLE_PATH, _Search

K_MAX = 7


def _shortest(k: int, key: int, tables) -> int:
    """T_k(key), given ``tables`` holding T_0..T_{k-1}."""
    inner = tables[k - 1][key]  # T_{k-1}(F): one mark far beyond it gives a feasible length
    limit = inner + max(inner, _KEY_BITS) + 1
    return _Search(k + 1, tables, limit, None).run(key << 1).best[-1]


def build() -> bytes:
    """T_k(F) for k = 1..K_MAX and every key F, one byte each, k by k."""
    tables = [bytes(_KEYS)]  # T_0 = 0, which the file leaves out
    for k in range(1, K_MAX + 1):
        tables.append(bytes(_shortest(k, key, tables) for key in range(_KEYS)))
    return b"".join(tables[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m golomb.tails", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--check", action="store_true", help="rebuild and compare with the file")
    args = parser.parse_args(argv)
    data = build()
    if args.check:
        with open(_TABLE_PATH, "rb") as fh:
            same = fh.read() == data
        print("%s: %s" % (_TABLE_PATH, "matches" if same else "DIFFERS from a rebuild"))
        return 0 if same else 1
    with open(_TABLE_PATH, "wb") as fh:
        fh.write(data)
    print("%s: %d bytes written" % (_TABLE_PATH, len(data)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
