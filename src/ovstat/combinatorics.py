"""Exact integer combinatorics for permutations with prescribed block hits.

A permutation of ``n = r + s + t`` labelled items is split into three
consecutive blocks: the first block holds ``r`` items, the middle block
``s`` items and the last block ``t`` items.  The quantity computed here is
the number of permutations placing exactly ``i`` last-block items among the
first ``k`` positions and exactly ``j`` first-block items among the first
``k + ell`` positions.  These counts are the integer cores of the exact tie
probabilities in :mod:`ovstat.overlap`.

Its inner sum is one dot product of a Pascal-triangle row with weights read
from the same triangle (`block_hit_sum`), in `count_matching` and every table cell.

Everything in this module is exact integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul

__all__ = [
    "CountParams",
    "binom",
    "falling_factorial",
    "count_matching",
]


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) with the convention 0 when b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def falling_factorial(a: int, b: int) -> int:
    """Product a (a-1) ... (a-b+1); equals 1 for b = 0."""
    if b < 0:
        raise ValueError("falling_factorial needs b >= 0")
    out = 1
    for step in range(b):
        out *= a - step
    return out


@dataclass(frozen=True)
class CountParams:
    """Parameters of the block-hit counting problem.

    ``r``, ``s``, ``t`` are the block sizes, ``k`` and ``ell`` the prefix
    lengths (inner prefix of ``k`` positions, outer prefix of ``k + ell``),
    ``i`` and ``j`` the required numbers of last-block and first-block items
    in the inner and outer prefix respectively.
    """

    r: int
    s: int
    t: int
    k: int
    ell: int
    i: int
    j: int

    @property
    def n(self) -> int:
        return self.r + self.s + self.t

    def swapped(self) -> "CountParams":
        """The equivalent parameters obtained by reading the permutation
        from the back: suffix constraints on the complementary hit counts."""
        return CountParams(
            r=self.t,
            s=self.s,
            t=self.r,
            k=self.n - self.k - self.ell,
            ell=self.ell,
            i=self.r - self.j,
            j=self.t - self.i,
        )


def pascal_rows(n: int) -> list[list[int]]:
    """Rows 0..n of Pascal's triangle, built by addition: ``rows[a][b] = C(a, b)``."""
    rows = [[1]]
    for _ in range(n):
        rows.append([1, *map(add, rows[-1], rows[-1][1:]), 1])
    return rows


def block_hit_sum(rows: list[list[int]], s: int, t: int, k: int, i: int, gap: int) -> tuple[int, list[int]]:
    """``(lo, w)`` with sum_m C(j, m) C(s, k-i-m) C(s+t+m-k, ell+m-j) =
    ``sum(map(mul, rows[j][lo:], w))`` for every j and ell = j + gap; s, t, i >= 0.

    The third binomial is C(s+t-k+m, d) with d = s+t-k-gap, so the weights of
    C(j, m) are free of j; ``rows`` (`pascal_rows`) must reach row s+t-i.
    """
    d = s + t - k - gap
    lo = max(0, -gap, k - i - s)
    return lo, [rows[s][k - i - m] * rows[s + t - k + m][d] for m in range(lo, k - i + 1)] if d >= 0 else []


def count_matching(p: CountParams) -> int:
    """Number of permutations satisfying the block-hit constraints of ``p``.

    Closed form: k! ell! (n-k-ell)! C(t,i) C(r,j) multiplied by a short sum
    of triple binomial products over the number of first-block items landing
    inside the inner prefix (`block_hit_sum`).  Degenerate parameter
    combinations come out as 0.
    """
    r, s, t, k, ell, i, j, n = p.r, p.s, p.t, p.k, p.ell, p.i, p.j, p.n
    if min(r, s, t, k, ell, i, j) < 0 or k + ell > n or i > t or j > r:
        return 0
    rows = pascal_rows(n)
    lo, w = block_hit_sum(rows, s, t, k, i, ell - j)
    acc = sum(map(mul, rows[j][lo:], w))
    return math.factorial(k) * math.factorial(ell) * math.factorial(n - k - ell) * rows[t][i] * rows[r][j] * acc
