"""Exact integer combinatorics for permutations with prescribed block hits.

A permutation of ``n = r + s + t`` labelled items is split into three
consecutive blocks: the first block holds ``r`` items, the middle block
``s`` items and the last block ``t`` items.  The quantity computed here is
the number of permutations placing exactly ``i`` last-block items among the
first ``k`` positions and exactly ``j`` first-block items among the first
``k + ell`` positions.  These counts are the integer cores of the exact tie
probabilities in :mod:`ovstat.overlap`.

Everything in this module is exact integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def count_matching(p: CountParams) -> int:
    """Number of permutations satisfying the block-hit constraints of ``p``.

    Closed form: k! ell! (n-k-ell)! C(t,i) C(r,j) multiplied by a short sum
    of triple binomial products over the number of first-block items landing
    inside the inner prefix.  Degenerate parameter combinations come out as 0
    through the binomial zero convention.
    """
    r, s, t, k, ell, i, j = p.r, p.s, p.t, p.k, p.ell, p.i, p.j
    if min(r, s, t, k, ell, i, j) < 0:
        return 0
    n = r + s + t
    if k + ell > n:
        return 0
    head = binom(t, i) * binom(r, j)
    if head == 0:
        return 0
    acc = 0
    for m in range(max(0, j - ell), min(j, k - i) + 1):
        acc += binom(j, m) * binom(s, k - i - m) * binom(s + t + m - k, ell + m - j)
    return math.factorial(k) * math.factorial(ell) * math.factorial(n - k - ell) * head * acc

