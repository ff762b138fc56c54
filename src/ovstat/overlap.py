"""Exact tie probabilities for order statistics from two overlapping samples.

Two samples share a block of observations: the original sample occupies
positions ``1..m`` and the shifted sample positions ``r+1..r+n`` of a pooled
iid sequence, so they overlap in ``m - r`` positions.  Writing ``N = n + r``
for the pooled size, the i-th order statistic of the original sample and the
j-th order statistic of the shifted sample each coincide with some order
statistic of the pooled sample, and

    p(k, ell) = P(first os realises pooled rank k, second realises rank ell)

is an exact rational number depending only on the integer geometry.  This
module evaluates the closed-form expression for ``p(k, ell)`` (cases k < ell
and k = ell from the block-hit sums of :mod:`ovstat.combinatorics`, k > ell
as k < ell with the samples exchanged) over the whole support rectangle in
one pass: each cell is a small numerator over its own cancelled denominator,
every binomial a cell of one Pascal triangle for rows 0..N, and each
block-hit sum one dot product with weights formed once per row.

All probabilities are `fractions.Fraction` values; nothing is rounded.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .combinatorics import binom, block_hit_sum, pascal_rows

__all__ = [
    "OverlapSpec",
    "ProbabilityTable",
    "rank_match_probability",
    "marginal_rank_probability",
    "probability_table",
]


@dataclass(frozen=True)
class OverlapSpec:
    """Geometry of two overlapping samples and the two order-statistic indices.

    ``r``      size of the non-shared prefix (the second sample starts at
               position r+1); r = 0 means the second sample extends the first.
    ``m``      size of the original sample, positions 1..m.
    ``n``      size of the shifted sample, positions r+1..r+n.
    ``i``      order-statistic index within the original sample, 1 <= i <= m.
    ``j``      order-statistic index within the shifted sample, 1 <= j <= n.

    The samples must overlap (r < m) and the pooled sequence must cover both
    (m <= n + r).  The three pooled blocks then have sizes
    ``|A| = r``, ``|B| = m - r >= 1`` and ``|C| = n + r - m >= 0``.
    """

    r: int
    m: int
    n: int
    i: int
    j: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if self.m < 1 or self.n < 1:
            raise ValueError("sample sizes must be >= 1")
        if self.r >= self.m:
            raise ValueError("samples do not overlap: need r < m")
        if self.m > self.n + self.r:
            raise ValueError("original sample sticks out of the pooled sample: need m <= n + r")
        if not 1 <= self.i <= self.m:
            raise ValueError("need 1 <= i <= m")
        if not 1 <= self.j <= self.n:
            raise ValueError("need 1 <= j <= n")

    @property
    def pooled_size(self) -> int:
        return self.n + self.r

    @property
    def block_sizes(self) -> tuple[int, int, int]:
        """Sizes of the prefix-only, shared and suffix-only blocks."""
        return self.r, self.m - self.r, self.n + self.r - self.m

    @property
    def k_support(self) -> range:
        """Pooled ranks the first order statistic can realise."""
        return range(self.i, self.i + self.n + self.r - self.m + 1)

    @property
    def ell_support(self) -> range:
        """Pooled ranks the second order statistic can realise."""
        return range(self.j, self.j + self.r + 1)

    def swapped(self) -> OverlapSpec:
        """The pooled sequence read backwards: the samples exchange roles.

        Always valid, same pooled size; p(k, ell) here is p(ell, k) there.
        """
        return OverlapSpec(self.n + self.r - self.m, self.n, self.m, self.j, self.i)


def marginal_rank_probability(i: int, m: int, k: int, n: int) -> Fraction:
    """P(the i-th os of an m-subsample equals the k-th os of the full n-sample).

    Equals C(k-1, i-1) C(n-k, m-i) / C(n, m) for i <= k <= n - m + i and 0
    otherwise.  The subsample may be any fixed m of the n iid draws.
    """
    if not (1 <= i <= m <= n and 1 <= k <= n):
        raise ValueError("need 1 <= i <= m <= n and 1 <= k <= n")
    if not i <= k <= n - m + i:
        return Fraction(0)
    return Fraction(binom(k - 1, i - 1) * binom(n - k, m - i), binom(n, m))


def rank_match_probability(spec: OverlapSpec, k: int, ell: int) -> Fraction:
    """Exact P(first os has pooled rank k, second has pooled rank ell).

    The cell of the shared table of ``spec`` (see `probability_table`); zero
    outside the support rectangle i <= k <= i + n + r - m, j <= ell <= j + r.
    """
    if not (1 <= k <= spec.pooled_size and 1 <= ell <= spec.pooled_size):
        raise ValueError("ranks must lie in 1..n+r")
    return cached_table(spec)[(k, ell)]


def _upper_half(a: int, b: int, c: int, i: int, j: int, n: int, rows: list[list[int]]) -> dict:
    """(numerator, denominator) of p(k, ell) on the support cells with k <= ell
    of block sizes (a, b, c) and indices i, j, n.  With the block-hit sums S,
    S_a, S_b (`block_hit_sum`), p(k, k) = b C(c, k-i) C(a, k-j) S / (k C(N, k))
    and, for k < ell, p(k, ell) = (n-j+1) C(c, k-i) (b C(a, ell-j) S_b +
    a C(a-1, ell-j-1) S_a) / (k (N-k) C(N, k) C(N-k-1, ell-k-1)).
    """
    N, out = a + b + c, {}
    for k in range(i, min(i + c, j + a) + 1):  # no cell with k <= ell past k = j + a
        head, den = rows[c][k - i], k * rows[N][k]
        if k >= j:
            lo, w = block_hit_sum(rows, b - 1, c, k - 1, k - i, j - k)
            out[(k, k)] = (b * head * rows[a][k - j] * sum(map(mul, rows[k - j][lo:], w)), den)
        lo_a, w_a = block_hit_sum(rows, b, c, k - 1, k - i, j - k)
        lo_b, w_b = block_hit_sum(rows, b - 1, c, k - 1, k - i, j - k - 1)
        head, den = (n - j + 1) * head, (N - k) * den
        for ell in range(max(k + 1, j), j + a + 1):
            acc = b * rows[a][ell - j] * sum(map(mul, rows[ell - j][lo_b:], w_b))
            if ell > j:
                acc += a * rows[a - 1][ell - j - 1] * sum(map(mul, rows[ell - j - 1][lo_a:], w_a))
            out[(k, ell)] = (head * acc, den * rows[N - k - 1][ell - k - 1])
    return out


@dataclass(frozen=True)
class ProbabilityTable:
    """Rank-pair probabilities of one geometry over its support rectangle;
    ``table[(k, ell)]`` is 0 on every other cell of the N x N grid."""

    spec: OverlapSpec
    entries: dict[tuple[int, int], Fraction] = field(repr=False)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.entries.get(key, _ZERO)

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def diagonal_mass(self) -> Fraction:
        """Probability that the two order statistics coincide."""
        return sum((p for (k, ell), p in self.entries.items() if k == ell), Fraction(0))

    def row_marginal(self, k: int) -> Fraction:
        return sum((p for (row, _), p in self.entries.items() if row == k), Fraction(0))

    def col_marginal(self, ell: int) -> Fraction:
        return sum((p for (_, col), p in self.entries.items() if col == ell), Fraction(0))

    def nonzero(self) -> dict[tuple[int, int], Fraction]:
        return {kl: p for kl, p in self.entries.items() if p != 0}

    def rows(self):
        """``(k, ell, num, den, decimal)`` for every cell of the N x N grid, k-major.

        The one cell formatter of both outputs: `to_csv_rows` lists these
        tuples, `to_json_dict` zips each with `CELL_FIELDS`, and `write_json`
        writes each as one entry, byte for byte as ``json.dumps(..., indent=2)``
        writes that dict.  ``decimal`` is ``"0"`` for a zero cell, else
        ``float(p)`` to 12 significant digits.
        """
        get, N = self.entries.get, self.spec.pooled_size
        for k in range(1, N + 1):
            for ell in range(1, N + 1):
                p = get((k, ell))  # a zero inside the rectangle formats as "0" too
                yield (k, ell, 0, 1, "0") if p is None else (k, ell, p.numerator, p.denominator, f"{float(p):.12g}")

    def _json_ends(self) -> tuple[dict, dict]:
        """The JSON form's keys before and after ``entries``."""
        s, total = self.spec, self.total()
        head = {"spec": {"r": s.r, "m": s.m, "n": s.n, "i": s.i, "j": s.j}, "pooled_size": s.pooled_size}
        return head, {"total": {"num": total.numerator, "den": total.denominator}}

    def to_json_dict(self) -> dict:
        head, tail = self._json_ends()
        return {**head, "entries": [dict(zip(CELL_FIELDS, cell)) for cell in self.rows()], **tail}

    def write_json(self, handle, **extra) -> None:
        """Write ``json.dumps({**self.to_json_dict(), **extra}, indent=2)``
        to ``handle``, byte for byte, with one ``handle.write`` per grid row.

        No entry dict is built: each entry is `_JSON_ENTRY` filled from `rows`,
        whose fields are ints and ASCII decimal strings that JSON does not
        escape.  The keys around the entries, ``extra`` last, are ``json.dumps``
        of small dicts.  ``extra`` may not repeat a key of the table.
        """
        head, tail = self._json_ends()
        clash = extra.keys() & {*head, "entries", *tail}
        if clash:
            raise ValueError(f"extra keys repeat table keys: {sorted(clash)}")
        # splice the entries between the head without its closing "\n}" and the tail without its opening "{\n"
        handle.write(json.dumps(head, indent=2)[:-2] + ',\n  "entries": [')
        cells, N, sep = self.rows(), self.spec.pooled_size, ""
        for _ in range(N):
            handle.write(sep + ",".join(_JSON_ENTRY % cell for cell in itertools.islice(cells, N)))
            sep = ","
        handle.write("\n  ],\n" + json.dumps({**tail, **extra}, indent=2)[2:])

    def to_json(self) -> str:
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    def to_csv_rows(self) -> list[tuple]:
        return [CELL_FIELDS, *self.rows()]


CELL_FIELDS = ("k", "ell", "num", "den", "decimal")
_JSON_ENTRY = '\n    {\n      "k": %d,\n      "ell": %d,\n      "num": %d,\n      "den": %d,\n      "decimal": "%s"\n    }'
_ZERO = Fraction(0)


def probability_table(spec: OverlapSpec) -> ProbabilityTable:
    """A fresh table of the support rectangle; entries sum exactly to 1.  The
    k > ell half is the k <= ell half of the samples exchanged (blocks c, b, a,
    indices j, i); the triangle is dropped after."""
    (a, b, c), rows = spec.block_sizes, pascal_rows(spec.pooled_size)
    upper, lower = _upper_half(a, b, c, spec.i, spec.j, spec.n, rows), _upper_half(c, b, a, spec.j, spec.i, spec.m, rows)
    cells = itertools.product(spec.k_support, spec.ell_support)  # k-major
    entries = {(k, ell): Fraction(*(upper[(k, ell)] if k <= ell else lower[(ell, k)])) for k, ell in cells}
    return ProbabilityTable(spec=spec, entries=entries)


@functools.lru_cache(maxsize=512)
def cached_table(spec: OverlapSpec) -> ProbabilityTable:
    """One shared table per geometry for the library's callers; never modified."""
    # not lru_cache(probability_table): a replaced global still sees the misses
    return probability_table(spec)

