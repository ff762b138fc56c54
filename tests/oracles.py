"""Enumeration and direct-mixture oracles for the test suite.

Each oracle computes a quantity of the library by a second, independent
route: counting over all permutations, or mixing over the pooled rank
directly.  The enumerations are exact but factorial in cost, so each refuses
sizes above its budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from ovstat.combinatorics import CountParams
from ovstat.density import NuDensity, _assemble
from ovstat.overlap import OverlapSpec, ProbabilityTable, marginal_rank_probability
from ovstat.parent import ParentModel

MAX_BRUTEFORCE_LENGTH = 10
MAX_ORACLE_POOLED = 9


def count_matching_bruteforce(p: CountParams) -> int:
    """Exhaustive enumeration of all n! permutations; test oracle only.

    Raises ValueError above ``MAX_BRUTEFORCE_LENGTH`` items.
    """
    if min(p.r, p.s, p.t, p.k, p.ell) < 0 or p.k + p.ell > p.n:
        return 0
    n = p.n
    if n > MAX_BRUTEFORCE_LENGTH:
        raise ValueError(f"enumeration budget exceeded: {n} > {MAX_BRUTEFORCE_LENGTH}")
    first_cut = p.r
    last_cut = p.r + p.s
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        hits_last = sum(1 for v in perm[: p.k] if v > last_cut)
        if hits_last != p.i:
            continue
        hits_first = sum(1 for v in perm[: p.k + p.ell] if v <= first_cut)
        if hits_first == p.j:
            count += 1
    return count


def bruteforce_histogram(r: int, s: int, t: int, k: int, ell: int) -> dict[tuple[int, int], int]:
    """Histogram of (inner-prefix last-block hits, outer-prefix first-block
    hits) over all permutations, for sweep tests.

    One enumeration serves every (i, j) pair, which keeps full-range
    equivalence sweeps tractable.
    """
    n = r + s + t
    if n > MAX_BRUTEFORCE_LENGTH:
        raise ValueError(f"enumeration budget exceeded: {n} > {MAX_BRUTEFORCE_LENGTH}")
    if k + ell > n:
        raise ValueError("prefix lengths exceed the permutation length")
    first_cut = r
    last_cut = r + s
    hist: dict[tuple[int, int], int] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        hits_last = sum(1 for v in perm[:k] if v > last_cut)
        hits_first = sum(1 for v in perm[: k + ell] if v <= first_cut)
        key = (hits_last, hits_first)
        hist[key] = hist.get(key, 0) + 1
    return hist


def probability_table_bruteforce(spec: OverlapSpec) -> ProbabilityTable:
    """Exact table from enumerating all (n+r)! pooled rank assignments.

    Rank arithmetic only: each assignment determines which pooled ranks the
    two order statistics realise, so frequencies are exact rationals with no
    sampling or floating point involved.  Budget-limited test oracle.
    """
    N = spec.pooled_size
    if N > MAX_ORACLE_POOLED:
        raise ValueError(f"enumeration budget exceeded: {N} > {MAX_ORACLE_POOLED}")
    counts: dict[tuple[int, int], int] = {}
    for ranks in itertools.permutations(range(1, N + 1)):
        k = sorted(ranks[: spec.m])[spec.i - 1]
        ell = sorted(ranks[spec.r : spec.r + spec.n])[spec.j - 1]
        key = (k, ell)
        counts[key] = counts.get(key, 0) + 1
    total = math.factorial(N)
    entries = {
        (k, ell): Fraction(counts.get((k, ell), 0), total)
        for k in range(1, N + 1)
        for ell in range(1, N + 1)
    }
    return ProbabilityTable(spec=spec, entries=entries)


@functools.lru_cache(maxsize=4)
def _pooled_permutations(N: int):
    return np.array(list(itertools.permutations(range(1, N + 1))), dtype=np.int64)


def bruteforce_rank_histograms(r: int, m: int, n: int) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """Rank-pair counts for every (i, j) at once, from one enumeration.

    Returns {(i, j): {(k, ell): count}}; dividing by (n+r)! gives the exact
    table.  Amortises the factorial scan across all index pairs, which is what
    makes full verification sweeps affordable.
    """
    N = n + r
    if N > MAX_ORACLE_POOLED:
        raise ValueError(f"enumeration budget exceeded: {N} > {MAX_ORACLE_POOLED}")
    perms = _pooled_permutations(N)
    first = np.sort(perms[:, :m], axis=1)  # column i-1 = pooled rank of i-th os
    second = np.sort(perms[:, r : r + n], axis=1)
    out: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for i in range(1, m + 1):
        ki = first[:, i - 1]
        for j in range(1, n + 1):
            lj = second[:, j - 1]
            flat = np.bincount((ki - 1) * N + (lj - 1), minlength=N * N)
            out[(i, j)] = {
                (k, ell): int(flat[(k - 1) * N + (ell - 1)])
                for k in range(1, N + 1)
                for ell in range(1, N + 1)
                if flat[(k - 1) * N + (ell - 1)]
            }
    return out


def extension_density(i: int, m: int, j: int, n: int, model: ParentModel) -> NuDensity:
    """Joint nu-density of (i-th os of the first m draws, j-th os of all n).

    Direct mixture over the pooled rank of the subsample os: weight
    C(k-1, i-1) C(n-k, m-i) / C(n, m) on the pair (k, j); the k = j term is
    the diagonal atom.
    """
    if not (1 <= i <= m <= n and 1 <= j <= n):
        raise ValueError("need 1 <= i <= m <= n and 1 <= j <= n")
    cont = []
    atoms = []
    for k in range(i, i + n - m + 1):
        w = float(marginal_rank_probability(i, m, k, n))
        if w == 0.0:
            continue
        if k == j:
            atoms.append((k, w))
        else:
            cont.append((k, j, w))
    return _assemble(model, n, cont, atoms)
