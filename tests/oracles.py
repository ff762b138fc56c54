"""Enumeration, direct-mixture and reference-kernel oracles for the test suite.

Each oracle computes a quantity of the library by a second, independent
route: counting over all permutations, mixing over the pooled rank
directly, or the per-cell closed form with one ``math.comb`` per binomial
that the one-pass table build replaces, and the per-rank-pair trinomial
sum that the rectangle law's matrix form replaces, and the table's CSV
rows as the list of per-cell tuples that the row generator replaces.  The
enumerations are exact but factorial in cost, so each refuses sizes above
its budget.  The Monte Carlo
oracles are the straightforward sort-per-row sampler, mask-based rectangle
counts and the whole-sample ``verify_spec`` built on them, which the streamed
kernels in ``ovstat.mc`` must reproduce bit for bit, and mask-based binning
on the sampler's levels, which the streamed bin sums must match to rounding.
The reconstruction oracles are the scipy versions of the adjacent-gap route
(``quad`` per grid panel on a ``PchipInterpolator``) and of the single-draw
slope route (``brentq`` per point), and the mirrored min- and
max-regression bodies that the single-draw kernel's two ends replace.  The
regression oracle is the per-term rank mixture, which builds every term's
beta kernel and converts every table cell at each point, that the cached
per-geometry kernels of ``ovstat.regression`` replace.  The nu-mass oracle is
the 2-D Gauss-Legendre quadrature of the assembled density that the
library's duality audit and weight total replace.  The per-term density
oracles evaluate a ``NuDensity`` one weighted term at a time, masking each by
its half-plane, which its one kernel sum per half-plane replaces.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from ovstat._tanh_sinh import X as TANH_SINH_NODES
from ovstat.combinatorics import CountParams, binom
from ovstat.curve import Curve
from ovstat.density import NuDensity, _os_kernel, _pair_kernel, rectangle_probability as _rectangle_law
from ovstat.mc import _RECTANGLE_LEVELS, Comparison, MCReport, PairSample, _chunk_ranges, _level_edges
from ovstat.overlap import OverlapSpec, ProbabilityTable, cached_table, marginal_rank_probability
from ovstat.parent import U_MIN, ParentModel, uniform
from ovstat.reconstruct import _SLACK, ReconstructionError, ReconstructionResult, _derivative, _finish
from ovstat.regression import _beta_kernel, _integral, _integral_above

MAX_BRUTEFORCE_LENGTH = 10
MAX_ORACLE_POOLED = 9

# every valid geometry with r <= 3 and m, n <= 6: the benchmark's small tables
SMALL_SPECS = [
    OverlapSpec(r, m, n, i, j)
    for r in range(4)
    for m in range(1, 7)
    for n in range(1, 7)
    if r < m <= n + r
    for i in range(1, m + 1)
    for j in range(1, n + 1)
]


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


def count_matching_reference(p: CountParams) -> int:
    """`ovstat.combinatorics.count_matching` term by term, one ``binom`` per factor."""
    r, s, t, k, ell, i, j = p.r, p.s, p.t, p.k, p.ell, p.i, p.j
    if min(r, s, t, k, ell, i, j) < 0 or k + ell > p.n:
        return 0
    acc = sum(
        binom(j, m) * binom(s, k - i - m) * binom(s + t + m - k, ell + m - j)
        for m in range(max(0, j - ell), min(j, k - i) + 1)
    )
    fact = math.factorial
    return fact(k) * fact(ell) * fact(p.n - k - ell) * binom(t, i) * binom(r, j) * acc


def rank_match_probability_reference(spec: OverlapSpec, k: int, ell: int) -> Fraction:
    """p(k, ell) cell by cell from `count_matching_reference`; k > ell through the swapped spec."""
    if k > ell:
        return rank_match_probability_reference(spec.swapped(), ell, k)
    if k not in spec.k_support or ell not in spec.ell_support:
        return Fraction(0)
    a, b, c = spec.block_sizes
    N, n, i, j = spec.pooled_size, spec.n, spec.i, spec.j
    count = count_matching_reference
    if k == ell:
        return Fraction(b * count(CountParams(a, b - 1, c, k - 1, 0, k - i, k - j)), math.factorial(N))
    num = (n - j + 1) * (
        a * count(CountParams(a - 1, b, c, k - 1, ell - k - 1, k - i, ell - j - 1))
        + b * count(CountParams(a, b - 1, c, k - 1, ell - k - 1, k - i, ell - j))
    )
    return Fraction(num, (N - ell + 1) * math.factorial(N))


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


def probability_table_csv_rows(table: ProbabilityTable) -> list[tuple]:
    """The table's CSV rows as a list of per-cell tuples over the N x N grid,
    the form `ProbabilityTable.to_csv_rows` had before its row generator."""
    N = table.spec.pooled_size
    rows: list[tuple] = [("k", "ell", "num", "den", "decimal")]
    for k in range(1, N + 1):
        for ell in range(1, N + 1):
            p = table.entries.get((k, ell), Fraction(0))
            decimal = "0" if p == 0 else f"{float(p):.12g}"
            rows.append((k, ell, p.numerator, p.denominator, decimal))
    return rows


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
    return NuDensity(model, n, tuple(cont), tuple(atoms))


def per_term_continuous(d: NuDensity, x, y) -> float | np.ndarray:
    """``d.continuous`` one term at a time: each weighted kernel times f(x) f(y),
    added where its half-plane holds, the form before the per-half-plane sums."""
    model, N = d.model, d.pooled_size
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    u, v = np.asarray(model.cdf(xa), dtype=float), np.asarray(model.cdf(ya), dtype=float)
    px, py = np.asarray(model.pdf(xa), dtype=float), np.asarray(model.pdf(ya), dtype=float)
    out = np.zeros(np.broadcast(xa, ya).shape)
    for k, ell, w in d.continuous_terms:
        if k < ell:
            out = np.where(xa < ya, out + w * _pair_kernel(N, k, ell, u, v) * px * py, out)
        else:
            out = np.where(xa > ya, out + w * _pair_kernel(N, ell, k, v, u) * px * py, out)
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def per_term_atom(d: NuDensity, x) -> float | np.ndarray:
    """``d.atom`` one term at a time, each weighted kernel times f(x)."""
    xa = np.asarray(x, dtype=float)
    u, px = np.asarray(d.model.cdf(xa), dtype=float), np.asarray(d.model.pdf(xa), dtype=float)
    out = np.zeros(np.shape(xa))
    for k, w in d.atom_terms:
        out = out + w * _os_kernel(d.pooled_size, k, u) * px
    return float(out) if np.ndim(x) == 0 else out


def nu_mass_quadrature(d: NuDensity, order: int) -> float:
    """nu-mass of the assembled density by Gauss-Legendre in quantile coordinates.

    Each off-diagonal triangle is mapped onto the unit square (one coordinate
    rescaled by the other), under which the os kernels stay polynomial, so an
    order of N / 2 or more integrates them exactly where f(Q(u)) q(u) = 1.
    It reads ``continuous`` and ``atom`` themselves, so it covers the kernels
    and the k > ell exchange, which the library's weight total does not.
    """
    model = d.model
    z, wz = np.polynomial.legendre.leggauss(order)
    z, wz = 0.5 * (z + 1.0), 0.5 * wz
    wgt = np.repeat(wz, order) * np.tile(wz, order)
    outer = np.repeat(z, order)
    inner = outer * np.tile(z, order)
    total = 0.0
    # upper triangle u < v with u = v*s, then lower triangle u > v with v = u*s;
    # the Jacobian of either map is the outer coordinate
    for u, v in ((inner, outer), (outer, inner)):
        g = d.continuous(model.quantile(u), model.quantile(v)) * model.quantile_density(u) * model.quantile_density(v)
        total += float(np.sum(wgt * g * outer))
    return total + float(np.sum(wz * d.atom(model.quantile(z)) * model.quantile_density(z)))


def _uniform_os_pair_cdf(k: int, ell: int, N: int, a: float, b: float) -> float:
    """P(U_{k:N} <= a, U_{ell:N} <= b) for iid uniforms; exact trinomial sum."""
    a = min(max(a, 0.0), 1.0)
    b = min(max(b, 0.0), 1.0)
    if a > b:
        return _uniform_os_pair_cdf(ell, k, N, b, a)
    total = 0.0
    for s_cnt in range(k, N + 1):
        inner = 0.0
        for t_cnt in range(max(s_cnt, ell), N + 1):
            inner += (
                binom(N - s_cnt, t_cnt - s_cnt)
                * (b - a) ** (t_cnt - s_cnt)
                * (1.0 - b) ** (N - t_cnt)
            )
        total += binom(N, s_cnt) * a**s_cnt * inner
    return total


def rectangle_probability(spec: OverlapSpec, model: ParentModel, x: float, y: float) -> float:
    """P(first os <= x, second os <= y) as the mixture over the table's rank
    pairs, each weight times the joint cdf of the two pooled uniform os's."""
    a = float(model.cdf(x))
    b = float(model.cdf(y))
    N = spec.pooled_size
    cells = cached_table(spec).nonzero().items()
    return sum(float(p) * _uniform_os_pair_cdf(k, ell, N, a, b) for (k, ell), p in cells)


def simulate_chunk(spec: OverlapSpec, model: ParentModel, size: int, seed: int, index: int):
    """One chunk of the sort-per-row sampler: whole-row sorts and N-column rank counts.

    Returns x, y, their ranks and the levels of x and y (their uniforms before the quantile)."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )
    N = spec.pooled_size
    u = rng.random((size, N))
    xu = np.sort(u[:, : spec.m], axis=1)[:, spec.i - 1]
    yu = np.sort(u[:, spec.r : spec.r + spec.n], axis=1)[:, spec.j - 1]
    rank_x = (u <= xu[:, None]).sum(axis=1).astype(np.int16)
    rank_y = (u <= yu[:, None]).sum(axis=1).astype(np.int16)
    x = np.asarray(model.quantile(np.clip(xu, U_MIN, 1.0 - U_MIN)), dtype=float)
    y = np.asarray(model.quantile(np.clip(yu, U_MIN, 1.0 - U_MIN)), dtype=float)
    return x, y, rank_x, rank_y, xu, yu


def simulate_pairs(
    spec: OverlapSpec,
    model: ParentModel,
    count: int,
    seed: int,
    chunk_size: int = 1_000_000,
    workers: int | None = None,
) -> PairSample:
    """The sort-per-row sampler, chunks run serially and concatenated.

    The stream depends on the chunk partition only, so ``workers`` is ignored.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    x, y, rank_x, rank_y, _, _ = _whole_sample(spec, model, count, seed, chunk_size)
    return PairSample(spec=spec, model_name=model.name, seed=seed, x=x, y=y, rank_x=rank_x, rank_y=rank_y)


def _whole_sample(spec, model, count, seed, chunk_size):
    parts = [simulate_chunk(spec, model, hi - lo, seed, idx) for idx, (lo, hi) in enumerate(_chunk_ranges(count, chunk_size))]
    return [np.concatenate(column) for column in zip(*parts)]


def level_binned_means(
    spec: OverlapSpec,
    model: ParentModel,
    count: int,
    seed: int,
    difference: bool = False,
    bins: int = 50,
    trim: tuple[float, float] = (0.05, 0.95),
    chunk_size: int = 1_000_000,
):
    """Count, mean and standard error of x (or of x - y) per level bin of y, one mask per bin.

    Bin b holds the draws whose level of y lies in [edges[b], edges[b+1]).
    """
    x, y, _, _, _, yu = _whole_sample(spec, model, count, seed, chunk_size)
    values = x - y if difference else x
    edges = _level_edges(spec, np.linspace(*trim, bins + 1))
    counts, means, ses = [], [], []
    for lo, hi in zip(edges, edges[1:]):
        kept = values[(yu >= lo) & (yu < hi)]
        counts.append(len(kept))
        means.append(kept.mean())
        ses.append(kept.std() / math.sqrt(len(kept)))
    return edges, np.array(counts), np.array(means), np.array(ses)


def rectangle_frequencies(x: np.ndarray, y: np.ndarray, x_levels, y_levels) -> np.ndarray:
    """Empirical P(X <= x0, Y <= y0) on a grid, one mask per rectangle."""
    return np.array(
        [[float(np.mean((x <= x0) & (y <= y0))) for y0 in y_levels] for x0 in x_levels]
    )


def verify_spec(
    spec: OverlapSpec,
    model: ParentModel,
    count: int = 10**6,
    seed: int = 0,
    zmax: float = 4.0,
    chunk_size: int = 1_000_000,
    workers: int | None = None,
) -> MCReport:
    """`ovstat.mc.verify_spec` over a stored sample of the sort-per-row sampler.

    The tie table comes from one ``bincount`` of the sample's rank pairs and
    the rectangles from one mask each on the sample's levels, against the
    law of the uniform parent at the levels.  The stream depends on the chunk
    partition only, so ``workers`` is ignored.
    """
    _, _, rank_x, rank_y, xu, yu = _whole_sample(spec, model, count, seed, chunk_size)
    table = cached_table(spec)
    N = spec.pooled_size
    flat = np.bincount((rank_x.astype(np.int64) - 1) * N + (rank_y.astype(np.int64) - 1), minlength=N * N)
    freqs = {(k, ell): int(flat[(k - 1) * N + (ell - 1)]) / count for k in range(1, N + 1) for ell in range(1, N + 1) if flat[(k - 1) * N + (ell - 1)]}
    comparisons: list[Comparison] = []

    support = table.nonzero()
    for (k, ell), p in sorted(support.items()):
        pf = float(p)
        emp = freqs.get((k, ell), 0.0)
        se = math.sqrt(pf * (1.0 - pf) / count)
        comparisons.append(Comparison(f"tie[k={k},ell={ell}]", pf, emp, se))
    violations = sum(f for kl, f in freqs.items() if kl not in support)
    comparisons.append(Comparison("support-violations", 0.0, violations, 0.0))

    diag = float(table.diagonal_mass())
    comparisons.append(
        Comparison(
            "diagonal-mass",
            diag,
            float(np.mean(rank_x == rank_y)),
            math.sqrt(diag * (1.0 - diag) / count) if 0.0 < diag < 1.0 else 0.0,
        )
    )

    levels = _RECTANGLE_LEVELS
    frequencies = rectangle_frequencies(xu, yu, levels, levels)
    probs = _rectangle_law(spec, uniform(), levels[:, None], levels[None, :])
    for a, b in np.ndindex(probs.shape):
        p, emp = float(probs[a, b]), float(frequencies[a, b])
        se = math.sqrt(p * (1.0 - p) / count) if 0.0 < p < 1.0 else 0.0
        comparisons.append(Comparison(f"rect[u={levels[a]:.3f},v={levels[b]:.3f}]", p, emp, se))

    return MCReport(
        title=f"tie table and rectangles, spec {spec}",
        model_name=model.name,
        sample_count=count,
        seed=seed,
        zmax=zmax,
        comparisons=comparisons,
    )


def from_adjacent_regression(
    h: Curve | Callable[[float], float],
    i: int,
    upper: float,
    grid=None,
) -> ReconstructionResult:
    """Parent cdf from E(i-th os after one extra draw | i-th os = x) = x - h(x).

    Needs i >= 2 and the gap h positive up to the upper support endpoint
    ``upper`` (may be +inf).  The cdf is

        F(x) = h(x)^(-1/(i-1)) / [ h(upper-)^(-1/(i-1))
                                   + (1/(i-1)) * int_x^upper h^(-i/(i-1)) ]

    with the first denominator term dropped when h diverges at the endpoint.
    """
    if i < 2:
        raise ValueError("the adjacent-gap route needs i >= 2")
    if isinstance(h, Curve):
        if grid is None:
            grid = h.grid
        if np.any(h.values <= 0.0):
            raise ReconstructionError("gap curve must be positive")
        h_fn = PchipInterpolator(h.grid, h.values, extrapolate=True)
    else:
        if grid is None:
            raise ValueError("grid required when the gap is given as a callable")
        h_fn = h
    grid = np.asarray(grid, dtype=float)
    e1 = 1.0 / (i - 1)
    e2 = i / (i - 1)

    if math.isinf(upper):
        recip_end = 0.0  # the gap integral h(b-) = int F^i diverges on an unbounded side
    else:
        try:
            h_end = float(h_fn(upper))
        except Exception:
            h_end = math.inf
        recip_end = 0.0 if not math.isfinite(h_end) or h_end <= 0 else h_end ** (-e1)

    def integrand(t: float) -> float:
        v = float(h_fn(t))
        if v <= 0.0:
            raise ReconstructionError("gap curve must be positive below the upper endpoint")
        return v ** (-e2)

    f = np.empty_like(grid)
    with warnings.catch_warnings():
        # divergence shows up as non-finite or runaway values, checked below
        warnings.simplefilter("ignore", IntegrationWarning)
        tail, _ = quad(integrand, grid[-1], upper, limit=400)
        if not math.isfinite(tail):
            raise ReconstructionError("tail integral of the gap curve diverges")
        for pos in range(len(grid) - 1, -1, -1):
            x = grid[pos]
            if pos < len(grid) - 1:
                piece, _ = quad(integrand, x, grid[pos + 1], limit=400)
                tail += piece
            hv = float(h_fn(x))
            if hv <= 0.0:
                raise ReconstructionError("gap curve must be positive")
            f[pos] = hv ** (-e1) / (recip_end + e1 * tail)
    if not np.all(np.isfinite(f)):
        raise ReconstructionError("reconstruction produced non-finite cdf values")
    return _finish(grid, f, gauge="none", extra={"upper_gap_reciprocal": recip_end})


def from_single_regression_slope(slope: Curve, j: int, n: int) -> ReconstructionResult:
    """Parent cdf from the slope of h(x) = E(j-th os of n draws | one draw = x).

    The slope equals C(n-1, j-1) F^(j-1) (1-F)^(n-j).  For 1 < j < n the
    kernel is unimodal in F, so the pointwise inversion picks the rising
    branch up to the slope maximum and the falling branch afterwards; the
    result must come out nondecreasing or the input is rejected.
    """
    if not 1 <= j <= n or n < 2:
        raise ValueError("need n >= 2 and 1 <= j <= n")
    hp = slope.values.astype(float)
    if np.any(hp <= 0.0):
        raise ReconstructionError("slope of the regression must be positive on the support")
    coeff = binom(n - 1, j - 1)
    if j == 1:
        f = 1.0 - (np.minimum(hp / coeff, 1.0)) ** (1.0 / (n - 1))
        return _finish(slope.grid, f, gauge="none")
    if j == n:
        f = (np.minimum(hp / coeff, 1.0)) ** (1.0 / (n - 1))
        return _finish(slope.grid, f, gauge="none")

    tstar = (j - 1) / (n - 1)
    kmax = coeff * tstar ** (j - 1) * (1.0 - tstar) ** (n - j)
    if np.any(hp > kmax * (1.0 + 1e-9)):
        raise ReconstructionError("slope exceeds the maximum of the rank kernel")
    hp = np.minimum(hp, kmax)

    def kern(t: float) -> float:
        return coeff * t ** (j - 1) * (1.0 - t) ** (n - j)

    peak = int(np.argmax(hp))
    f = np.empty_like(hp)
    for pos, target in enumerate(hp):
        lo, hi = (0.0, tstar) if pos <= peak else (tstar, 1.0)
        f[pos] = brentq(lambda t: kern(t) - target, lo, hi, xtol=1e-13)
    if np.any(np.diff(f) < -_SLACK):
        raise ReconstructionError("no monotone branch matches the supplied slope")
    return _finish(
        slope.grid,
        np.maximum.accumulate(f),
        gauge="none",
        extra={"branch_switch_index": peak, "kernel_max": float(kmax)},
    )


def from_min_regression(curve: Curve, n: int, m: int, derivative=None) -> ReconstructionResult:
    """Parent cdf from g(x) = E(min of n draws | min of first m draws = x).

    The slope satisfies g' = (1 - F)^(n-m), so F = 1 - g'**(1/(n-m)).  The
    slope must take values in (0, 1] and decrease along the grid.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    gp = _derivative(curve, derivative)
    if np.any(gp <= 0.0) or np.any(gp > 1.0 + _SLACK):
        raise ReconstructionError("slope of a min-regression must lie in (0, 1]")
    if np.any(np.diff(gp) > _SLACK):
        raise ReconstructionError("slope of a min-regression must be decreasing")
    if np.all(gp >= 1.0 - _SLACK):
        raise ReconstructionError("slope identically 1 corresponds to a degenerate cdf")
    f = 1.0 - np.minimum(gp, 1.0) ** (1.0 / (n - m))
    return _finish(curve.grid, f, gauge="none", extra={"slope_range": (float(gp.min()), float(gp.max()))})


def from_max_regression(curve: Curve, n: int, m: int, derivative=None) -> ReconstructionResult:
    """Parent cdf from g(x) = E(max of n draws | max of first m draws = x).

    Mirror of :func:`from_min_regression`: F = g'**(1/(n-m)) with the slope
    increasing from 0 to 1.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    gp = _derivative(curve, derivative)
    if np.any(gp <= 0.0) or np.any(gp > 1.0 + _SLACK):
        raise ReconstructionError("slope of a max-regression must lie in (0, 1]")
    if np.any(np.diff(gp) < -_SLACK):
        raise ReconstructionError("slope of a max-regression must be increasing")
    if np.all(gp >= 1.0 - _SLACK):
        raise ReconstructionError("slope identically 1 corresponds to a degenerate cdf")
    f = np.minimum(gp, 1.0) ** (1.0 / (n - m))
    return _finish(curve.grid, f, gauge="none", extra={"slope_range": (float(gp.min()), float(gp.max()))})


def mean_original_given_extended_reference(spec: OverlapSpec, model: ParentModel, y: float) -> float:
    """E(first os | second os = y) summed term by term: for every rank pair
    (k, ell) with a nonzero cell, its weight times its beta kernel on the
    rule's nodes, the terms with k < ell (k > ell) integrated below (above)
    F(y) by one quantile call per side."""
    N = spec.pooled_size
    F = float(model.cdf(y))
    Fb = 1.0 - F
    j, n = spec.j, spec.n
    table = cached_table(spec)
    at_y = 0.0
    below = np.zeros_like(TANH_SINH_NODES)
    above = np.zeros_like(TANH_SINH_NODES)
    for ell in spec.ell_support:
        wf = (ell * binom(N, ell)) / (j * binom(n, j)) * F ** (ell - j) * Fb ** (j + spec.r - ell)
        if wf == 0.0:
            continue
        for k in spec.k_support:
            p = float(table[(k, ell)])
            if p == 0.0:
                continue
            if k < ell:
                below += p * wf * _beta_kernel(k, ell - 1)
            elif k > ell:
                above += p * wf * _beta_kernel(k - ell, N - ell)
            else:
                at_y += p * wf
    return at_y * y + _integral(model, below, 0.0, F) + _integral_above(model, above, F)
