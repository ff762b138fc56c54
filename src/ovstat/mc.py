"""Monte Carlo verification of the analytic formulas.

Replicates draw a pooled iid sample and read off the two overlapping-sample
order statistics, their values and the pooled ranks they realise.  Ties
between the two os's are detected through rank identity, never through
floating-point equality of simulated reals.

Streams are counter-based (Philox) and chunked with a fixed chunk size: chunk
c of a run with seed s always uses the (s, c) key.  A chunk is drawn in
blocks of 2^15 rows, and its blocks are cut into one run of consecutive
blocks per worker.  A run that starts at block b advances the (s, c) counter
b * 2^13 * N steps, so every block is the same slice of the chunk's stream
as in one whole-chunk draw.  The runs of all chunks are the work items of a
thread pool (``workers``), and a one-chunk draw runs on every worker.  A run
draws into one reused block of rows and one of columns.

Per block, the i-th of m values comes from a compare-exchange network pruned
to that output, run on the block's contiguous columns, or from sorting the
rows where the network would be the slower; ranks count the other sample's
draws only.  Each block then goes through a reducer, whose small partial is
stored at the block's index; the partials are summed in block order, so
every report is bit-identical for any worker count.  `simulate_pairs` writes
the block's quantile values into its output slices; the regression checks
keep per-bin counts and sums of them; `verify_spec` keeps the rank-pair
counts and the rectangle-grid cell counts of the draw levels, and takes no
quantile at all.  For a given seed and chunk size the samples and the
`verify_spec` reports are those of one whole-chunk draw with row sorts, full
rank counts and quantile values (unless two draws of one row are equal,
which has probability below N^2 / 2^54).  No report stores the sample.

The regression checks bin the pairs by the level F(Y) of the conditioner
Y, the j-th os of n draws, so F(Y) ~ Beta(j, n - j + 1): the bin edges are
the Beta law's quantiles at equal probability steps across the trim range,
fixed before any draw.  A level finds its bin in a table of 2^12 equal
cells of [0, 1], built once per check, and a step up past the edges inside
its cell: exactly `searchsorted`'s bin, at about a tenth of its cost.  A
bin's expected value is the bin average of the curve, integrated over the
bin's levels, so it has no curvature bias.  On a 2-vCPU host, 10^7 draws of
the regression check take 0.25-0.4 s on two workers and 0.4-0.47 s on one,
and a check's memory is a few block-sized arrays per worker.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .combinatorics import pascal_rows
from .density import _os_kernel, rectangle_probability
from .overlap import OverlapSpec, cached_table
from .parent import U_MIN, ParentModel, uniform
from .regression import mean_original_given_extended

__all__ = [
    "PairSample",
    "Comparison",
    "MCReport",
    "simulate_pairs",
    "empirical_tie_table",
    "verify_spec",
    "regression_comparison",
    "identity_regression_comparison",
]

DEFAULT_CHUNK = 1_000_000
# rows drawn at a time: a block's N columns stay in cache through the
# selection, the rank counts and the quantile calls
_BLOCK_ROWS = 1 << 15
# minimum/maximum calls per block above which sorting the rows is faster
_MAX_NETWORK_OPS = 160
# levels of the rectangle grid whose corners verify_spec checks
_RECTANGLE_LEVELS = np.arange(1, 6) / 6
# cells of [0, 1] in the table that bins a level of the regression checks
_LOOKUP_CELLS = 1 << 12


@dataclass(frozen=True)
class PairSample:
    """Simulated pairs: values of the two os's and their pooled ranks."""

    spec: OverlapSpec
    model_name: str
    seed: int
    x: np.ndarray
    y: np.ndarray
    rank_x: np.ndarray
    rank_y: np.ndarray

    @property
    def count(self) -> int:
        return len(self.x)

    def tie_frequency(self) -> float:
        return float(np.mean(self.rank_x == self.rank_y))


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights  # mapped to (0, 1)


def _chunk_ranges(count: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(start, min(start + chunk_size, count)) for start in range(0, count, chunk_size)]


@functools.lru_cache(maxsize=None)
def _selection_network(m: int, i: int) -> tuple[tuple[int, int, bool, bool], ...]:
    """The comparators of Batcher's odd-even merge sort on m wires that its i-th output needs.

    The network is built for the next power of two, less the comparators
    that touch a wire >= m (exact when those wires hold +inf).  Each entry is
    (low wire, high wire, keep the min, keep the max); an output no later
    comparator reads is not computed.
    """
    size = 1 << (m - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for a in range(j, j + min(k, size - j - k)):
                    if a // (2 * p) == (a + k) // (2 * p) and a + k < m:
                        pairs.append((a, a + k))
            k //= 2
        p *= 2
    live = {i - 1}
    kept = []
    for a, b in reversed(pairs):
        if a in live or b in live:
            kept.append((a, b, a in live, b in live))
            live |= {a, b}
    return tuple(reversed(kept))


def _order_statistic(rows: np.ndarray, columns: np.ndarray, i: int) -> np.ndarray:
    """The i-th smallest of each draw's m values, given as rows (b x m) and as columns (m x b).

    Small selections run the pruned network on the contiguous columns; above
    ``_MAX_NETWORK_OPS`` calls, sorting the rows is faster.  Either way the
    result is one of the drawn values, so it does not depend on the route.
    """
    network = _selection_network(len(columns), i)
    if sum(keep_lo + keep_hi for _, _, keep_lo, keep_hi in network) > _MAX_NETWORK_OPS:
        return np.sort(rows, axis=1)[:, i - 1]
    wires = list(columns)
    for a, b, keep_lo, keep_hi in network:
        low, high = wires[a], wires[b]
        if keep_lo:
            wires[a] = np.minimum(low, high)
        if keep_hi:
            wires[b] = np.maximum(low, high)
    return wires[i - 1]


def _block_generator(seed: int, chunk: int, block: int, N: int) -> np.random.Generator:
    """The (seed, chunk) stream from the first draw of the chunk's block ``block`` on.

    A Philox4x64 counter step yields four doubles and a block of
    ``_BLOCK_ROWS`` rows takes ``_BLOCK_ROWS * N`` of them, so the block
    starts ``block * _BLOCK_ROWS / 4 * N`` steps in, where one ``random``
    call for the whole chunk would reach it.
    """
    bit_generator = np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64))
    bit_generator.advance(block * (_BLOCK_ROWS // 4) * N)
    return np.random.Generator(bit_generator)


# reduce(rows, xu, yu, columns) -> partial: one block's rows (a slice of the
# whole draw), the uniform levels of its two os's and its draws as columns
Reducer = Callable[[slice, np.ndarray, np.ndarray, np.ndarray], object]


def _count(count) -> int:
    """``count`` as an int; a bool, a non-integer or a count below 1 is refused."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return int(count)


def _check_zmax(zmax: float) -> None:
    if not zmax > 0:
        raise ValueError(f"zmax must be > 0, got {zmax!r}")


def _reduce_blocks(
    spec: OverlapSpec, count: int, seed: int, reduce: Reducer, chunk_size: int = DEFAULT_CHUNK, workers: int | None = None
) -> list:
    """``reduce`` of every block of ``count`` draws, in block order.

    Each chunk's blocks are cut into one run per worker, and the runs of all
    chunks are the work items of the pool.  A run draws into one reused block
    of rows and one reused block of columns; consecutive ``random`` calls
    continue its stream, so the draws are those of one call for the whole
    chunk.  The partials depend on the chunk partition only, so anything
    summed from them in this order is the same for any worker count.
    """
    count = _count(count)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2^64)")
    r, m, n, N = spec.r, spec.m, spec.n, spec.pooled_size
    parts = max(workers or 1, 1)
    items = []  # (chunk, first block of the run, its rows, index of its first partial)
    partials: list = []
    for chunk, (start, stop) in enumerate(_chunk_ranges(count, chunk_size)):
        blocks = -(-(stop - start) // _BLOCK_ROWS)
        firsts = sorted({blocks * k // parts for k in range(parts)})
        bounds = [start + first * _BLOCK_ROWS for first in firsts] + [stop]
        items += [(chunk, first, lo, hi, len(partials) + first) for first, lo, hi in zip(firsts, bounds, bounds[1:])]
        partials += [None] * blocks

    def run(item: tuple[int, int, int, int, int]) -> None:
        chunk, block, start, stop, index = item
        rng = _block_generator(seed, chunk, block, N)
        size = min(stop - start, _BLOCK_ROWS)
        row_buffer, column_buffer = np.empty((size, N)), np.empty((N, size))
        for lo in range(start, stop, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, stop)
            u, columns = row_buffer[: hi - lo], column_buffer[:, : hi - lo]
            rng.random(out=u)
            np.copyto(columns, u.T)
            xu = _order_statistic(u[:, :m], columns[:m], spec.i)
            yu = _order_statistic(u[:, r : r + n], columns[r : r + n], spec.j)
            partials[index] = reduce(slice(lo, hi), xu, yu, columns)
            index += 1

    if workers and workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, items))
    else:
        for item in items:
            run(item)
    return partials


def _ranks(spec: OverlapSpec, columns: np.ndarray, xu: np.ndarray, yu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled ranks of the two os's.  The i-th (j-th) os's own sample holds
    exactly i (j) draws <= it, so only the other sample's draws are counted;
    this assumes the row's draws distinct."""
    return (
        spec.i + np.count_nonzero(columns[spec.m :] <= xu, axis=0),
        spec.j + np.count_nonzero(columns[: spec.r] <= yu, axis=0),
    )


def _pair_counts(spec: OverlapSpec, columns: np.ndarray, xu: np.ndarray, yu: np.ndarray) -> np.ndarray:
    """Counts of the rank pairs (k, ell), flat at (k - 1) * N + ell - 1."""
    N = spec.pooled_size
    rank_x, rank_y = _ranks(spec, columns, xu, yu)
    return np.bincount((rank_x - 1) * N + (rank_y - 1), minlength=N * N)


def _values(model: ParentModel, levels: np.ndarray) -> np.ndarray:
    return model.quantile(np.clip(levels, U_MIN, 1.0 - U_MIN))


def simulate_pairs(
    spec: OverlapSpec,
    model: ParentModel,
    count: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
    workers: int | None = None,
) -> PairSample:
    """Draw ``count`` replicates of the overlapping-sample os pair.

    The chunk partition (not the worker count) determines the stream, so the
    result is identical for any ``workers`` setting.  ``seed`` must lie in
    [0, 2^64) and ``chunk_size`` be at least 1.
    """
    count = _count(count)
    x, y = np.empty(count), np.empty(count)
    rank_x, rank_y = np.empty(count, dtype=np.int16), np.empty(count, dtype=np.int16)

    def write(rows: slice, xu: np.ndarray, yu: np.ndarray, columns: np.ndarray) -> None:
        rank_x[rows], rank_y[rows] = _ranks(spec, columns, xu, yu)
        x[rows], y[rows] = _values(model, xu), _values(model, yu)

    _reduce_blocks(spec, count, seed, write, chunk_size, workers)
    return PairSample(spec=spec, model_name=model.name, seed=seed, x=x, y=y, rank_x=rank_x, rank_y=rank_y)


def _tie_frequencies(counts: np.ndarray, N: int, total: int) -> dict[tuple[int, int], float]:
    """Frequencies of the observed rank pairs from their flat counts."""
    return {(k // N + 1, k % N + 1): int(c) / total for k, c in enumerate(counts) if c}


def empirical_tie_table(
    spec: OverlapSpec, model: ParentModel, count: int, seed: int, **kwargs
) -> dict[tuple[int, int], float]:
    """Empirical rank-pair frequencies; keys cover every observed pair."""
    partials = _reduce_blocks(spec, count, seed, lambda rows, xu, yu, columns: _pair_counts(spec, columns, xu, yu), **kwargs)
    return _tie_frequencies(sum(partials), spec.pooled_size, count)


def _level_edges(spec: OverlapSpec, probabilities: np.ndarray) -> np.ndarray:
    """Levels v with P(F(Y) <= v) = ``probabilities``, Y the second os, by bisection.

    F(Y) is the j-th os of n uniforms, so P(F(Y) <= v) is the binomial tail
    P(Bin(n, v) >= j) (David & Nagaraja, *Order Statistics*, 3rd ed., 2003,
    sec. 2.1); 0 and 1 are their own levels.
    """
    n, j = spec.n, spec.j
    k = np.arange(j, n + 1)
    coefficients = np.array(pascal_rows(n)[n][j:], dtype=float)
    lo, hi = np.zeros_like(probabilities), np.ones_like(probabilities)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        v = mid[:, None]
        below = (coefficients * v**k * (1.0 - v) ** (n - k)).sum(axis=1) < probabilities
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.select([probabilities <= 0.0, probabilities >= 1.0], [0.0, 1.0], hi)


def _level_slots(edges: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``levels -> np.searchsorted(edges, levels, side="right")`` for levels in [0, 1], by table lookup.

    Cell g of the table holds the levels [g, g + 1) / 2^12, and the table the
    slot of its lowest level; a level's cell is exact, since times 2^12 is.
    The slot then steps up while the next edge is <= the level, as many
    times as the most edges inside one cell, so any sorted edges, repeated
    ones included, give ``searchsorted``'s slots.
    """
    table = np.searchsorted(edges, np.arange(_LOOKUP_CELLS + 1) / _LOOKUP_CELLS, side="right")
    steps = int(np.diff(table).max())
    padded = np.append(edges, np.inf)

    def slots(levels: np.ndarray) -> np.ndarray:
        slot = table[(levels * _LOOKUP_CELLS).astype(np.intp)]
        for _ in range(steps):
            slot += padded[slot] <= levels
        return slot

    return slots


def binned_conditional_mean(
    spec: OverlapSpec,
    count: int,
    seed: int,
    statistic: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bins: int = 50,
    trim: tuple[float, float] = (0.05, 0.95),
    **sim_kwargs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean and standard error of ``statistic(xu, yu)`` per level bin of the second os.

    The bins hold equal probability between the population quantiles
    ``trim`` of the second os Y: bin b is the levels [edges[b], edges[b+1])
    of F(Y).  Each block's levels find their bins by table lookup
    (`_level_slots`), and the block is reduced to its per-bin count and sums
    of the statistic and its square; returns (edges, counts, means, standard
    errors).  ``bins`` must be an integer from 10 to ``count``, or it is
    refused before any draw.
    """
    count = _count(count)
    if isinstance(bins, bool) or not isinstance(bins, numbers.Integral) or bins < 10:
        raise ValueError(f"need an integer number of at least 10 bins, got bins={bins!r}")
    if bins > count:
        raise ValueError(f"{bins} bins for {count} draws leave an empty bin")
    lo, hi = trim
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("trim must be an increasing pair inside [0, 1]")
    edges = _level_edges(spec, np.linspace(lo, hi, bins + 1))
    level_slots = _level_slots(edges)

    def sums(rows: slice, xu: np.ndarray, yu: np.ndarray, columns: np.ndarray) -> np.ndarray:
        # slot 0 takes the levels below the trim range, slot bins + 1 those above it
        slot = level_slots(yu)
        value = statistic(xu, yu)
        return np.stack([np.bincount(slot, weights, minlength=bins + 2) for weights in (None, value, value * value)])

    counts, total, squares = sum(_reduce_blocks(spec, count, seed, sums, **sim_kwargs))[:, 1:-1]
    if np.any(counts == 0):
        raise ValueError("empty bin; reduce the bin count or enlarge the sample")
    mean = total / counts
    return edges, counts.astype(np.int64), mean, np.sqrt(np.maximum(squares / counts - mean**2, 0.0) / counts)


@dataclass(frozen=True)
class Comparison:
    name: str
    analytic: float
    empirical: float
    se: float

    @property
    def z(self) -> float:
        if self.se > 0:
            return (self.empirical - self.analytic) / self.se
        return 0.0 if self.empirical == self.analytic else math.inf


@dataclass(frozen=True)
class MCReport:
    title: str
    model_name: str
    sample_count: int
    seed: int
    zmax: float
    comparisons: list[Comparison] = field(default_factory=list)

    @property
    def max_abs_z(self) -> float:
        return max((abs(c.z) for c in self.comparisons), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.zmax

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "model": self.model_name,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "zmax": self.zmax,
            "passed": self.passed,
            "max_abs_z": self.max_abs_z,
            "comparisons": [
                {
                    "name": c.name,
                    "analytic": c.analytic,
                    "empirical": c.empirical,
                    "se": c.se,
                    "z": c.z,
                }
                for c in self.comparisons
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _report(kind: str, spec: OverlapSpec, model: ParentModel, count: int, seed: int, zmax: float, comparisons: list) -> MCReport:
    return MCReport(f"{kind}, spec {spec}", model.name, count, seed, zmax, comparisons)


def _rectangle_cells(x: np.ndarray, y: np.ndarray, x_cuts, y_cuts) -> np.ndarray:
    """Counts of the pairs in each cell of the grid the sorted cuts make.

    P(X <= x_cuts[a], Y <= y_cuts[b]) is the count in the cells up to (a, b),
    a cumulative sum of exact integers, divided by the sample size.
    """
    width = len(y_cuts) + 1
    dtype = np.min_scalar_type((len(x_cuts) + 1) * width - 1)

    def cuts_below(values: np.ndarray, cuts) -> np.ndarray:
        # a few comparisons beat searchsorted on unsorted values; nan, like
        # a value above every cut, lies in no rectangle
        below = np.full(len(values), len(cuts), dtype=dtype)
        for cut in cuts:
            below -= values <= cut
        return below

    cell = cuts_below(x, x_cuts) * width + cuts_below(y, y_cuts)
    return np.bincount(cell, minlength=(len(x_cuts) + 1) * width).reshape(-1, width)


def verify_spec(
    spec: OverlapSpec,
    model: ParentModel,
    count: int = 10**6,
    seed: int = 0,
    zmax: float = 4.0,
    **sim_kwargs,
) -> MCReport:
    """Compare the exact rank-pair table and rectangle probabilities with MC.

    Each block is reduced to its rank-pair counts and its rectangle-grid cell
    counts; no sample is stored.  A rectangle P(X <= Q(a), Y <= Q(b)) is
    P(F(X) <= a, F(Y) <= b) for any parent, so the cells are counted on the
    draw levels and the law is that of the uniform parent at the levels: the
    model supplies only its name.  N above 1029 is refused with
    ``ValueError`` (see `rectangle_probability`) before the table is built.
    """
    count = _count(count)
    _check_zmax(zmax)
    levels = _RECTANGLE_LEVELS
    probs = rectangle_probability(spec, uniform(), levels[:, None], levels[None, :])

    def counts(rows: slice, xu: np.ndarray, yu: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _pair_counts(spec, columns, xu, yu), _rectangle_cells(xu, yu, levels, levels)

    partials = _reduce_blocks(spec, count, seed, counts, **sim_kwargs)
    pairs, cells = sum(p for p, _ in partials), sum(c for _, c in partials)
    N = spec.pooled_size
    table = cached_table(spec)
    freqs = _tie_frequencies(pairs, N, count)
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
            int(np.trace(pairs.reshape(N, N))) / count,
            math.sqrt(diag * (1.0 - diag) / count) if 0.0 < diag < 1.0 else 0.0,
        )
    )

    frequencies = cells.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / count
    for a, b in np.ndindex(probs.shape):
        p, emp = float(probs[a, b]), float(frequencies[a, b])
        se = math.sqrt(p * (1.0 - p) / count) if 0.0 < p < 1.0 else 0.0
        comparisons.append(Comparison(f"rect[u={levels[a]:.3f},v={levels[b]:.3f}]", p, emp, se))
    return _report("tie table and rectangles", spec, model, count, seed, zmax, comparisons)


def _binned_report(kind: str, spec, model, statistic, expected, count, seed, zmax, bins, trim, kwargs) -> MCReport:
    """Per-bin means of ``statistic(xu, yu)`` (`binned_conditional_mean`) against
    ``expected(edges)``, one value per level bin."""
    count = _count(count)
    _check_zmax(zmax)
    edges, _, means, ses = binned_conditional_mean(spec, count, seed, statistic, bins=bins, trim=trim, **kwargs)
    names = (f"bin[{b}] level=[{lo:.4f},{hi:.4f})" for b, (lo, hi) in enumerate(zip(edges, edges[1:])))
    rows = zip(names, expected(edges), means, ses)
    comparisons = [Comparison(name, float(a), float(mean), float(se)) for name, a, mean, se in rows]
    return _report(kind, spec, model, count, seed, zmax, comparisons)


def regression_comparison(
    spec: OverlapSpec,
    model: ParentModel,
    count: int = 10**7,
    seed: int = 0,
    bins: int = 50,
    trim: tuple[float, float] = (0.05, 0.95),
    zmax: float = 4.0,
    **sim_kwargs,
) -> MCReport:
    """Per-bin means of the first os given the level bin of the second, against
    the bin average of the analytic regression curve.

    The bins are equal-probability level intervals of the second os Y between
    its population quantiles ``trim`` (`binned_conditional_mean`).  A bin's
    analytic value is E[m(Y) | F(Y) in [lo, hi)] = bins / (trim[1] - trim[0])
    times the integral of m(Q(v)) beta(v) over [lo, hi), beta the density of
    F(Y), by 5-node Gauss-Legendre on each bin, one regression call per node to
    keep its temporaries small; so it has no curvature (Jensen) bias at any count.
    """

    def bin_averages(edges: np.ndarray) -> np.ndarray:
        z, w = _gl_nodes(5)
        width = np.diff(edges)[:, None]
        v = edges[:-1, None] + width * z
        curve = np.column_stack([mean_original_given_extended(spec, model, q) for q in model.quantile(v).T])
        return (width * w * _os_kernel(spec.n, spec.j, v) * curve).sum(axis=1) * bins / (trim[1] - trim[0])

    first = lambda xu, yu: _values(model, xu)  # noqa: E731
    return _binned_report("binned regression", spec, model, first, bin_averages, count, seed, zmax, bins, trim, sim_kwargs)


def identity_regression_comparison(
    spec: OverlapSpec,
    model: ParentModel,
    count: int = 10**7,
    seed: int = 0,
    bins: int = 50,
    trim: tuple[float, float] = (0.2, 0.8),
    zmax: float = 4.0,
    **sim_kwargs,
) -> MCReport:
    """Check E(first os | second os) = second os via per-bin means of x - y.

    Under the identity regression the conditional mean of x - y vanishes in
    every level bin of y, which avoids curvature bias entirely.
    """
    difference = lambda xu, yu: _values(model, xu) - _values(model, yu)  # noqa: E731
    zero = lambda edges: np.zeros(bins)  # noqa: E731
    return _binned_report("identity regression", spec, model, difference, zero, count, seed, zmax, bins, trim, sim_kwargs)
