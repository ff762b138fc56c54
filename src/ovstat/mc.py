"""Monte Carlo verification of the analytic formulas.

Replicates draw a pooled iid sample, read off the two overlapping-sample
order statistics, and record both their values and the pooled ranks they
realise.  Ties between the two os's are detected through rank identity, never
through floating-point equality of simulated reals.

Streams are counter-based (Philox) and chunked with a fixed chunk size: chunk
c of a run with seed s always uses the (s, c) key.  A chunk is drawn in
blocks of 2^15 rows, and its blocks are cut into one run of consecutive
blocks per worker.  A run that starts at block b advances the (s, c) counter
b * 2^13 * N steps, so every block is the same slice of the chunk's stream
as in one whole-chunk draw.  The runs of all chunks are the work items of a
thread pool (``workers``); each writes its slice of preallocated outputs, so
aggregates are bit-identical for any worker count, and a one-chunk draw
runs on every worker.

Per block, the i-th of m values comes from a compare-exchange network pruned
to that output, run on the block's contiguous columns, or from sorting the
rows where the network would be the slower; ranks count the other sample's
draws only; the parent quantile runs on the block while it is in cache.  For
a given seed and chunk size the samples, and every report built on them, are
those of one whole-chunk draw with row sorts and full rank counts (unless
two draws of one row are equal, which has probability below N^2 / 2^54).

Binning takes its quantile edges from one sorted copy of the conditioner,
drops it, and streams the pairs in the same blocks.  A pair's slot comes from
an exact bucket table (values and edges share one monotone map onto
``_BUCKETS`` buckets, so only the edges in the value's bucket are searched);
counts come from ``bincount`` and the five per-bin sums from ``np.add.at``
into one running accumulator.  Both add in sample order from 0.0, so the
binned means are bit for bit those of one whole-sample ``bincount``.  On a
2-vCPU host 10^7 pairs bin in about 0.6 s, and the binning needs the sorted
copy (80 MB) and a few block-sized arrays beyond the sample.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .density import rectangle_probability
from .overlap import OverlapSpec, cached_table
from .parent import U_MIN, ParentModel
from .regression import mean_original_given_extended

__all__ = [
    "PairSample",
    "BinnedMeans",
    "Comparison",
    "MCReport",
    "simulate_pairs",
    "empirical_tie_table",
    "binned_conditional_mean",
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
# buckets of the binning's slot lookup: with the default 51 edges over the
# trimmed range, a bucket rarely holds more than one
_BUCKETS = 1 << 12


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


def _simulate_run(
    spec: OverlapSpec,
    model: ParentModel,
    seed: int,
    chunk: int,
    block: int,
    x: np.ndarray,
    y: np.ndarray,
    rank_x: np.ndarray,
    rank_y: np.ndarray,
) -> None:
    """Fill the outputs' slices as the blocks of chunk ``chunk`` from block ``block`` on.

    Consecutive ``random`` calls continue the stream, so the draws are those
    of one call for the whole chunk.
    """
    rng = _block_generator(seed, chunk, block, spec.pooled_size)
    r, m, n, N = spec.r, spec.m, spec.n, spec.pooled_size
    for lo in range(0, len(x), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(x))
        u = rng.random((hi - lo, N))
        columns = u.T.copy()
        xu = _order_statistic(u[:, :m], columns[:m], spec.i)
        yu = _order_statistic(u[:, r : r + n], columns[r : r + n], spec.j)
        # the i-th (j-th) os's own sample holds exactly i (j) draws <= it, so
        # only the other sample's draws are counted; this assumes the row's
        # draws distinct
        rank_x[lo:hi] = spec.i + np.count_nonzero(columns[m:] <= xu, axis=0)
        rank_y[lo:hi] = spec.j + np.count_nonzero(columns[:r] <= yu, axis=0)
        x[lo:hi] = model.quantile(np.clip(xu, U_MIN, 1.0 - U_MIN))
        y[lo:hi] = model.quantile(np.clip(yu, U_MIN, 1.0 - U_MIN))


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
    if count < 1:
        raise ValueError("count must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2^64)")
    x, y = np.empty(count), np.empty(count)
    rank_x, rank_y = np.empty(count, dtype=np.int16), np.empty(count, dtype=np.int16)
    # work items (chunk, first block, rows): each chunk's blocks cut into one
    # run per worker.  Items of a single block, whose arrays are all freed at
    # its end, let the heap shrink, and every block faulted its pages in again.
    parts = max(workers or 1, 1)
    items = []
    for chunk, (start, stop) in enumerate(_chunk_ranges(count, chunk_size)):
        blocks = -(-(stop - start) // _BLOCK_ROWS)
        firsts = sorted({blocks * k // parts for k in range(parts)})
        bounds = [start + first * _BLOCK_ROWS for first in firsts] + [stop]
        items += [(chunk, first, slice(lo, hi)) for first, lo, hi in zip(firsts, bounds, bounds[1:])]

    def run(item: tuple[int, int, slice]) -> None:
        chunk, block, rows = item
        _simulate_run(spec, model, seed, chunk, block, x[rows], y[rows], rank_x[rows], rank_y[rows])

    if workers and workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, items))
    else:
        for item in items:
            run(item)
    return PairSample(spec=spec, model_name=model.name, seed=seed, x=x, y=y, rank_x=rank_x, rank_y=rank_y)


def empirical_tie_table(
    spec: OverlapSpec, model: ParentModel, count: int, seed: int, **kwargs
) -> dict[tuple[int, int], float]:
    """Empirical rank-pair frequencies; keys cover every observed pair."""
    sample = simulate_pairs(spec, model, count, seed, **kwargs)
    return tie_table_from_sample(sample)


def tie_table_from_sample(sample: PairSample) -> dict[tuple[int, int], float]:
    N = sample.spec.pooled_size
    flat = np.bincount(
        (sample.rank_x.astype(np.int64) - 1) * N + (sample.rank_y.astype(np.int64) - 1),
        minlength=N * N,
    )
    total = sample.count
    out: dict[tuple[int, int], float] = {}
    for k in range(1, N + 1):
        for ell in range(1, N + 1):
            c = int(flat[(k - 1) * N + (ell - 1)])
            if c:
                out[(k, ell)] = c / total
    return out


@dataclass(frozen=True)
class BinnedMeans:
    """Equal-count conditional means of x given y, with per-bin standard errors."""

    edges: np.ndarray
    counts: np.ndarray
    y_mean: np.ndarray
    x_mean: np.ndarray
    x_se: np.ndarray
    diff_mean: np.ndarray  # per-bin mean of x - y, for identity-regression checks
    diff_se: np.ndarray


def _slot_lookup(edges: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function equal to ``np.searchsorted(edges, v, side="right")`` for sorted edges.

    A value's bucket, floor((v - edges[0]) * scale) clipped to
    [0, ``_BUCKETS``) with nan in one more bucket after those, is monotone in
    v; so an edge in an earlier bucket lies at or below v, one in a later
    bucket above it, and only the edges that share v's bucket are searched,
    by a branchless binary search as deep as the fullest bucket needs.
    Edges whose span the scale cannot represent (all equal, an infinite end,
    a span that overflows) take ``np.searchsorted``.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = _BUCKETS / (edges[-1] - edges[0])
    if not (math.isfinite(scale) and scale > 0):
        return lambda v: np.searchsorted(edges, v, side="right")

    def bucket(v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            b = (v - edges[0]) * scale
        np.clip(b, 0, _BUCKETS - 1, out=b)
        b[np.isnan(b)] = _BUCKETS
        return b.astype(np.intp)

    edge_bucket = bucket(edges)
    # first[b]: the edges in buckets before b.  From first[b] on, the edges
    # at or below v are a prefix of those in v's bucket, at most
    # 2^steps - 1 long; the nan pads, which compare false, keep every probe
    # inside the array
    first = np.searchsorted(edge_bucket, np.arange(_BUCKETS + 1))
    steps = int(np.bincount(edge_bucket).max()).bit_length()
    padded = np.concatenate((edges, np.full((1 << steps) - 1, np.nan)))

    def lookup(v: np.ndarray) -> np.ndarray:
        slot = first[bucket(v)]
        for k in reversed(range(steps)):
            slot += (padded[slot + ((1 << k) - 1)] <= v) * (1 << k)
        return slot

    return lookup


def binned_conditional_mean(
    x: np.ndarray,
    y: np.ndarray,
    bins: int = 50,
    trim: tuple[float, float] = (0.05, 0.95),
) -> BinnedMeans:
    """Quantile-bin y and average x within each bin, restricted to the trim range.

    The edges come from one sorted copy of y; the pairs are then binned and
    summed ``_BLOCK_ROWS`` at a time, every sum added in sample order.
    """
    if bins < 10:
        raise ValueError("need at least 10 bins")
    lo, hi = trim
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("trim must be an increasing pair inside [0, 1]")
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    edges = np.quantile(np.sort(y), np.linspace(lo, hi, bins + 1), overwrite_input=True)
    if not np.all(np.isfinite(edges)):
        raise ValueError("bin edges are not finite; narrow the trim to keep the infinite or nan values of y outside them")
    lookup = _slot_lookup(edges)
    counts = np.zeros(bins + 2, dtype=np.intp)
    # sums of x, x^2, y, x - y and (x - y)^2 per slot
    sums = np.zeros((5, bins + 2))
    for start in range(0, len(y), _BLOCK_ROWS):
        xb, yb = x[start : start + _BLOCK_ROWS], y[start : start + _BLOCK_ROWS]
        # slot 0 takes y below the trim range and slot bins + 1 y above it (and
        # nan); slots 1..bins are the bins, the last one closed at the top edge
        slot = lookup(yb)
        slot[yb == edges[-1]] = bins
        counts += np.bincount(slot, minlength=bins + 2)
        diff = xb - yb
        # add.at, like bincount, adds in sample order from 0.0, so the sums are
        # those of one bincount over the whole sample
        for row, values in zip(sums, (xb, xb * xb, yb, diff, diff * diff)):
            np.add.at(row, slot, values)
    counts, sums = counts[1:-1], sums[:, 1:-1]
    if np.any(counts == 0):
        raise ValueError("empty bin; reduce the bin count or enlarge the sample")

    def _mean_se(total: np.ndarray, squares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = total / counts
        var = np.maximum(squares / counts - mean**2, 0.0)
        return mean, np.sqrt(var / counts)

    x_mean, x_se = _mean_se(sums[0], sums[1])
    diff_mean, diff_se = _mean_se(sums[3], sums[4])
    return BinnedMeans(
        edges=edges,
        counts=counts,
        y_mean=sums[2] / counts,
        x_mean=x_mean,
        x_se=x_se,
        diff_mean=diff_mean,
        diff_se=diff_se,
    )


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


def _rectangle_frequencies(x: np.ndarray, y: np.ndarray, x_cuts, y_cuts) -> np.ndarray:
    """Empirical P(X <= x_cuts[a], Y <= y_cuts[b]) for every a, b, from one cell count.

    Each pair falls in one cell of the grid the sorted cuts make; the
    rectangle counts are cumulative sums of the cell counts, exact integers,
    divided by the sample size.
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
    grid = np.bincount(cell, minlength=(len(x_cuts) + 1) * width).reshape(-1, width)
    return grid.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / len(x)


def verify_spec(
    spec: OverlapSpec,
    model: ParentModel,
    count: int = 10**6,
    seed: int = 0,
    zmax: float = 4.0,
    rectangle_grid: int = 5,
    **sim_kwargs,
) -> MCReport:
    """Compare the exact rank-pair table and rectangle probabilities with MC."""
    sample = simulate_pairs(spec, model, count, seed, **sim_kwargs)
    table = cached_table(spec)
    freqs = tie_table_from_sample(sample)
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
            sample.tie_frequency(),
            math.sqrt(diag * (1.0 - diag) / count) if 0.0 < diag < 1.0 else 0.0,
        )
    )

    levels = np.arange(1, rectangle_grid + 1) / (rectangle_grid + 1)
    cuts = np.asarray(model.quantile(levels), dtype=float)
    frequencies = _rectangle_frequencies(sample.x, sample.y, cuts, cuts)
    probs = rectangle_probability(spec, model, cuts[:, None], cuts[None, :])
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
    """Binned conditional means of the first os given the second, against the
    analytic regression curve evaluated at the per-bin mean of the conditioner."""
    sample = simulate_pairs(spec, model, count, seed, **sim_kwargs)
    bm = binned_conditional_mean(sample.x, sample.y, bins=bins, trim=trim)
    comparisons = [
        Comparison(
            f"bin[{b}] y={bm.y_mean[b]:.4f}",
            mean_original_given_extended(spec, model, float(bm.y_mean[b])),
            float(bm.x_mean[b]),
            float(bm.x_se[b]),
        )
        for b in range(bins)
    ]
    return MCReport(
        title=f"binned regression, spec {spec}",
        model_name=model.name,
        sample_count=count,
        seed=seed,
        zmax=zmax,
        comparisons=comparisons,
    )


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
    every bin of y, which avoids curvature bias entirely.
    """
    sample = simulate_pairs(spec, model, count, seed, **sim_kwargs)
    bm = binned_conditional_mean(sample.x, sample.y, bins=bins, trim=trim)
    comparisons = [
        Comparison(
            f"bin[{b}] y={bm.y_mean[b]:.4f}",
            0.0,
            float(bm.diff_mean[b]),
            float(bm.diff_se[b]),
        )
        for b in range(bins)
    ]
    return MCReport(
        title=f"identity regression, spec {spec}",
        model_name=model.name,
        sample_count=count,
        seed=seed,
        zmax=zmax,
        comparisons=comparisons,
    )
