"""Monte Carlo verification of the analytic formulas.

Replicates draw a pooled iid sample, read off the two overlapping-sample
order statistics, and record both their values and the pooled ranks they
realise.  Ties between the two os's are detected through rank identity, never
through floating-point equality of simulated reals.

Streams are counter-based (Philox) and chunked with a fixed chunk size: chunk
c of a run with seed s always uses the (s, c) key, so aggregates are
bit-identical whether chunks run serially or on a thread pool.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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


def _simulate_chunk(spec: OverlapSpec, model: ParentModel, size: int, seed: int, index: int):
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
    return x, y, rank_x, rank_y


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
    result is identical for any ``workers`` setting.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    ranges = _chunk_ranges(count, chunk_size)
    sizes = [hi - lo for lo, hi in ranges]
    if workers and workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda idx_size: _simulate_chunk(spec, model, idx_size[1], seed, idx_size[0]),
                    enumerate(sizes),
                )
            )
    else:
        parts = [_simulate_chunk(spec, model, size, seed, idx) for idx, size in enumerate(sizes)]
    x = np.concatenate([p[0] for p in parts])
    y = np.concatenate([p[1] for p in parts])
    rank_x = np.concatenate([p[2] for p in parts])
    rank_y = np.concatenate([p[3] for p in parts])
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


def binned_conditional_mean(
    x: np.ndarray,
    y: np.ndarray,
    bins: int = 50,
    trim: tuple[float, float] = (0.05, 0.95),
) -> BinnedMeans:
    """Quantile-bin y and average x within each bin, restricted to the trim range."""
    if bins < 10:
        raise ValueError("need at least 10 bins")
    lo, hi = trim
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError("trim must be an increasing pair inside [0, 1]")
    edges = np.quantile(y, np.linspace(lo, hi, bins + 1))
    keep = (y >= edges[0]) & (y <= edges[-1])
    ys = y[keep]
    xs = x[keep]
    idx = np.clip(np.searchsorted(edges, ys, side="right") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    if np.any(counts == 0):
        raise ValueError("empty bin; reduce the bin count or enlarge the sample")
    diff = xs - ys

    def _mean_se(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s1 = np.bincount(idx, weights=values, minlength=bins)
        s2 = np.bincount(idx, weights=values * values, minlength=bins)
        mean = s1 / counts
        var = np.maximum(s2 / counts - mean**2, 0.0)
        return mean, np.sqrt(var / counts)

    x_mean, x_se = _mean_se(xs)
    y_mean, _ = _mean_se(ys)
    diff_mean, diff_se = _mean_se(diff)
    return BinnedMeans(
        edges=edges,
        counts=counts,
        y_mean=y_mean,
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
    for uu in levels:
        x0 = float(model.quantile(uu))
        for vv in levels:
            y0 = float(model.quantile(vv))
            p = rectangle_probability(spec, model, x0, y0)
            emp = float(np.mean((sample.x <= x0) & (sample.y <= y0)))
            se = math.sqrt(p * (1.0 - p) / count) if 0.0 < p < 1.0 else 0.0
            comparisons.append(Comparison(f"rect[u={uu:.3f},v={vv:.3f}]", p, emp, se))

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
