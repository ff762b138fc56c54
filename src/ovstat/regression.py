"""Conditional expectations between order statistics of overlapping samples.

The two regression curves

    E(first os | second os = y)  and  E(second os | first os = x)

are finite mixtures of single-sample conditional means E(X_{k:N} | X_{l:N}),
weighted by the exact rank-pair probabilities and by cdf-dependent factors.
The single-sample conditional means reduce to integrals of the parent
quantile function against polynomial kernels (the conditional law of one os
given another is that of an os from a truncated parent), evaluated by one
tanh-sinh rule on (0, 1) (:mod:`ovstat._tanh_sinh`): 289 nodes, levels exact
at the left end and capped at 1 - 2^-53 on the right, where a level F(y) on
the cap is refused if the levels above it carry weight.  A mixture's kernels
are built once per geometry and cached: per rank of the conditioning os, its
atom and its beta kernels below and above the conditioning level summed on
the nodes, the parent-free conditional law of the first os's level given the
second's.  Every public regression takes an array of conditioning values,
each finite and in the closed support (else ``ValueError``), and a curve costs
one cdf call and one quantile call on each side of each 256-value slice.
The second curve is the first one of the swapped geometry
(:meth:`ovstat.overlap.OverlapSpec.swapped`), which exchanges the two
samples, and shares its cached kernels.

Specialised closed forms for the smallest genuinely overlapping geometry
(offset 1, both samples of size 2) and for extension-sample regressions
(same-index adjacent, and conditioning on a single draw, whose lowest and
highest indices give the minimum and maximum regressions) are implemented
independently of the general mixture; agreement of the two paths is part of
the verification suite.
"""

from __future__ import annotations

import functools
import warnings
from typing import Callable

import numpy as np

from ._tanh_sinh import C as _C, W as _W, X as _X
from .combinatorics import binom
from .overlap import OverlapSpec, cached_table
from .parent import ParentModel

__all__ = [
    "conditional_os_mean",
    "mean_original_given_extended",
    "mean_extended_given_original",
    "pair_regression_r1",
    "PAIR_REGRESSIONS_R1",
    "mean_min_extended",
    "mean_max_extended",
    "mean_adjacent",
    "mean_given_single",
]

# the floor only replaces levels F(y) * x that underflowed to 0, where Q may be
# infinite; the cap keeps F + (1 - F) x from rounding to 1
_U_RANGE = (np.finfo(float).smallest_subnormal, 1.0 - 2.0**-53)
_SLICE = 256  # conditioning values a pass; a pass holds a few (values x 289) arrays


def _vectorised(fn: Callable) -> Callable:
    """The last argument, the conditioning value, as an array in passes of _SLICE values; a scalar gives a float."""

    @functools.wraps(fn)
    def wrapped(*args):
        y = np.asarray(args[-1], dtype=float)
        if y.ndim == 0:
            return float(fn(*args[:-1], y))
        parts = np.split(y.ravel(), range(_SLICE, y.size, _SLICE))
        return np.concatenate([fn(*args[:-1], part) for part in parts]).reshape(y.shape)

    return wrapped


def _level(model: ParentModel, y: np.ndarray) -> np.ndarray:
    """F(y), once every conditioning value is finite and inside the closed support."""
    lo, hi = model.support
    if not ((y >= lo) & (y <= hi) & np.isfinite(y)).all():
        raise ValueError(f"conditioning value must be finite and inside the support ({lo:g}, {hi:g}) or at a finite end")
    return np.asarray(model.cdf(y), dtype=float)


def _integral(model: ParentModel, kernel: np.ndarray, lo, hi) -> np.ndarray:
    """Integral over z in (0, 1) of Q(lo + (hi - lo) z) * kernel(z), the kernel
    given on the rule's nodes.  Level arrays (P,) take one kernel or P rows
    (P, 289) and make one quantile call; each integral is its own dot product."""
    lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
    u = np.clip(lo + (hi - lo) * _X, *_U_RANGE)
    return ((_W * kernel)[..., None, :] @ model.quantile(u)[..., None])[..., 0, 0]


def _integral_above(model: ParentModel, kernel: np.ndarray, F) -> np.ndarray:
    """Integral over z in (0, 1) of Q(F + (1 - F) z) * kernel(z); refused once
    F has reached the level cap, where every node would collapse onto it."""
    on_cap = np.asarray(F) >= _U_RANGE[1]
    if on_cap.any() and (on_cap & kernel.any(axis=-1)).any():
        raise ValueError("conditioning level F(y) rounds to 1: the upper tail is not resolved")
    return _integral(model, kernel, F, 1.0)


def _quad_q(model: ParentModel, weight: Callable[[np.ndarray], np.ndarray], lo, hi) -> np.ndarray:
    """Integral of Q(u) * weight(u) over (lo, hi) in quantile coordinates, 0 where hi <= lo."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return np.where(hi > lo, (hi - lo) * _integral(model, weight(lo[..., None] + (hi - lo)[..., None] * _X), lo, hi), 0.0)


def _beta_kernel(a: int, size: int) -> np.ndarray:
    """Density on the nodes of the relative level z of the a-th of ``size`` draws."""
    return a * binom(size, a) * _X ** (a - 1) * _C ** (size - a)


def _check_mean(model: ParentModel) -> None:
    if not model.finite_mean:
        warnings.warn(
            f"parent {model.name!r} appears to have an infinite absolute mean; "
            "regression integrals may diverge",
            RuntimeWarning,
            stacklevel=4,
        )


@_vectorised
def conditional_os_mean(model: ParentModel, k: int, ell: int, N: int, y: float) -> float:
    """E(X_{k:N} | X_{ell:N} = y) for a single pooled sample of size N.

    Given X_{ell:N} = y, the lower os's are os's of ell-1 draws from the
    parent truncated above y and the upper ones are os's of N-ell draws from
    the parent truncated below y; either way the mean is a beta-weighted
    integral of the quantile function over the matching quantile range.
    """
    if not (1 <= k <= N and 1 <= ell <= N):
        raise ValueError("order-statistic indices must lie in 1..N")
    w = _level(model, y)
    if k == ell:
        return y
    if k < ell:  # k-th of ell-1 draws below y
        return _integral(model, _beta_kernel(k, ell - 1), 0.0, w)
    return _integral_above(model, _beta_kernel(k - ell, N - ell), w)  # (k-ell)-th of N-ell above y


@functools.lru_cache(maxsize=512)
def _mixture_kernels(spec: OverlapSpec) -> tuple[np.ndarray, ...]:
    """The rank mixture's rows, one per rank ell of the second os in the pooled
    sample: the exponents of F(y) and 1 - F(y) and the constant of the level
    factor, the atom at y, and the kernels of the terms k < ell and k > ell
    summed on the rule's nodes.  The arrays are read-only, as every caller of
    a geometry shares them."""
    N, j, table = spec.pooled_size, spec.j, cached_table(spec)
    rows = []
    for ell in spec.ell_support:
        p = {k: float(table[(k, ell)]) for k in spec.k_support}
        below = sum((q * _beta_kernel(k, ell - 1) for k, q in p.items() if k < ell), np.zeros_like(_X))
        above = sum((q * _beta_kernel(k - ell, N - ell) for k, q in p.items() if k > ell), np.zeros_like(_X))
        const = (ell * binom(N, ell)) / (j * binom(spec.n, j))
        rows.append((ell - j, j + spec.r - ell, const, p.get(ell, 0.0), below, above))
    arrays = tuple(np.array(column) for column in zip(*rows))
    for array in arrays:
        array.flags.writeable = False
    return arrays


@_vectorised
def mean_original_given_extended(spec: OverlapSpec, model: ParentModel, y: float) -> float:
    """E(first os | second os = y): the full rank-mixture representation.

    Only the level factors W(F(y)) of the rows of :func:`_mixture_kernels`
    depend on y, so an array of points costs one cdf call and one quantile
    call per side of F(y); each point's W meets the rows in its own product.
    """
    _check_mean(model)
    a, b, const, atoms, below, above = _mixture_kernels(spec)
    F = _level(model, y)
    wf = (const * F[..., None] ** a * (1.0 - F[..., None]) ** b)[..., None, :]
    return (wf @ atoms)[..., 0] * y + _integral(model, (wf @ below)[..., 0, :], 0.0, F) + _integral_above(model, (wf @ above)[..., 0, :], F)


def mean_extended_given_original(spec: OverlapSpec, model: ParentModel, x: float) -> float:
    """E(second os | first os = x): E(first | second) of the swapped geometry."""
    return mean_original_given_extended(spec.swapped(), model, x)


# ---------------------------------------------------------------------------
# closed forms for offset 1, both samples of size 2
# ---------------------------------------------------------------------------

PAIR_REGRESSIONS_R1 = (
    "max_given_max",
    "min_given_min",
    "min_given_max",
    "max_given_min",
)


@_vectorised
def pair_regression_r1(which: str, model: ParentModel, y: float) -> float:
    """Closed-form regressions for samples {X1, X2} and {X2, X3}.

    ``which`` picks the conditioned/conditioning os pair:
    ``max_given_max`` is E(max of first pair | max of second pair = y), and so
    on.  Only interior y is valid: the min/max forms divide by F(y) or 1-F(y).
    """
    if which not in PAIR_REGRESSIONS_R1:
        raise ValueError(f"unknown regression {which!r}; choose from {PAIR_REGRESSIONS_R1}")
    _check_mean(model)
    w = _level(model, y)
    if which.endswith("max"):  # the forms given a maximum divide by F(y)
        if (w <= 0.0).any():
            raise ValueError("conditioning maximum at the lower support endpoint")
        lower_u = _quad_q(model, lambda u: u, 0.0, w)
        if which == "max_given_max":
            return 0.5 * y * w + _quad_q(model, lambda u: 1.0, w, 1.0) + lower_u / w
        lower = _quad_q(model, lambda u: 1.0, 0.0, w)
        return 0.5 * y * (1.0 - w) + lower / (2.0 * w) + lower - lower_u / w
    if (w >= 1.0).any():  # and those given a minimum by 1 - F(y)
        raise ValueError("conditioning minimum at the upper support endpoint")
    upper_b = _quad_q(model, lambda u: 1.0 - u, w, 1.0)
    if which == "min_given_min":
        return 0.5 * y * (1.0 - w) + _quad_q(model, lambda u: 1.0, 0.0, w) + upper_b / (1.0 - w)
    upper = _quad_q(model, lambda u: 1.0, w, 1.0)
    return 0.5 * y * w + upper / (2.0 * (1.0 - w)) + upper - upper_b / (1.0 - w)


# ---------------------------------------------------------------------------
# closed forms for extension-sample regressions
# ---------------------------------------------------------------------------


def mean_min_extended(model: ParentModel, n: int, m: int, x: float) -> float:
    """E(min of n draws | min of the first m draws = x), m < n: the lowest of
    x and the d = n - m new draws, ``mean_given_single(model, 1, d + 1, x)``."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    return mean_given_single(model, 1, n - m + 1, x)


def mean_max_extended(model: ParentModel, n: int, m: int, x: float) -> float:
    """E(max of n draws | max of the first m draws = x), m < n: the highest of
    x and the d = n - m new draws, ``mean_given_single(model, d + 1, d + 1, x)``."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    return mean_given_single(model, n - m + 1, n - m + 1, x)


@_vectorised
def mean_adjacent(model: ParentModel, i: int, m: int, x: float) -> float:
    """E(i-th os after one extra draw | i-th os of m draws = x), 1 <= i <= m."""
    if not 1 <= i <= m:
        raise ValueError("need 1 <= i <= m")
    _check_mean(model)
    w = _level(model, x)
    if i > 1 and (w <= 0.0).any():
        raise ValueError("conditioning value at the lower support endpoint")
    lower = _quad_q(model, lambda u: u ** (i - 1), 0.0, w)
    return x * (1.0 - w) + i * lower / (w ** (i - 1) if i > 1 else 1.0)


@_vectorised
def mean_given_single(model: ParentModel, j: int, n: int, x: float) -> float:
    """E(j-th os of n draws | one fixed draw = x)."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if n < 2:
        raise ValueError("need n >= 2")
    _check_mean(model)
    w = _level(model, x)
    total = x * binom(n - 1, j - 1) * w ** (j - 1) * (1.0 - w) ** (n - j)
    if j <= n - 1:  # the fixed draw ranks above j: j-th os of the other n-1
        c = j * binom(n - 1, j)
        total += _quad_q(model, lambda u: c * u ** (j - 1) * (1.0 - u) ** (n - 1 - j), 0.0, w)
    if j >= 2:  # the fixed draw ranks below j: (j-1)-th os of the other n-1
        c = (j - 1) * binom(n - 1, j - 1)
        total += _quad_q(model, lambda u: c * u ** (j - 2) * (1.0 - u) ** (n - j), w, 1.0)
    return total
