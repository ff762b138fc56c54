"""Recovering the parent distribution from a regression curve.

Each route inverts one of the closed-form regressions of
:mod:`ovstat.regression`:

* minimum/maximum of the extended sample given the same extreme of the
  original sample: the derivative of the curve is a power of the parent tail
  (or cdf), the single-draw kernel at its lowest (highest) index, so the cdf
  follows by taking a root of the slope;
* same-index adjacent extension, written as x minus a positive gap h(x): the
  cdf is an explicit functional of h involving one tail integral;
* conditioning on a single draw: the slope of the curve equals the rank
  kernel C(n-1, j-1) F^(j-1) (1-F)^(n-j), inverted pointwise along the
  monotone branch;
* identity regression of the shrunk-sample os on the mid-sample os: the
  parent is pinned down through an explicit quantile density.

Derivatives of tabulated curves default to three-point central differences;
callers may pass exact derivatives when they have them.

The adjacent route integrates every grid panel at once with the tanh-sinh rule
of :mod:`ovstat._tanh_sinh` and sums the panels from the right.  An infinite
upper end is mapped onto (0, 1) by t = a + z/(1 - z) (Takahasi & Mori 1974).
Towards a finite one the nodes are placed by the tabulated complements and
stop 1024 ulps short of it, so that none rounds onto it.  Past the last node
the tail integrand is taken to follow the power of 1 - z seen at the last two
nodes: it is extended so over the rest of the rule, and the piece beyond the
rule's last node is added, less half the last term (Euler-Maclaurin).  A tail
is refused as divergent or unresolved when that power says it diverges or when
the rule's two end nodes carry more than ``_END_SHARE`` = 1e-3 of its sum:
they carry 0.03 or more of a tail decaying like t^-1 or slower, and below 1e-3
of one decaying like t^-1.04 or faster.  A tabulated gap is interpolated by
the monotone cubic of Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980), and
extended past its grid towards an infinite upper end by its last secant.  The
single-draw route inverts the rank kernel on both monotone branches at once
by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._tanh_sinh import C as _C, W as _W, X as _X
from .combinatorics import binom
from .curve import Curve
from .parent import _on_array, _vec

__all__ = [
    "ReconstructionError",
    "ReconstructionResult",
    "from_min_regression",
    "from_max_regression",
    "from_adjacent_regression",
    "from_single_regression_slope",
    "midsample_mixing_weight",
    "midsample_quantile_density",
    "quantile_from_linear_regression",
]

_SLACK = 1e-9
# Largest share of a tail integral that the rule's two end nodes may carry.  A
# divergent tail leaves them 0.03 or more (0.031 for t^-1, 0.59 for t^-0.8); a
# convergent one decaying like t^-p leaves about 5 (p - 1) (5e-62)^(p - 1), which
# is below 1e-3 from p = 1.04 on (1.5e-9 for p = 8/7, 1e-60 for p = 2).
_END_SHARE = 1e-3
# halvings of a branch bracket of width <= 1, down to below 3e-17
_HALVINGS = 55


class ReconstructionError(ValueError):
    """The supplied curve cannot be a regression of the assumed kind."""


@dataclass(frozen=True)
class ReconstructionResult:
    """A reconstructed cdf tabulated on the input grid, plus diagnostics."""

    cdf: Curve
    gauge: str
    diagnostics: dict

    def max_abs_error_against(self, reference: Callable[[np.ndarray], np.ndarray]) -> float:
        ref = np.asarray(reference(self.cdf.grid), dtype=float)
        return float(np.max(np.abs(self.cdf.values - ref)))


def _derivative(curve: Curve, derivative) -> np.ndarray:
    if derivative is None:
        return curve.derivative()
    d = np.asarray(derivative, dtype=float)
    if d.shape != curve.grid.shape:
        raise ValueError("derivative must match the curve grid")
    return d


def _finish(grid, f, gauge: str, extra: dict | None = None) -> ReconstructionResult:
    f = np.clip(f, 0.0, 1.0)
    diagnostics = {
        "monotone": bool(np.all(np.diff(f) >= -_SLACK)),
        "min_value": float(f.min()),
        "max_value": float(f.max()),
    }
    if extra:
        diagnostics.update(extra)
    return ReconstructionResult(
        cdf=Curve(grid=grid, values=f, meaning="reconstructed cdf"),
        gauge=gauge,
        diagnostics=diagnostics,
    )


def _end_roots(name: str, s: np.ndarray, d: int, lowest: bool) -> np.ndarray:
    """F with (1 - F)^d = s (``lowest``) or F^d = s: the single-draw kernel of
    d + 1 draws at its ends j = 1 and j = d + 1, whose slope s must lie in
    (0, 1], fall (rise) along the grid and not be identically 1.  ``name``
    names the regression in the refusals."""
    if np.any(s <= 0.0) or np.any(s > 1.0 + _SLACK):
        raise ReconstructionError(f"slope of a {name} must lie in (0, 1]")
    if np.any((np.diff(s) if lowest else -np.diff(s)) > _SLACK):
        raise ReconstructionError(f"slope of a {name} must be {'decreasing' if lowest else 'increasing'}")
    if np.all(s >= 1.0 - _SLACK):
        raise ReconstructionError("slope identically 1 corresponds to a degenerate cdf")
    root = s ** (1.0 / d)
    return 1.0 - root if lowest else root


def _extreme_regression(route: str, curve: Curve, n: int, m: int, derivative) -> ReconstructionResult:
    """Parent cdf from the min or max regression (``route``) of n draws on the first m.

    Given the first m draws' extreme x, the extreme of all n is that of x and
    the d = n - m new draws, so the slope is (1 - F)^d, falling, or F^d, rising.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    gp = _derivative(curve, derivative)
    f = _end_roots(f"{route}-regression", gp, n - m, route == "min")
    return _finish(curve.grid, f, gauge="none", extra={"slope_range": (float(gp.min()), float(gp.max()))})


def from_min_regression(curve: Curve, n: int, m: int, derivative=None) -> ReconstructionResult:
    """Parent cdf from g(x) = E(min of n draws | min of first m draws = x).

    The slope satisfies g' = (1 - F)^(n-m), so F = 1 - g'**(1/(n-m)).  The
    slope must take values in (0, 1] and decrease along the grid.
    """
    return _extreme_regression("min", curve, n, m, derivative)


def from_max_regression(curve: Curve, n: int, m: int, derivative=None) -> ReconstructionResult:
    """Parent cdf from g(x) = E(max of n draws | max of first m draws = x).

    The slope satisfies g' = F^(n-m), so F = g'**(1/(n-m)).  The slope must
    take values in (0, 1] and increase along the grid.
    """
    return _extreme_regression("max", curve, n, m, derivative)


def _monotone_cubic(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Fritsch & Carlson (1980) monotone piecewise cubic through (x, y).

    Interior slopes are the weighted harmonic mean of the adjacent secants (0
    where they differ in sign or vanish); the end slopes are the shape-limited
    three-point estimates, and the end cubics extend the curve beyond the grid,
    as scipy's ``PchipInterpolator(x, y, extrapolate=True)``.
    """
    h = np.diff(x)
    m = np.diff(y) / h

    def end_slope(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        return 3.0 * m0 if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0) else d

    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate(([end_slope(h[0], h[1], m[0], m[1])], inner, [end_slope(h[-1], h[-2], m[-1], m[-2])]))
    t = (d[:-1] + d[1:] - 2 * m) / h
    cubic, quadratic = t / h, (m - d[:-1]) / h - t

    def evaluate(v):
        k = np.clip(np.searchsorted(x, v, side="right") - 1, 0, len(h) - 1)
        s = v - x[k]
        s2 = s * s
        return y[k] + d[k] * s + quadratic[k] * s2 + cubic[k] * (s2 * s)

    return evaluate


def _secant_tail(inner: Callable, x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``inner`` on the grid x, extended past its last node by the last secant of (x, y).

    The gap of a parent unbounded above grows like x, which a straight line
    follows and the end cubic does not.
    """
    slope = (y[-1] - y[-2]) / (x[-1] - x[-2])

    def evaluate(v):
        return np.where(v > x[-1], y[-1] + slope * (v - x[-1]), inner(v))

    return evaluate


def _tail_integral(in_z: np.ndarray) -> float:
    """Integral over (0, 1) of a function of z given at the first len(in_z)
    nodes of the rule.

    Past the last given node the function is taken to go like (1 - z)^(r - 1),
    with r from the last two: it is extended so over the rest of the rule's
    nodes, and the piece past the rule's last node is added, less the half of
    the last term that the sum already counts past it (Euler-Maclaurin).  The
    integral is refused as divergent or unresolved when r <= 0 or when the
    rule's two end nodes carry more than ``_END_SHARE`` of its sum.
    """
    given = len(in_z)
    if given < 2:
        return 0.0  # a grid ending within 1024 ulps of a finite upper
    r = math.inf  # nothing is left past a node where the function underflows
    if in_z[-1] > 0:
        with np.errstate(divide="ignore"):
            r = 1.0 + np.log(in_z[-1] / in_z[-2]) / np.log(_C[given - 1] / _C[given - 2])
    with np.errstate(over="ignore"):
        in_z = np.concatenate((in_z, in_z[-1] * (_C[given:] / _C[given - 1]) ** (r - 1)))
    terms = _W * in_z
    total = terms.sum()
    share = (terms[0] + terms[-1]) / total
    if not (np.isfinite(total) and share <= _END_SHARE and r > 0):
        raise ReconstructionError(
            "tail integral of the gap curve diverges or is not resolved: the rule's "
            f"end nodes carry {share:.3g} of it"
        )
    return total + in_z[-1] * _C[-1] / r - terms[-1] / 2


def from_adjacent_regression(
    h: Curve | Callable[[np.ndarray], np.ndarray],
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
    A callable h is called on arrays of points (one value at a time if it
    takes only scalars).  A tabulated gap is interpolated by its monotone
    cubic; past its grid it is extended by the last secant when ``upper`` is
    infinite (the gap of an unbounded upper side grows like x) and by the end
    cubic otherwise.  With an infinite ``upper`` the result is only as good as
    that extension: the exponential parent, gap tabulated by
    :func:`ovstat.regression.mean_adjacent` on 401 levels, comes back with a
    largest cdf error of 0.016 for i = 2 and 0.029 for i = 3.  A tail
    integral that diverges, or that the rule does not resolve, raises
    :class:`ReconstructionError`.
    """
    if i < 2:
        raise ValueError("the adjacent-gap route needs i >= 2")
    if isinstance(h, Curve):
        if grid is None:
            grid = h.grid
        if np.any(h.values <= 0.0):
            raise ReconstructionError("gap curve must be positive")
        h_fn = _monotone_cubic(h.grid, h.values)
        if math.isinf(upper):
            h_fn = _secant_tail(h_fn, h.grid, h.values)
    else:
        if grid is None:
            raise ValueError("grid required when the gap is given as a callable")
        h_fn = h
    grid = np.asarray(grid, dtype=float)
    if not (np.all(np.diff(grid) > 0) and grid[-1] <= upper):
        raise ValueError("grid must be strictly increasing and end at or below upper")
    e1 = 1.0 / (i - 1)
    e2 = i / (i - 1)

    if math.isinf(upper):
        recip_end = 0.0  # the gap integral h(b-) = int F^i diverges on an unbounded side
        # t = a + z / (1 - z) maps (0, 1) onto (a, inf), with dt = dz / (1 - z)^2
        tail_nodes, tail_scale = grid[-1] + _X / _C, 1.0 / _C**2
    else:
        try:
            with np.errstate(all="ignore"):  # a gap may diverge at upper
                h_end = float(h_fn(upper))
        except (ArithmeticError, ValueError):
            h_end = math.inf
        recip_end = 0.0 if not math.isfinite(h_end) or h_end <= 0 else h_end ** (-e1)
        # placed from upper by the complements, up to the last node at least 1024
        # ulps below upper, which rounding moves by under 1e-3 of its distance
        distance = (upper - grid[-1]) * _C
        tail_nodes = (upper - distance)[distance >= 1024 * np.spacing(abs(upper))]
        tail_scale = upper - grid[-1]

    # every grid point, the rule's nodes on every grid panel, and the tail beyond the grid
    inner = grid[:-1, None] + np.diff(grid)[:, None] * _X
    values = _on_array(h_fn, np.concatenate((grid, inner.ravel(), tail_nodes)))
    if not np.all(values > 0.0):
        raise ReconstructionError("gap curve must be positive below the upper endpoint")
    gap, integrand = values[: len(grid)], values[len(grid) :] ** (-e2)
    panels = integrand[: inner.size].reshape(inner.shape) @ _W * np.diff(grid)
    tail = _tail_integral(integrand[inner.size :] * tail_scale)
    # int_x^upper for every grid point, summed from the right
    tails = np.cumsum(np.concatenate(([tail], panels[::-1])))[::-1]
    f = gap ** (-e1) / (recip_end + e1 * tails)
    if not np.all(np.isfinite(f)):
        raise ReconstructionError("reconstruction produced non-finite cdf values")
    return _finish(grid, f, gauge="none", extra={"upper_gap_reciprocal": recip_end})


def _kernel_roots(target: np.ndarray, j: int, n: int, coeff: int, tstar: float, kmax: float, rising) -> np.ndarray:
    """t with k(t) = coeff t^(j-1) (1-t)^(n-j) = target <= kmax, on the rising
    branch (t <= tstar) where ``rising`` holds and on the falling one
    elsewhere, by bisection of the branch; the top, target = kmax, is the apex
    tstar itself.
    """
    lo = np.where(rising, 0.0, tstar)
    hi = np.where(rising, tstar, 1.0)
    for _ in range(_HALVINGS):
        t = 0.5 * (lo + hi)
        k = coeff * t ** (j - 1) * (1.0 - t) ** (n - j)
        above = (k < target) == rising  # the root lies above t
        lo, hi = np.where(above, t, lo), np.where(above, hi, t)
    return np.where(target >= kmax, tstar, 0.5 * (lo + hi))


def from_single_regression_slope(slope: Curve, j: int, n: int) -> ReconstructionResult:
    """Parent cdf from the slope of h(x) = E(j-th os of n draws | one draw = x).

    The slope equals C(n-1, j-1) F^(j-1) (1-F)^(n-j).  At j = 1 and j = n the
    kernel is (1-F)^(n-1) or F^(n-1), checked and inverted as the slope of
    the min and max routes with d = n - 1.  For 1 < j < n it is unimodal in F, so the pointwise inversion
    picks the rising branch before the slope maximum and the falling branch
    after it (the maximum itself too where the slope falls); the result must
    come out nondecreasing or the input is rejected.
    """
    if not 1 <= j <= n or n < 2:
        raise ValueError("need n >= 2 and 1 <= j <= n")
    hp = slope.values.astype(float)
    if np.any(hp <= 0.0):
        raise ReconstructionError("slope of the regression must be positive on the support")
    if j in (1, n):
        return _finish(slope.grid, _end_roots(f"single-draw regression at j = {j}", hp, n - 1, j == 1), gauge="none")

    coeff = binom(n - 1, j - 1)
    tstar = (j - 1) / (n - 1)
    kmax = coeff * tstar ** (j - 1) * (1.0 - tstar) ** (n - j)
    if np.any(hp > kmax * (1.0 + 1e-9)):
        raise ReconstructionError("slope exceeds the maximum of the rank kernel")
    hp = np.minimum(hp, kmax)
    peak = int(np.argmax(hp))
    # h'' = k'(F) f, so the maximum lies past the apex where the slope falls
    rising = np.arange(len(hp)) < peak + (np.gradient(hp, slope.grid)[peak] >= 0.0)
    f = _kernel_roots(hp, j, n, coeff, tstar, kmax, rising)
    if np.any(np.diff(f) < -_SLACK):
        raise ReconstructionError("no monotone branch matches the supplied slope")
    return _finish(
        slope.grid,
        np.maximum.accumulate(f),
        gauge="none",
        extra={"branch_switch_index": peak, "kernel_max": float(kmax)},
    )


def midsample_mixing_weight(j: int, n: int) -> float:
    """Mixing weight attached to the upper neighbour in the identity regression."""
    if not 2 <= j <= n - 1:
        raise ValueError("need 2 <= j <= n-1")
    return j * (j - 1) / ((n - j + 1) * (n - j) + j * (j - 1))


def midsample_quantile_density(j: int, n: int) -> Callable:
    """Quantile density (up to scale) characterised by the identity regression
    E(X_{j-1:n-2} | X_{j:n}) = X_{j:n}.

    Returns q(u) = (j-1 + (n-2j+1) u) / (u^(1+(j-1)L) (1-u)^(1+(n-j)(1-L)))
    with L = j(j-1) / ((n-j+1)(n-j) + j(j-1)).
    """
    lam = midsample_mixing_weight(j, n)
    e_left = 1.0 + (j - 1) * lam
    e_right = 1.0 + (n - j) * (1.0 - lam)
    lin0 = float(j - 1)
    lin1 = float(n - 2 * j + 1)
    return _vec(lambda u: (lin0 + lin1 * u) * u ** (-e_left) * (1.0 - u) ** (-e_right))


def quantile_from_linear_regression(lam: float, a: float, c: float):
    """Quantile function (and its density) solving the linear single-draw
    regression E(X | X_{j:n}) = a' X_{j:n} in mean-residual form.

    Q(y) = c y^(lam/a - 1) (1-y)^((1-lam)/a - 1) (lam - y) on (0, 1).
    Returns the pair (Q, Q'); the sign of c fixes which member is increasing.
    """
    if a <= 0:
        raise ValueError("the slope parameter must be > 0")
    p = lam / a - 1.0
    s = (1.0 - lam) / a - 1.0

    def quantile_density(y):
        bracket = (lam - y) ** 2 / a - (lam - 2.0 * lam * y + y**2)
        return c * y ** (p - 1.0) * (1.0 - y) ** (s - 1.0) * bracket

    return _vec(lambda y: c * y**p * (1.0 - y) ** s * (lam - y)), _vec(quantile_density)
