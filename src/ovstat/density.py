"""Order-statistic densities and the mixed joint law of overlapping-sample pairs.

The joint law of two order statistics from overlapping samples has an atom on
the diagonal (the two os's coincide with positive probability), so it has no
planar density.  It does have a density with respect to the reference measure

    nu = (Lebesgue on the plane) + (Lebesgue along the diagonal x = y),

and that density is a finite mixture of ordinary pooled-sample os densities:
off the diagonal a combination of bivariate os densities, on the diagonal a
combination of marginal os densities, with the exact rational weights of
:mod:`ovstat.overlap`.  :class:`NuDensity` bundles the two parts; the
continuous part is taken to vanish on the diagonal so that the atom carries
all diagonal mass.

Double integrals are evaluated in quantile coordinates (u, v) = (F(x), F(y)),
which maps any support onto the unit square and turns the os kernels into
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .combinatorics import binom
from .overlap import OverlapSpec, cached_table
from .parent import ParentModel

__all__ = [
    "NuDensity",
    "marginal_os_density",
    "joint_os_density",
    "overlap_density",
    "nu_total_mass",
    "rectangle_probability",
]


def _os_kernel(N: int, k: int, u):
    """Density at u of the k-th order statistic of N iid uniforms."""
    return (k * binom(N, k)) * u ** (k - 1) * (1.0 - u) ** (N - k)


def _pair_kernel(N: int, k: int, ell: int, u, v):
    """Joint density of the (k-th, ell-th) of N iid uniforms at u < v, k < ell;
    callers zero the half-plane u > v."""
    coeff = math.factorial(N) / (
        math.factorial(k - 1) * math.factorial(ell - k - 1) * math.factorial(N - ell)
    )
    return coeff * u ** (k - 1) * np.maximum(v - u, 0.0) ** (ell - k - 1) * (1.0 - v) ** (N - ell)


def marginal_os_density(model: ParentModel, j: int, n: int, x) -> float | np.ndarray:
    """Density of the j-th order statistic of an n-sample at x."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    return _assemble(model, n, (), ((j, 1.0),)).atom(x)


def joint_os_density(model: ParentModel, k: int, ell: int, n: int, x, y) -> float | np.ndarray:
    """Joint density of (k-th, ell-th) order statistics of an n-sample, k < ell.

    Supported on x < y; returns 0 for x >= y (the diagonal value is fixed at 0
    by convention, the coinciding-index case being handled by the atom part).
    """
    if not 1 <= k < ell <= n:
        raise ValueError("need 1 <= k < ell <= n")
    return _assemble(model, n, ((k, ell, 1.0),), ()).continuous(x, y)


@dataclass(frozen=True)
class NuDensity:
    """Density with respect to plane-plus-diagonal Lebesgue measure.

    ``continuous(x, y)`` is the off-diagonal part (zero on the diagonal);
    ``atom(x)`` is the density of the diagonal mass along the line x = y.
    The mixture structure (pooled size and weighted index pairs) is kept for
    exact bookkeeping.
    """

    model: ParentModel
    pooled_size: int
    continuous_terms: tuple[tuple[int, int, float], ...]
    atom_terms: tuple[tuple[int, float], ...]
    continuous: Callable = field(repr=False)
    atom: Callable = field(repr=False)

    def atom_mass(self) -> float:
        """Total diagonal mass (each marginal os density integrates to 1)."""
        return float(sum(w for _, w in self.atom_terms))


def _assemble(model: ParentModel, N: int, cont_terms, atom_terms) -> NuDensity:
    def continuous(x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        u = np.asarray(model.cdf(xa), dtype=float)
        v = np.asarray(model.cdf(ya), dtype=float)
        px = np.asarray(model.pdf(xa), dtype=float)
        py = np.asarray(model.pdf(ya), dtype=float)
        out = np.zeros(np.broadcast(xa, ya).shape)
        below = xa < ya
        above = xa > ya
        for k, ell, w in cont_terms:
            if k < ell:
                out = np.where(below, out + w * _pair_kernel(N, k, ell, u, v) * px * py, out)
            else:  # k > ell lives on x > y: the same kernel, coordinates exchanged
                out = np.where(above, out + w * _pair_kernel(N, ell, k, v, u) * px * py, out)
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            return float(out)
        return out

    def atom(x):
        xa = np.asarray(x, dtype=float)
        u = np.asarray(model.cdf(xa), dtype=float)
        px = np.asarray(model.pdf(xa), dtype=float)
        out = np.zeros(np.shape(xa))
        for k, w in atom_terms:
            out = out + w * _os_kernel(N, k, u) * px
        if np.ndim(x) == 0:
            return float(out)
        return out

    return NuDensity(
        model=model,
        pooled_size=N,
        continuous_terms=tuple(cont_terms),
        atom_terms=tuple(atom_terms),
        continuous=continuous,
        atom=atom,
    )


def overlap_density(spec: OverlapSpec, model: ParentModel) -> NuDensity:
    """Joint nu-density of the two overlapping-sample order statistics."""
    table = cached_table(spec)
    cont = []
    atoms = []
    for (k, ell), p in table.nonzero().items():
        if k == ell:
            atoms.append((k, float(p)))
        else:
            cont.append((k, ell, float(p)))
    return _assemble(model, spec.pooled_size, cont, atoms)


def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights  # mapped to (0, 1)


def _mass_at_order(d: NuDensity, order: int) -> float:
    """nu-mass via Gauss-Legendre in quantile coordinates.

    Each off-diagonal triangle is mapped onto the unit square (one coordinate
    rescaled by the other), under which the os kernels stay polynomial, so
    moderate orders integrate them essentially exactly.
    """
    model = d.model
    z, wz = _gl_nodes(order)
    q = np.asarray(model.quantile(z), dtype=float)
    qd = np.asarray(model.quantile_density(z), dtype=float)

    total = 0.0
    wgt = np.repeat(wz, order) * np.tile(wz, order)
    outer = np.repeat(z, order)
    inner = outer * np.tile(z, order)
    # upper triangle u < v with u = v*s, then lower triangle u > v with v = u*s;
    # the Jacobian of either map is the outer coordinate
    for u, v in ((inner, outer), (outer, inner)):
        xq = np.asarray(model.quantile(u), dtype=float)
        yq = np.asarray(model.quantile(v), dtype=float)
        g = d.continuous(xq, yq) * np.asarray(model.quantile_density(u), dtype=float) * np.asarray(
            model.quantile_density(v), dtype=float
        )
        total += float(np.sum(wgt * g * outer))
    # diagonal atom
    total += float(np.sum(wz * d.atom(q) * qd))
    return total


def nu_total_mass(d: NuDensity, tol: float = 1e-6) -> float:
    """Audit the normalisation: quadrature of continuous part plus atom.

    Escalates the quadrature order until two consecutive estimates agree to
    ``tol``; raises if they never do.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    order = max(12, d.pooled_size + 2)
    prev = _mass_at_order(d, order)
    for step in range(1, 5):
        cur = _mass_at_order(d, order + 10 * step)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise RuntimeError("nu-mass quadrature did not converge to the requested tolerance")


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
    """P(first os <= x, second os <= y), integrating the nu-density exactly.

    Expands the mixture: each rank pair contributes its weight times the
    joint cdf of the two pooled uniform order statistics at (F(x), F(y)).
    """
    table = cached_table(spec)
    a = float(model.cdf(x))
    b = float(model.cdf(y))
    N = spec.pooled_size
    total = 0.0
    for (k, ell), p in table.nonzero().items():
        total += float(p) * _uniform_os_pair_cdf(k, ell, N, a, b)
    return total
