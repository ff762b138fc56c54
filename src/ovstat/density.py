"""Order-statistic densities and the mixed joint law of overlapping-sample pairs.

The joint law of two order statistics from overlapping samples has an atom on
the diagonal (the two os's coincide with positive probability), so it has no
planar density.  It does have a density with respect to the reference measure

    nu = (Lebesgue on the plane) + (Lebesgue along the diagonal x = y),

and that density is a finite mixture of ordinary pooled-sample os densities:
off the diagonal a combination of bivariate os densities, on the diagonal a
combination of marginal os densities, with the exact rational weights of
:mod:`ovstat.overlap`.  :class:`NuDensity` is that list of weighted terms,
evaluated in levels (u, v) = (F(x), F(y)): one sum of the uniform-os kernels
per half-plane (the k > ell terms with coordinates exchanged), times
f(x) f(y).  The continuous part is taken to vanish on the diagonal so that
the atom carries all diagonal mass.

In quantile coordinates (u, v) = (F(x), F(y)) each mixture term is a
uniform-os density, of mass 1 wherever f(Q(u)) q(u) = 1; so the nu-mass audit
checks that duality of the parent and sums the weights.

A quadrant needs no quadrature: with S_a the number of pooled draws at or
below the level a, the k-th pooled os is at or below a exactly when S_a >= k
(David & Nagaraja, *Order Statistics*, 3rd ed., 2003, sec. 2.2).  So
P(X <= x, Y <= y) is the trinomial law of (S_F(x), S_F(y)) summed against the
rank-pair table's 2-D cumulative sum, one O(N^2) sum per rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import binom, pascal_rows
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


def _points(x) -> np.ndarray:
    """x as a float array; a nan raises ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("x and y must not be nan")
    return x


def marginal_os_density(model: ParentModel, j: int, n: int, x) -> float | np.ndarray:
    """Density of the j-th order statistic of an n-sample at x."""
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    return NuDensity(model, n, (), ((j, 1.0),)).atom(x)


def joint_os_density(model: ParentModel, k: int, ell: int, n: int, x, y) -> float | np.ndarray:
    """Joint density of (k-th, ell-th) order statistics of an n-sample, k < ell.

    Supported on x < y; returns 0 for x >= y (the diagonal value is fixed at 0
    by convention, the coinciding-index case being handled by the atom part).
    """
    if not 1 <= k < ell <= n:
        raise ValueError("need 1 <= k < ell <= n")
    return NuDensity(model, n, ((k, ell, 1.0),), ()).continuous(x, y)


@dataclass(frozen=True)
class NuDensity:
    """Density with respect to plane-plus-diagonal Lebesgue measure.

    The mixture of a pooled size N and weighted rank pairs: ``continuous_terms``
    ``(k, ell, w)`` with k != ell off the diagonal, ``atom_terms`` ``(k, w)``
    on it.  ``continuous(x, y)`` is the off-diagonal part (zero on the
    diagonal); ``atom(x)`` is the density of the diagonal mass along x = y.
    Scalars give a float; a nan argument raises ``ValueError``.
    """

    model: ParentModel
    pooled_size: int
    continuous_terms: tuple[tuple[int, int, float], ...]
    atom_terms: tuple[tuple[int, float], ...]

    def continuous(self, x, y) -> float | np.ndarray:
        x, y = _points(x), _points(y)
        u, v = np.asarray(self.model.cdf(x), dtype=float), np.asarray(self.model.cdf(y), dtype=float)
        N, terms = self.pooled_size, self.continuous_terms
        below = sum((w * _pair_kernel(N, k, ell, u, v) for k, ell, w in terms if k < ell), 0.0)
        # k > ell lives on x > y: the same kernel, coordinates exchanged
        above = sum((w * _pair_kernel(N, ell, k, v, u) for k, ell, w in terms if k > ell), 0.0)
        pdfs = np.asarray(self.model.pdf(x), dtype=float) * np.asarray(self.model.pdf(y), dtype=float)
        out = np.where(x < y, below * pdfs, np.where(x > y, above * pdfs, 0.0))
        return float(out) if np.ndim(out) == 0 else out

    def atom(self, x) -> float | np.ndarray:
        x = _points(x)
        u = np.asarray(self.model.cdf(x), dtype=float)
        kernels = sum((w * _os_kernel(self.pooled_size, k, u) for k, w in self.atom_terms), 0.0)
        out = kernels * np.asarray(self.model.pdf(x), dtype=float)
        return float(out) if np.ndim(out) == 0 else out

    def atom_mass(self) -> float:
        """Total diagonal mass (each marginal os density integrates to 1)."""
        return float(sum(w for _, w in self.atom_terms))


def overlap_density(spec: OverlapSpec, model: ParentModel) -> NuDensity:
    """Joint nu-density of the two overlapping-sample order statistics."""
    cells = cached_table(spec).nonzero().items()
    cont = tuple((k, ell, float(p)) for (k, ell), p in cells if k != ell)
    atoms = tuple((k, float(p)) for (k, ell), p in cells if k == ell)
    return NuDensity(model, spec.pooled_size, cont, atoms)


def nu_total_mass(d: NuDensity, tol: float = 1e-6) -> float:
    """Audit the normalisation: the weight total, where the parent's duality holds.

    In levels u = F(x) every mixture term is a uniform-os density, of mass 1
    wherever f(Q(u)) q(u) = 1, so the nu-mass is the sum of the weights.
    Raises ``RuntimeError`` when |f(Q(u)) q(u) - 1| exceeds ``tol`` on a fixed
    level set, and ``ValueError`` unless ``tol`` > 0.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    model = d.model
    u = np.arange(1, 1024) / 1024  # to within 1e-3 of each end, as 40 Gauss-Legendre nodes
    err = float(np.max(np.abs(model.pdf(model.quantile(u)) * model.quantile_density(u) - 1.0)))
    if not err <= tol:
        raise RuntimeError(f"the parent's duality f(Q(u)) q(u) = 1 fails by {err:.3g}, above tol {tol:g}")
    return math.fsum([w for *_, w in d.continuous_terms] + [w for _, w in d.atom_terms])


def rectangle_probability(spec: OverlapSpec, model: ParentModel, x, y) -> float | np.ndarray:
    """P(first os <= x, second os <= y) = sum_{s,t} P(S_F(x) = s, S_F(y) = t) C[s, t],
    C the table's 2-D cumulative sum.  x and y broadcast (a grid of E cells holds
    E (N+1)^2 floats); scalars give a float; a nan level, or N above 1029, raises ``ValueError``."""
    x, y = _points(x), _points(y)
    N = spec.pooled_size
    if N > 1029:
        raise ValueError(f"rectangle probabilities need N <= 1029, where C(N, N/2) is a finite float; got N = {N}")
    cells = cached_table(spec).entries
    dense = np.zeros((N + 1, N + 1))
    dense[tuple(zip(*cells))] = [float(p) for p in cells.values()]
    cum = dense.cumsum(axis=0).cumsum(axis=1)

    a, b = np.broadcast_arrays(np.clip(model.cdf(x), 0.0, 1.0), np.clip(model.cdf(y), 0.0, 1.0))
    lo, hi = np.minimum(a, b)[..., None, None], np.maximum(a, b)[..., None, None]
    rows, s = pascal_rows(N), np.arange(N + 1)
    # for a <= b, C(N, s) a^s times C(N-s, t-s) (b-a)^(t-s) (1-b)^(N-t): each binomial is a float up
    # to N = 1029, their product only to about N = 640; 0.0 ** 0 = 1 covers a = b and a, b in {0, 1}
    first = np.array(rows[N], dtype=float)[:, None] * lo ** s[:, None]
    rest = np.array([[0] * k + rows[N - k] for k in range(N + 1)], dtype=float)
    law = first * (rest * (hi - lo) ** np.maximum(s - s[:, None], 0) * (1.0 - hi) ** (N - s))
    # for a > b the law of (S_a, S_b) is the transpose
    out = np.where(a > b, np.sum(law * cum.T, axis=(-2, -1)), np.sum(law * cum, axis=(-2, -1)))
    return float(out) if np.ndim(out) == 0 else out
