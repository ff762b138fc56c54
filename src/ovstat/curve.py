"""Tabulated real functions on a strictly increasing grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .parent import ParentModel, _on_array

__all__ = ["Curve", "tabulate"]


@dataclass(frozen=True)
class Curve:
    """A function sampled on a grid, optionally tagged with quantile levels.

    ``grid`` holds the abscissae (strictly increasing), ``values`` the
    function values (finite at interior points), ``meaning`` a short label of
    what was tabulated.  When the grid was generated as parent quantiles, the
    originating levels are kept in ``probs``.
    """

    grid: np.ndarray
    values: np.ndarray
    meaning: str = ""
    probs: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if len(grid) < 2:
            raise ValueError("a curve needs at least two points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        if self.probs is not None:
            object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    def __len__(self) -> int:
        return len(self.grid)

    def derivative(self) -> np.ndarray:
        """Three-point central differences on the (possibly nonuniform) grid."""
        return np.gradient(self.values, self.grid)

    def is_monotone(self, decreasing: bool = False, tol: float = 0.0) -> bool:
        d = np.diff(self.values)
        return bool(np.all(d <= tol) if decreasing else np.all(d >= -tol))


def tabulate(
    producer: Callable[[float], float],
    model: ParentModel,
    size: int = 99,
    meaning: str = "",
) -> Curve:
    """Evaluate ``producer`` on the quantile-spaced grid u = 1/(G+1) .. G/(G+1).

    The producer is called once on the grid array, so a regression costs one
    call per curve.  By :func:`ovstat.parent._on_array`'s rule, one that takes
    only scalars (it raises ``TypeError`` or ``ValueError`` on the array) is
    called per point, and a scalar returned for the array holds at every point.
    The grid lies inside the open support, so no endpoint division triggers.
    """
    if size < 2:
        raise ValueError("grid size must be >= 2")
    u = np.arange(1, size + 1) / (size + 1)
    x = np.asarray(model.quantile(u), dtype=float)
    values = _on_array(producer, x)
    return Curve(grid=x, values=values, meaning=meaning, probs=u)
