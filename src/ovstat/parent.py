"""Parent distributions exposed through cdf, density, quantile and quantile density.

A parent model is the common absolutely continuous law of the iid draws
underlying all samples.  Besides the usual cdf/pdf pair, every model carries
its quantile function Q and quantile density q = Q'; the two sides are tied
together by the duality  f(Q(u)) q(u) = 1.

Two kinds of models exist:

* closed-form families (uniform, exponential, power, negative Pareto,
  negative exponential, logistic) where everything is analytic;
* quantile-density-defined families, built numerically from a positive
  function q on (0, 1).  The complementary beta family CB(alpha, beta) with
  q(u) proportional to u^(-alpha) (1-u)^(-beta) is the main instance.

Quantile-density families are only defined up to an affine map, so they are
pinned by the gauge Q(1/2) = location with the leading constant of q equal
to scale.

Numeric construction tabulates Q on a log-geometric grid reaching 1e-12 into
both tails (panelwise Gauss-Legendre, then cubic Hermite evaluation with the
exact derivative q).  The quantile finds its panel from the logarithm of the
level; the cdf inverts the same table, one panel cubic at a time, by Newton's
method safeguarded with bisection, so cdf and quantile round-trip to inversion
tolerance by construction.  Past the table each tail is the power law
q ~ c d^(-a) in the distance d to its end, fitted to the stored q; its one
exponent decides the support endpoint and whether the mean is finite.
Outside the support the cdf is exactly 0 or 1 and the pdf is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ParentModel",
    "uniform",
    "exponential",
    "power_law",
    "negative_pareto",
    "negative_exponential",
    "logistic",
    "complementary_beta",
    "from_quantile_density",
    "make_family",
    "from_config",
]

U_MIN = 1e-12
_GRID_RATIO = 1.004
_NEWTON_STEPS = 16
# an end exponent fitted within this of 1 (or 2) is taken to reach it; the fit
# is off by at most 1.5e-11 on the cb, logistic and midsample densities
_TAIL_TOL = 1e-6


def _vec(fn: Callable) -> Callable:
    """Wrap an elementwise formula so scalars come back as floats."""

    def wrapped(x):
        out = fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    return wrapped


def _check_location_scale(location: float, scale: float) -> None:
    if not (math.isfinite(location) and 0 < scale < math.inf):
        raise ValueError(f"need a finite location and a finite scale > 0, got {location!r} and {scale!r}")


@dataclass(frozen=True)
class ParentModel:
    """A parent distribution on an open interval support.

    All four callables accept floats or numpy arrays.  ``finite_mean`` is a
    diagnostic flag: heavy-tailed quantile-density families may have infinite
    absolute first moment, in which case the regression functions warn with
    a ``RuntimeWarning`` and still return their integrals.
    """

    name: str
    support: tuple[float, float]
    cdf: Callable = field(repr=False)
    pdf: Callable = field(repr=False)
    quantile: Callable = field(repr=False)
    quantile_density: Callable = field(repr=False)
    finite_mean: bool = True

    def sample(self, count: int, seed: int) -> np.ndarray:
        """``count`` iid draws via inverse-cdf sampling; deterministic per seed."""
        if count < 0:
            raise ValueError("count must be >= 0")
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        u = rng.random(count)
        np.clip(u, U_MIN, 1.0 - U_MIN, out=u)
        return np.asarray(self.quantile(u), dtype=float)

    def median(self) -> float:
        return float(self.quantile(0.5))

    def negate(self) -> "ParentModel":
        """The law of -X: reflected support, mirrored cdf and quantile."""
        a, b = self.support
        return ParentModel(
            name=f"negated {self.name}",
            support=(-b, -a),
            cdf=_vec(lambda x: 1.0 - np.asarray(self.cdf(-x), dtype=float)),
            pdf=_vec(lambda x: np.asarray(self.pdf(-x), dtype=float)),
            # below 2^-53, 1 - u would round to 1, where the quantile may be infinite
            quantile=_vec(lambda u: -np.asarray(self.quantile(1.0 - np.maximum(u, 2.0**-53)), dtype=float)),
            quantile_density=_vec(
                lambda u: np.asarray(self.quantile_density(1.0 - u), dtype=float)
            ),
            finite_mean=self.finite_mean,
        )

    def shifted_scaled(self, location: float, scale: float) -> "ParentModel":
        """The law of location + scale * X for a finite location and a finite scale > 0."""
        _check_location_scale(location, scale)
        a, b = self.support
        return ParentModel(
            name=f"{self.name} (loc={location:g}, scale={scale:g})",
            support=(location + scale * a, location + scale * b),
            cdf=_vec(lambda x: np.asarray(self.cdf((x - location) / scale), dtype=float)),
            pdf=_vec(lambda x: np.asarray(self.pdf((x - location) / scale), dtype=float) / scale),
            quantile=_vec(lambda u: location + scale * np.asarray(self.quantile(u), dtype=float)),
            quantile_density=_vec(
                lambda u: scale * np.asarray(self.quantile_density(u), dtype=float)
            ),
            finite_mean=self.finite_mean,
        )


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------


def uniform() -> ParentModel:
    return ParentModel(
        name="uniform",
        support=(0.0, 1.0),
        cdf=_vec(lambda x: np.clip(x, 0.0, 1.0)),
        pdf=_vec(lambda x: np.where((x > 0) & (x < 1), 1.0, 0.0)),
        quantile=_vec(lambda u: u),
        quantile_density=_vec(lambda u: np.ones_like(u)),
    )


def exponential() -> ParentModel:
    """Standard exponential, mean 1, support (0, inf)."""
    return ParentModel(
        name="exponential",
        support=(0.0, math.inf),
        cdf=_vec(lambda x: np.where(x <= 0, 0.0, -np.expm1(-np.maximum(x, 0.0)))),
        pdf=_vec(lambda x: np.where(x > 0, np.exp(-np.maximum(x, 0.0)), 0.0)),
        quantile=_vec(lambda u: -np.log1p(-u)),
        quantile_density=_vec(lambda u: 1.0 / (1.0 - u)),
    )


def power_law(alpha: float) -> ParentModel:
    """cdf x**alpha on (0, 1); alpha > 0."""
    if alpha <= 0:
        raise ValueError("power exponent must be > 0")
    return ParentModel(
        name=f"power(alpha={alpha:g})",
        support=(0.0, 1.0),
        cdf=_vec(lambda x: np.clip(x, 0.0, 1.0) ** alpha),
        pdf=_vec(lambda x: np.where((x > 0) & (x < 1), alpha * np.maximum(x, 0.0) ** (alpha - 1.0), 0.0)),
        quantile=_vec(lambda u: u ** (1.0 / alpha)),
        quantile_density=_vec(lambda u: (1.0 / alpha) * u ** (1.0 / alpha - 1.0)),
    )


def negative_pareto(shape: float, rate: float = 1.0, upper: float = 0.0) -> ParentModel:
    """cdf (1 + rate*(upper - x))**(-shape) on (-inf, upper); shape, rate > 0.

    The reflection of a Pareto-type law; finite mean iff shape > 1.
    """
    if shape <= 0 or rate <= 0:
        raise ValueError("shape and rate must be > 0")
    return ParentModel(
        name=f"negative_pareto(shape={shape:g}, rate={rate:g}, upper={upper:g})",
        support=(-math.inf, upper),
        cdf=_vec(lambda x: np.where(x >= upper, 1.0, (1.0 + rate * (upper - np.minimum(x, upper))) ** (-shape))),
        pdf=_vec(
            lambda x: np.where(
                x < upper,
                shape * rate * (1.0 + rate * (upper - np.minimum(x, upper))) ** (-shape - 1.0),
                0.0,
            )
        ),
        quantile=_vec(lambda u: upper - (u ** (-1.0 / shape) - 1.0) / rate),
        quantile_density=_vec(lambda u: u ** (-1.0 / shape - 1.0) / (shape * rate)),
        finite_mean=shape > 1,
    )


def negative_exponential(rate: float = 1.0) -> ParentModel:
    """cdf exp(rate*x) on (-inf, 0]; rate > 0."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    return ParentModel(
        name=f"negative_exponential(rate={rate:g})",
        support=(-math.inf, 0.0),
        cdf=_vec(lambda x: np.where(x >= 0, 1.0, np.exp(rate * np.minimum(x, 0.0)))),
        pdf=_vec(lambda x: np.where(x < 0, rate * np.exp(rate * np.minimum(x, 0.0)), 0.0)),
        quantile=_vec(lambda u: np.log(u) / rate),
        quantile_density=_vec(lambda u: 1.0 / (rate * u)),
    )


def logistic() -> ParentModel:
    return ParentModel(
        name="logistic",
        support=(-math.inf, math.inf),
        cdf=_vec(lambda x: 1.0 / (1.0 + np.exp(-x))),
        pdf=_vec(lambda x: 0.25 / np.cosh(x / 2.0) ** 2),
        quantile=_vec(lambda u: np.log(u / (1.0 - u))),
        quantile_density=_vec(lambda u: 1.0 / (u * (1.0 - u))),
    )


# ---------------------------------------------------------------------------
# quantile-density-defined families
# ---------------------------------------------------------------------------


class _QuantileTable:
    """Tabulated quantile function built by integrating a quantile density.

    Nodes are log-geometric towards both endpoints (down to ``U_MIN``); node
    values come from panelwise 16-point Gauss-Legendre integration and
    evaluation is cubic Hermite with the exact derivative q, so interpolation
    stays accurate right through integrable endpoint singularities.
    """

    def __init__(self, q: Callable, location: float, scale: float):
        n_side = int(math.ceil(math.log(0.5 / U_MIN) / math.log(_GRID_RATIO))) + 1
        left = np.exp(np.linspace(math.log(U_MIN), math.log(0.5), n_side))
        right = 1.0 - np.exp(np.linspace(math.log(0.5), math.log(U_MIN), n_side))
        self.u = np.concatenate([left, right[1:]])
        self.median_index = n_side - 1
        # panels per unit of log distance to the nearer end, and the offset
        # that counts them from U_MIN less half a panel (see _panel)
        self._inv_step = (n_side - 1) / (math.log(0.5) - math.log(U_MIN))
        self._shift = -math.log(U_MIN) * self._inv_step - 0.5

        nodes, weights = np.polynomial.legendre.leggauss(16)
        u0, u1 = self.u[:-1], self.u[1:]
        half = 0.5 * (u1 - u0)
        mid = 0.5 * (u1 + u0)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        vals = scale * _on_array(q, pts.ravel()).reshape(pts.shape)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise ValueError("quantile density must be positive and finite on (0, 1)")
        panel = (vals * weights[None, :]).sum(axis=1) * half
        if not np.all(np.isfinite(panel)):
            raise ValueError("quantile density is not integrable inside (0, 1)")
        # accumulate outward from the median: a divergent tail integral must
        # not contaminate the floating-point resolution of central values
        mid = self.median_index
        values = np.empty_like(self.u)
        values[mid] = location
        values[mid + 1 :] = location + np.cumsum(panel[mid:])
        values[:mid] = location - np.cumsum(panel[:mid][::-1])[::-1]
        self.values = values
        if np.any(np.diff(values) < 0):
            raise ValueError("quantile integration produced a non-monotone table")
        self.deriv = scale * _on_array(q, self.u)
        if not np.all(np.isfinite(self.deriv)) or np.any(self.deriv <= 0):
            raise ValueError("quantile density must be positive and finite on (0, 1)")

    # cubic Hermite basis on one panel
    def _hermite(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        h = self.u[idx + 1] - self.u[idx]
        y0, y1 = self.values[idx], self.values[idx + 1]
        d0, d1 = self.deriv[idx], self.deriv[idx + 1]
        t2, t3 = t * t, t * t * t
        return (
            (2 * t3 - 3 * t2 + 1) * y0
            + (t3 - 2 * t2 + t) * h * d0
            + (-2 * t3 + 3 * t2) * y1
            + (t3 - t2) * h * d1
        )

    def _panel(self, u: np.ndarray) -> np.ndarray:
        """Index of the panel holding each level u in [u[0], u[-1]].

        The nodes are geometric in u below the median and in 1 - u above it,
        so the logarithm of the distance to the nearer end (1 - u is exact
        above 1/2) places u to within a small fraction of a panel.  The
        estimate is taken half a panel low, so that one comparison with the
        next stored node absorbs the rounding of exp and linspace.
        """
        near = np.log(np.minimum(u, 1.0 - u)) * self._inv_step + self._shift
        pos = np.where(u < 0.5, near, 2 * self.median_index - 1 - near)
        idx = np.fmax(pos, 0.0).astype(np.intp)  # a nan level goes to panel 0
        idx += u >= self.u[idx + 1]
        return np.minimum(idx, len(self.u) - 2)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.clip(np.asarray(u, dtype=float), self.u[0], self.u[-1])
        idx = self._panel(u)
        u0 = self.u[idx]
        return self._hermite(idx, (u - u0) / (self.u[idx + 1] - u0))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`quantile`, clipped to [u[0], u[-1]].

        In the panel holding x, the root in t of the monotone Hermite cubic
        minus x is found by Newton's method from the linear interpolant.  The
        cubic is taken in powers of t about the panel's left node, so only
        the exact difference y0 - x carries the size of the values.  A bracket
        around the root is kept; a Newton step that leaves it (the test is
        closed, so a root at t = 0 is kept) becomes a bisection step.
        """
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.values, x, side="right") - 1, 0, len(self.u) - 2)
        h = self.u[idx + 1] - self.u[idx]
        y0, dy = self.values[idx], self.values[idx + 1] - self.values[idx]
        s0, s1 = h * self.deriv[idx], h * self.deriv[idx + 1]
        c2, c3 = 3.0 * dy - 2.0 * s0 - s1, s0 + s1 - 2.0 * dy
        gap = y0 - x
        lo = np.zeros_like(x)
        hi = np.ones_like(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(-gap / dy, 0.0, 1.0)
            for _ in range(_NEWTON_STEPS):
                f = gap + t * (s0 + t * (c2 + t * c3))
                above = f > 0
                hi = np.where(above, t, hi)
                lo = np.where(above, lo, t)
                step = t - f / (s0 + t * (2.0 * c2 + 3.0 * t * c3))
                step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
                moving = np.abs(step - t) > 2.0**-50  # below this u = u0 + t h cannot move
                t = step
                if not moving.any():
                    break
        return np.clip(self.u[idx] + t * h, self.u[0], self.u[-1])


def _on_array(fn: Callable, t: np.ndarray) -> np.ndarray:
    """fn on the array t.  A callable that takes only scalars is called once per
    value, and a scalar returned for an array is broadcast."""
    try:
        values = fn(t)
    except (TypeError, ValueError):
        return np.array([fn(float(v)) for v in t.ravel()], dtype=float).reshape(t.shape)
    return np.broadcast_to(np.asarray(values, dtype=float), t.shape)


def from_quantile_density(
    q: Callable,
    location: float = 0.0,
    scale: float = 1.0,
    name: str | None = None,
) -> ParentModel:
    """Build a parent model from a positive quantile density on (0, 1).

    The model is pinned by Q(1/2) = location; ``scale`` multiplies q.  Past
    the table each end follows the power law q ~ c d^(-a) in the distance d to
    that end, with a read from the stored q at the end node and one decade in.
    The end is infinite from a = 1 on; below it the endpoint is the end value
    moved out by q d / (1 - a).  The mean is finite while both a stay below 2.

    The fitted a is within 1.5e-11 of the true one on the cb, logistic and
    midsample densities.  The finite cb endpoints are within 2.4e-13 of the
    exact ones for alpha, beta in {-0.5, 0, 0.5, 1, 1.5, 2} and for
    cb(0.99, 0).  An exponent near 1 leaves much of Q past the table, and
    cb(0.95, 0.95) is off by 3.7e-10 on the left and by 1.9e-7 on the right,
    where the table's last value already carries that error.
    """
    _check_location_scale(location, scale)
    table = _QuantileTable(q, location, scale)

    # rows: left and right end; columns: the end node and one decade in.  d is
    # u on the left and 1 - u on the right, exact for the stored u above 1/2
    k = round(math.log(10.0) * table._inv_step)
    d = np.array([table.u[[0, k]], 1.0 - table.u[[-1, -1 - k]]])
    qe = table.deriv[[[0, k], [-1, -1 - k]]]
    a = np.log(qe[:, 0] / qe[:, 1]) / np.log(d[:, 1] / d[:, 0])
    with np.errstate(divide="ignore"):
        tail = np.where(a < 1.0 - _TAIL_TOL, qe[:, 0] * d[:, 0] / (1.0 - a), np.inf)
    lo, hi = float(table.values[0] - tail[0]), float(table.values[-1] + tail[1])
    finite_mean = bool(np.all(a < 2.0 - _TAIL_TOL))

    def cdf(x):  # 0 and 1 outside the support; the table stops 1e-12 short
        return np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, table.cdf(x)))

    def pdf(x):  # 0 unless x lies inside the support, as for the closed forms
        return np.where((x > lo) & (x < hi), 1.0 / (scale * _on_array(q, table.cdf(x))), 0.0)

    return ParentModel(
        name=name or "quantile-density family",
        support=(lo, hi),
        cdf=_vec(cdf),
        pdf=_vec(pdf),
        quantile=_vec(table.quantile),
        quantile_density=_vec(lambda u: scale * _on_array(q, u)),
        finite_mean=finite_mean,
    )


def complementary_beta(
    alpha: float, beta: float, location: float = 0.0, scale: float = 1.0
) -> ParentModel:
    """The family with quantile density proportional to u^(-alpha) (1-u)^(-beta).

    Equivalently the density satisfies F^alpha (1-F)^beta proportional to f.
    alpha = beta = 1 is the logistic family; alpha = 0, beta = 1 the
    exponential type; alpha = beta = 0 the uniform.  The support endpoint on
    each side is finite exactly when the corresponding exponent is < 1.
    """
    return from_quantile_density(
        lambda u: u ** (-alpha) * (1.0 - u) ** (-beta),
        location=location,
        scale=scale,
        name=f"cb(alpha={alpha:g}, beta={beta:g})",
    )


# ---------------------------------------------------------------------------
# registry / config parsing
# ---------------------------------------------------------------------------

FAMILIES: dict[str, Callable[..., ParentModel]] = {
    "uniform": uniform,
    "exponential": exponential,
    "power": power_law,
    "negative_pareto": negative_pareto,
    "negative_exponential": negative_exponential,
    "logistic": logistic,
    "cb": complementary_beta,
}


def make_family(name: str, **params) -> ParentModel:
    """Look up a built-in family by name and construct it."""
    try:
        builder = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {name!r}: {exc}") from None


def from_config(config: dict) -> ParentModel:
    """Build a model from a ``{family, params, location, scale}`` mapping.

    For the cb family location/scale are the native gauge; for closed-form
    families they act as an affine transform of the standard member.
    """
    cfg = dict(config)
    name = cfg.pop("family", None)
    if not name:
        raise ValueError("model config needs a 'family' key")
    params = dict(cfg.pop("params", {}) or {})
    location = float(cfg.pop("location", 0.0))
    scale = float(cfg.pop("scale", 1.0))
    if cfg:
        raise ValueError(f"unknown model config keys: {sorted(cfg)}")
    if name == "cb":
        return make_family(name, location=location, scale=scale, **params)
    model = make_family(name, **params)
    if location != 0.0 or scale != 1.0:
        model = model.shifted_scaled(location, scale)
    return model
