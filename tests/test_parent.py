import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ovstat import parent
from ovstat.reconstruct import midsample_mixing_weight, midsample_quantile_density


def grid999():
    return np.linspace(0.001, 0.999, 999)


def test_uniform_basics():
    m = parent.uniform()
    assert m.cdf(0.3) == pytest.approx(0.3)
    assert m.quantile(0.25) == pytest.approx(0.25)
    assert m.pdf(0.5) == 1.0


def test_power_density():
    m = parent.power_law(2.0)
    x = np.linspace(0.05, 0.95, 19)
    assert np.allclose(m.pdf(x), 2 * x)
    with pytest.raises(ValueError):
        parent.power_law(0.0)


def test_logistic_is_cb11():
    m = parent.logistic()
    u = grid999()
    assert np.allclose(m.quantile_density(u) * (u * (1 - u)), 1.0)


def test_negative_families():
    m = parent.negative_exponential(1.5)
    x = np.array([-2.0, -0.5])
    assert np.allclose(m.cdf(x), np.exp(1.5 * x))
    p = parent.negative_pareto(shape=2.0, rate=0.5, upper=1.0)
    assert p.cdf(1.0 - 2.0) == pytest.approx((1 + 0.5 * 2.0) ** -2.0)
    assert p.finite_mean
    assert not parent.negative_pareto(shape=0.5).finite_mean


def test_cb11_matches_logistic_quantile():
    cb = parent.complementary_beta(1, 1)
    u = grid999()
    assert np.max(np.abs(cb.quantile(u) - np.log(u / (1 - u)))) < 1e-8
    assert cb.support == (-math.inf, math.inf)


def test_cb01_closed_form_antiderivative():
    # q = 1/(1-u); with the median pinned at 0: Q(u) = -log(1-u) + log(1/2)
    cb = parent.complementary_beta(0, 1)
    u = grid999()
    assert np.max(np.abs(cb.quantile(u) - (-np.log1p(-u) + math.log(0.5)))) < 1e-8


def test_cb00_is_shifted_uniform():
    cb = parent.complementary_beta(0, 0, location=0.0, scale=1.0)
    u = grid999()
    assert np.max(np.abs(cb.quantile(u) - (u - 0.5))) < 1e-10


def test_constant_qdf_is_uniform():
    m = parent.from_quantile_density(lambda u: np.ones_like(np.asarray(u, dtype=float)))
    assert m.quantile(0.75) == pytest.approx(0.25, abs=1e-10)
    assert m.median() == pytest.approx(0.0, abs=1e-12)


def test_scalar_only_and_constant_qdfs_build_the_vectorised_table():
    # a quantile density that takes only scalars is called once per node, and a
    # constant returned for an array is broadcast
    u = grid999()
    pairs = [
        (lambda v: 1.0 / (v * (1.0 - v)), lambda v: 1.0 / (float(v) * (1.0 - float(v)))),
        (lambda v: np.ones_like(np.asarray(v, dtype=float)), lambda v: 1.0),
    ]
    for vectorised, other in pairs:
        want = parent.from_quantile_density(vectorised)
        got = parent.from_quantile_density(other)
        assert np.array_equal(got.quantile(u), want.quantile(u))
        assert np.array_equal(got.cdf(want.quantile(u)), want.cdf(want.quantile(u)))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 1.0, 1.5])
def test_cb_roundtrip_and_duality(alpha, beta):
    m = parent.complementary_beta(alpha, beta)
    u = grid999()
    x = m.quantile(u)
    assert np.max(np.abs(m.cdf(x) - u)) < 1e-8
    assert np.max(np.abs(m.quantile(m.cdf(x)) - x) / (1.0 + np.abs(x))) < 1e-10
    assert np.max(np.abs(m.quantile_density(u) * m.pdf(x) - 1.0)) < 1e-8
    # support endpoints are unbounded exactly when the exponent reaches 1
    assert math.isinf(m.support[0]) == (alpha >= 1)
    assert math.isinf(m.support[1]) == (beta >= 1)


@pytest.mark.parametrize(
    "make",
    [
        parent.uniform,
        parent.exponential,
        parent.logistic,
        lambda: parent.power_law(2.0),
        lambda: parent.negative_exponential(2.0),
        lambda: parent.negative_pareto(shape=3.0),
    ],
)
def test_builtin_roundtrips(make):
    m = make()
    u = grid999()
    x = m.quantile(u)
    assert np.max(np.abs(m.cdf(x) - u)) < 1e-10
    assert np.max(np.abs(m.quantile(m.cdf(x)) - x) / (1 + np.abs(x))) < 1e-10
    assert np.max(np.abs(m.quantile_density(u) * m.pdf(x) - 1.0)) < 1e-8


def test_corollary_parents_from_qdf():
    # the two identity-regression parents; both carry one heavy tail
    m = parent.from_quantile_density(midsample_quantile_density(2, 4))
    u = grid999()
    x = m.quantile(u)
    assert np.max(np.abs(m.cdf(x) - u)) < 1e-8
    assert math.isinf(m.support[0]) and math.isinf(m.support[1])
    assert not m.finite_mean  # the upper tail integral of |Q| diverges
    m2 = parent.from_quantile_density(midsample_quantile_density(3, 5))
    assert not m2.finite_mean


def cb_density(alpha, beta):
    return lambda u: u ** (-alpha) * (1.0 - u) ** (-beta)


def midsample_exponents(j, n):
    lam = midsample_mixing_weight(j, n)
    return 1.0 + (j - 1) * lam, 1.0 + (n - j) * (1.0 - lam)


# (name, q, exponent of q at the left end, at the right end): the cb grid,
# whose cb(1, 1) is the logistic q, alpha just below 1, and the midsample parents
CB_EXPONENTS = [(a, b) for a in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0) for b in (-0.5, 0.5, 1.0, 2.5)] + [(0.99, 0.0)]
TAIL_CASES = [(f"cb({a:g}, {b:g})", cb_density(a, b), a, b) for a, b in CB_EXPONENTS] + [
    (f"midsample({j}, {n})", midsample_quantile_density(j, n), *midsample_exponents(j, n))
    for j, n in [(2, 4), (3, 4), (3, 5), (4, 7)]
]


def cb_endpoints(alpha, beta):
    """The exact support of cb(alpha, beta) with its median at 0."""
    with mpmath.workdps(30):
        lo = -float(mpmath.betainc(1 - alpha, 1 - beta, 0, 0.5)) if alpha < 1 else -math.inf
        hi = float(mpmath.betainc(1 - beta, 1 - alpha, 0, 0.5)) if beta < 1 else math.inf
    return lo, hi


@pytest.mark.parametrize("name, q, e_left, e_right", TAIL_CASES, ids=[c[0] for c in TAIL_CASES])
def test_tail_decisions_match_exact(name, q, e_left, e_right):
    # an end is infinite when q ~ d^(-a) with a >= 1 at distance d from it, and
    # the mean is finite when both a < 2; finite ends against mpmath
    m = parent.from_quantile_density(q)
    lo, hi = m.support
    assert math.isinf(lo) == (e_left >= 1) and math.isinf(hi) == (e_right >= 1)
    assert m.finite_mean == (max(e_left, e_right) < 2)
    if name.startswith("cb"):
        want = cb_endpoints(e_left, e_right)
        for got, exact in zip(m.support, want):
            assert got == exact or abs(got - exact) <= 1e-12, (got, exact)


def test_tail_endpoints_with_exponents_near_one():
    # past the table each end still holds 5 units of Q, so the fitted
    # exponent's error shows: 3.7e-10 on the left.  The right end's 1.9e-7 is
    # already in the table's last value, whose q is evaluated at levels formed
    # in u near 1.  Reported, not bounded
    m = parent.from_quantile_density(cb_density(0.95, 0.95))
    errors = [abs(got - exact) for got, exact in zip(m.support, cb_endpoints(0.95, 0.95))]
    assert all(math.isfinite(e) for e in errors)
    print(f"cb(0.95, 0.95) endpoint errors: left {errors[0]:.2g}, right {errors[1]:.2g}")


def test_non_integrable_qdf_rejected():
    with np.errstate(divide="ignore"), pytest.raises(ValueError):
        parent.from_quantile_density(lambda u: 1.0 / np.abs(np.asarray(u) - 0.5))


def test_sampling_determinism_and_moments():
    e = parent.exponential()
    s1 = e.sample(10**6, seed=42)
    s2 = e.sample(10**6, seed=42)
    assert np.array_equal(s1, s2)
    assert abs(s1.mean() - 1.0) < 4e-3  # 4 standard errors, sd = 1
    cb = parent.complementary_beta(1, 1)
    draws = cb.sample(10**6, seed=7)
    assert abs(np.median(draws)) < 5e-3
    assert len(e.sample(0, seed=1)) == 0
    with pytest.raises(ValueError):
        e.sample(-1, seed=1)


def test_negate_and_affine():
    m = parent.exponential().negate()
    assert m.support == (-math.inf, 0.0)
    assert m.cdf(-1.0) == pytest.approx(math.exp(-1.0))
    # quantile mirrors: Q_neg(u) = -Q(1-u) = log(u) for the exponential
    assert m.quantile(0.25) == pytest.approx(np.log(0.25))
    sc = parent.uniform().shifted_scaled(2.0, 3.0)
    assert sc.support == (2.0, 5.0)
    assert sc.cdf(3.5) == pytest.approx(0.5)
    assert sc.quantile_density(0.3) == pytest.approx(3.0)


@pytest.mark.parametrize("location, scale", [(0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, 0.0), (0.0, -1.0)])
def test_shifted_scaled_refuses_a_location_or_scale_off_the_reals(location, scale):
    # a nan scale built a model whose quantile was nan at every level
    with pytest.raises(ValueError, match="location|scale"):
        parent.exponential().shifted_scaled(location, scale)


@pytest.mark.parametrize("location, scale", [(0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf), (0.0, 0.0), (0.0, -1.0)])
def test_quantile_density_family_refuses_a_location_or_scale_off_the_reals(location, scale):
    # a nan location built a cb model whose quantile and cdf were nan, and an
    # infinite one a model with support (inf, inf)
    with pytest.raises(ValueError, match="location|scale"):
        parent.complementary_beta(0.5, 1.5, location=location, scale=scale)
    with pytest.raises(ValueError, match="location|scale"):
        parent.from_quantile_density(lambda u: np.ones_like(u), location=location, scale=scale)


def test_negate_quantile_deep_in_left_tail():
    # below 2^-53 the mirrored level 1 - u rounds to 1; the quantile stays at
    # its value at 2^-53 instead of returning -inf
    neg = parent.logistic().negate()
    deep = neg.quantile(np.array([1e-300, 2.0**-54, 2.0**-53]))
    assert np.all(np.isfinite(deep))
    assert neg.quantile(1e-300) == neg.quantile(2.0**-53) == pytest.approx(-math.log(2.0**53 - 1))


def test_make_family_and_config():
    m = parent.make_family("power", alpha=2.0)
    assert m.cdf(0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        parent.make_family("no-such-family")
    with pytest.raises(ValueError):
        parent.make_family("power", wrong=1.0)
    cfg = {"family": "cb", "params": {"alpha": 1, "beta": 1}, "location": 1.0, "scale": 2.0}
    m = parent.from_config(cfg)
    assert m.quantile(0.5) == pytest.approx(1.0, abs=1e-10)
    assert m.quantile_density(0.5) == pytest.approx(2.0 / 0.25)
    with pytest.raises(ValueError):
        parent.from_config({"family": "uniform", "bogus": 1})
    with pytest.raises(ValueError):
        parent.from_config({"params": {}})


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (0.0, 0.0), (-0.5, 2.0)])
def test_quantile_density_parent_respects_support(alpha, beta):
    m = parent.complementary_beta(alpha, beta)
    lo, hi = m.support
    below = [-math.inf] + ([lo - 1.0, lo] if math.isfinite(lo) else [])
    above = [math.inf] + ([hi, hi + 1.0] if math.isfinite(hi) else [])
    for x in below:
        assert m.cdf(x) == 0.0 and m.pdf(x) == 0.0, x
    for x in above:
        assert m.cdf(x) == 1.0 and m.pdf(x) == 0.0, x
    # nan is no level, and no point inside the support
    assert math.isnan(m.cdf(math.nan)) and m.pdf(math.nan) == 0.0
    xs = np.array(below + [m.median()] + above + [math.nan])
    cdf, pdf = m.cdf(xs), m.pdf(xs)
    assert cdf.shape == pdf.shape == xs.shape
    assert np.array_equal(cdf, [0.0] * len(below) + [0.5] + [1.0] * len(above) + [math.nan], equal_nan=True)
    assert np.count_nonzero(pdf) == 1 and pdf[len(below)] > 0


# the closed-form cdfs as first written, with nan falling to the else branch
OLD_CDFS = {
    "exponential": lambda x: np.where(x > 0, -np.expm1(-np.maximum(x, 0.0)), 0.0),
    "negative_exponential": lambda x: np.where(x < 0, np.exp(2.0 * np.minimum(x, 0.0)), 1.0),
    "negative_pareto": lambda x: np.where(x < 0.5, (1.0 + 1.5 * (0.5 - np.minimum(x, 0.5))) ** (-2.0), 1.0),
}


CLOSED_FORMS = {
    "exponential": parent.exponential,
    "negative_exponential": lambda: parent.negative_exponential(2.0),
    "negative_pareto": lambda: parent.negative_pareto(2.0, rate=1.5, upper=0.5),
    "uniform": parent.uniform,
    "power": lambda: parent.power_law(2.0),
    "logistic": parent.logistic,
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_closed_form_cdf_keeps_nan(name):
    m = CLOSED_FORMS[name]()
    assert math.isnan(m.cdf(math.nan)), name
    xs = np.array([-math.inf, -3.0, -0.0, 0.0, 0.25, 0.5, 2.0, math.inf, math.nan])
    cdf = m.cdf(xs)
    assert math.isnan(cdf[-1]) and not np.any(np.isnan(cdf[:-1])), name
    if name in OLD_CDFS:
        rng = np.random.default_rng(3)
        finite = np.concatenate([xs[:-1], rng.normal(0.0, 3.0, 10_000), [np.nextafter(0.5, 1.0), np.nextafter(0.0, -1.0)]])
        assert np.array_equal(m.cdf(finite), OLD_CDFS[name](finite)), name


# cb tables for the kernel tests: heavy one tail, light both, logistic, heavy left
CB_TABLES = [(0.5, 1.5), (0.5, 0.5), (1.0, 1.0), (2.0, 0.3)]


def cb_table(alpha, beta):
    return parent._QuantileTable(cb_density(alpha, beta), 0.0, 1.0)


@pytest.mark.parametrize("alpha, beta", CB_TABLES)
def test_direct_panel_index_matches_searchsorted(alpha, beta):
    table = cb_table(alpha, beta)
    nodes = table.u
    levels = np.concatenate(
        [
            nodes,
            np.nextafter(nodes, 0.0),
            np.nextafter(nodes, 1.0),
            [0.0, 1.0, parent.U_MIN, 1.0 - parent.U_MIN],
            np.random.default_rng(11).random(10**5),
        ]
    )
    u = np.clip(levels, nodes[0], nodes[-1])
    want = np.clip(np.searchsorted(nodes, u, side="right") - 1, 0, len(nodes) - 2)
    assert np.array_equal(table._panel(u), want)
    t = (u - nodes[want]) / (nodes[want + 1] - nodes[want])
    assert np.array_equal(table.quantile(levels), table._hermite(want, t))


def bisection_cdf(table, x):
    """Inverse of the table by 60 bisection steps of each panel's Hermite cubic."""
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(table.values, x, side="right") - 1, 0, len(table.u) - 2)
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    for _ in range(60):
        t = 0.5 * (lo + hi)
        above = table._hermite(idx, t) > x
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
    u = table.u[idx] + 0.5 * (lo + hi) * (table.u[idx + 1] - table.u[idx])
    return np.clip(u, table.u[0], table.u[-1])


def exact_panel_root(table, x):
    """The level where the panel cubic of the table equals x, at 40 digits."""
    i = int(np.clip(np.searchsorted(table.values, x, side="right") - 1, 0, len(table.u) - 2))
    with mpmath.workdps(40):
        u0, u1, y0, y1, d0, d1 = (
            mpmath.mpf(float(v))
            for v in (table.u[i], table.u[i + 1], table.values[i], table.values[i + 1], table.deriv[i], table.deriv[i + 1])
        )
        h = u1 - u0
        cubic = lambda t: (  # noqa: E731
            (2 * t**3 - 3 * t**2 + 1) * y0 + (t**3 - 2 * t**2 + t) * h * d0
            + (-2 * t**3 + 3 * t**2) * y1 + (t**3 - t**2) * h * d1 - mpmath.mpf(float(x))
        )
        return u0 + mpmath.findroot(cubic, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson") * h


@pytest.mark.parametrize("alpha, beta", CB_TABLES)
def test_cdf_matches_bisection(alpha, beta):
    table = cb_table(alpha, beta)
    x = np.concatenate(
        [
            table.values,
            table.quantile(np.random.default_rng(12).random(10**5)),
            [table.values[0] - 1.0, table.values[-1] + 1.0],
        ]
    )
    got = table.cdf(x)
    gap = np.abs(got - bisection_cdf(table, x))
    # two units in the last place of a level in [1/2, 1)
    assert np.max(gap) <= 2.0**-52
    # where the two differ most, the bisection carries the error: it tracks
    # the sign of the cubic as evaluated in floats, whose rounding is a few
    # units of the values; measured up to 2.1e-16 from the exact root for
    # cb(2, 0.3), where cdf stays within 5.5e-17
    for k in np.argsort(gap)[-20:]:
        assert abs(got[k] - exact_panel_root(table, x[k])) <= 1e-16


def test_cdf_exact_where_quantile_is_flat():
    # alpha < 0 flattens Q near 0: a panel's rise is then far below the size
    # of its values, which the cubic about the left node keeps exact (the
    # bisection of the float cubic was off by up to 1.9e-12 relative here)
    table = cb_table(-0.5, 2.0)
    x = table.quantile(np.random.default_rng(13).random(400) * 0.01)
    got = table.cdf(x)
    for k in range(0, 400, 20):
        want = exact_panel_root(table, x[k])
        assert abs(got[k] - want) <= 2e-16 * want


def test_quantile_density_build_does_not_import_numpy_ma():
    # numpy.ma costs 10-20 ms to import, a large share of a scipy-free start-up
    script = "import sys, ovstat; ovstat.complementary_beta(0.5, 1.5); assert 'numpy.ma' not in sys.modules"
    src = str(Path(parent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
