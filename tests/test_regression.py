import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from oracles import mean_original_given_extended_reference
from ovstat import parent, regression
from ovstat.combinatorics import binom
from ovstat.curve import Curve, tabulate
from ovstat.overlap import OverlapSpec, probability_table
from ovstat.reconstruct import midsample_quantile_density
from ovstat.regression import (
    conditional_os_mean,
    mean_adjacent,
    mean_extended_given_original,
    mean_given_single,
    mean_max_extended,
    mean_min_extended,
    mean_original_given_extended,
    pair_regression_r1,
)
from ovstat.regression import _quad_q

UNI = parent.uniform()
EXP = parent.exponential()
LOG = parent.logistic()
PARENTS = [UNI, EXP, LOG]


# Exact quantile functions for the mpmath oracle.  Each takes the level u and
# its complement c = 1 - u, so that no tail value is formed by a subtraction.
MP_PARENTS = {
    "uniform": (UNI, lambda u, c: u),
    "exponential": (EXP, lambda u, c: -mpmath.log(c)),
    "logistic": (LOG, lambda u, c: mpmath.log(u / c)),
    "negative_pareto(3)": (parent.negative_pareto(3.0), lambda u, c: 1 - u ** (-mpmath.mpf(1) / 3)),
    "power_law(0.5)": (parent.power_law(0.5), lambda u, c: u**2),
}


@functools.lru_cache(maxsize=None)
def mp_beta_mean(name, above, a, size, w):
    """E of the a-th of ``size`` draws truncated below (above=False) or above
    (above=True) the level w, as an mpmath quadrature at 30 digits.

    The mean depends on (k, ell, N) only through these four numbers, so the
    cache serves every geometry that shares them.
    """
    Q = MP_PARENTS[name][1]
    with mpmath.workdps(30):
        w = mpmath.mpf(w)
        if above:
            point = lambda z: Q(w + (1 - w) * z, (1 - w) * (1 - z))  # noqa: E731
        else:
            point = lambda z: Q(w * z, 1 - w * z)  # noqa: E731
        kernel = lambda z: a * binom(size, a) * z ** (a - 1) * (1 - z) ** (size - a)  # noqa: E731
        return mpmath.quad(lambda z: point(z) * kernel(z), [0, 1])


def mp_conditional_os_mean(name, k, ell, N, y):
    """Oracle for conditional_os_mean at the same float level cdf(y)."""
    w = float(MP_PARENTS[name][0].cdf(y))
    if k == ell:
        return mpmath.mpf(y)
    if k < ell:
        return mp_beta_mean(name, False, k, ell - 1, w)
    return mp_beta_mean(name, True, k - ell, N - ell, w)


def relative_error(got, want, floor=0.0):
    """|got - want| relative to |want|, or to ``floor`` where that is larger."""
    return float(abs(mpmath.mpf(got) - want) / max(abs(want), floor))


def quantile_points(model, count=25):
    u = np.arange(1, count + 1) / (count + 1)
    return np.asarray(model.quantile(u), dtype=float)


def test_conditional_os_mean_uniform_pairs():
    # one draw truncated above/below the conditioning point
    assert conditional_os_mean(UNI, 2, 1, 2, 0.4) == pytest.approx(0.7, abs=1e-9)
    assert conditional_os_mean(UNI, 1, 2, 2, 0.4) == pytest.approx(0.2, abs=1e-9)
    assert conditional_os_mean(UNI, 3, 3, 5, 0.4) == 0.4
    with pytest.raises(ValueError):
        conditional_os_mean(UNI, 0, 1, 2, 0.4)


def test_pair_regression_uniform_closed_form():
    # E(max | shifted max = y) for the uniform parent equals 1/2 + y^2/3
    for y in [0.2, 0.5, 0.8]:
        assert pair_regression_r1("max_given_max", UNI, y) == pytest.approx(
            0.5 + y * y / 3.0, abs=1e-9
        )
    assert pair_regression_r1("max_given_max", UNI, 0.5) == pytest.approx(0.5833333333, abs=1e-9)


def test_pair_regression_unknown_name():
    with pytest.raises(ValueError):
        pair_regression_r1("median_given_max", UNI, 0.5)


def test_self_conditioning_is_identity():
    for spec in [OverlapSpec(0, 3, 3, 2, 2), OverlapSpec(0, 4, 4, 1, 1)]:
        for y in [0.3, 0.6]:
            assert mean_original_given_extended(spec, UNI, y) == pytest.approx(y, abs=1e-10)
            assert mean_extended_given_original(spec, UNI, y) == pytest.approx(y, abs=1e-10)


def test_single_draw_given_pair_minimum():
    # E(X1 | min(X1, X2) = y) = y/2 + (integral of x f over (y, b)) / (2 Fbar(y)),
    # derived directly from the joint law of (X1, min); uniform: y/2 + (1+y)/4
    spec = OverlapSpec(0, 1, 2, 1, 1)
    for y in [0.2, 0.5, 0.8]:
        assert mean_original_given_extended(spec, UNI, y) == pytest.approx(
            y / 2.0 + (1.0 + y) / 4.0, abs=1e-9
        )


def test_two_path_agreement_pair_forms():
    # the general rank-mixture representation against each closed form
    specs = {
        "max_given_max": OverlapSpec(1, 2, 2, 2, 2),
        "min_given_min": OverlapSpec(1, 2, 2, 1, 1),
        "min_given_max": OverlapSpec(1, 2, 2, 1, 2),
        "max_given_min": OverlapSpec(1, 2, 2, 2, 1),
    }
    for model in PARENTS:
        ys = quantile_points(model, 7)
        for which, spec in specs.items():
            for y in ys:
                a = mean_original_given_extended(spec, model, float(y))
                b = pair_regression_r1(which, model, float(y))
                assert a == pytest.approx(b, abs=1e-7), (which, model.name, y)


def test_two_path_agreement_extension_forms():
    for model in PARENTS:
        xs = quantile_points(model, 7)
        for x in xs:
            x = float(x)
            assert mean_extended_given_original(OverlapSpec(0, 2, 4, 1, 1), model, x) == pytest.approx(
                mean_min_extended(model, 4, 2, x), abs=1e-7
            )
            assert mean_extended_given_original(OverlapSpec(0, 2, 4, 2, 4), model, x) == pytest.approx(
                mean_max_extended(model, 4, 2, x), abs=1e-7
            )
            assert mean_extended_given_original(OverlapSpec(0, 3, 4, 2, 2), model, x) == pytest.approx(
                mean_adjacent(model, 2, 3, x), abs=1e-7
            )
            assert mean_extended_given_original(OverlapSpec(0, 1, 3, 1, 2), model, x) == pytest.approx(
                mean_given_single(model, 2, 3, x), abs=1e-7
            )


def test_adjacent_uniform_closed_form():
    for i in [1, 2, 4]:
        for x in [0.25, 0.5, 0.75]:
            assert mean_adjacent(UNI, i, 5, x) == pytest.approx(
                x - x * x / (i + 1), abs=1e-9
            )


def test_min_extension_example():
    # E(min of 2 | the single first draw = 0.5), uniform: x(1-x) + x^2/2
    assert mean_min_extended(UNI, 2, 1, 0.5) == pytest.approx(0.375, abs=1e-10)
    with pytest.raises(ValueError):
        mean_min_extended(UNI, 2, 2, 0.5)


def test_given_single_slope_is_rank_kernel():
    # the x-derivative of E(X_{2:3} | X = x) equals 2 F(x) (1 - F(x))
    h = 1e-5
    for model in [LOG, UNI]:
        for u in [0.3, 0.5, 0.7]:
            x = float(model.quantile(u))
            slope = (mean_given_single(model, 2, 3, x + h) - mean_given_single(model, 2, 3, x - h)) / (
                2 * h
            )
            F = float(model.cdf(x))
            assert slope == pytest.approx(2 * F * (1 - F), abs=1e-6)


def test_negation_duality():
    # E(min | shifted min = y) for X equals -E(max | shifted max = -y) for -X
    neg = LOG.negate()
    for y in [-0.8, 0.0, 1.1]:
        a = pair_regression_r1("min_given_min", LOG, y)
        b = -pair_regression_r1("max_given_max", neg, -y)
        assert a == pytest.approx(b, abs=1e-8)
    # and the cross forms likewise
    for y in [-0.5, 0.7]:
        a = pair_regression_r1("min_given_max", LOG, y)
        b = -pair_regression_r1("max_given_min", neg, -y)
        assert a == pytest.approx(b, abs=1e-8)


def test_mixture_weights_sum_to_one():
    # regressing the constant 1 returns 1: the cdf-weighted rank-pair weights
    # form a probability mixture at every conditioning point
    for spec in [OverlapSpec(1, 2, 2, 2, 2), OverlapSpec(2, 3, 4, 2, 3), OverlapSpec(0, 2, 5, 1, 3)]:
        table = probability_table(spec)
        N = spec.pooled_size
        for model, u in [(UNI, 0.35), (EXP, 0.6)]:
            y = float(model.quantile(u))
            F = float(model.cdf(y))
            total = 0.0
            for ell in spec.ell_support:
                wf = (
                    (ell * binom(N, ell))
                    / (spec.j * binom(spec.n, spec.j))
                    * F ** (ell - spec.j)
                    * (1 - F) ** (spec.j + spec.r - ell)
                )
                total += wf * float(sum(table[(k, ell)] for k in spec.k_support))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_infinite_mean_warning():
    heavy = parent.negative_pareto(shape=0.5)
    with pytest.warns(RuntimeWarning):
        mean_adjacent(heavy, 2, 3, -1.0)


def test_tabulate_regression():
    curve = tabulate(
        lambda y: pair_regression_r1("max_given_max", UNI, y), UNI, size=99, meaning="pair max"
    )
    assert len(curve) == 99
    assert np.all(np.isfinite(curve.values))
    assert curve.is_monotone()
    again = tabulate(
        lambda y: pair_regression_r1("max_given_max", UNI, y), UNI, size=99
    )
    assert np.array_equal(curve.values, again.values)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(np.array([0.2, 0.1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Curve(np.array([0.1, 0.2]), np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        tabulate(lambda x: x, UNI, size=1)


def test_mixture_finite_near_upper_endpoint():
    # near z = 1 the level F + (1 - F) z rounds to 1, where the quantile is inf
    spec = OverlapSpec(1, 2, 2, 2, 2)
    y = float(EXP.quantile(1.0 - 1e-12))
    got = mean_original_given_extended(spec, EXP, y)
    assert math.isfinite(got)
    N, F = spec.pooled_size, mpmath.mpf(float(EXP.cdf(y)))
    table = probability_table(spec)
    want = mpmath.mpf(0)
    for ell in spec.ell_support:
        wf = mpmath.mpf(ell * binom(N, ell)) / (spec.j * binom(spec.n, spec.j))
        wf *= F ** (ell - spec.j) * (1 - F) ** (spec.j + spec.r - ell)
        for k in spec.k_support:
            p = table[(k, ell)]
            if p:
                want += mpmath.mpf(p.numerator) / p.denominator * wf * mp_conditional_os_mean("exponential", k, ell, N, y)
    assert relative_error(got, want) <= 1e-12


ENGINE_CASES = [(k, ell, N) for N in range(2, 7) for k in range(1, N + 1) for ell in range(1, N + 1) if k != ell]


@pytest.mark.parametrize("name", list(MP_PARENTS))
def test_conditional_os_mean_against_mpmath(name):
    model = MP_PARENTS[name][0]
    worst = 0.0
    for level in (1e-6, 0.3, 0.99):
        y = float(model.quantile(level))
        for k, ell, N in ENGINE_CASES:
            got, want = conditional_os_mean(model, k, ell, N, y), mp_conditional_os_mean(name, k, ell, N, y)
            # a mean near 0 (logistic draws above Q(1e-6)) is a cancellation
            # of terms of the size of y, so |y| bounds the scale from below
            worst = max(worst, relative_error(got, want, abs(y)))
    assert worst <= 1e-12, worst
    # one level from the top the quantile's argument is only resolved to
    # 2^-53 / 1e-6 of the range above y, which caps the accuracy
    y = float(model.quantile(1.0 - 1e-6))
    for k, ell, N in ENGINE_CASES:
        got = conditional_os_mean(model, k, ell, N, y)
        assert math.isfinite(got)
        assert relative_error(got, mp_conditional_os_mean(name, k, ell, N, y), abs(y)) <= 1e-9, (k, ell, N)


def hermite_tail_integral(model, u, values, deriv, lo):
    """Exact integral of a tabulated quantile over (lo, 1): cubic Hermite panels
    above lo, and the constant the table clips to beyond its last node."""
    i = int(np.searchsorted(u, lo, side="right"))  # first node above lo
    h = np.diff(u[i:])
    full = h * (values[i:-1] + values[i + 1 :]) / 2 + h**2 * (deriv[i:-1] - deriv[i + 1 :]) / 12
    nodes, weights = np.polynomial.legendre.leggauss(3)  # exact on the cubic piece holding lo
    half = (u[i] - lo) / 2
    partial = half * float(weights @ model.quantile(lo + half * (nodes + 1)))
    return math.fsum(full) + partial + (1.0 - u[-1]) * values[-1]


def test_quad_q_on_tabulated_quantile():
    # cb's quantile is a C^1 Hermite table, constant beyond 1 - 1e-12; the
    # heavy right tail (beta = 1.5) puts much of the integral near that end
    cb = parent.complementary_beta(0.5, 1.5)
    table = parent._QuantileTable(lambda u: u**-0.5 * (1.0 - u) ** -1.5, 0.0, 1.0)
    assert np.array_equal(cb.quantile(table.u), table.values)
    for level in (0.5, 0.9, 0.99, 0.999):
        want = hermite_tail_integral(cb, table.u, table.values, table.deriv, level)
        got = _quad_q(cb, lambda u: 1.0, level, 1.0)
        assert abs(got - want) <= 1e-6 * abs(want), level


def mp_mixture(spec, name, y):
    """Oracle for mean_original_given_extended at the same float level cdf(y)."""
    N, F = spec.pooled_size, mpmath.mpf(float(MP_PARENTS[name][0].cdf(y)))
    table = probability_table(spec)
    want = mpmath.mpf(0)
    for ell in spec.ell_support:
        wf = mpmath.mpf(ell * binom(N, ell)) / (spec.j * binom(spec.n, spec.j))
        wf *= F ** (ell - spec.j) * (1 - F) ** (spec.j + spec.r - ell)
        for k in spec.k_support:
            p = table[(k, ell)]
            if p:
                want += mpmath.mpf(p.numerator) / p.denominator * wf * mp_conditional_os_mean(name, k, ell, N, y)
    return want


def test_upper_side_refused_once_level_rounds_to_one():
    # E(X1 | min(X1, X2) = y) is about y + 1/2 for the logistic parent; at
    # y = 800, F(y) rounds to 1 and every upper-side node would collapse onto
    # the level cap, giving a finite but wrong 418.37
    spec = OverlapSpec(0, 1, 2, 1, 1)
    for y in (36.8, 800.0):
        assert float(LOG.cdf(y)) >= 1.0 - 2.0**-53
        with pytest.raises(ValueError, match="upper"):
            mean_original_given_extended(spec, LOG, y)
        with pytest.raises(ValueError, match="upper"):
            conditional_os_mean(LOG, 2, 1, 2, y)
    # E(X1 | max(X1, X2) = y) has no upper side: y/2 + E(X | X < y)/2, about 400
    assert mean_original_given_extended(OverlapSpec(0, 1, 2, 1, 2), LOG, 800.0) == pytest.approx(400.0)
    # F(30) = 1 - 9.3e-14 is still resolved; levels near 1 are spaced 2^-53
    # apart, about 1.2e-3 of the remaining tail there, so the tolerance is loose
    # (measured 1.7e-5)
    got = mean_original_given_extended(spec, LOG, 30.0)
    assert relative_error(got, mp_mixture(spec, "logistic", 30.0)) <= 1e-4


# criterion 9's midsample geometries (0,2,4,1,2), (0,2,4,2,3), (0,3,5,2,3)
# and others with N = 2..9: both ends of the overlap (r = 0, and m = n + r)
# and j at either end of its sample
MIXTURE_SPECS = [
    OverlapSpec(1, 3, 3, 2, 2),
    OverlapSpec(0, 2, 4, 1, 2),
    OverlapSpec(2, 4, 5, 2, 3),
    OverlapSpec(3, 6, 6, 3, 4),
    OverlapSpec(0, 2, 4, 2, 3),
    OverlapSpec(0, 3, 5, 2, 3),
    OverlapSpec(1, 2, 2, 2, 2),
    OverlapSpec(0, 1, 2, 1, 1),
    OverlapSpec(3, 5, 4, 3, 2),
    OverlapSpec(2, 3, 4, 1, 4),
    OverlapSpec(1, 4, 6, 4, 1),
    OverlapSpec(3, 4, 5, 1, 5),
]
MIXTURE_PARENTS = [EXP, LOG, UNI, parent.complementary_beta(0.5, 1.5), parent.negative_pareto(3.0)]


@pytest.mark.parametrize("model", MIXTURE_PARENTS, ids=lambda model: model.name)
def test_mixture_equals_the_per_term_reference(model):
    worst = 0.0
    for y in np.asarray(model.quantile(np.linspace(0.01, 0.99, 99)), dtype=float):
        for spec in MIXTURE_SPECS:
            for got, want in [
                (mean_original_given_extended(spec, model, y), mean_original_given_extended_reference(spec, model, y)),
                (mean_extended_given_original(spec, model, y), mean_original_given_extended_reference(spec.swapped(), model, y)),
            ]:
                # the scale of the value: where it is far above y (the highest os
                # given the lowest), one ulp of it exceeds 1e-15 of y
                worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    assert worst <= 1e-15, worst


def test_mixture_kernels_are_built_once_per_geometry():
    spec = OverlapSpec(2, 4, 5, 2, 3)
    kernels = regression._mixture_kernels
    kernels.cache_clear()
    tabulate(lambda y: mean_original_given_extended(spec, LOG, y), LOG, size=99)
    assert kernels.cache_info().misses == 1
    # the other direction of the swapped geometry is this one's first direction
    mean_extended_given_original(spec.swapped(), EXP, 0.7)
    assert kernels.cache_info().misses == 1
    cached = kernels(spec)
    assert len(cached) == 6
    for array in cached:
        with pytest.raises(ValueError):
            array[...] = 0.0


# every public regression, as a function of its model and conditioning value
PUBLIC_REGRESSIONS = {
    "mean_original_given_extended": lambda md, y: mean_original_given_extended(OverlapSpec(1, 3, 3, 2, 2), md, y),
    "mean_extended_given_original": lambda md, y: mean_extended_given_original(OverlapSpec(1, 3, 3, 2, 2), md, y),
    "conditional_os_mean": lambda md, y: conditional_os_mean(md, 1, 2, 3, y),
    "conditional_os_mean k == ell": lambda md, y: conditional_os_mean(md, 2, 2, 3, y),
    "pair_regression_r1": lambda md, y: pair_regression_r1("max_given_max", md, y),
    "mean_given_single": lambda md, y: mean_given_single(md, 2, 3, y),
    "mean_min_extended": lambda md, y: mean_min_extended(md, 3, 1, y),
    "mean_max_extended": lambda md, y: mean_max_extended(md, 3, 1, y),
    "mean_adjacent": lambda md, y: mean_adjacent(md, 2, 3, y),
}
OFF_SUPPORT = [(UNI, 2.0), (UNI, -0.5), (EXP, -1.0), (EXP, math.nan), (EXP, math.inf), (LOG, -math.inf), (LOG, math.nan)]


@pytest.mark.parametrize("name", list(PUBLIC_REGRESSIONS))
def test_conditioning_value_off_the_support_refused(name):
    # before the check the uniform at 2.0 gave 1.111 and at -0.5 gave 0.056,
    # the exponential at -1 gave 0.0 (mean_given_single: 0.5), nan gave nan
    # and inf gave inf
    fn = PUBLIC_REGRESSIONS[name]
    for model, y in OFF_SUPPORT:
        with pytest.raises(ValueError, match="conditioning value"):
            fn(model, y)
        # one bad value refuses the whole array
        with pytest.raises(ValueError, match="conditioning value"):
            fn(model, np.array([float(model.quantile(0.5)), y, float(model.quantile(0.25))]))


def test_finite_support_endpoint_is_inside():
    # the one-sided formulas at a finite endpoint are kept
    assert mean_original_given_extended(OverlapSpec(1, 3, 3, 2, 2), UNI, 0.0) == pytest.approx(2.0 / 9.0)
    assert mean_given_single(UNI, 2, 3, 1.0) == pytest.approx(2.0 / 3.0)
    assert mean_adjacent(EXP, 1, 3, 0.0) == 0.0
    assert conditional_os_mean(UNI, 2, 2, 3, 1.0) == 1.0
    # and so are the branch refusals that divide by F(y) or 1 - F(y)
    with pytest.raises(ValueError, match="lower support endpoint"):
        pair_regression_r1("max_given_max", EXP, 0.0)
    with pytest.raises(ValueError, match="upper support endpoint"):
        pair_regression_r1("min_given_min", UNI, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="lower support endpoint"):
        mean_adjacent(UNI, 2, 3, np.array([0.0, 0.5]))


def closed_form_regressions(model):
    """Each closed-form public regression of ``model``, keyed by a label."""
    forms = {f"pair {which}": functools.partial(pair_regression_r1, which, model) for which in regression.PAIR_REGRESSIONS_R1}
    forms |= {f"single {j} of {n}": functools.partial(mean_given_single, model, j, n) for n in (2, 3, 5) for j in range(1, n + 1)}
    forms |= {f"adjacent {i} of {m}": functools.partial(mean_adjacent, model, i, m) for m in (1, 3) for i in range(1, m + 1)}
    forms |= {f"os {k} given {ell} of 4": functools.partial(conditional_os_mean, model, k, ell, 4) for k in (1, 3, 4) for ell in (1, 3)}
    forms["min of 5 given 2"] = functools.partial(mean_min_extended, model, 5, 2)
    forms["max of 5 given 2"] = functools.partial(mean_max_extended, model, 5, 2)
    return forms


@pytest.mark.parametrize("model", MIXTURE_PARENTS, ids=lambda model: model.name)
def test_array_equals_the_per_point_calls(model):
    ys = np.asarray(model.quantile(np.linspace(0.01, 0.99, 99)), dtype=float)
    curves = {}
    for spec in MIXTURE_SPECS:
        curves[f"{spec} first"] = functools.partial(mean_original_given_extended, spec, model)
        curves[f"{spec} second"] = functools.partial(mean_extended_given_original, spec, model)
    curves |= closed_form_regressions(model)
    worst = 0.0
    for label, fn in curves.items():
        got = fn(ys)
        assert isinstance(got, np.ndarray) and got.shape == ys.shape, label
        want = np.array([fn(float(y)) for y in ys])
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))))
    assert worst <= 1e-15, worst


def test_scalar_gives_a_float_and_an_array_keeps_its_shape():
    grid = np.asarray(EXP.quantile(np.linspace(0.05, 0.95, 12)), dtype=float).reshape(3, 4)
    for name, fn in PUBLIC_REGRESSIONS.items():
        fn = functools.partial(fn, EXP)
        value = fn(0.7)
        assert type(value) is float, name
        for same in (np.float64(0.7), np.array(0.7)):
            assert type(fn(same)) is float and fn(same) == value, name
        values = fn(grid)
        assert values.shape == (3, 4), name
        assert np.array_equal(values.ravel(), fn(grid.ravel())), name


def test_tabulate_calls_an_array_producer_once():
    calls = []

    def producer(x):
        calls.append(np.shape(x))
        return mean_original_given_extended(OverlapSpec(2, 4, 5, 2, 3), EXP, x)

    curve = tabulate(producer, EXP, size=41)
    assert calls == [(41,)]
    assert np.array_equal(curve.values, mean_original_given_extended(OverlapSpec(2, 4, 5, 2, 3), EXP, curve.grid))


def test_tabulate_calls_a_scalar_producer_per_point():
    curve = tabulate(lambda x: math.exp(-x), EXP, size=99)
    u = np.arange(1, 100) / 100
    assert np.array_equal(curve.values, np.array([math.exp(-float(x)) for x in np.asarray(EXP.quantile(u), dtype=float)]))


def test_midsample_identity_curve_warns_once():
    # a midsample parent has an infinite mean, so each regression call warns;
    # the 99-point curve is one call
    model = parent.from_quantile_density(midsample_quantile_density(3, 5), name="midsample(3,5)")
    spec = OverlapSpec(0, 3, 5, 2, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = tabulate(lambda y: mean_original_given_extended(spec, model, y), model, size=99)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert np.max(np.abs(curve.values - curve.grid) / np.maximum(np.abs(curve.grid), 1.0)) <= 1e-10


def test_tabulate_calls_a_reducing_producer_per_point():
    # a producer that takes the grid array but reduces it to one number gave
    # that number, 1.79176, at every point of this grid
    curve = tabulate(lambda x: float(np.max(x)), EXP, size=5)
    assert np.array_equal(curve.values, curve.grid)


CB = parent.complementary_beta(0.5, 1.5)
SLICED_CALLS = {
    "mean_original_given_extended": (mean_original_given_extended, (OverlapSpec(1, 3, 3, 2, 2), CB)),
    "conditional_os_mean below": (conditional_os_mean, (CB, 1, 2, 3)),
    "conditional_os_mean above": (conditional_os_mean, (CB, 3, 2, 3)),
    "pair_regression_r1": (pair_regression_r1, ("min_given_max", CB)),
    "mean_given_single": (mean_given_single, (CB, 2, 3)),
    "mean_adjacent": (mean_adjacent, (CB, 2, 3)),
}


@pytest.mark.parametrize("name", list(SLICED_CALLS))
def test_sliced_array_call_equals_one_pass(name):
    # 600 points span three slices, the last one partial; the undecorated
    # function evaluates them all in one pass
    fn, args = SLICED_CALLS[name]
    ys = np.asarray(CB.quantile(np.linspace(0.001, 0.999, 600)), dtype=float).reshape(2, 300)
    got = fn(*args, ys)
    assert got.shape == (2, 300)
    assert np.array_equal(got, fn.__wrapped__(*args, ys))


def test_long_array_call_holds_one_slice_of_temporaries():
    # 10^4 points in one pass held every point's (289,) level and quantile
    # arrays at once: a 393 MB peak on this parent
    spec = OverlapSpec(1, 3, 3, 2, 2)
    ys = np.asarray(CB.quantile(np.linspace(0.001, 0.999, 10_000)), dtype=float)
    mean_original_given_extended(spec, CB, ys[:2])  # the cached kernels are built outside the trace
    tracemalloc.start()
    try:
        mean_original_given_extended(spec, CB, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, peak
