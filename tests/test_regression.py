import numpy as np
import pytest

from ovstat import parent
from ovstat.combinatorics import binom
from ovstat.curve import Curve, tabulate
from ovstat.overlap import OverlapSpec, probability_table
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

UNI = parent.uniform()
EXP = parent.exponential()
LOG = parent.logistic()
PARENTS = [UNI, EXP, LOG]


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
