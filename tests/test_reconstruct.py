
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import oracles
from ovstat import parent, reconstruct
from ovstat.combinatorics import binom
from ovstat.curve import Curve
from ovstat.reconstruct import (
    ReconstructionError,
    from_adjacent_regression,
    from_max_regression,
    from_min_regression,
    from_single_regression_slope,
    midsample_mixing_weight,
    midsample_quantile_density,
    quantile_from_linear_regression,
)
from ovstat.regression import mean_adjacent, mean_max_extended, mean_min_extended


def test_min_route_uniform_example():
    n, m = 4, 2
    d = n - m
    x = np.linspace(0.01, 0.99, 201)
    g = (1 - (1 - x) ** (d + 1)) / (d + 1)
    res = from_min_regression(Curve(x, g), n, m, derivative=(1 - x) ** d)
    assert res.max_abs_error_against(lambda t: t) < 1e-12
    assert res.diagnostics["monotone"]


def test_min_route_exponential_example():
    n, m = 3, 2
    d = n - m
    x = np.linspace(0.01, 6.0, 400)
    res = from_min_regression(
        Curve(x, (1 - np.exp(-d * x)) / d), n, m, derivative=np.exp(-d * x)
    )
    assert res.max_abs_error_against(lambda t: 1 - np.exp(-t)) < 1e-12


def test_min_route_finite_differences():
    # without an exact derivative the slope comes from central differences
    n, m = 2, 1
    u = np.arange(1, 2001) / 2001.0
    x = -np.log1p(-u)  # exponential quantiles
    g = (1 - np.exp(-x)) / 1.0
    res = from_min_regression(Curve(x, g), n, m)
    keep = (u >= 0.01) & (u <= 0.99)
    err = np.abs(res.cdf.values - (1 - np.exp(-x)))[keep].max()
    assert err < 1e-4


def test_min_route_rejects_bad_slopes():
    x = np.linspace(0.01, 0.99, 50)
    with pytest.raises(ReconstructionError):
        from_min_regression(Curve(x, x), 3, 2, derivative=np.full_like(x, 1.0))  # degenerate
    with pytest.raises(ReconstructionError):
        from_min_regression(Curve(x, x**2), 3, 2, derivative=2 * x)  # increasing slope
    with pytest.raises(ReconstructionError):
        from_min_regression(Curve(x, 2 * x), 3, 2, derivative=np.full_like(x, 2.0))  # > 1


def test_max_route_uniform_example():
    n, m = 5, 3
    d = n - m
    x = np.linspace(0.01, 0.99, 201)
    g = (x ** (d + 1) + d) / (d + 1)
    res = from_max_regression(Curve(x, g), n, m, derivative=x**d)
    assert res.max_abs_error_against(lambda t: t) < 1e-12


def test_max_route_is_negation_dual_of_min_route():
    n, m = 4, 2
    d = n - m
    x = np.linspace(0.01, 0.99, 101)
    gp = x**d
    res_max = from_max_regression(Curve(x, (x ** (d + 1) + d) / (d + 1)), n, m, derivative=gp)
    # reflect: a max-regression for X is a min-regression for -X
    xr = -x[::-1]
    res_min = from_min_regression(
        Curve(xr, -((x ** (d + 1) + d) / (d + 1))[::-1]), n, m, derivative=gp[::-1]
    )
    assert np.allclose(res_min.cdf.values, (1 - res_max.cdf.values)[::-1], atol=1e-12)


def test_extreme_routes_equal_the_mirrored_reference():
    # the inputs of the min- and max-route tests, refusals included, and the
    # single-draw route at its two ends
    x, xb = np.linspace(0.01, 0.99, 201), np.linspace(0.01, 0.99, 50)
    xe, xf = np.linspace(0.01, 6.0, 400), -np.log1p(-np.arange(1, 2001) / 2001.0)
    cases = [
        ("min", Curve(x, (1 - (1 - x) ** 3) / 3), 4, 2, (1 - x) ** 2),
        ("min", Curve(xe, 1 - np.exp(-xe)), 3, 2, np.exp(-xe)),
        ("min", Curve(xf, 1 - np.exp(-xf)), 2, 1, None),
        ("min", Curve(-x[::-1], -((x**3 + 2) / 3)[::-1]), 4, 2, (x**2)[::-1]),
        ("min", Curve(xe, np.zeros_like(xe)), 3, 1, np.exp(-2 * xe)),
        ("max", Curve(x, (x**3 + 2) / 3), 5, 3, x**2),
        ("max", Curve(x, (x**3 + 2) / 3), 4, 2, x**2),
        ("max", Curve(xe, xe + np.exp(-xe)), 2, 1, None),
    ]
    for model, n, m in [(parent.exponential(), 2, 1), (parent.logistic(), 3, 1), (parent.power_law(2.0), 3, 2)]:
        grid = np.asarray(model.quantile(np.arange(1, 202) / 202.0), dtype=float)
        for route, forward in (("min", mean_min_extended), ("max", mean_max_extended)):
            cases.append((route, Curve(grid, [forward(model, n, m, float(t)) for t in grid]), n, m, None))
    for route in ("min", "max"):
        cases += [
            (route, Curve(xb, xb), 3, 2, np.full_like(xb, 1.0)),  # identically 1
            (route, Curve(xb, xb**2), 3, 2, 2 * xb),  # rising slope, above 1 at the top
            (route, Curve(xb, xb**3 / 3), 3, 2, xb**2),  # rising
            (route, Curve(xb, xb - xb**3 / 3), 3, 2, 1 - xb**2),  # falling
            (route, Curve(xb, 2 * xb), 3, 2, np.full_like(xb, 2.0)),  # above 1
            (route, Curve(xb, xb), 3, 2, np.zeros_like(xb)),  # not positive
            (route, Curve(xb, xb), 2, 2, None),  # m = n
            (route, Curve(xb, xb), 3, 2, np.ones(3)),  # off the grid
        ]
    for step in (0.5e-9, 2e-9):  # either side of the 1e-9 slack on the slope's direction
        falling, rising = 0.9 - 0.5 * xb, 0.1 + 0.5 * xb
        falling[25:] += falling[24] - falling[25] + step
        rising[25:] -= rising[25] - rising[24] + step
        cases += [("min", Curve(xb, xb), 3, 2, falling), ("max", Curve(xb, xb), 3, 2, rising)]
    routes = {"min": (from_min_regression, oracles.from_min_regression), "max": (from_max_regression, oracles.from_max_regression)}
    for route, curve, n, m, derivative in cases:
        new, reference = routes[route]
        try:
            want = reference(curve, n, m, derivative=derivative)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                new(curve, n, m, derivative=derivative)
            assert (type(refused.value), str(refused.value)) == (type(exc), str(exc)), (route, n, m)
            continue
        got = new(curve, n, m, derivative=derivative)
        assert np.array_equal(got.cdf.values, want.cdf.values), (route, n, m)
        assert (got.gauge, got.diagnostics) == (want.gauge, want.diagnostics), (route, n, m)
    F = 1 - np.exp(-xe)
    for j, n, slope in [(1, 3, (1 - F) ** 2), (3, 3, F**2), (1, 2, 1 - F), (2, 2, F), (4, 4, F**3)]:
        got, want = (route(Curve(xe, slope), j, n) for route in (from_single_regression_slope, oracles.from_single_regression_slope))
        assert np.array_equal(got.cdf.values, want.cdf.values), (j, n)
        assert got.diagnostics == want.diagnostics, (j, n)
    # the reference takes a slope above 1 as 1 and a falling slope at j = n
    # as a cdf; the min and max routes refuse both
    with pytest.raises(ReconstructionError, match=r"must lie in \(0, 1\]"):
        from_single_regression_slope(Curve(xe, np.full_like(F, 1.5)), 1, 4)
    with pytest.raises(ReconstructionError, match="must be increasing"):
        from_single_regression_slope(Curve(xe, (1 - F) ** 3), 4, 4)


def test_adjacent_route_power_example():
    alpha, i = 2.0, 2
    x = np.linspace(0.02, 0.99, 120)
    res = from_adjacent_regression(
        lambda t: t ** (alpha + 1) / (i * alpha + 1), i, upper=1.0, grid=x
    )
    assert res.max_abs_error_against(lambda t: t**alpha) < 1e-12


def test_adjacent_route_constant_gap_linear_regression():
    # a constant gap characterises the reciprocal-linear cdf 1/(1 + A(b-x))
    A, b, i = 0.8, 0.0, 3
    x = np.linspace(-25.0, -0.05, 200)
    res = from_adjacent_regression(lambda t: 1.0 / (A * (i - 1)) + 0.0 * t, i, upper=b, grid=x)
    assert res.max_abs_error_against(lambda t: 1.0 / (1.0 + A * (b - t))) < 1e-10


def test_adjacent_route_negative_exponential_example():
    lam, i = 1.3, 2
    x = np.linspace(-14.0, -0.02, 200)
    res = from_adjacent_regression(lambda t: np.exp(lam * t) / (i * lam), i, upper=0.0, grid=x)
    assert res.max_abs_error_against(lambda t: np.exp(lam * t)) < 1e-10


def test_adjacent_route_refuses_divergent_tail():
    # int_1^inf h^-2 diverges for h = 1 and for h = (1+t)^0.4; scipy's quad
    # returned -1.0 and -5.74, which gave a ZeroDivisionError and a cdf of 0
    grid = np.linspace(0.0, 1.0, 5)
    for gap in (lambda t: 1.0 + 0 * t, lambda t: (1 + t) ** 0.4):
        with pytest.raises(ReconstructionError, match="diverges"):
            from_adjacent_regression(gap, 2, upper=math.inf, grid=grid)
    # int^1 (1 - t)^-2 and int^1 (1 - t)^-1 diverge at a finite upper; a gap of
    # 1e-200 inside the tail makes its sum infinite while both end terms stay finite
    for gap, upper in [
        (lambda t: 1.0 - t, 1.0),
        (lambda t: np.sqrt(1.0 - t), 1.0),
        (lambda t: np.where(np.abs(t - 3.0) < 1.0, 1e-200, (1.0 + t) ** 2), math.inf),
    ]:
        with np.errstate(over="ignore"), pytest.raises(ReconstructionError, match="diverges"):
            from_adjacent_regression(gap, 2, upper=upper, grid=np.linspace(0.0, 0.5, 5))


def _exponential_gap(t):
    # h(x) = int_0^x F^2 / F(x) for the standard exponential parent and i = 2
    F = -np.expm1(-t)
    return (t - 2 * F - np.expm1(-2 * t) / 2) / F


CLOSED_FORM_GAPS = [  # (gap, i, upper, grid): the three closed-form examples above
    (lambda t: t**3 / 5, 2, 1.0, np.linspace(0.02, 0.99, 120)),
    (lambda t: 1.0 / (0.8 * 2) + 0.0 * t, 3, 0.0, np.linspace(-25.0, -0.05, 200)),
    (lambda t: np.exp(1.3 * t) / (2 * 1.3), 2, 0.0, np.linspace(-14.0, -0.02, 200)),
]


@pytest.mark.parametrize("gap, i, upper, grid", CLOSED_FORM_GAPS)
def test_adjacent_route_matches_quad_oracle(gap, i, upper, grid):
    new = from_adjacent_regression(gap, i, upper=upper, grid=grid).cdf.values
    old = oracles.from_adjacent_regression(gap, i, upper=upper, grid=grid).cdf.values
    assert np.max(np.abs(new - old)) <= 1e-12


@pytest.mark.parametrize("grid", [np.linspace(0.5, 6.0, 100), np.linspace(0.05, 12.0, 300)])
def test_adjacent_route_infinite_upper(grid):
    new = from_adjacent_regression(_exponential_gap, 2, upper=math.inf, grid=grid).cdf.values
    old = oracles.from_adjacent_regression(_exponential_gap, 2, upper=math.inf, grid=grid).cdf.values
    assert np.max(np.abs(new + np.expm1(-grid))) <= 1e-14
    # quad's own error on the first grid is 1.3e-11
    assert np.max(np.abs(new - old)) <= 1e-10


def _exponential_gap_of_order(i):
    # h(x) = int_0^x F^i / F(x)^(i-1) = (x - sum_{k <= i} F(x)^k / k) / F(x)^(i-1)
    # for the standard exponential parent
    def gap(t):
        F = -np.expm1(-t)
        return (t - sum(F**k / k for k in range(1, i + 1))) / F ** (i - 1)

    return gap


@pytest.mark.parametrize("i, bound", [(8, 1e-9), (10, 1e-8), (20, 1e-5)])
def test_adjacent_route_slowly_decaying_tail(i, bound):
    # the gap grows like x, so the tail integrand decays like t^-(i/(i-1)); the
    # rule's end nodes carry 1.5e-9 of the tail for i = 8 and 1.5e-4 for i = 20
    grid = np.linspace(2.0, 12.0, 50)
    res = from_adjacent_regression(_exponential_gap_of_order(i), i, upper=math.inf, grid=grid)
    assert res.max_abs_error_against(lambda t: -np.expm1(-t)) <= bound


def test_adjacent_route_gap_singular_at_finite_upper():
    # h = c / sqrt(1 - t) gives F = 2c (1 - x)^-1.5 for i = 2; no rule node
    # lands on upper = 1, where math.sqrt makes the gap raise and np.sqrt warn
    x = np.linspace(0.1, 0.9, 9)
    for sqrt in (math.sqrt, np.sqrt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = from_adjacent_regression(lambda t: 0.01 / sqrt(1.0 - t), 2, upper=1.0, grid=x)
        assert res.max_abs_error_against(lambda t: 0.02 * (1.0 - t) ** -1.5) <= 1e-14


def test_adjacent_route_scalar_callables():
    lam, i = 1.3, 2
    x = np.linspace(-14.0, -0.02, 200)

    def scalar_only(t):
        return math.exp(lam * t) / (i * lam)

    res = from_adjacent_regression(scalar_only, i, upper=0.0, grid=x)
    per_value = from_adjacent_regression(np.frompyfunc(scalar_only, 1, 1), i, upper=0.0, grid=x)
    assert np.array_equal(res.cdf.values, per_value.cdf.values)
    assert res.max_abs_error_against(lambda t: np.exp(lam * t)) < 1e-10
    # a Python float returned for an array is the constant gap
    A, i = 0.8, 3
    x = np.linspace(-25.0, -0.05, 200)
    constant = from_adjacent_regression(lambda t: 1.0 / (A * (i - 1)), i, upper=0.0, grid=x)
    broadcast = from_adjacent_regression(lambda t: 1.0 / (A * (i - 1)) + 0.0 * t, i, upper=0.0, grid=x)
    assert np.array_equal(constant.cdf.values, broadcast.cdf.values)


def test_monotone_cubic_matches_pchip():
    rng = np.random.default_rng(6)
    for size in [2, 3, 4, 7, 40, 300]:
        for _ in range(20):
            x = np.cumsum(rng.uniform(0.01, 2.0, size)) - 3.0
            steps = rng.uniform(0.0, 1.0, size) * (rng.uniform(size=size) > 0.2)  # with flat runs
            y = rng.choice([-1.0, 1.0]) * np.cumsum(steps)
            span = x[-1] - x[0]
            at = np.concatenate((x, rng.uniform(x[0] - span, x[-1] + span, 500)))
            want = PchipInterpolator(x, y, extrapolate=True)(at)
            assert np.max(np.abs(reconstruct._monotone_cubic(x, y)(at) - want)) <= 1e-14


@pytest.mark.parametrize("j, n", [(2, 3), (2, 5), (3, 5), (4, 5), (3, 7), (5, 9)])
def test_single_slope_matches_brentq_oracle(j, n):
    tstar = (j - 1) / (n - 1)
    # both branches, away from the flat top where the root is ill-conditioned
    F = np.concatenate((np.linspace(0.01, tstar - 0.05, 60), [tstar], np.linspace(tstar + 0.05, 0.99, 60)))
    slope = Curve(np.arange(len(F), dtype=float), binom(n - 1, j - 1) * F ** (j - 1) * (1 - F) ** (n - j))
    new = from_single_regression_slope(slope, j, n)
    old = oracles.from_single_regression_slope(slope, j, n)
    for key in ("branch_switch_index", "kernel_max", "monotone"):
        assert new.diagnostics[key] == old.diagnostics[key]
    assert np.max(np.abs(new.cdf.values - old.cdf.values)) <= 1e-13
    assert np.max(np.abs(new.cdf.values - F)) <= 1e-13


def test_library_runs_without_scipy(tmp_path):
    script = textwrap.dedent(
        """
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError("scipy is blocked")

        sys.meta_path.insert(0, BlockScipy())
        import numpy as np
        import ovstat
        import ovstat.cli

        x = np.linspace(0.05, 0.95, 41)
        curve = ovstat.Curve(x, x)
        ovstat.from_min_regression(curve, 3, 1, derivative=(1 - x) ** 2)
        ovstat.from_max_regression(curve, 3, 1, derivative=x**2)
        ovstat.from_adjacent_regression(ovstat.Curve(x, x**3 / 5), 2, upper=1.0)
        ovstat.from_single_regression_slope(ovstat.Curve(x, 2 * x * (1 - x)), 2, 3)
        with open("curve.csv", "w") as handle:
            handle.write("x,value,derivative\\n")
            handle.writelines(f"{v!r},{v!r},{(1 - v) ** 2!r}\\n" for v in x.tolist())
        code = ovstat.cli.main(["reconstruct", "--route", "min", "--input", "curve.csv",
                                "--n", "3", "--m", "1", "--out", "cdf.csv"])
        assert code == 0, code
        assert "scipy" not in sys.modules
        """
    )
    src = str(Path(reconstruct.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cdf.csv").is_file()


def test_adjacent_route_validation():
    with pytest.raises(ValueError):
        from_adjacent_regression(lambda t: 1.0, 1, upper=1.0, grid=np.linspace(0.1, 0.9, 5))
    with pytest.raises(ReconstructionError):
        from_adjacent_regression(
            lambda t: t - 0.5, 2, upper=1.0, grid=np.linspace(0.1, 0.9, 5)
        )
    with pytest.raises(ValueError):
        from_adjacent_regression(lambda t: 1.0, 2, upper=1.0)  # callable needs a grid
    with pytest.raises(ValueError):
        from_adjacent_regression(lambda t: 1.0, 2, upper=0.5, grid=np.linspace(0.1, 0.9, 5))  # past upper
    with pytest.raises(ValueError):
        from_adjacent_regression(lambda t: 1.0, 2, upper=1.0, grid=[0.1, 0.3, 0.2])  # not increasing


def test_adjacent_route_from_tabulated_curve():
    alpha, i = 2.0, 3
    model = parent.power_law(alpha)
    u = np.arange(1, 2002) / 2002.0
    x = np.asarray(model.quantile(u), dtype=float)
    gap = x - np.array([mean_adjacent(model, i, 5, float(t)) for t in x])
    res = from_adjacent_regression(Curve(x, gap), i, upper=1.0)
    keep = (u >= 0.01) & (u <= 0.99)
    err = np.abs(res.cdf.values - x**alpha)[keep].max()
    assert err < 1e-5


@pytest.mark.parametrize("i, m, bound", [(2, 3, 0.025), (3, 5, 0.04)])
def test_adjacent_route_tabulated_gap_past_grid_follows_last_secant(i, m, bound):
    # the exponential gap grows linearly past the last node; the end cubic of
    # the interpolant bends away from it (cdf errors 0.072 and 0.159), the last
    # secant stays close (0.016 and 0.029)
    model = parent.exponential()
    x = np.asarray(model.quantile(np.arange(1, 402) / 402.0), dtype=float)
    gap = x - np.array([mean_adjacent(model, i, m, float(t)) for t in x])
    res = from_adjacent_regression(Curve(x, gap), i, upper=math.inf)
    assert res.max_abs_error_against(lambda t: -np.expm1(-t)) <= bound


def test_single_slope_logistic_example():
    x = np.linspace(-9.0, 9.0, 301)
    slope = 2 * np.exp(x) / (1 + np.exp(x)) ** 2
    res = from_single_regression_slope(Curve(x, slope), 2, 3)
    assert res.max_abs_error_against(lambda t: 1 / (1 + np.exp(-t))) < 1e-8
    # the branch switch happens no earlier than the kernel argmax
    switch = res.diagnostics["branch_switch_index"]
    assert res.cdf.values[switch] >= (2 - 1) / (3 - 1) - 1e-9


@pytest.mark.parametrize(
    "j, n, F",
    [
        # no sample at the apex F = 1/4; the largest slope is at F = 0.3, past it
        (2, 5, np.concatenate(([0.05, 0.1, 0.15, 0.2], np.arange(3, 10) / 10))),
        # apex 1/3, samples 0.05 either side of it
        (3, 7, np.concatenate((np.linspace(0.05, 1 / 3 - 0.05, 6), np.linspace(1 / 3 + 0.05, 0.95, 10)))),
        # every sample on the falling branch, so the largest slope is the first
        (2, 5, np.linspace(0.3, 0.9, 13)),
        # every sample on the rising branch, so the largest slope is the last
        (3, 5, np.linspace(0.05, 0.45, 9)),
    ],
)
def test_single_slope_peak_sample_takes_its_own_branch(j, n, F):
    x = -np.log1p(-F)  # exponential quantiles
    slope = binom(n - 1, j - 1) * F ** (j - 1) * (1 - F) ** (n - j)
    res = from_single_regression_slope(Curve(x, slope), j, n)
    assert np.max(np.abs(res.cdf.values - F)) <= 1e-12


def test_single_slope_extreme_indices_match_extreme_routes():
    # j = 1 reduces to the min-regression inversion
    x = np.linspace(0.05, 4.0, 200)
    F = 1 - np.exp(-x)
    n = 3
    slope = (1 - F) ** (n - 1)
    res = from_single_regression_slope(Curve(x, slope), 1, n)
    assert np.allclose(res.cdf.values, F, atol=1e-12)
    res_min = from_min_regression(
        Curve(x, np.zeros_like(x)), n, 1, derivative=slope
    )
    assert np.allclose(res.cdf.values, res_min.cdf.values, atol=1e-12)
    # j = n reduces to the max-regression inversion
    res_n = from_single_regression_slope(Curve(x, F ** (n - 1)), n, n)
    assert np.allclose(res_n.cdf.values, F, atol=1e-12)


@pytest.mark.parametrize("j", [1, 4])
def test_single_slope_end_indices_refuse_what_the_extreme_routes_refuse(j):
    # at j = 1 (j = n) the kernel is the min (max) route's slope with d = n - 1
    x = np.linspace(0.05, 4.0, 200)
    F = 1 - np.exp(-x)
    route = from_min_regression if j == 1 else from_max_regression
    wrong_way = F**3 if j == 1 else (1 - F) ** 3
    for slope, message in [
        (np.full_like(x, 1.5), r"must lie in \(0, 1\]"),  # above 1
        (wrong_way, "must be (de|in)creasing"),
        (np.ones_like(x), "identically 1"),
    ]:
        with pytest.raises(ReconstructionError, match=message):
            route(Curve(x, np.zeros_like(x)), 4, 1, derivative=slope)
        with pytest.raises(ReconstructionError, match=message):
            from_single_regression_slope(Curve(x, slope), j, 4)


def test_single_slope_rejects_flat_or_oversized():
    x = np.linspace(0.1, 0.9, 20)
    with pytest.raises(ReconstructionError):
        from_single_regression_slope(Curve(x, np.zeros_like(x)), 2, 3)
    with pytest.raises(ReconstructionError):
        from_single_regression_slope(Curve(x, np.full_like(x, 0.9)), 2, 3)  # above kernel max
    # a slope profile no monotone cdf can produce: high-low-high
    bad = np.where((x > 0.3) & (x < 0.6), 0.05, 0.45)
    with pytest.raises(ReconstructionError):
        from_single_regression_slope(Curve(x, bad), 2, 3)


def test_midsample_quantile_density_closed_forms():
    u = np.linspace(0.05, 0.95, 19)
    q = midsample_quantile_density(2, 4)
    assert midsample_mixing_weight(2, 4) == pytest.approx(0.25)
    assert np.allclose(q(u), (1 + u) / (u**1.25 * (1 - u) ** 2.5))
    q = midsample_quantile_density(3, 4)
    assert midsample_mixing_weight(3, 4) == pytest.approx(0.75)
    assert np.allclose(q(u), (2 - u) / (u**2.5 * (1 - u) ** 1.25))
    # the symmetric family: j = i+1, n = 2i+1 has constant numerator
    for i in [1, 2, 3]:
        q = midsample_quantile_density(i + 1, 2 * i + 1)
        ratio = q(u) / (u ** -(1 + i / 2) * (1 - u) ** -(1 + i / 2))
        assert np.allclose(ratio, ratio[0])
    with pytest.raises(ValueError):
        midsample_quantile_density(1, 4)


def test_round_trips_forward_then_inverse():
    # tabulate the forward regression, reconstruct, compare on the central
    # 98% quantile range
    cases = [
        (parent.uniform(), 3, 1),
        (parent.exponential(), 2, 1),
        (parent.logistic(), 2, 1),
        (parent.power_law(2.0), 3, 2),
    ]
    u = np.arange(1, 2001) / 2001.0
    keep = (u >= 0.01) & (u <= 0.99)
    for model, n, m in cases:
        x = np.asarray(model.quantile(u), dtype=float)
        g = np.array([mean_min_extended(model, n, m, float(t)) for t in x])
        res = from_min_regression(Curve(x, g), n, m)
        err = np.abs(res.cdf.values - np.asarray(model.cdf(x)))[keep].max()
        assert err < 1e-5, (model.name, err)


def test_wg_quantile_specialisations():
    u = np.linspace(0.05, 0.95, 19)
    # slope parameter 1: the quantile density is of complementary-beta form
    for j, n in [(2, 4), (3, 5)]:
        lam = (j - 1) / (n - 1)
        Q, qd = quantile_from_linear_regression(lam, 1.0, -1.0)
        target = u ** -(1 + (n - j) / (n - 1)) * (1 - u) ** -(1 + (j - 1) / (n - 1))
        ratio = qd(u) / target
        assert np.allclose(ratio, ratio[0])
        assert ratio[0] > 0  # increasing quantile needs the right sign of c
    # lam = 1/2 with reduced slope 1/2 gives the linear (uniform) quantile
    Q, _ = quantile_from_linear_regression(0.5, 0.5, -2.0)
    assert np.allclose(Q(u), 2 * u - 1)
    with pytest.raises(ValueError):
        quantile_from_linear_regression(0.5, 0.0, 1.0)


def test_degenerate_linear_quantile_rejected_downstream():
    Q, qd = quantile_from_linear_regression(0.5, 0.5, 0.0)
    assert Q(0.3) == 0.0
    with pytest.raises(ValueError):
        parent.from_quantile_density(qd)
