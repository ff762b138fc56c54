import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.stats import binom

from ovstat import parent
from ovstat.density import (
    joint_os_density,
    marginal_os_density,
    nu_total_mass,
    overlap_density,
    rectangle_probability,
)
from ovstat.overlap import OverlapSpec, probability_table

import oracles
from oracles import SMALL_SPECS, extension_density

UNI = parent.uniform()
EXP = parent.exponential()
INF = math.inf


def test_marginal_os_density_examples():
    # min of three uniforms at 0.5: 3 (1-x)^2
    assert marginal_os_density(UNI, 1, 3, 0.5) == pytest.approx(0.75)
    # a single draw is the parent itself
    x = np.linspace(0.1, 0.9, 9)
    assert np.allclose(marginal_os_density(UNI, 1, 1, x), UNI.pdf(x))
    # max of two exponentials
    xs = 1.3
    assert marginal_os_density(EXP, 2, 2, xs) == pytest.approx(
        2 * (1 - math.exp(-xs)) * math.exp(-xs)
    )
    with pytest.raises(ValueError):
        marginal_os_density(UNI, 0, 3, 0.5)


def test_joint_os_density_examples():
    # min and max of two uniforms: constant 2 below the diagonal
    assert joint_os_density(UNI, 1, 2, 2, 0.2, 0.6) == pytest.approx(2.0)
    assert joint_os_density(UNI, 1, 2, 2, 0.6, 0.2) == 0.0
    assert joint_os_density(UNI, 1, 2, 2, 0.4, 0.4) == 0.0
    with pytest.raises(ValueError):
        joint_os_density(UNI, 2, 2, 3, 0.1, 0.2)


def test_joint_os_density_min_max_of_three():
    # frozen value 2.4; independently re-derived by integrating the ordered
    # trivariate density 3! f(x)f(t)f(y) over the middle coordinate
    val = joint_os_density(UNI, 1, 3, 3, 0.2, 0.6)
    assert val == pytest.approx(2.4)
    oracle = quad(lambda t: 6.0, 0.2, 0.6)[0]
    assert val == pytest.approx(oracle)


def test_sliding_atom_profile():
    # one-step slide of the minimum of a pair, uniform parent:
    # atom(x) = (1-x)^2
    spec = OverlapSpec(1, 2, 2, 1, 1)
    d = overlap_density(spec, UNI)
    assert d.atom(0.5) == pytest.approx(0.25)
    x = np.linspace(0.05, 0.95, 7)
    assert np.allclose(d.atom(x), (1 - x) ** 2)
    assert d.atom_mass() == pytest.approx(1.0 / 3.0)


def test_identical_samples_purely_atomic():
    d = overlap_density(OverlapSpec(0, 3, 3, 2, 2), UNI)
    assert d.continuous(0.3, 0.6) == 0.0
    x = np.linspace(0.1, 0.9, 9)
    assert np.allclose(d.atom(x), marginal_os_density(UNI, 2, 3, x))
    assert quad(lambda t: d.atom(t), 0, 1)[0] == pytest.approx(1.0, abs=1e-8)


def test_extension_without_shared_rank_is_continuous():
    # the subsample os can never realise pooled rank j here, so no atom
    d = extension_density(1, 2, 4, 4, UNI)
    assert d.atom_terms == ()
    assert d.atom(0.5) == 0.0
    assert nu_total_mass(d) == pytest.approx(1.0, abs=1e-6)
    assert oracles.nu_mass_quadrature(d, 12) == pytest.approx(1.0, abs=1e-12)


def test_extension_matches_zero_offset_overlap():
    de = extension_density(1, 1, 1, 2, UNI)
    do = overlap_density(OverlapSpec(0, 1, 2, 1, 1), UNI)
    pts = [(0.2, 0.7), (0.7, 0.2), (0.4, 0.41)]
    for x, y in pts:
        assert de.continuous(x, y) == pytest.approx(do.continuous(x, y))
    x = np.linspace(0.1, 0.9, 5)
    assert np.allclose(de.atom(x), do.atom(x))
    # atom(x) = (1/2) * density of the pair minimum = 1 - x
    assert de.atom(0.5) == pytest.approx(0.5)


def test_diagonal_convention():
    d = overlap_density(OverlapSpec(1, 2, 2, 1, 1), UNI)
    for s in [0.2, 0.5, 0.8]:
        assert d.continuous(s, s) == 0.0


def test_extreme_slide_symmetry():
    # sliding maxima and minima have symmetric off-diagonal laws
    for spec in [OverlapSpec(2, 3, 3, 3, 3), OverlapSpec(2, 3, 3, 1, 1)]:
        d = overlap_density(spec, EXP)
        for (a, b) in [(0.3, 1.1), (0.2, 2.0), (1.4, 0.1)]:
            assert d.continuous(a, b) == pytest.approx(d.continuous(b, a))


@pytest.mark.parametrize(
    "model",
    [UNI, EXP, parent.logistic(), parent.complementary_beta(0.5, 1.5)],
    ids=lambda m: m.name,
)
def test_half_plane_sums_match_the_per_term_density(model):
    # both half-planes and the diagonal on a 9 x 9 grid; scalars take turns below, above and on it
    x = np.asarray(model.quantile(np.linspace(0.05, 0.95, 9)), dtype=float)
    points = [(x[2], x[6]), (x[6], x[2]), (x[4], x[4])]
    for index, spec in enumerate(SMALL_SPECS):
        d = overlap_density(spec, model)
        np.testing.assert_allclose(
            d.continuous(x[:, None], x[None, :]), oracles.per_term_continuous(d, x[:, None], x[None, :]), rtol=2e-15, atol=0
        )
        np.testing.assert_allclose(d.atom(x), oracles.per_term_atom(d, x), rtol=2e-15, atol=0)
        a, b = points[index % 3]
        for got, want in ((d.continuous(a, b), oracles.per_term_continuous(d, a, b)), (d.atom(a), oracles.per_term_atom(d, a))):
            assert type(got) is float and abs(got - want) <= 2e-15 * abs(want), (spec, a, b)


@pytest.mark.parametrize("model", [UNI, EXP])
@pytest.mark.parametrize(
    "spec",
    [
        OverlapSpec(1, 2, 2, 1, 1),
        OverlapSpec(1, 2, 2, 2, 1),
        OverlapSpec(2, 3, 3, 2, 2),
        OverlapSpec(0, 2, 4, 1, 2),
        OverlapSpec(1, 3, 3, 3, 1),
    ],
)
def test_total_mass_and_atom_mass(spec, model):
    d = overlap_density(spec, model)
    assert nu_total_mass(d, tol=1e-6) == pytest.approx(1.0, abs=1e-6)
    assert oracles.nu_mass_quadrature(d, 12) == pytest.approx(1.0, abs=1e-12)
    table = probability_table(spec)
    atom_quad = quad(
        lambda u: d.atom(float(model.quantile(u))) * float(model.quantile_density(u)),
        0,
        1,
        epsabs=1e-12,
        epsrel=1e-12,
    )[0]
    assert atom_quad == pytest.approx(float(table.diagonal_mass()), abs=1e-8)


def test_mass_quadrature_rejects_bad_tol():
    d = overlap_density(OverlapSpec(1, 2, 2, 1, 1), UNI)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol"):
            nu_total_mass(d, tol=tol)


def test_mass_audit_refuses_a_parent_off_its_duality():
    # a pdf 1% above its quantile density's reciprocal: f(Q(u)) q(u) = 1.01 at every level,
    # where a quadrature of the assembled density reads a mass of about 1.0167
    bad = dataclasses.replace(EXP, pdf=lambda x: 1.01 * EXP.pdf(x))
    d = overlap_density(OverlapSpec(1, 2, 2, 1, 1), bad)
    assert oracles.nu_mass_quadrature(d, 12) == pytest.approx(1.0167, abs=1e-4)
    with pytest.raises(RuntimeError, match="duality"):
        nu_total_mass(d)
    assert nu_total_mass(d, tol=0.02) == pytest.approx(1.0, abs=1e-15)


def test_marginalisation_recovers_both_os_densities():
    spec = OverlapSpec(1, 2, 2, 1, 1)
    d = overlap_density(spec, UNI)
    for x0 in [0.25, 0.6]:
        marg = quad(lambda y: d.continuous(x0, y), 0, 1, points=[x0], limit=200)[0]
        marg += d.atom(x0)
        assert marg == pytest.approx(marginal_os_density(UNI, spec.i, spec.m, x0), abs=1e-6)
    for y0 in [0.3, 0.75]:
        marg = quad(lambda x: d.continuous(x, y0), 0, 1, points=[y0], limit=200)[0]
        marg += d.atom(y0)
        # the second os has the same one-sample law under the shift
        assert marg == pytest.approx(marginal_os_density(UNI, spec.j, spec.n, y0), abs=1e-6)


def test_rectangle_probability_against_quadrature():
    spec = OverlapSpec(1, 2, 2, 1, 1)
    d = overlap_density(spec, UNI)
    x0, y0 = 0.55, 0.4
    direct = rectangle_probability(spec, UNI, x0, y0)
    cont = dblquad(lambda y, x: d.continuous(x, y), 0, x0, 0, y0, epsabs=1e-10)[0]
    atom = quad(lambda t: d.atom(t), 0, min(x0, y0), epsabs=1e-12)[0]
    assert direct == pytest.approx(cont + atom, abs=1e-7)
    # far corner carries all mass
    assert rectangle_probability(spec, UNI, 0.999999, 0.999999) == pytest.approx(1.0, abs=1e-5)
    assert rectangle_probability(spec, UNI, 1e-9, 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_extension_density_validation():
    with pytest.raises(ValueError):
        extension_density(2, 1, 1, 2, UNI)
    with pytest.raises(ValueError):
        extension_density(1, 3, 1, 2, UNI)


# -- the rectangle law against the per-rank-pair trinomial sum ---------------

# uniform levels: a = b, a > b, a < b, cdf 0 and 1 at finite and infinite levels
RECT_PAIRS = np.array(
    [(0.3, 0.3), (0.7, 0.2), (0.2, 0.7), (0.0, 0.5), (0.45, 1.0), (INF, 0.4), (-INF, 0.5), (INF, INF), (1.0, 0.0)]
).T


def test_rectangle_probability_matches_reference_on_small_specs():
    assert len(SMALL_SPECS) == 1196
    worst = 0.0
    for spec in SMALL_SPECS:
        got = rectangle_probability(spec, UNI, *RECT_PAIRS)
        want = [oracles.rectangle_probability(spec, UNI, x, y) for x, y in RECT_PAIRS.T]
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SMALL_SPECS),
    st.sampled_from([UNI, EXP, parent.logistic()]),
    st.floats(-40.0, 40.0),
    st.floats(-40.0, 40.0),
)
def test_rectangle_probability_matches_reference_at_random_levels(spec, model, x, y):
    got = rectangle_probability(spec, model, x, y)
    assert abs(got - oracles.rectangle_probability(spec, model, x, y)) <= 1e-13


@pytest.mark.parametrize("spec", [OverlapSpec(20, 50, 50, 25, 25), OverlapSpec(40, 80, 50, 40, 30)], ids=["N70", "N90"])
def test_rectangle_probability_matches_reference_at_large_n(spec):
    model = parent.logistic()
    for x, y in [(0.0, 0.0), (0.3, -0.2), (-0.4, 0.5), (-1.0, INF)]:
        got = rectangle_probability(spec, model, x, y)
        assert abs(got - oracles.rectangle_probability(spec, model, x, y)) <= 1e-13


def test_rectangle_grid_equals_scalar_calls():
    model = parent.complementary_beta(0.5, 1.5)
    xs = np.concatenate([[-INF], model.quantile(np.arange(1, 6) / 6), [INF]])
    for spec in [OverlapSpec(1, 3, 3, 2, 2), OverlapSpec(2, 4, 5, 3, 1), OverlapSpec(1, 30, 30, 15, 15)]:
        grid = rectangle_probability(spec, model, xs[:, None], xs[None, :])
        assert grid.shape == (7, 7)
        for a, x in enumerate(xs):
            for b, y in enumerate(xs):
                scalar = rectangle_probability(spec, model, x, y)
                assert type(scalar) is float and scalar == grid[a, b]


@pytest.mark.parametrize(
    "spec", [OverlapSpec(40, 100, 150, 50, 70), OverlapSpec(2, 1000, 1000, 500, 499)], ids=["N190", "N1002"]
)
def test_rectangle_margins_and_swap_at_large_n(spec):
    model = parent.logistic()
    levels = np.array([0.49, 0.505])
    x, y = model.quantile(levels), model.quantile(levels[::-1])
    # rows: the first margin, the second margin, one interior corner per column
    xs, ys = np.array([x, [INF, INF], x]), np.array([[INF, INF], x, y])
    got = rectangle_probability(spec, model, xs, ys)
    assert np.all(np.isfinite(got))
    # each margin is a one-sample binomial tail in F(x)
    assert np.max(np.abs(got[0] - binom.sf(spec.i - 1, spec.m, levels))) <= 1e-12
    assert np.max(np.abs(got[1] - binom.sf(spec.j - 1, spec.n, levels))) <= 1e-12
    # reading the pooled sequence backwards exchanges the two order statistics
    assert np.max(np.abs(rectangle_probability(spec.swapped(), model, ys, xs) - got)) <= 1e-13


@pytest.mark.parametrize("model", [EXP, parent.logistic(), parent.complementary_beta(0.5, 1.5)], ids=lambda m: m.name)
def test_rectangle_probability_refuses_nan(model):
    spec = OverlapSpec(1, 2, 2, 1, 1)
    for x, y in [(math.nan, 0.3), (0.3, math.nan), (np.array([0.1, math.nan]), 0.3)]:
        with pytest.raises(ValueError, match="nan"):
            rectangle_probability(spec, model, x, y)
    # infinite levels stay valid: the margins are taken at +inf
    assert rectangle_probability(spec, model, INF, INF) == pytest.approx(1.0, abs=1e-15)


def test_rectangle_probability_refuses_n_above_1029(monkeypatch):
    # at N = 1030 the largest binomial C(N, N/2) overflows a float, and the
    # law's construction raised a bare OverflowError after the table was built
    def no_table(spec):
        raise AssertionError("the table was built before the refusal")

    monkeypatch.setattr("ovstat.density.cached_table", no_table)
    with pytest.raises(ValueError, match="1029"):
        rectangle_probability(OverlapSpec(0, 1, 1030, 1, 1), EXP, 0.5, 0.7)
