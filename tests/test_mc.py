import dataclasses
import math
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.integrate import IntegrationWarning, quad

import oracles
from ovstat import mc, parent
from ovstat.density import overlap_density
from ovstat.mc import (
    MCReport,
    binned_conditional_mean,
    empirical_tie_table,
    identity_regression_comparison,
    regression_comparison,
    simulate_pairs,
    verify_spec,
)
from ovstat.overlap import OverlapSpec, probability_table
from ovstat.regression import mean_original_given_extended

UNI = parent.uniform()


def test_simulation_determinism():
    spec = OverlapSpec(1, 2, 2, 1, 1)
    a = simulate_pairs(spec, UNI, 50_000, seed=9)
    b = simulate_pairs(spec, UNI, 50_000, seed=9)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.rank_y, b.rank_y)
    c = simulate_pairs(spec, UNI, 50_000, seed=10)
    assert not np.array_equal(a.x, c.x)


def test_parallel_serial_equivalence():
    spec = OverlapSpec(2, 3, 3, 2, 2)
    serial = simulate_pairs(spec, UNI, 250_000, seed=4, chunk_size=50_000)
    threaded = simulate_pairs(spec, UNI, 250_000, seed=4, chunk_size=50_000, workers=4)
    assert np.array_equal(serial.x, threaded.x)
    assert np.array_equal(serial.y, threaded.y)
    assert np.array_equal(serial.rank_x, threaded.rank_x)


def test_tie_frequency_sliding_minimum():
    spec = OverlapSpec(1, 2, 2, 1, 1)
    sample = simulate_pairs(spec, UNI, 10**6, seed=12)
    p = 1.0 / 3.0
    se = math.sqrt(p * (1 - p) / sample.count)
    assert abs(sample.tie_frequency() - p) < 4 * se


def test_identical_os_ties_always():
    sample = simulate_pairs(OverlapSpec(0, 3, 3, 2, 2), UNI, 10_000, seed=1)
    assert sample.tie_frequency() == 1.0
    assert np.array_equal(sample.x, sample.y)


def test_empirical_table_respects_support():
    spec = OverlapSpec(1, 3, 3, 2, 2)
    freqs = empirical_tie_table(spec, UNI, 200_000, seed=5)
    table = probability_table(spec)
    support = set(table.nonzero())
    assert set(freqs) <= support
    assert sum(freqs.values()) == pytest.approx(1.0)


def test_verify_spec_report():
    spec = OverlapSpec(1, 2, 2, 1, 1)
    rep = verify_spec(spec, UNI, count=400_000, seed=3)
    assert rep.passed, rep.to_json()
    assert rep.max_abs_z <= 4.0
    names = [c.name for c in rep.comparisons]
    assert "support-violations" in names
    assert any(name.startswith("rect[") for name in names)
    payload = rep.to_json_dict()
    assert payload["passed"] is True
    # identical configuration reproduces the report bit for bit
    rep2 = verify_spec(spec, UNI, count=400_000, seed=3)
    assert rep.to_json() == rep2.to_json()


def test_verify_spec_failure_with_tiny_threshold():
    rep = verify_spec(OverlapSpec(1, 2, 2, 1, 1), UNI, count=100_000, seed=3, zmax=0.01)
    assert not rep.passed


def _difference(xu, yu):
    return xu - yu


def test_binned_conditional_mean_identity():
    spec = OverlapSpec(0, 4, 4, 3, 3)  # both os's are the same draw
    edges, counts, means, ses = binned_conditional_mean(spec, 100_000, 0, _difference, bins=20, trim=(0.1, 0.9))
    assert np.all(means == 0.0) and np.all(ses == 0.0)
    assert np.all(counts > 0) and len(edges) == 21
    with pytest.raises(ValueError, match="10 bins"):
        binned_conditional_mean(spec, 100_000, 0, _difference, bins=5)
    for trim in [(0.5, 0.5), (0.2, 0.1), (-0.1, 0.9), (0.1, 1.5)]:
        with pytest.raises(ValueError, match="trim"):
            binned_conditional_mean(spec, 100_000, 0, _difference, bins=10, trim=trim)


def test_regression_comparison_uniform():
    spec = OverlapSpec(1, 2, 2, 2, 2)
    rep = regression_comparison(spec, UNI, count=10**6, seed=21, bins=25, trim=(0.1, 0.9))
    assert rep.passed, rep.to_json()


def test_identity_regression_self():
    rep = identity_regression_comparison(
        OverlapSpec(0, 4, 4, 3, 3), UNI, count=100_000, seed=2, bins=10
    )
    assert rep.max_abs_z == 0.0


def test_count_validation():
    with pytest.raises(ValueError):
        simulate_pairs(OverlapSpec(1, 2, 2, 1, 1), UNI, 0, seed=1)


CHECKS = [verify_spec, regression_comparison, identity_regression_comparison]


@pytest.mark.parametrize("check", [simulate_pairs, empirical_tie_table, *CHECKS], ids=lambda f: f.__name__)
@pytest.mark.parametrize("count", [2000.5, 2000.0, True, 0, -3, "2000"], ids=repr)
def test_count_must_be_a_positive_integer(check, count):
    # 2000.5 raised TypeError from inside numpy or range, and True ran one draw
    with pytest.raises(ValueError, match="count must be"):
        check(OverlapSpec(1, 2, 2, 1, 1), UNI, count, seed=1)


@pytest.mark.parametrize("check", [simulate_pairs, empirical_tie_table, *CHECKS], ids=lambda f: f.__name__)
def test_count_may_be_a_numpy_integer(check):
    # np.int64(2000) raised OverflowError from the block generator's advance; a report
    # must still go through json.dumps, which refuses a numpy sample_count
    kwargs = {"bins": 10} if check in CHECKS[1:] else {}
    got, want = (check(OverlapSpec(1, 2, 2, 1, 1), UNI, count, seed=1, **kwargs) for count in (np.int64(2000), 2000))
    key = {simulate_pairs: lambda sample: sample.x.tolist(), empirical_tie_table: dict}.get(check, MCReport.to_json)
    assert key(got) == key(want)


@pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("zmax", [math.nan, -1.0, 0.0])
def test_zmax_refused_before_any_draw(check, zmax, monkeypatch):
    # such a zmax ran the whole Monte Carlo check and then always reported a failure
    def no_draws(*args, **kwargs):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(mc, "_reduce_blocks", no_draws)
    with pytest.raises(ValueError, match="zmax"):
        check(OverlapSpec(1, 2, 2, 1, 1), UNI, count=2000, seed=1, zmax=zmax)


BINNED_CHECKS = [binned_conditional_mean, regression_comparison, identity_regression_comparison]


@pytest.mark.parametrize("check", BINNED_CHECKS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("count, bins", [(2000, 50.0), (2000, np.float64(12.0)), (2000, "12"), (2000, True), (2000, 9), (20, 21)], ids=str)
def test_bins_refused_before_any_draw(check, count, bins, monkeypatch):
    # bins=50.0 raised TypeError, and more bins than draws ran the whole check
    # before it failed on an empty bin
    def no_draws(*args, **kwargs):
        raise AssertionError("drew a sample or built the bin edges")

    monkeypatch.setattr(mc, "_reduce_blocks", no_draws)
    monkeypatch.setattr(mc, "_level_edges", no_draws)
    given = {"statistic": _difference} if check is binned_conditional_mean else {"model": UNI}
    with pytest.raises(ValueError, match="bins"):
        check(OverlapSpec(1, 2, 2, 1, 1), count=count, seed=1, bins=bins, **given)


def test_bins_may_be_a_numpy_integer():
    got, want = (regression_comparison(OverlapSpec(1, 2, 2, 1, 1), UNI, 2000, seed=1, bins=bins) for bins in (np.int64(10), 10))
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"chunk_size": -5}, "chunk_size"),
        ({"chunk_size": 0}, "chunk_size"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
    ],
    ids=str,
)
def test_simulate_pairs_refuses_bad_arguments(kwargs, message):
    # a negative chunk size gave uninitialised memory, zero failed inside
    # range, and a negative seed raised OverflowError
    args = {"seed": 1, **kwargs}
    with pytest.raises(ValueError, match=message):
        simulate_pairs(OverlapSpec(1, 2, 2, 1, 1), UNI, 1_000, **args)
    with pytest.raises(ValueError, match=message):
        regression_comparison(OverlapSpec(1, 2, 2, 1, 1), UNI, 1_000, bins=10, **args)


def test_simulate_pairs_takes_the_largest_seed():
    spec = OverlapSpec(1, 2, 2, 1, 1)
    top = simulate_pairs(spec, UNI, 1_000, seed=2**64 - 1)
    assert top.count == 1_000
    assert not np.array_equal(top.x, simulate_pairs(spec, UNI, 1_000, seed=0).x)


# -- the blocked kernel against the sort-per-row sampler ---------------------

FIELDS = ("x", "y", "rank_x", "rank_y")
PARENTS = {"uniform": UNI, "exponential": parent.exponential(), "cb": parent.complementary_beta(0.5, 1.5)}


def _network_ops(m, i):
    return sum(keep_lo + keep_hi for _, _, keep_lo, keep_hi in mc._selection_network(m, i))


def _random_spec(rnd, N):
    r = rnd.randint(0, N - 1)
    m = rnd.randint(r + 1, N)
    return OverlapSpec(r, m, N - r, rnd.randint(1, m), rnd.randint(1, N - r))


def _kernel_cases():
    rnd = random.Random(20261018)
    specs = [_random_spec(rnd, rnd.randint(1, 30)) for _ in range(14)]
    # m = 1, r = 0, and both routes of the selection at N = 30
    specs += [OverlapSpec(0, 1, 1, 1, 1), OverlapSpec(0, 1, 5, 1, 3), OverlapSpec(2, 3, 6, 1, 4)]
    specs += [OverlapSpec(0, 30, 30, 15, 1), OverlapSpec(6, 30, 24, 2, 12)]
    block = mc._BLOCK_ROWS
    # counts off every multiple; chunks below, between and above the block
    shapes = [(2 * block + 11, 50_001), (block + 3, 10_007), (block - 5, 10**6), (90_001, 40_000)]
    names = list(PARENTS)
    cases = [
        (spec, names[k % 3], *shapes[k % 4], 1 + k % 2)
        for k, spec in enumerate(specs)
    ]
    # one chunk of several blocks, the last one partial, on two workers; odd
    # and even N, and the row sort
    several = [(OverlapSpec(1, 3, 4, 2, 3), "cb"), (OverlapSpec(2, 5, 5, 3, 2), "exponential"), (OverlapSpec(6, 30, 24, 2, 12), "uniform")]
    return cases + [(spec, name, 3 * block + 7, 10**6, 2) for spec, name in several]


KERNEL_CASES = _kernel_cases()


def test_kernel_cases_cover_both_selection_routes():
    used = {_network_ops(s.m, s.i) > mc._MAX_NETWORK_OPS for s, *_ in KERNEL_CASES}
    used |= {_network_ops(s.n, s.j) > mc._MAX_NETWORK_OPS for s, *_ in KERNEL_CASES}
    assert used == {False, True}
    assert {name for _, name, *_ in KERNEL_CASES} == set(PARENTS)
    assert {workers for *_, workers in KERNEL_CASES} == {1, 2}


@pytest.mark.parametrize("spec, name, count, chunk_size, workers", KERNEL_CASES, ids=str)
def test_simulate_pairs_matches_sorting_oracle(spec, name, count, chunk_size, workers):
    model = PARENTS[name]
    got = simulate_pairs(spec, model, count, seed=77, chunk_size=chunk_size, workers=workers)
    want = oracles.simulate_pairs(spec, model, count, seed=77, chunk_size=chunk_size)
    for f in FIELDS:
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and np.array_equal(a, b), f


def test_blocks_of_one_chunk_agree_for_any_worker_count():
    spec = OverlapSpec(2, 4, 5, 3, 1)
    count = 5 * mc._BLOCK_ROWS - 100  # one chunk of 5 blocks
    model = PARENTS["cb"]
    serial = simulate_pairs(spec, model, count, seed=31, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        # more workers than blocks, and than cores
        for workers in (2, 3, 8):
            threaded = simulate_pairs(spec, model, count, seed=31, workers=workers)
            for f in FIELDS:
                assert np.array_equal(getattr(serial, f), getattr(threaded, f)), (f, workers)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("N", [5, 7])
def test_block_generator_continues_the_chunk_stream(N):
    block = mc._BLOCK_ROWS
    rows = 3 * block + 7
    whole = np.random.Generator(np.random.Philox(key=np.array([12, 3], dtype=np.uint64))).random((rows, N))
    for b in range(4):  # the last block holds 7 rows
        part = whole[b * block : (b + 1) * block]
        assert np.array_equal(mc._block_generator(12, 3, b, N).random(part.shape), part), b


@pytest.mark.parametrize("m", range(1, 33))
def test_selection_network_picks_every_order_statistic(m, monkeypatch):
    rng = np.random.default_rng(m)
    # rounded values, so that ties occur in most draws
    rows = np.round(rng.random((500, m)), 1)
    columns = rows.T.copy()
    ordered = np.sort(rows, axis=1)
    for limit in (-1, 10**6):  # force the sort, then the network
        monkeypatch.setattr(mc, "_MAX_NETWORK_OPS", limit)
        for i in range(1, m + 1):
            assert np.array_equal(mc._order_statistic(rows, columns, i), ordered[:, i - 1]), (m, i, limit)


# -- level binning against the masking oracle and the known law -------------


def test_level_edges_invert_the_beta_law():
    # F(Y) of the j-th os of n draws is Beta(j, n - j + 1)
    for spec in [OverlapSpec(1, 3, 3, 2, 2), OverlapSpec(0, 1, 2, 1, 1), OverlapSpec(2, 5, 7, 3, 7), OverlapSpec(0, 3, 4, 2, 3)]:
        p = np.linspace(0.0, 1.0, 41)
        edges = mc._level_edges(spec, p)
        assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0)
        want = scipy_stats.beta.ppf(p[1:-1], spec.j, spec.n - spec.j + 1)
        assert np.allclose(edges[1:-1], want, rtol=1e-13, atol=1e-15), spec


LOOKUP_CASES = [
    (OverlapSpec(1, 3, 3, 2, 2), 50, (0.05, 0.95)),
    (OverlapSpec(1, 3, 3, 2, 2), 50, (0.0, 1.0)),  # edges 0 and 1
    (OverlapSpec(0, 1, 60, 1, 1), 200, (0.0, 1.0)),  # several edges per table cell
]


@pytest.mark.parametrize("spec, bins, trim", LOOKUP_CASES, ids=str)
def test_level_lookup_equals_searchsorted(spec, bins, trim):
    edges = mc._level_edges(spec, np.linspace(*trim, bins + 1))
    rng = np.random.default_rng(bins)
    drawn = [rng.random(10**5), rng.beta(spec.j, spec.n - spec.j + 1, 10**5)]
    neighbours = [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [0.0, 1.0 - 2.0**-53, 1.0]]
    levels = np.concatenate(drawn + neighbours)
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    got = mc._level_slots(edges)(levels)
    assert np.array_equal(got, np.searchsorted(edges, levels, side="right"))
    if bins == 200:
        cells = np.floor(edges * mc._LOOKUP_CELLS).astype(int)
        assert np.bincount(cells).max() >= 3


def test_binned_means_empty_bin_still_refused():
    spec = OverlapSpec(1, 3, 3, 2, 2)
    with pytest.raises(ValueError, match="empty bin"):
        binned_conditional_mean(spec, 5, 0, _difference, bins=10, trim=(0.0, 1.0))


def test_binned_means_empty_bin_refused_after_the_draw():
    # as many bins as draws: the draw decides whether a bin stays empty
    with pytest.raises(ValueError, match="empty bin; reduce"):
        binned_conditional_mean(OverlapSpec(1, 3, 3, 2, 2), 10, 0, _difference, bins=10, trim=(0.0, 1.0))


BIN_SETTINGS = [(50, (0.05, 0.95)), (12, (0.2, 0.8)), (10, (0.0, 1.0))]
BINNING_CASES = [
    (OverlapSpec(1, 3, 3, 2, 2), "exponential", 300_000, 10**6, 1, BIN_SETTINGS),
    (OverlapSpec(2, 4, 5, 3, 1), "cb", 3 * mc._BLOCK_ROWS + 7, 40_000, 2, BIN_SETTINGS),
    (OverlapSpec(0, 1, 2, 1, 1), "uniform", 90_001, 30_000, 3, BIN_SETTINGS),
    # Beta(1, 60) levels: up to 3 edges share one cell of the level lookup table
    (OverlapSpec(0, 1, 60, 1, 1), "exponential", 3 * mc._BLOCK_ROWS + 7, 10**6, 2, [(200, (0.0, 1.0))]),
]


def test_binned_means_match_oracle_on_mc_sample():
    for spec, name, count, chunk_size, workers, settings in BINNING_CASES:
        model = PARENTS[name]
        statistics = {False: lambda xu, yu: mc._values(model, xu), True: lambda xu, yu: mc._values(model, xu) - mc._values(model, yu)}
        for bins, trim in settings:
            for difference, statistic in statistics.items():
                case = (spec, name, bins, trim, difference)
                got = binned_conditional_mean(spec, count, 8, statistic, bins=bins, trim=trim, chunk_size=chunk_size, workers=workers)
                want = oracles.level_binned_means(spec, model, count, 8, difference, bins=bins, trim=trim, chunk_size=chunk_size)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), case
                assert np.allclose(got[2], want[2], rtol=1e-12, atol=1e-12), case
                assert np.allclose(got[3], want[3], rtol=1e-9, atol=1e-15), case
                if trim == (0.0, 1.0):
                    assert got[1].sum() == count, case


def _bin_reference(spec, model, lo, hi):
    """E[X; F(Y) in [lo, hi)] and E[Y; F(Y) in [lo, hi)] from the nu-density, by quad.

    In levels (u, v) = (F(x), F(y)) the nu-density is that of the uniform
    parent.  Its continuous part is integrated over v first, by Gauss-Legendre
    on each side of the diagonal (a polynomial there), and then against Q(u)
    by ``quad``, split where the diagonal enters and leaves the bin; the atom
    adds the integral of Q(v) times its density.
    """
    levels = overlap_density(spec, UNI)
    z, w = np.polynomial.legendre.leggauss(20)
    z, w = 0.5 * (z + 1.0), 0.5 * w

    def across_bin(u):
        total = 0.0
        for a, b in ((lo, min(hi, u)), (max(lo, u), hi)):
            if b > a:
                v = a + (b - a) * z
                total += (b - a) * np.dot(w, levels.continuous(np.full_like(v, u), v))
        return total

    def Q(u):
        return float(model.quantile(u))

    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    ex = sum(quad(lambda u: Q(u) * across_bin(u), a, b, **opts)[0] for a, b in ((0.0, lo), (lo, hi), (hi, 1.0)))
    ex += quad(lambda v: Q(v) * levels.atom(v), lo, hi, **opts)[0]
    ey = quad(lambda v: Q(v) * scipy_stats.beta.pdf(v, spec.j, spec.n - spec.j + 1), lo, hi, **opts)[0]
    return ex, ey


def test_bin_averages_equal_the_nu_density_reference():
    # the default 50 bins; at 10 bins the 5-node rule is off by 1e-7 in the
    # top bin of (1, 2, 2, 2, 2), whose levels reach 0.975
    bins, trim = 50, (0.05, 0.95)
    probability = (trim[1] - trim[0]) / bins
    worst_new, worst_old = {}, 0.0
    for spec in [OverlapSpec(1, 3, 3, 2, 2), OverlapSpec(1, 2, 2, 2, 2), OverlapSpec(0, 2, 4, 1, 2)]:
        edges = mc._level_edges(spec, np.linspace(*trim, bins + 1))
        for name, model in [("exponential", PARENTS["exponential"]), ("logistic", parent.logistic()), ("cb", PARENTS["cb"])]:
            rep = regression_comparison(spec, model, count=100_000, seed=1, bins=bins, trim=trim)
            for b in (0, bins // 2, bins - 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", IntegrationWarning)  # roundoff near cb's table ends
                    ex, ey = _bin_reference(spec, model, edges[b], edges[b + 1])
                want = ex / probability
                gap = abs(rep.comparisons[b].analytic - want) / max(1.0, abs(want))
                worst_new[name] = max(worst_new.get(name, 0.0), gap)
                # the old statistic: the curve at the bin's mean of y
                old = mean_original_given_extended(spec, model, ey / probability)
                worst_old = max(worst_old, abs(old - want) / max(1.0, abs(want)))
    print(f"bin average vs nu-density reference: {worst_new}; curve at the bin mean of y: {worst_old:.2e}")
    assert worst_new["exponential"] <= 1e-9 and worst_new["logistic"] <= 1e-9
    # the curve itself is only this accurate on the tabulated cb quantile
    assert worst_new["cb"] <= 5e-6
    assert worst_old > 1e-5  # the curvature bias the bin average removes


def test_regression_z_scores_are_standard_normal():
    spec, model = OverlapSpec(1, 3, 3, 2, 2), parent.exponential()
    z = [c.z for seed in range(100) for c in regression_comparison(spec, model, count=200_000, seed=seed, bins=10).comparisons]
    assert len(z) == 1000
    assert scipy_stats.kstest(z, "norm").pvalue > 0.01


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_streamed_reports_trace_the_same_peak_at_any_count():
    spec, model = OverlapSpec(1, 3, 3, 2, 2), parent.exponential()
    verify_spec(spec, model, count=1_000, seed=1)  # builds the cached table outside the trace
    for run in (
        lambda count: regression_comparison(spec, model, count=count, seed=1),
        lambda count: verify_spec(spec, model, count=count, seed=1),
    ):
        small, large = _traced_peak(lambda: run(10**6)), _traced_peak(lambda: run(4 * 10**6))
        # a block's buffers and temporaries, not the sample: 10^6 pairs alone are 16 MB
        assert abs(large - small) <= 2**20 and large < 16 * 2**20, (small, large)


# -- whole reports against the stored-sample reference -----------------------


@pytest.mark.parametrize(
    "spec, name, count, seed, kwargs",
    [
        (OverlapSpec(1, 3, 3, 2, 2), "exponential", 150_000, 3, {}),
        (OverlapSpec(2, 4, 5, 3, 1), "cb", 70_000, 4, {"chunk_size": 30_000, "workers": 2}),
    ]
    + [(OverlapSpec(1, 2, 3, 1, 2), "uniform", 100_001, 5, {"chunk_size": 30_000, "workers": w}) for w in (1, 2, 3)],
    ids=["verify-exp", "verify-cb", "verify-chunks-w1", "verify-chunks-w2", "verify-chunks-w3"],
)
def test_reports_byte_identical_to_parent_kernels(spec, name, count, seed, kwargs):
    model = PARENTS[name]
    new = verify_spec(spec, model, count=count, seed=seed, **kwargs).to_json()
    assert new == oracles.verify_spec(spec, model, count=count, seed=seed, **kwargs).to_json()


def test_regression_reports_identical_for_any_worker_count():
    spec, model = OverlapSpec(1, 2, 2, 2, 2), PARENTS["cb"]
    reports = {
        run(spec, model, count=300_000, seed=21, bins=25, chunk_size=100_000, workers=w).to_json()
        for run in (regression_comparison, identity_regression_comparison)
        for w in (1, 2, 3)
    }
    assert len(reports) == 2


def test_rectangle_frequencies_match_masks():
    sample = simulate_pairs(OverlapSpec(1, 2, 3, 1, 2), parent.logistic(), 100_000, seed=6)
    x, y = sample.x.copy(), sample.y
    x[::1000] = np.nan  # in no rectangle
    cuts = [-1.5, -0.2, -0.2, 0.0, 0.7, 2.5]  # a repeated cut and one sample value
    cuts[3] = float(np.sort(sample.x)[50_000])
    cuts.sort()
    for x_cuts, y_cuts in [(cuts, cuts[::2]), (cuts * 3, cuts * 3)]:  # one-byte and two-byte cells
        x_cuts, y_cuts = sorted(x_cuts), sorted(y_cuts)
        # the blocks' cell counts add up to the whole sample's
        cells = sum(mc._rectangle_cells(x[k : k + 30_000], y[k : k + 30_000], x_cuts, y_cuts) for k in range(0, len(x), 30_000))
        got = cells.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] / len(x)
        want = oracles.rectangle_frequencies(x, y, x_cuts, y_cuts)
        assert got.shape == want.shape == (len(x_cuts), len(y_cuts))
        assert np.array_equal(got, want)


# -- rectangle cells on levels: no quantile or cdf of the parent ---------------


def test_verify_spec_passes_no_draw_through_the_quantile():
    points, cdf_points = [], []

    def counted(u):
        points.append(np.size(u))
        return PARENTS["cb"].quantile(u)

    def counted_cdf(x):
        cdf_points.append(np.size(x))
        return PARENTS["cb"].cdf(x)

    model = dataclasses.replace(PARENTS["cb"], quantile=counted, cdf=counted_cdf)
    report = verify_spec(OverlapSpec(1, 3, 3, 2, 2), model, count=200_000, seed=8, workers=2)
    assert report.passed
    # the cells are counted and the law is taken on the levels themselves
    assert points == [] and cdf_points == [], (points, cdf_points)


def test_verify_spec_comparisons_do_not_depend_on_the_parent():
    # the rank pairs and the rectangles on levels are the law of the uniform
    # order statistics, whatever the parent's float resolution
    spec, exp, cb = OverlapSpec(1, 3, 3, 2, 2), parent.exponential(), PARENTS["cb"]
    models = [exp, exp.shifted_scaled(1e6, 1.0), cb, cb.negate()]
    first, *rest = (verify_spec(spec, model, count=200_000, seed=8).comparisons for model in models)
    for comparisons in rest:
        assert comparisons == first
