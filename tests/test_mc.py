import math
import random
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ovstat import mc, parent
from ovstat.mc import (
    binned_conditional_mean,
    empirical_tie_table,
    identity_regression_comparison,
    regression_comparison,
    simulate_pairs,
    verify_spec,
)
from ovstat.overlap import OverlapSpec, probability_table

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


def test_binned_conditional_mean_identity():
    rng = np.random.default_rng(0)
    y = rng.random(100_000)
    bm = binned_conditional_mean(y, y, bins=20, trim=(0.1, 0.9))
    assert np.allclose(bm.diff_mean, 0.0)
    assert np.all(bm.counts > 0)
    with pytest.raises(ValueError):
        binned_conditional_mean(y, y, bins=5)
    with pytest.raises(ValueError):
        binned_conditional_mean(y[:5], y[:5], bins=10, trim=(0.0, 1.0))


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


# -- one-pass binning against the masking oracle -----------------------------

BM_FIELDS = ("edges", "counts", "y_mean", "x_mean", "x_se", "diff_mean", "diff_se")


def _assert_same_bins(x, y, bins, trim):
    got = binned_conditional_mean(x, y, bins=bins, trim=trim)
    want = oracles.binned_conditional_mean(x, y, bins=bins, trim=trim)
    for f in BM_FIELDS:
        assert np.array_equal(getattr(got, f), getattr(want, f)), f
    return got


def test_binned_means_match_oracle_on_mc_sample():
    sample = simulate_pairs(OverlapSpec(1, 3, 3, 2, 2), parent.exponential(), 300_000, seed=8)
    for bins, trim in [(50, (0.05, 0.95)), (12, (0.2, 0.8)), (25, (0.0, 1.0))]:
        _assert_same_bins(sample.x, sample.y, bins, trim)


def test_binned_means_top_edge_and_ties():
    rng = np.random.default_rng(5)
    y = np.round(rng.exponential(size=200_000), 2)
    x = y + rng.normal(size=y.size)
    # heavy ties: many y sit exactly on an edge, the top one included
    bm = _assert_same_bins(x, y, 10, (0.05, 0.95))
    assert np.count_nonzero(y == bm.edges[-1]) >= 50
    # trim (0, 1): the top edge is the sample maximum, which the last bin keeps
    bm = _assert_same_bins(x, y, 10, (0.0, 1.0))
    assert bm.counts.sum() == y.size
    y_top = np.where(y > 3.0, 3.0, y)  # the top 5% collapse onto one value
    bm = _assert_same_bins(x, y_top, 10, (0.1, 0.99))
    assert bm.edges[-1] == 3.0


def test_binned_means_empty_bin_still_refused():
    y = np.repeat([0.0, 1.0], 5_000)
    for fn in (binned_conditional_mean, oracles.binned_conditional_mean):
        with pytest.raises(ValueError, match="empty bin"):
            fn(y, y, bins=10, trim=(0.0, 1.0))


def _edge_neighbours(edges):
    return np.concatenate((edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)))


@given(
    base=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=60),
    repeats=st.lists(st.integers(1, 4), min_size=60, max_size=60),
    magnitude=st.sampled_from([1.0, 1e-300, 1e300]),
    ends=st.sampled_from([(), (-math.inf,), (math.inf,), (-math.inf, math.inf)]),
    values=st.lists(
        st.one_of(
            st.floats(-5.0, 5.0),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.7e308, -1.7e308, 5e-324]),
        ),
        max_size=40,
    ),
)
@settings(max_examples=300, deadline=None)
def test_slot_lookup_equals_searchsorted(base, repeats, magnitude, ends, values):
    # sorted edges with repeats (all equal when base has one value), spans of
    # about 1e-300, 1 and 1e300, and optionally infinite ends
    edges = np.sort(np.concatenate((np.repeat(base, repeats[: len(base)]) * magnitude, ends)))
    with np.errstate(over="ignore"):
        v = np.concatenate((np.array(values) * magnitude, np.array(values), _edge_neighbours(edges)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slots = mc._slot_lookup(edges)(v)
    assert np.array_equal(slots, np.searchsorted(edges, v, side="right"))


def test_slot_lookup_compares_within_buckets():
    # crowded buckets (edges one ulp apart, and one edge repeated past 2^8
    # times, so the search takes 9 steps) next to sparse ones
    edges = np.sort(np.concatenate(([0.0, 1.0, 3.0], 0.5 + np.arange(8) * np.spacing(0.5), [2.0] * 300)))
    lookup = mc._slot_lookup(edges)
    assert lookup.__name__ == "lookup"  # the bucket path, not the search
    v = np.concatenate((_edge_neighbours(edges), np.linspace(-1.0, 4.0, 10_001), [math.nan, math.inf, -math.inf, -0.0]))
    assert np.array_equal(lookup(v), np.searchsorted(edges, v, side="right"))


@pytest.mark.parametrize("n", [2**15 - 1, 3 * 2**15 + 17, 300_000])
def test_binned_means_match_oracle_with_nonfinite_y(n):
    rng = np.random.default_rng(n)
    y = rng.exponential(size=n)
    x = y + rng.normal(size=n)
    y_inf = y.copy()
    y_inf[::97], y_inf[5::101] = math.inf, -math.inf
    y_nan = y.copy()
    y_nan[3::89] = math.nan
    # finite edges with the infinities outside them; infinite ends (trim
    # (0, 1)) and nan edges, which both sides refuse
    for y_case, trim in [(y_inf, (0.05, 0.95)), (y_inf, (0.0, 1.0)), (y_nan, (0.05, 0.95))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in the quantile and in x - y
            try:
                want = oracles.binned_conditional_mean(x, y_case, bins=20, trim=trim)
            except ValueError as refusal:
                with pytest.raises(ValueError, match=re.escape(str(refusal))):
                    binned_conditional_mean(x, y_case, bins=20, trim=trim)
                continue
            got = binned_conditional_mean(x, y_case, bins=20, trim=trim)
        for f in BM_FIELDS:
            assert np.array_equal(getattr(got, f), getattr(want, f)), (f, trim)


def test_binned_means_refuse_nonfinite_edges():
    # interpolating between two infinite order statistics gives a nan edge;
    # the last bin then took every y above the one before it, +inf included
    n = 2**15 - 1
    rng = np.random.default_rng(n)
    y = rng.exponential(size=n)
    y[::97] = math.inf
    x = y + rng.normal(size=n)
    for fn in (binned_conditional_mean, oracles.binned_conditional_mean):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in the quantile
            with pytest.raises(ValueError, match="bin edges are not finite"):
                fn(x, y, bins=20, trim=(0.5, 1.0))


def test_binning_makes_no_full_length_temporaries():
    n = 10**6
    rng = np.random.default_rng(1)
    y = rng.exponential(size=n)
    x = y + rng.normal(size=n)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        binned_conditional_mean(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sorted copy of y for the edges, plus blocks of _BLOCK_ROWS pairs
    assert peak - start <= 1.25 * 8 * n


# -- whole reports against the parent's sampler, binning and masks -----------


@pytest.fixture
def parent_kernels(monkeypatch):
    def use():
        monkeypatch.setattr(mc, "simulate_pairs", oracles.simulate_pairs)
        monkeypatch.setattr(mc, "binned_conditional_mean", oracles.binned_conditional_mean)
        monkeypatch.setattr(mc, "_rectangle_frequencies", oracles.rectangle_frequencies)

    return use


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify_spec(OverlapSpec(1, 3, 3, 2, 2), parent.exponential(), count=150_000, seed=3),
        lambda: verify_spec(OverlapSpec(2, 4, 5, 3, 1), PARENTS["cb"], count=70_000, seed=4, chunk_size=30_000, workers=2),
        lambda: regression_comparison(OverlapSpec(1, 2, 2, 2, 2), UNI, count=300_000, seed=21, bins=25, chunk_size=100_000, workers=2),
        lambda: identity_regression_comparison(OverlapSpec(0, 4, 4, 3, 3), PARENTS["cb"], count=100_000, seed=2, bins=10),
    ],
    ids=["verify-exp", "verify-cb", "regression", "identity"],
)
def test_reports_byte_identical_to_parent_kernels(run, parent_kernels):
    new = run().to_json()
    parent_kernels()
    assert new == run().to_json()


def test_rectangle_frequencies_match_masks():
    sample = simulate_pairs(OverlapSpec(1, 2, 3, 1, 2), parent.logistic(), 100_000, seed=6)
    x, y = sample.x.copy(), sample.y
    x[::1000] = np.nan  # in no rectangle
    cuts = [-1.5, -0.2, -0.2, 0.0, 0.7, 2.5]  # a repeated cut and one sample value
    cuts[3] = float(np.sort(sample.x)[50_000])
    cuts.sort()
    for x_cuts, y_cuts in [(cuts, cuts[::2]), (cuts * 3, cuts * 3)]:  # one-byte and two-byte cells
        x_cuts, y_cuts = sorted(x_cuts), sorted(y_cuts)
        got = mc._rectangle_frequencies(x, y, x_cuts, y_cuts)
        want = oracles.rectangle_frequencies(x, y, x_cuts, y_cuts)
        assert got.shape == want.shape == (len(x_cuts), len(y_cuts))
        assert np.array_equal(got, want)
