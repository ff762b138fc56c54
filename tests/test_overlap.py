import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovstat.overlap import (
    OverlapSpec,
    marginal_rank_probability,
    probability_table,
    rank_match_probability,
)

from oracles import (
    SMALL_SPECS,
    probability_table_bruteforce,
    probability_table_csv_rows,
    rank_match_probability_reference,
)


def test_spec_validation():
    OverlapSpec(0, 2, 3, 1, 2)  # extension geometry is fine
    with pytest.raises(ValueError):
        OverlapSpec(-1, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        OverlapSpec(2, 2, 2, 1, 1)  # no overlap
    with pytest.raises(ValueError):
        OverlapSpec(0, 3, 2, 1, 1)  # original sticks out of the pool
    with pytest.raises(ValueError):
        OverlapSpec(1, 2, 2, 0, 1)
    with pytest.raises(ValueError):
        OverlapSpec(1, 2, 2, 1, 3)


def test_spec_rejects_non_integers():
    base = (1, 2, 2, 1, 1)
    for pos, value in enumerate(base):
        for bad in (float(value), value + 0.5, Fraction(value), str(value)):
            args = list(base)
            args[pos] = bad
            with pytest.raises(ValueError):
                OverlapSpec(*args)
    for pos in (0, 3, 4):  # the fields equal to 1, where True would otherwise pass
        args = list(base)
        args[pos] = True
        with pytest.raises(ValueError):
            OverlapSpec(*args)
    assert OverlapSpec(*(np.int64(v) for v in base)) == OverlapSpec(*base)


def test_block_sizes():
    spec = OverlapSpec(1, 3, 4, 2, 2)
    assert spec.block_sizes == (1, 2, 2)
    assert spec.pooled_size == 5


def test_marginal_rank_examples():
    # frozen from enumerating all 3! orderings
    assert marginal_rank_probability(1, 2, 1, 3) == Fraction(2, 3)
    assert marginal_rank_probability(1, 2, 2, 3) == Fraction(1, 3)
    assert marginal_rank_probability(1, 2, 3, 3) == 0


def test_marginal_rank_sums_to_one():
    for (i, m, n) in [(1, 2, 5), (2, 3, 6), (3, 3, 7)]:
        assert sum(marginal_rank_probability(i, m, k, n) for k in range(1, n + 1)) == 1


def test_moving_ith_four_values():
    # offset 1, equal sizes: the four nonzero entries of the sliding-index law
    spec = OverlapSpec(1, 2, 2, 1, 1)
    assert rank_match_probability(spec, 1, 1) == Fraction(1, 3)
    assert rank_match_probability(spec, 1, 2) == Fraction(1, 3)
    assert rank_match_probability(spec, 2, 1) == Fraction(1, 3)
    assert rank_match_probability(spec, 2, 2) == 0


def test_moving_maxima_diagonal():
    # both maxima realise the pooled maximum with probability (n-r)/(n+r)
    spec = OverlapSpec(1, 2, 2, 2, 2)
    assert rank_match_probability(spec, 3, 3) == Fraction(1, 3)
    spec = OverlapSpec(2, 4, 4, 4, 4)
    assert rank_match_probability(spec, 6, 6) == Fraction(2, 6)


def test_identical_samples_table():
    table = probability_table(OverlapSpec(0, 3, 3, 2, 2))
    assert table[(2, 2)] == 1
    assert table.total() == 1
    assert len(table.nonzero()) == 1


def test_rank_bounds_checked():
    spec = OverlapSpec(1, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        rank_match_probability(spec, 0, 1)
    with pytest.raises(ValueError):
        rank_match_probability(spec, 1, 4)


def test_oracle_equality_small():
    # entrywise rational equality against the factorial enumeration
    specs = [
        OverlapSpec(1, 2, 2, 1, 1),
        OverlapSpec(1, 2, 2, 2, 2),
        OverlapSpec(0, 1, 2, 1, 1),
        OverlapSpec(2, 3, 3, 2, 2),
        OverlapSpec(1, 3, 3, 2, 1),
        OverlapSpec(2, 3, 4, 3, 2),
        OverlapSpec(3, 4, 3, 2, 3),
    ]
    for spec in specs:
        exact = probability_table(spec)
        oracle = probability_table_bruteforce(spec)
        N = spec.pooled_size
        for cell in itertools.product(range(1, N + 1), repeat=2):
            assert exact[cell] == oracle[cell], (spec, cell)


def test_table_matches_per_cell_reference():
    # the one-pass build against the per-cell formula with one math.comb per
    # binomial: every geometry with r <= 3 and m, n <= 6, then two large ones
    specs = [
        OverlapSpec(r, m, n, i, j)
        for r in range(4)
        for m in range(1, 7)
        for n in range(1, 7)
        if r < m <= n + r
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    ]
    assert len(specs) == 1196
    specs += [OverlapSpec(40, 100, 90, 50, 45), OverlapSpec(50, 120, 100, 60, 50)]
    for spec in specs:
        table = probability_table(spec)
        assert list(table.entries) == [(k, ell) for k in spec.k_support for ell in spec.ell_support]
        for (k, ell), p in table.entries.items():
            assert p == rank_match_probability_reference(spec, k, ell), (spec, k, ell)


def test_oracle_budget():
    with pytest.raises(ValueError, match="budget"):
        probability_table_bruteforce(OverlapSpec(5, 6, 5, 1, 1))


@st.composite
def small_specs(draw, max_pooled=7):
    N = draw(st.integers(2, max_pooled))
    r = draw(st.integers(0, N - 1))
    n = N - r
    m = draw(st.integers(r + 1, N))
    i = draw(st.integers(1, m))
    j = draw(st.integers(1, n))
    return OverlapSpec(r, m, n, i, j)


@given(spec=small_specs())
@settings(max_examples=120, deadline=None)
def test_total_mass_and_support(spec):
    table = probability_table(spec)
    assert table.total() == 1
    for (k, ell), p in table.nonzero().items():
        assert k in spec.k_support and ell in spec.ell_support


@given(spec=small_specs())
@settings(max_examples=60, deadline=None)
def test_row_and_column_marginals(spec):
    # rows: the first sample is an m-subsample of the pooled sample
    table = probability_table(spec)
    N = spec.pooled_size
    for k in range(1, N + 1):
        assert table.row_marginal(k) == marginal_rank_probability(spec.i, spec.m, k, N)
    for ell in range(1, N + 1):
        assert table.col_marginal(ell) == marginal_rank_probability(spec.j, spec.n, ell, N)


@given(spec=small_specs(max_pooled=40))
@settings(max_examples=40, deadline=None)
def test_large_tables_exact_and_swap_is_transpose(spec):
    # beyond the enumeration budget: k > ell cells come from the swapped geometry
    table = probability_table(spec)
    N = spec.pooled_size
    assert table.total() == 1
    for k in range(1, N + 1):
        assert table.row_marginal(k) == marginal_rank_probability(spec.i, spec.m, k, N)
        assert table.col_marginal(k) == marginal_rank_probability(spec.j, spec.n, k, N)
    swapped = spec.swapped()
    assert swapped.pooled_size == N
    assert swapped.swapped() == spec
    transpose = probability_table(swapped)
    for k, ell in itertools.product(range(1, N + 1), repeat=2):
        assert transpose[(ell, k)] == table[(k, ell)]


def test_extension_diagonal_specialises_to_subsample_formula():
    # with no offset the diagonal entries reproduce the closed subsample law
    for (i, m, n) in [(1, 2, 4), (2, 3, 5), (3, 4, 6)]:
        spec = OverlapSpec(0, m, n, i, i)
        table = probability_table(spec)
        for k in range(1, n + 1):
            assert table[(k, k)] == 0 or k == i  # only the self rank carries diagonal mass here
        # the k-th rank row mass equals the subsample-rank probability
        for k in range(1, n + 1):
            assert table.row_marginal(k) == marginal_rank_probability(i, m, k, n)


def test_serialization_roundtrip():
    table = probability_table(OverlapSpec(1, 2, 2, 1, 1))
    payload = json.loads(table.to_json())
    entries = {(e["k"], e["ell"]): Fraction(e["num"], e["den"]) for e in payload["entries"]}
    assert entries[(1, 1)] == Fraction(1, 3)
    assert payload["total"] == {"num": 1, "den": 1}
    rows = table.to_csv_rows()
    assert rows[0] == ("k", "ell", "num", "den", "decimal")
    assert ("1", "1") != rows[1][:2]  # numbers stay numeric
    assert rows[1][:4] == (1, 1, 1, 3)


def test_csv_rows_cover_full_grid():
    # entries hold the support rectangle; the CSV still lists all N^2 cells in
    # row order, structural zeros included
    spec = OverlapSpec(1, 3, 3, 2, 1)
    table = probability_table(spec)
    assert len(table.entries) < 16
    rows = table.to_csv_rows()
    assert [row[:2] for row in rows[1:]] == list(itertools.product(range(1, 5), repeat=2))
    for k, ell, num, den, decimal in rows[1:]:
        assert Fraction(num, den) == table[(k, ell)]
        if (k, ell) not in table.entries:
            assert (num, den, decimal) == (0, 1, "0")
    assert (4, 4, 0, 1, "0") in rows


def test_json_writer_and_csv_rows_equal_their_references():
    # the streamed writer against json.dumps of the structured form, and the
    # row generator against the per-cell list, on the small tables and at N = 130
    extras = ({}, {"formula": "exact-rank-match-table", "version": "0.1.0"})
    for spec in [*SMALL_SPECS, OverlapSpec(40, 100, 90, 50, 45)]:
        table = probability_table(spec)
        assert table.to_csv_rows() == probability_table_csv_rows(table), spec
        payload = table.to_json_dict()
        for extra in extras:
            buf = io.StringIO()
            table.write_json(buf, **extra)
            assert buf.getvalue() == json.dumps({**payload, **extra}, indent=2), (spec, extra)
    with pytest.raises(ValueError, match="total"):
        table.write_json(io.StringIO(), total=1)
