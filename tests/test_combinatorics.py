import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovstat.combinatorics import CountParams, binom, count_matching, falling_factorial, pascal_rows

from oracles import bruteforce_histogram, count_matching_bruteforce, count_matching_reference


def test_binom_standard():
    assert binom(5, 2) == 10


def test_binom_zero_convention():
    assert binom(3, 5) == 0
    assert binom(4, -1) == 0


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 0) == 1
    assert falling_factorial(2, 3) == 0  # a factor reaches zero
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_count_small_example():
    # all 3! permutations with no last-block item in the first position and
    # one first-block item in the first two positions
    p = CountParams(r=1, s=1, t=1, k=1, ell=1, i=0, j=1)
    assert count_matching(p) == 3
    assert count_matching_bruteforce(p) == 3


def test_count_six_items_frozen():
    # value frozen from the exhaustive 6! enumeration
    p = CountParams(r=2, s=2, t=2, k=2, ell=2, i=1, j=1)
    assert count_matching_bruteforce(p) == 224
    assert count_matching(p) == 224


def test_count_zero_when_hits_impossible():
    # i > min(t, k) forces an empty permutation set
    assert count_matching(CountParams(r=1, s=2, t=1, k=1, ell=1, i=2, j=0)) == 0
    assert count_matching(CountParams(r=1, s=2, t=2, k=1, ell=0, i=2, j=0)) == 0
    # j > min(r, k+ell) likewise
    assert count_matching(CountParams(r=1, s=2, t=1, k=1, ell=1, i=0, j=2)) == 0


def test_count_degenerate_parameters_give_zero():
    assert count_matching(CountParams(r=-1, s=2, t=1, k=1, ell=1, i=0, j=0)) == 0
    assert count_matching(CountParams(r=1, s=1, t=1, k=2, ell=2, i=0, j=0)) == 0


def test_bruteforce_all_permutations_qualify():
    # two middle-block items, no constraints can fail
    assert count_matching_bruteforce(CountParams(r=0, s=2, t=0, k=1, ell=0, i=0, j=0)) == 2


def test_bruteforce_budget():
    with pytest.raises(ValueError, match="budget"):
        count_matching_bruteforce(CountParams(r=4, s=4, t=4, k=1, ell=1, i=0, j=0))


def test_oracle_equivalence_small_sweep():
    # full agreement for every parameter tuple with at most 5 items;
    # the budgeted full sweep up to 7 lives in the acceptance suite
    for n in range(1, 6):
        for r in range(n + 1):
            for s in range(n - r + 1):
                t = n - r - s
                for k in range(n + 1):
                    for ell in range(n - k + 1):
                        hist = bruteforce_histogram(r, s, t, k, ell)
                        for i in range(t + 1):
                            for j in range(r + 1):
                                p = CountParams(r, s, t, k, ell, i, j)
                                assert count_matching(p) == hist.get((i, j), 0), p


@given(
    r=st.integers(0, 6),
    s=st.integers(0, 6),
    t=st.integers(0, 6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_swap_symmetry(r, s, t, data):
    n = r + s + t
    k = data.draw(st.integers(0, n))
    ell = data.draw(st.integers(0, n - k))
    i = data.draw(st.integers(0, t))
    j = data.draw(st.integers(0, r))
    p = CountParams(r, s, t, k, ell, i, j)
    assert count_matching(p) == count_matching(p.swapped())


@given(
    r=st.integers(0, 5),
    s=st.integers(0, 5),
    t=st.integers(0, 5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_total_mass_is_factorial(r, s, t, data):
    n = r + s + t
    k = data.draw(st.integers(0, n))
    ell = data.draw(st.integers(0, n - k))
    total = sum(
        count_matching(CountParams(r, s, t, k, ell, i, j))
        for i in range(t + 1)
        for j in range(r + 1)
    )
    assert total == math.factorial(n)


@given(
    r=st.integers(0, 12),
    s=st.integers(0, 12),
    t=st.integers(0, 12),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_count_matches_per_term_reference(r, s, t, data):
    # beyond the enumeration budget, and with out-of-range hit counts and prefixes
    n = r + s + t
    k = data.draw(st.integers(-1, n + 1))
    ell = data.draw(st.integers(-1, n + 1))
    i = data.draw(st.integers(-1, t + 1))
    j = data.draw(st.integers(-1, r + 1))
    p = CountParams(r, s, t, k, ell, i, j)
    assert count_matching(p) == count_matching_reference(p)


def test_pascal_rows_are_binomials():
    rows = pascal_rows(30)
    assert len(rows) == 31
    assert all(rows[a][b] == math.comb(a, b) for a in range(31) for b in range(a + 1))


def test_binomial_absorption_identity():
    for s in range(31):
        for r in range(s + 1):
            assert s * binom(s - 1, r) == (s - r) * binom(s, r)
