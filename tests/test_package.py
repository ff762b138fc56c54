import ovstat

EXPORTS = [
    "Comparison", "CountParams", "Curve", "MCReport", "NuDensity", "OverlapSpec", "PAIR_REGRESSIONS_R1",
    "PairSample", "ParentModel", "ProbabilityTable", "ReconstructionError", "ReconstructionResult",
    "__version__", "binom", "complementary_beta", "conditional_os_mean", "count_matching",
    "empirical_tie_table", "exponential", "falling_factorial", "from_adjacent_regression", "from_config",
    "from_max_regression", "from_min_regression", "from_quantile_density", "from_single_regression_slope",
    "identity_regression_comparison", "joint_os_density", "logistic", "make_family", "marginal_os_density",
    "marginal_rank_probability", "mean_adjacent", "mean_extended_given_original", "mean_given_single",
    "mean_max_extended", "mean_min_extended", "mean_original_given_extended", "midsample_mixing_weight",
    "midsample_quantile_density", "negative_exponential", "negative_pareto", "nu_total_mass",
    "overlap_density", "pair_regression_r1", "power_law", "probability_table",
    "quantile_from_linear_regression", "rank_match_probability", "rectangle_probability",
    "regression_comparison", "simulate_pairs", "tabulate", "uniform", "verify_spec",
]


def test_package_exports_are_pinned():
    assert sorted(ovstat.__all__) == EXPORTS
    assert len(ovstat.__all__) == len(EXPORTS)
    for name in EXPORTS:
        assert getattr(ovstat, name) is not None, name
