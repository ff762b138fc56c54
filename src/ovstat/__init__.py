"""Exact joint laws, densities, regressions and parent reconstruction for
order statistics from overlapping samples."""

__version__ = "0.1.0"

from .combinatorics import (
    CountParams,
    binom,
    count_matching,
    falling_factorial,
)
from .curve import Curve, tabulate
from .density import (
    NuDensity,
    joint_os_density,
    marginal_os_density,
    nu_total_mass,
    overlap_density,
    rectangle_probability,
)
from .mc import (
    Comparison,
    MCReport,
    PairSample,
    empirical_tie_table,
    identity_regression_comparison,
    regression_comparison,
    simulate_pairs,
    verify_spec,
)
from .overlap import (
    OverlapSpec,
    ProbabilityTable,
    marginal_rank_probability,
    probability_table,
    rank_match_probability,
)
from .parent import (
    ParentModel,
    complementary_beta,
    exponential,
    from_config,
    from_quantile_density,
    logistic,
    make_family,
    negative_exponential,
    negative_pareto,
    power_law,
    uniform,
)
from .reconstruct import (
    ReconstructionError,
    ReconstructionResult,
    from_adjacent_regression,
    from_max_regression,
    from_min_regression,
    from_single_regression_slope,
    midsample_mixing_weight,
    midsample_quantile_density,
    quantile_from_linear_regression,
)
from .regression import (
    PAIR_REGRESSIONS_R1,
    conditional_os_mean,
    mean_adjacent,
    mean_extended_given_original,
    mean_given_single,
    mean_max_extended,
    mean_min_extended,
    mean_original_given_extended,
    pair_regression_r1,
)

__all__ = [
    "__version__",
    # combinatorics
    "CountParams",
    "binom",
    "falling_factorial",
    "count_matching",
    # overlap probabilities
    "OverlapSpec",
    "ProbabilityTable",
    "rank_match_probability",
    "marginal_rank_probability",
    "probability_table",
    # parents
    "ParentModel",
    "uniform",
    "exponential",
    "power_law",
    "negative_pareto",
    "negative_exponential",
    "logistic",
    "complementary_beta",
    "from_quantile_density",
    "make_family",
    "from_config",
    # densities
    "NuDensity",
    "marginal_os_density",
    "joint_os_density",
    "overlap_density",
    "nu_total_mass",
    "rectangle_probability",
    # curves and regression
    "Curve",
    "tabulate",
    "conditional_os_mean",
    "mean_original_given_extended",
    "mean_extended_given_original",
    "pair_regression_r1",
    "PAIR_REGRESSIONS_R1",
    "mean_min_extended",
    "mean_max_extended",
    "mean_adjacent",
    "mean_given_single",
    # reconstruction
    "ReconstructionError",
    "ReconstructionResult",
    "from_min_regression",
    "from_max_regression",
    "from_adjacent_regression",
    "from_single_regression_slope",
    "midsample_mixing_weight",
    "midsample_quantile_density",
    "quantile_from_linear_regression",
    # Monte Carlo
    "PairSample",
    "Comparison",
    "MCReport",
    "simulate_pairs",
    "empirical_tie_table",
    "verify_spec",
    "regression_comparison",
    "identity_regression_comparison",
]
