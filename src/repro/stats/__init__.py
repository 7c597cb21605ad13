"""Statistical machinery: bootstrap qualification, Wilcoxon, chi-squared."""

from repro.stats.bootstrap import (
    BootstrapResult,
    deviation_significance,
    significance_of_statistic,
)
from repro.stats.resample_plan import (
    DRAW_SCHEME,
    CountsResamplePlan,
    LitsResamplePlan,
    PackedLitsResamplePlan,
    PartitionResamplePlan,
    ResamplePlan,
    compile_resample_plan,
    draw_multiplicities,
    lits_membership,
    multiplicities_from_indices,
)
from repro.stats.chisq import chi2_cdf, chi2_sf, gammainc_lower, gammainc_upper
from repro.stats.descriptive import (
    mean_std,
    normal_sf,
    pearson_correlation,
    quantiles,
    spearman_correlation,
)
from repro.stats.sample_bounds import (
    failure_probability,
    required_sample_size,
    sd_bound_sum,
    support_error_bound,
)
from repro.stats.wilcoxon import WilcoxonResult, rank_sum_test

__all__ = [
    "BootstrapResult",
    "CountsResamplePlan",
    "DRAW_SCHEME",
    "LitsResamplePlan",
    "PackedLitsResamplePlan",
    "PartitionResamplePlan",
    "ResamplePlan",
    "WilcoxonResult",
    "chi2_cdf",
    "chi2_sf",
    "compile_resample_plan",
    "deviation_significance",
    "draw_multiplicities",
    "lits_membership",
    "multiplicities_from_indices",
    "failure_probability",
    "gammainc_lower",
    "gammainc_upper",
    "mean_std",
    "normal_sf",
    "pearson_correlation",
    "quantiles",
    "rank_sum_test",
    "required_sample_size",
    "sd_bound_sum",
    "significance_of_statistic",
    "spearman_correlation",
    "support_error_bound",
]
