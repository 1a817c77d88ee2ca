"""Hurst parameter estimation from ordinal change frequencies.

The pipeline: synthesize fractional Gaussian noise exactly (circulant
embedding), count ordinal patterns of sliding windows, map the change
frequency through g to an estimate of H, and attach confidence intervals
built from the exact variance of the change frequency (Gaussian orthant
probabilities via Plackett path integration).  A campaign harness
reproduces the reference tables deterministically.
"""

from .errors import (
    BadLength,
    CapReached,
    DegenerateCorrelation,
    DomainError,
    EmbeddingNotPSD,
    InputError,
    NotPositiveDefinite,
    NumericalError,
    QuadratureNotConverged,
    UnsupportedOrder,
    ZchurstError,
)
from .fbm import SamplePath, as_hurst, rho, synthesize
from .patterns import (
    Pattern,
    PatternClass,
    PatternCounts,
    alpha,
    beta,
    change_indicator_count,
    count_patterns,
    p_bar,
    p_hat,
    pattern_class,
    pattern_of_values,
)
from .orthant import (
    DEFAULT_QUADRATURE,
    OrthantSpec4,
    QuadratureConfig,
    orthant2,
    orthant4,
    orthant4_excess,
    orthant4_mc,
)
from .variance import (
    change_prob,
    gamma0,
    gamma1,
    gamma_exact,
    gamma_taylor,
    k_threshold,
    var_c_approx,
    var_c_asymptotic,
    var_c_exact,
)
from .estimators import (
    EstimateReport,
    asymptotic_expectation,
    asymptotic_variance,
    g,
    g_prime,
    g_second,
    heaf_estimate,
    heaf_transform,
    zc_estimate,
)
from .harness import (
    CampaignResult,
    CampaignSpec,
    CellStats,
    VarianceProxy,
    csv_text,
    derive_seed,
    figure1_data,
    figure3_data,
    run_campaign,
    table1,
    table2_rows,
    table3_rows,
    variance_table_rows,
    write_csv,
)

__version__ = "0.1.0"
