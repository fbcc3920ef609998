"""Multi-cause effect estimation with latent-confounder adjustment.

Workflow: load or synthesize a cause matrix, impute missing entries,
standardize and screen the columns, fit a probabilistic PCA model over
the causes, gate on the held-out predictive check, then regress the
outcome on the causes plus the inferred surrogate confounders. Extras:
mediation analysis, one-by-one robustness sweeps, and predictive
comparison of the causal and non-causal regressions.
"""

from .dataset import (
    CauseMatrix,
    CovariateMatrix,
    HoldoutMask,
    OutcomeVector,
    OverlapReport,
    Standardization,
    check_overlap,
    correlation_screen,
    load_csv,
    make_holdout,
    read_header,
    standardize,
    write_csv,
)
from .effects import (
    CausalEffectEstimate,
    RegressionReport,
    RegressionRow,
    contrast,
    estimate_effects_causal,
    estimate_effects_noncausal,
    ols_fit,
    predictive_comparison,
    significance_tag,
)
from .errors import (
    MulticauseError,
    NumericError,
    ParseError,
    PredictiveCheckFailed,
    RankDeficiencyError,
    ValidationError,
)
from .imputation import ImputationResult, MiceConfig, impute_mice
from .mediation import MediationReport, mediate
from .ppca import (
    PpcaConfig,
    PpcaModel,
    PredictiveCheckResult,
    SurrogateConfounders,
    closed_form_max_loglik,
    fit_ppca,
    posterior_mean,
    posterior_mean_partial,
    predictive_check,
)
from .robustness import SignFlip, SweepCell, SweepTable, sweep
from .synthetic import (
    SCENARIOS,
    SyntheticConfig,
    SyntheticTruth,
    config_confounded,
    config_flip,
    config_mediation,
    config_unconfounded,
    generate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
