"""Multi-cause effect estimation with latent-confounder adjustment.

Workflow: load or synthesize a cause matrix, impute missing entries,
standardize and screen the columns, fit a probabilistic PCA model over
the causes, gate on the held-out predictive check, then regress the
outcome on the causes plus the inferred surrogate confounders. Extras:
mediation analysis, one-by-one robustness sweeps, and predictive
comparison of the causal and non-causal regressions. The stages are
imported from their submodules (`multicause.ppca`, `multicause.effects`).
"""

__version__ = "0.1.0"

# `import multicause` loads every submodule but `cli`: perfbench/run.py wraps
# the functions of the modules loaded when it installs its tracer, right after
# this import, and its set-up runs `synthetic.generate` and `dataset.write_csv`.
from . import dataset, effects, errors, imputation, mediation  # noqa: F401
from . import ppca, robustness, synthetic, tables, tdist  # noqa: F401
