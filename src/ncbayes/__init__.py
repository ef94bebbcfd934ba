"""Centered and non-centered parameterizations for differentiable Bayesian networks."""

from . import (
    analysis,
    autodiff,
    config,
    datasets,
    diagnostics,
    errors,
    experiments,
    graph,
    hmc,
    learning,
    modelzoo,
    reparam,
)
from .analysis import (
    CorrelationReport,
    LocalFactorSummary,
    correlation_limits,
    cp_squared_correlation,
    dncp_squared_correlation,
    hessian_log_posterior,
    lds_correlations,
    prefer_dncp,
)
from .datasets import DatasetHandle, load_idx, synthetic_dataset
from .diagnostics import EssReport, effective_sample_size, ess_report
from .experiments import ExperimentConfig, LearningSpec, run_experiment
from .graph import (
    FactorGraphModel,
    LatentPosterior,
    ancestral_sample,
    build_model,
    grad_log_joint_latents,
    grad_log_joint_params,
    log_joint,
    random_params,
)
from .hmc import ChainResult, HmcConfig, run_chains
from .learning import (
    AdagradState,
    MmclConfig,
    TrainConfig,
    adagrad_init,
    adagrad_update,
    complete_data_gradient,
    marginal_log_likelihood,
    mcem_iteration,
    mmcl_estimate,
    mmcl_gradient,
    train,
)
from .modelzoo import build_dbn_model, build_generative_mlp, build_lds_model
from .reparam import (
    apply_plan,
    composition_transform,
    eps_from_z,
    full_dncp_plan,
    inverse_cdf_transform,
    location_scale_transform,
    z_from_eps,
)

__version__ = "0.1.0"
