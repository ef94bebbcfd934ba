"""Named experiment drivers emitting CSV tables with manifests.

Each experiment writes three files into the output directory: results.csv
(RFC-4180, header row, floats at 17 significant digits), summary.json, and
manifest.json carrying the full config, the seed, and a git-style content
hash of the config.  Drivers compute their tables first, as blocks of
columns (1-D arrays, one per field), and the writer takes one block at a
time.  It formats each distinct value of a column once per block (floats
are told apart by their bits, so -0.0 and 0.0 keep their own text), takes
the texts back to the rows by the inverse index, and raises ``ValueError``
for a field that would need CSV quoting.  Reruns with the same config are
byte-identical: every random stream derives from ``seed`` through fixed
offsets (+7 model parameters, +12 dataset) or the explicit replicate seed
list, and nothing time-dependent is written.

Replicate chains fan out as batch rows inside the sampler rather than as
worker processes; emission happens in one place either way.

On failure nothing is left behind: outputs are staged under temporary
names, each registered before it is opened, and renamed only after all
three are complete.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import graph, hmc, learning
from .analysis import (
    LocalFactorSummary,
    cp_squared_correlation,
    dncp_squared_correlation,
    lds_correlations,
    prefer_dncp,
)
from .datasets import load_idx, synthetic_dataset
from .diagnostics import ess_report
from .errors import ConfigurationError
from .modelzoo import build_dbn_model, build_generative_mlp, build_lds_model
from .reparam import apply_plan, full_dncp_plan

EXPERIMENTS = ("correlation-scan", "lds", "dbn-ess", "mmcl-vs-mcem")


@dataclass(frozen=True)
class LearningSpec:
    """Schedule knobs shared by the two estimators in mmcl-vs-mcem.

    ``method`` narrows the run to one estimator ("mmcl" or "mcem"); the
    default trains both.
    """

    method: str = "both"
    mmcl_epochs: int = 4
    mcem_iterations: int = 300
    learning_rate: float = 0.25
    train_l: int = 10
    l_eval: int = 500
    eval_every: int = 50
    e_step_samples: int = 5
    thin: int = 2
    eval_seed: int = 1234
    mcem_step_size: float = 0.3
    mcem_leapfrog: int = 10

    def __post_init__(self):
        if self.method not in ("both", "mmcl", "mcem"):
            raise ConfigurationError(
                "learning method must be both, mmcl, or mcem")

    def methods(self):
        return ("mmcl", "mcem") if self.method == "both" else (self.method,)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults give the desk-scale protocols."""

    experiment: str
    out_dir: str = "results"
    seed: int = 0
    # correlation-scan
    n_points: int = 1000
    # lds posterior grids
    sigma_x: float = 1.0
    sigma_z_grid: tuple = (50.0, 2.0, 0.5, 0.02)
    grid_resolution: int = 101
    grid_halfwidth: float = 3.0
    # dbn-ess
    T: int = 10
    latent_dim: int = 2
    obs_dim: int = 5
    log_sigma_z_grid: tuple = (-5.0, -4.0, -3.0, -2.0, -1.0)
    replicate_seeds: tuple = (101, 202, 303)
    mix_rho: float = 0.5
    sampler: hmc.HmcConfig = hmc.HmcConfig(step_size=0.05, burn_in=1000,
                                           samples=4000)
    # mmcl-vs-mcem
    gen_dims: tuple = (2, 3)
    n_data: int = 1000
    holdout: int = 200
    learning: LearningSpec = LearningSpec()
    idx_path: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; "
                f"choose one of {', '.join(EXPERIMENTS)}")
        for name in ("sigma_z_grid", "log_sigma_z_grid", "replicate_seeds"):
            if len(getattr(self, name)) == 0:
                raise ConfigurationError(f"{name} must be non-empty")
        if self.n_points < 1 or self.n_data < 1 or self.holdout < 1:
            raise ConfigurationError("counts must be positive")
        if self.grid_resolution < 2:
            raise ConfigurationError("grid_resolution must be at least 2")
        dims = self.gen_dims
        if not (isinstance(dims, (tuple, list)) and len(dims) == 2 and all(
                hmc._is(d, numbers.Integral) and d > 0 for d in dims)):
            raise ConfigurationError(
                f"gen_dims must be two positive integers, got {dims!r}")
        hmc._check_mix_rho(self.mix_rho)
        hmc._check_int("seed", self.seed, 0)


def _config_dict(config):
    # the output location is not part of the experiment's identity
    d = asdict(config)
    d.pop("out_dir")
    return d


def _content_hash(config_dict):
    payload = json.dumps(config_dict, sort_keys=True).encode()
    return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


def _write_outputs(out_dir, header, blocks, summary, manifest):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ("results.csv", "summary.json", "manifest.json")
    staged = []
    try:
        for name, document in zip(names, (None, summary, manifest)):
            tmp = out / (name + ".tmp")
            staged.append((tmp, out / name))
            with open(tmp, "w", newline="") as fh:
                if document is None:
                    _write_csv(fh, header, blocks)
                else:
                    fh.write(json.dumps(document, indent=2, sort_keys=True)
                             + "\n")
        for tmp, final in staged:
            tmp.replace(final)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    return {name: str(out / name) for name in names}


def _format_column(column, lone):
    """The column's fields as an object array: each distinct value is
    formatted once and taken back to its rows by the inverse index."""
    kind = column.dtype.kind
    if kind not in "fiubU":
        raise TypeError(f"cannot write a column of dtype {column.dtype}")
    # floats are keyed by their bits, so -0.0 and 0.0 keep their own text
    keys = (column.astype(np.float64, copy=False).view(np.int64)
            if kind == "f" else column)
    distinct, inverse = np.unique(keys, return_inverse=True)
    if kind == "f":
        texts = [format(v, ".17g")
                 for v in distinct.view(np.float64).tolist()]
    elif kind in "iu":
        texts = list(map(str, distinct.tolist()))
    elif kind == "b":
        texts = ["1" if v else "0" for v in distinct.tolist()]
    else:
        texts = distinct.tolist()
        # fields the csv module would quote: any holding a delimiter, a
        # quote or a line break, and an empty field that is its row's only
        # field
        text = "".join(texts)
        if any(c in text for c in ',"\r\n') or (lone and "" in texts):
            raise ValueError("a CSV field would need quoting: it holds a "
                             "comma, a quote or a line break, or is a lone "
                             "empty field")
    return np.array(texts, dtype=object)[inverse]


def _write_csv(fh, header, blocks):
    lone = len(header) == 1
    fh.write(",".join(_format_column(np.array(header), lone)) + "\r\n")
    for block in blocks:
        columns = [np.asarray(c) for c in block]
        if len(columns) != len(header) or any(
                c.shape != columns[0].shape or c.ndim != 1 for c in columns):
            raise ValueError(f"a block needs {len(header)} 1-D columns of "
                             f"one length")
        if columns[0].size:
            fh.write("\r\n".join(map(",".join, zip(
                *(_format_column(c, lone) for c in columns)))) + "\r\n")


def _correlation_scan(config):
    rng = np.random.default_rng(config.seed)
    header = ("alpha", "beta", "w", "sigma", "rho2_cp", "rho2_dncp",
              "prefer_dncp")
    n = config.n_points
    columns = [np.empty(n) for _ in header[:-1]] + [np.empty(n, dtype=bool)]
    for k in range(n):
        # the byte contract: each point draws alpha, beta, w, sigma in turn
        alpha = -(10.0 ** rng.uniform(-2.0, 2.0))
        beta = -(10.0 ** rng.uniform(-2.0, 2.0))
        w = rng.standard_normal()
        sigma = 10.0 ** rng.uniform(-2.0, 2.0)
        s = LocalFactorSummary(alpha=alpha, beta=beta, w=w, sigma=sigma)
        for column, value in zip(columns, (
                alpha, beta, w, sigma, cp_squared_correlation(s),
                dncp_squared_correlation(s), prefer_dncp(sigma, beta))):
            column[k] = value
    count_dncp = int(columns[-1].sum())
    summary = {
        "n_points": n,
        "prefer_dncp_count": count_dncp,
        "prefer_cp_count": n - count_dncp,
    }
    return header, [tuple(columns)], summary


def _lds_posterior_mean_cov(sigma_x, sigma_z, x1, x2, report, system):
    sx2 = sigma_x ** 2
    if system == "cp":
        precision = -report.hessian_cp
        pull = np.array([x1 / sx2, x2 / sx2])
    else:
        precision = -report.hessian_dncp
        pull = np.array([(x1 + x2) / sx2, sigma_z * x2 / sx2])
    cov = np.linalg.inv(precision)
    return cov @ pull, cov


def _lds_grids(config):
    header = ("sigma_z", "system", "i", "j", "coord_1", "coord_2",
              "log_density", "rho_sq")
    blocks = []
    summary = {"sigma_x": config.sigma_x, "cells": []}
    res = config.grid_resolution
    n = res * res
    i, j = np.divmod(np.arange(n), res)
    for sigma_z in config.sigma_z_grid:
        model = build_lds_model(config.sigma_x, sigma_z)
        draw = graph.ancestral_sample(model, np.zeros(0),
                                      np.random.default_rng(config.seed + 12))
        data = {"x1": draw["x1"], "x2": draw["x2"]}
        x1, x2 = float(draw["x1"][0]), float(draw["x2"][0])
        report = lds_correlations(config.sigma_x, sigma_z)
        cell = {"sigma_z": sigma_z, "x1": x1, "x2": x2,
                "rho_sq_cp": report.rho_sq_cp,
                "rho_sq_dncp": report.rho_sq_dncp,
                "prefer_dncp": report.prefer_dncp}
        summary["cells"].append(cell)
        for system in ("cp", "dncp"):
            target_model = model if system == "cp" else apply_plan(
                model, full_dncp_plan(model))
            posterior = hmc.LatentPosterior(target_model, np.zeros(0), data)
            mean, cov = _lds_posterior_mean_cov(
                config.sigma_x, sigma_z, x1, x2, report, system)
            sd = np.sqrt(np.diag(cov))
            axes = [np.linspace(mean[k] - config.grid_halfwidth * sd[k],
                                mean[k] + config.grid_halfwidth * sd[k],
                                res) for k in (0, 1)]
            g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
            points = np.column_stack([g1.ravel(), g2.ravel()])
            logp, _ = posterior.value_and_grad(points)
            rho = (report.rho_sq_cp if system == "cp"
                   else report.rho_sq_dncp)
            blocks.append((np.full(n, sigma_z), np.full(n, system), i, j,
                           points[:, 0], points[:, 1], logp,
                           np.full(n, rho)))
    return header, blocks, summary


def _dbn_ess(config):
    from scipy import stats  # slow to import, and used only here

    header = ("log_sigma_z", "ess_cp", "ess_dncp", "ess_mix")
    cells = []
    for log_sigma_z in config.log_sigma_z_grid:
        sigma_z = 10.0 ** log_sigma_z
        model, theta = build_dbn_model(
            config.T, config.latent_dim, config.obs_dim, sigma_z,
            np.random.default_rng(config.seed + 7))
        draw = graph.ancestral_sample(model, theta,
                                      np.random.default_rng(config.seed + 12))
        data = {i: draw[i] for i in model.observed_ids}
        cell = {"log_sigma_z": log_sigma_z}
        for par in ("cp", "dncp", "mix"):
            results = hmc.run_chains(model, theta, data, config.sampler,
                                     parameterization=par,
                                     mix_rho=config.mix_rho,
                                     seeds=config.replicate_seeds)
            # worst-coordinate ESS per replicate, median across replicates
            cell[f"ess_{par}"] = float(np.median(
                [ess_report(r.draws).min_ess for r in results]))
        cells.append(cell)
    columns = tuple(np.array([c[k] for c in cells]) for k in header)
    grid, cp = columns[:2]
    spearman = float(stats.spearmanr(grid, cp).statistic) if len(grid) > 1 \
        else 1.0
    summary = {"cells": cells, "spearman_cp_vs_grid": spearman,
               "replicate_seeds": list(config.replicate_seeds)}
    return header, [columns], summary


def two_layer_model(gen_dims, obs_dim, sigma=1.0):
    """Tanh-affine Gaussian stack of two latent layers over Bernoulli leaves."""
    return build_generative_mlp(gen_dims, obs_dim, (sigma, sigma))


def learning_comparison(config):
    """Train the estimators named by config.learning.method on one dataset.

    Returns (header, blocks, summary) in the experiment driver convention;
    one block per method carries its per-evaluation train and test
    log-likelihoods.
    """
    spec = config.learning
    if config.idx_path is not None:
        handle = load_idx(config.idx_path, binarize=True,
                          seed=config.seed + 3)
        total = min(handle.count, config.n_data + config.holdout)
        x = handle.images[:total]
        theta_true = None
    else:
        model_dims = config.gen_dims
        gen_model = two_layer_model(model_dims, config.obs_dim)
        theta_true = graph.random_params(
            gen_model, np.random.default_rng(config.seed + 7))
        handle = synthetic_dataset(gen_model, theta_true,
                                   config.n_data + config.holdout,
                                   np.random.default_rng(config.seed + 12))
        x = handle.data["x"]
    model = two_layer_model(config.gen_dims, x.shape[1])
    x_train, x_test = x[:-config.holdout], x[-config.holdout:]
    train_data, test_data = {"x": x_train}, {"x": x_test}

    schedules = {
        "mmcl": learning.TrainConfig(
            iterations=spec.mmcl_epochs,
            learning_rate=spec.learning_rate,
            mmcl=learning.MmclConfig(L=spec.train_l, seed=config.seed),
            l_eval=spec.l_eval, eval_every=1, eval_seed=spec.eval_seed),
        "mcem": learning.TrainConfig(
            iterations=spec.mcem_iterations,
            learning_rate=spec.learning_rate,
            mmcl=learning.MmclConfig(L=spec.train_l, seed=config.seed),
            hmc=hmc.HmcConfig(step_size=spec.mcem_step_size,
                              leapfrog_steps=spec.mcem_leapfrog,
                              seed=config.seed),
            e_step_samples=spec.e_step_samples, thin=spec.thin,
            l_eval=spec.l_eval, eval_every=spec.eval_every,
            eval_seed=spec.eval_seed),
    }
    header = ("method", "iteration", "train_log_lik", "test_log_lik")
    blocks = []
    summary = {"n_train": int(x_train.shape[0]),
               "n_test": int(x_test.shape[0])}
    if theta_true is not None:
        nc = apply_plan(model, full_dncp_plan(model))
        summary["truth_train_log_lik"] = learning.marginal_log_likelihood(
            nc, theta_true, train_data, spec.l_eval, spec.eval_seed)
        summary["truth_test_log_lik"] = learning.marginal_log_likelihood(
            nc, theta_true, test_data, spec.l_eval, spec.eval_seed + 1)
    for method in spec.methods():
        trace = learning.train(method, model, train_data, test_data,
                               schedules[method])
        blocks.append((np.full(len(trace), method),
                       *(np.array([getattr(row, k) for row in trace])
                         for k in header[1:])))
        summary[f"{method}_final_train_log_lik"] = trace[-1].train_log_lik
        summary[f"{method}_final_test_log_lik"] = trace[-1].test_log_lik
        if theta_true is not None:
            summary[f"{method}_train_gap"] = (
                summary["truth_train_log_lik"] - trace[-1].train_log_lik)
    return header, blocks, summary


_DRIVERS = {
    "correlation-scan": _correlation_scan,
    "lds": _lds_grids,
    "dbn-ess": _dbn_ess,
    "mmcl-vs-mcem": learning_comparison,
}


def run_experiment(config):
    """Execute one named experiment and write its three output files.

    Returns a dict mapping output names to paths.  All randomness derives
    from config.seed, so a rerun with the manifest's config reproduces the
    files byte for byte.
    """
    header, blocks, summary = _DRIVERS[config.experiment](config)
    summary = {"experiment": config.experiment, "seed": config.seed,
               **summary}
    config_dict = _config_dict(config)
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "config": config_dict,
        "content_hash": _content_hash(config_dict),
        "outputs": ["results.csv", "summary.json"],
    }
    return _write_outputs(config.out_dir, header, blocks, summary, manifest)
