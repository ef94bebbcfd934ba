"""Command line interface.

Four subcommands share one output convention (results.csv, summary.json,
manifest.json in the output directory):

  analyze     closed-form posterior-correlation report for the two-step
              chain, and optionally for one local factor pair
  sample      run an HMC chain on a ready-made model, emit the draws
  learn       fit the two-layer generative model by mmcl and/or mcem
  experiment  run a named experiment protocol

Flags: --config FILE (YAML, see the config module), --seed N (overrides
the file), --out DIR.  Exit codes: 0 success, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import config as config_mod
from . import graph, hmc
from .analysis import (
    LocalFactorSummary,
    cp_squared_correlation,
    dncp_squared_correlation,
    lds_correlations,
    prefer_dncp,
)
from .diagnostics import ess_report
from .errors import ConfigurationError, NumericError
from .experiments import (
    EXPERIMENTS,
    _content_hash,
    _write_outputs,
    learning_comparison,
    run_experiment,
)
from .modelzoo import build_dbn_model, build_lds_model


def _parser():
    parser = argparse.ArgumentParser(
        prog="ncbayes",
        description="Centered and non-centered parameterizations for "
                    "differentiable Bayesian networks")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": "closed-form correlation comparison",
        "sample": "run an HMC chain on a ready-made model",
        "learn": "fit the two-layer generative model",
        "experiment": "run a named experiment protocol",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        if name == "experiment":
            cmd.add_argument("name", choices=EXPERIMENTS)
        cmd.add_argument("--config", default=None,
                         help="YAML config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", default=None,
                         help="override the output directory")
    return parser


def _manifest(command, cfg, outputs=("results.csv", "summary.json")):
    config_dict = dataclasses.asdict(cfg)
    config_dict.pop("out_dir")
    return {"command": command, "seed": cfg.seed, "config": config_dict,
            "content_hash": _content_hash(config_dict),
            "outputs": list(outputs)}


def _analyze(args, raw):
    cfg = config_mod.analyze_config(raw, args.seed, args.out)
    header = ("kind", "alpha", "beta", "w", "sigma", "sigma_x", "sigma_z",
              "rho2_cp", "rho2_dncp", "prefer_dncp")
    report = lds_correlations(cfg.sigma_x, cfg.sigma_z)
    rows = [("lds", "", "", "", "", cfg.sigma_x, cfg.sigma_z,
             report.rho_sq_cp, report.rho_sq_dncp, report.prefer_dncp)]
    summary = {"lds": {"sigma_x": cfg.sigma_x, "sigma_z": cfg.sigma_z,
                       "rho_sq_cp": report.rho_sq_cp,
                       "rho_sq_dncp": report.rho_sq_dncp,
                       "prefer_dncp": report.prefer_dncp}}
    if cfg.local_factor_given():
        s = LocalFactorSummary(alpha=cfg.alpha, beta=cfg.beta, w=cfg.w,
                               sigma=cfg.sigma)
        r_cp = cp_squared_correlation(s)
        r_dncp = dncp_squared_correlation(s)
        better = prefer_dncp(cfg.sigma, cfg.beta)
        rows.append(("local-factor", cfg.alpha, cfg.beta, cfg.w, cfg.sigma,
                     "", "", r_cp, r_dncp, better))
        summary["local_factor"] = {
            "alpha": cfg.alpha, "beta": cfg.beta, "w": cfg.w,
            "sigma": cfg.sigma, "rho_sq_cp": r_cp, "rho_sq_dncp": r_dncp,
            "prefer_dncp": better}
    # the cells of a column differ in type between rows: one block per row
    blocks = [tuple(np.array([v]) for v in row) for row in rows]
    return _write_outputs(cfg.out_dir, header, blocks, summary,
                          _manifest("analyze", cfg))


def _sample(args, raw):
    cfg = config_mod.sample_config(raw, args.seed, args.out)
    if cfg.model == "lds":
        model = build_lds_model(cfg.sigma_x, cfg.sigma_z)
        theta = np.zeros(0)
    else:
        model, theta = build_dbn_model(
            cfg.T, cfg.latent_dim, cfg.obs_dim, cfg.sigma_z,
            np.random.default_rng(cfg.seed + 7))
    draw = graph.ancestral_sample(model, theta,
                                  np.random.default_rng(cfg.seed + 12))
    data = {i: draw[i] for i in model.nodes
            if model.nodes[i].kind == "observed"}
    sampler = dataclasses.replace(cfg.sampler, seed=cfg.seed)
    result = hmc.run_chains(model, theta, data, sampler,
                            parameterization=cfg.parameterization,
                            mix_rho=cfg.mix_rho)[0]
    labels = []
    for node_id in model.free_ids:
        dim = int(model.nodes[node_id].dim)
        labels.extend(f"{node_id}_{k}" for k in range(dim))
    header = ("draw", *labels)
    blocks = [(np.arange(len(result.draws)), *result.draws.T)]
    kept = result.accept_trace[sampler.burn_in:]
    summary = {
        "model": cfg.model,
        "parameterization": cfg.parameterization,
        "acceptance_rate": float(np.mean(kept)) if kept.size else None,
        "final_step_sizes": {k: float(v)
                             for k, v in result.final_step_sizes.items()},
        "system_counts": {str(name): int(count) for name, count in
                          zip(*np.unique(result.system_trace,
                                         return_counts=True))},
    }
    if result.draws.shape[0] >= 100:
        report = ess_report(result.draws)
        summary["min_ess"] = report.min_ess
        summary["median_ess"] = report.median_ess
    return _write_outputs(cfg.out_dir, header, blocks, summary,
                          _manifest("sample", cfg))


def _learn(args, raw):
    cfg = config_mod.experiment_config(raw, experiment="mmcl-vs-mcem",
                                       seed=args.seed, out_dir=args.out)
    header, blocks, summary = learning_comparison(cfg)
    summary = {"command": "learn", "seed": cfg.seed, **summary}
    return _write_outputs(cfg.out_dir, header, blocks, summary,
                          _manifest("learn", cfg))


def _experiment(args, raw):
    cfg = config_mod.experiment_config(raw, experiment=args.name,
                                       seed=args.seed, out_dir=args.out)
    return run_experiment(cfg)


_DISPATCH = {"analyze": _analyze, "sample": _sample, "learn": _learn,
             "experiment": _experiment}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        raw = config_mod.load_config(args.config) if args.config else {}
        paths = _DISPATCH[args.command](args, raw)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
