"""The three benchmark workloads: inputs from a seed, one round, checks.

A round runs the workload's operations once, through the package's public
functions.  Every round of a run repeats the same operations on the same
inputs, so rounds differ only in timing.  Checks compare the outputs with
the numpy references in ``reference.py`` or with properties the method
must have; none compares with stored output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

clock = time.perf_counter


@dataclass
class Round:
    seconds: float
    ops: int
    grad_evals: int
    detail: dict


def _replicate_seeds(seed, rows):
    state = np.random.SeedSequence([seed, 101]).generate_state(rows)
    return tuple(int(s) for s in state)


def _close(a, b, rtol):
    """Elementwise |a - b| <= rtol * max(1, |b|)."""
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


class SampleDbn:
    """cp, dncp and mix HMC on the paper's DBN at two conditional scales."""

    name = "sample-dbn"
    min_rounds = 1
    T, latent_dim, obs_dim = 10, 2, 5
    log_sigma_z = (-5.0, -1.0)
    systems = ("cp", "dncp", "mix")
    rows = 32
    burn_in, samples, leapfrog = 100, 300, 10
    step_size, mix_rho = 0.05, 0.5
    # the dbn-ess experiment's model weights (its seed 0 plus the +7 offset):
    # the benchmark seed varies the data and the chains, not the model
    theta_seed = 7

    def __init__(self, nc, seed, out_dir):
        self.nc = nc
        self.config = nc.hmc.HmcConfig(
            step_size=self.step_size, burn_in=self.burn_in,
            samples=self.samples, leapfrog_steps=self.leapfrog)
        self.seeds = _replicate_seeds(seed, self.rows)
        self.cells = []
        for log_sigma in self.log_sigma_z:
            model, theta = self.build(nc, log_sigma)
            draw = nc.graph.ancestral_sample(
                model, theta, np.random.default_rng([seed, 12]))
            data = {i: draw[i] for i in model.observed_ids}
            self.cells.append((log_sigma, model, theta, data))

    @classmethod
    def build(cls, nc, log_sigma):
        return nc.modelzoo.build_dbn_model(
            cls.T, cls.latent_dim, cls.obs_dim, 10.0 ** log_sigma,
            np.random.default_rng(cls.theta_seed))

    @classmethod
    def setup(cls, nc):
        """Model, plan and evaluator build plus one density+gradient call."""
        for log_sigma in cls.log_sigma_z:
            model, theta = cls.build(nc, log_sigma)
            draw = nc.graph.ancestral_sample(model, theta,
                                             np.random.default_rng(0))
            data = {i: draw[i] for i in model.observed_ids}
            dncp = nc.reparam.apply_plan(model,
                                         nc.reparam.full_dncp_plan(model))
            for m in (model, dncp):
                post = nc.hmc.LatentPosterior(m, theta, data)
                post.value_and_grad(np.zeros((cls.rows, post.dim)))

    def round(self):
        hmc, diagnostics = self.nc.hmc, self.nc.diagnostics
        start = clock()
        detail = {}
        evals = 0
        per_chain = self.burn_in + self.samples
        for log_sigma, model, theta, data in self.cells:
            for par in self.systems:
                t0 = clock()
                results = hmc.run_chains(model, theta, data, self.config,
                                         parameterization=par,
                                         mix_rho=self.mix_rho,
                                         seeds=self.seeds)
                chain_s = clock() - t0
                reports = [diagnostics.ess_report(r.draws) for r in results]
                # every system switch re-evaluates the density once; mix
                # starts in the model's own (cp) coordinates
                trace = results[0].system_trace
                start_in = "cp" if par == "mix" else par
                switches = int(np.sum(trace != np.concatenate(
                    ([start_in], trace[:-1]))))
                evals += 1 + per_chain * self.leapfrog + switches
                detail[(log_sigma, par)] = {
                    "chain_s": chain_s,
                    "draws": np.stack([r.draws for r in results]),
                    "ess": np.stack([rep.per_coordinate_ess
                                     for rep in reports]),
                    "accept": float(np.mean([
                        r.accept_trace[self.burn_in:].mean()
                        for r in results])),
                    "switches": switches,
                }
        return Round(clock() - start, len(self.cells) * len(self.systems),
                     evals, detail)

    @staticmethod
    def median_min_ess(cell):
        return float(np.median(cell["ess"].min(axis=1)))

    def ess_per_s(self, detail):
        """Median-over-rows worst-coordinate ESS, summed over cells, over
        that system's chain time."""
        out = {}
        for par in self.systems:
            cells = [detail[(ls, par)] for ls in self.log_sigma_z]
            out[par] = (sum(self.median_min_ess(c) for c in cells)
                        / sum(c["chain_s"] for c in cells))
        return out

    def _reference(self, model, theta, data, log_sigma):
        env = {name: theta[model.layout.slice_of(name)].reshape(shape)
               for name, (_, shape) in model.layout.blocks.items()}
        x = np.stack([data[f"x{t}"] for t in range(1, self.T + 1)])
        return ref.DbnReference(env["W_z"], env["b_z"], env["W_x"],
                                10.0 ** log_sigma, x)

    def _pack(self, model, values, prefix):
        """(rows, T, d) values into the model's flat free coordinates."""
        slices, dim = self.nc.graph.coord_slices(model)
        q = np.empty((values.shape[0], dim))
        for t in range(self.T):
            q[:, slices[f"{prefix}z{t + 1}"]] = values[:, t]
        return q

    def check(self, rounds):
        failures = []
        for rnd in rounds:
            failures += self._check_round(rnd)
        return failures

    def _check_round(self, rnd):
        failures = []
        hmc, reparam = self.nc.hmc, self.nc.reparam
        for log_sigma, model, theta, data in self.cells:
            reference = self._reference(model, theta, data, log_sigma)
            cp = hmc.LatentPosterior(model, theta, data)
            dncp_model = reparam.apply_plan(model,
                                            reparam.full_dncp_plan(model))
            dncp = hmc.LatentPosterior(dncp_model, theta, data)
            slices, _ = self.nc.graph.coord_slices(model)
            for par in self.systems:
                cell = rnd.detail[(log_sigma, par)]
                draws, ess = cell["draws"], cell["ess"]
                tag = f"log_sigma_z={log_sigma:g} {par}"
                if not np.all(np.isfinite(draws)):
                    failures.append(f"{tag}: non-finite draws")
                    continue
                if np.any(ess < 1.0) or np.any(ess > self.samples):
                    failures.append(f"{tag}: ESS outside [1, N]")
                # the last draw of every row, as (rows, T, d)
                z = np.stack([draws[:, -1, slices[f"z{t + 1}"]]
                              for t in range(self.T)], axis=1)
                q = self._pack(model, z, "")
                logp, grad = cp.value_and_grad(q)
                want = reference.grad_log_joint(z).reshape(len(z), -1)
                if not _close(logp, reference.log_joint(z), 1e-9):
                    failures.append(f"{tag}: cp density differs from numpy")
                grad_z = np.stack([grad[:, slices[f"z{t + 1}"]]
                                   for t in range(self.T)], axis=1)
                scale = np.max(np.abs(want), axis=1, keepdims=True)
                err = np.abs(grad_z.reshape(len(z), -1) - want)
                if np.any(err > 1e-9 * np.maximum(1.0, scale)):
                    failures.append(f"{tag}: cp gradient differs from numpy")
                eps = self._pack(dncp_model, reference.eps_from_z(z), "eps_")
                logp_eps, _ = dncp.value_and_grad(eps)
                if not _close(logp_eps, reference.log_joint(z)
                              + reference.log_jacobian(), 1e-9):
                    failures.append(
                        f"{tag}: dncp density is not cp density + sum log "
                        f"sigma")
            if log_sigma == min(self.log_sigma_z):
                cp_ess = self.median_min_ess(rnd.detail[(log_sigma, "cp")])
                mix_ess = self.median_min_ess(rnd.detail[(log_sigma, "mix")])
                if not mix_ess >= 10.0 * cp_ess:
                    failures.append(
                        f"log_sigma_z={log_sigma:g}: mix ESS {mix_ess:.1f} is "
                        f"below 10 x cp ESS {cp_ess:.1f}")
            if log_sigma == max(self.log_sigma_z):
                failures += self._means_agree(rnd, log_sigma)
        return failures

    def _means_agree(self, rnd, log_sigma, z_limit=5.0):
        """Posterior means of the three systems within z_limit standard
        errors, the errors taken from the spread of independent rows."""
        stats = {}
        for par in self.systems:
            row_means = rnd.detail[(log_sigma, par)]["draws"].mean(axis=1)
            stats[par] = (row_means.mean(axis=0),
                          row_means.var(axis=0, ddof=1) / self.rows)
        failures = []
        for a, b in (("cp", "dncp"), ("cp", "mix"), ("dncp", "mix")):
            (ma, va), (mb, vb) = stats[a], stats[b]
            z = np.abs(ma - mb) / np.sqrt(va + vb)
            if np.max(z) > z_limit:
                failures.append(
                    f"log_sigma_z={log_sigma:g}: {a} and {b} posterior means "
                    f"differ by {np.max(z):.1f} standard errors")
        return failures


class LearnMlp:
    """MMCL and MCEM on the two-layer tanh network, as mmcl-vs-mcem runs them."""

    name = "learn-mlp"
    min_rounds = 1
    gen_dims, obs_dim = (2, 3), 5
    n_train, n_test = 400, 100
    train_l, l_eval, eval_seed = 10, 200, 1234
    learning_rate = 0.25
    mmcl_epochs = 4
    mcem_iterations, eval_every = 60, 20
    e_step_samples, thin = 5, 2
    mcem_step_size, mcem_leapfrog = 0.3, 10
    methods = ("mmcl", "mcem")

    def __init__(self, nc, seed, out_dir):
        self.nc = nc
        self.seed = seed
        learning, graph = nc.learning, nc.graph
        gen = nc.experiments.two_layer_model(self.gen_dims, self.obs_dim)
        self.theta_true = graph.random_params(
            gen, np.random.default_rng(seed + 7))
        handle = nc.datasets.synthetic_dataset(
            gen, self.theta_true, self.n_train + self.n_test,
            np.random.default_rng(seed + 12))
        x = handle.data["x"]
        self.train = {"x": x[:self.n_train]}
        self.test = {"x": x[self.n_train:]}
        self.model = nc.experiments.two_layer_model(self.gen_dims,
                                                    self.obs_dim)
        self.nc_model = nc.reparam.apply_plan(
            self.model, nc.reparam.full_dncp_plan(self.model))
        self.truth = learning.marginal_log_likelihood(
            self.nc_model, self.theta_true, self.train, self.l_eval,
            self.eval_seed)
        mmcl = learning.MmclConfig(L=self.train_l, seed=seed)
        self.schedules = {
            "mmcl": learning.TrainConfig(
                iterations=self.mmcl_epochs, learning_rate=self.learning_rate,
                mmcl=mmcl, l_eval=self.l_eval, eval_every=1,
                eval_seed=self.eval_seed),
            "mcem": learning.TrainConfig(
                iterations=self.mcem_iterations,
                learning_rate=self.learning_rate, mmcl=mmcl,
                hmc=nc.hmc.HmcConfig(step_size=self.mcem_step_size,
                                     leapfrog_steps=self.mcem_leapfrog,
                                     seed=seed),
                e_step_samples=self.e_step_samples, thin=self.thin,
                l_eval=self.l_eval, eval_every=self.eval_every,
                eval_seed=self.eval_seed),
        }

    @classmethod
    def grad_evals(cls, method):
        """Density+gradient passes one train call makes, from its schedule."""
        if method == "mmcl":
            return cls.mmcl_epochs * cls.n_train
        # per EM round: the E-step's starting point, its leapfrog steps and
        # the complete-data gradient
        per_round = 1 + cls.e_step_samples * cls.thin * cls.mcem_leapfrog + 1
        return cls.mcem_iterations * per_round

    @classmethod
    def setup(cls, nc):
        """Model, plan and evaluator build plus one density+gradient call
        per evaluator: the MMCL objective and the E-step posterior."""
        learning = nc.learning
        model = nc.experiments.two_layer_model(cls.gen_dims, cls.obs_dim)
        nc_model = nc.reparam.apply_plan(model,
                                         nc.reparam.full_dncp_plan(model))
        theta = nc.graph.random_params(model, np.random.default_rng(0))
        x = np.zeros((cls.n_train, cls.obs_dim))
        learning.mmcl_gradient(nc_model, theta, {"x": x[0]}, cls.train_l,
                               np.random.default_rng(0))
        learning.marginal_log_likelihood(nc_model, theta, {"x": x},
                                         cls.l_eval, cls.eval_seed)
        post = learning._DatasetPosterior(model, theta, {"x": x})
        post.value_and_grad(np.zeros((cls.n_train, post.dim)))

    def round(self):
        learning = self.nc.learning
        start = clock()
        detail = {}
        for method in self.methods:
            t0 = clock()
            trace = learning.train(method, self.model, self.train, self.test,
                                   self.schedules[method])
            detail[method] = {"fit_s": clock() - t0, "trace": trace}
        evals = sum(self.grad_evals(m) for m in self.methods)
        return Round(clock() - start, len(self.methods), evals, detail)

    def check(self, rounds):
        failures = []
        for rnd, method in ((r, m) for r in rounds for m in self.methods):
            trace = rnd.detail[method]["trace"]
            values = [(r.train_log_lik, r.test_log_lik) for r in trace]
            if not np.all(np.isfinite(values)):
                failures.append(f"{method}: non-finite log-likelihood trace")
                continue
            gap = self.truth - trace[-1].train_log_lik
            if not abs(gap) <= 0.1:
                failures.append(
                    f"{method}: final train log-likelihood is {gap:.3f} nats "
                    f"from the generator's")
        return (failures + self._marginal_matches_exact()
                + self._gradient_matches_fd())

    def _marginal_matches_exact(self, n=40, L=2000):
        nc = self.nc
        rng = np.random.default_rng([self.seed, 31])
        W = rng.standard_normal((2, 1))
        b = rng.standard_normal(2)
        exact = ref.LinearGaussianLatent(W, b, 1.0)
        z = rng.standard_normal((n, 1))
        x = z @ W.T + b + rng.standard_normal((n, 2))
        model = nc.graph.build_model({"nodes": [
            {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
            {"id": "x", "kind": "observed", "dim": 2, "family": "gaussian",
             "parents": ["z"], "link": {"weights": {"z": "param"},
                                        "bias": "param"}, "scale": 1.0},
        ]})
        theta = model.layout.pack({"x.W.z": W, "x.b": b})
        noncentered = nc.reparam.apply_plan(model,
                                            nc.reparam.full_dncp_plan(model))
        estimate = nc.learning.marginal_log_likelihood(
            noncentered, theta, {"x": x}, L, self.seed)
        truth = float(np.mean(exact.log_marginal(x)))
        bound = exact.estimator_error_bound(x, L, rng)
        if abs(estimate - truth) > bound:
            return [f"marginal_log_likelihood {estimate:.5f} is more than "
                    f"{bound:.5f} from the exact {truth:.5f}"]
        return []

    def _gradient_matches_fd(self, h=1e-5):
        learning = self.nc.learning
        point = {"x": self.train["x"][0]}
        theta = self.theta_true

        def rng():
            return np.random.default_rng([self.seed, 47])

        grad = learning.mmcl_gradient(self.nc_model, theta, point,
                                      self.train_l, rng())
        fd = np.empty_like(theta)
        for k in range(theta.size):
            step = np.zeros_like(theta)
            step[k] = h
            hi = learning.mmcl_estimate(self.nc_model, theta + step, point,
                                        self.train_l, rng())
            lo = learning.mmcl_estimate(self.nc_model, theta - step, point,
                                        self.train_l, rng())
            fd[k] = (hi - lo) / (2.0 * h)
        if not _close(grad, fd, 1e-6):
            worst = float(np.max(np.abs(grad - fd)))
            return [f"mmcl_gradient differs from central differences by "
                    f"{worst:.2e}"]
        return []


class GridLds:
    """The lds and correlation-scan experiments, writing their files."""

    name = "grid-lds"
    min_rounds = 2  # the second run shows whether reruns are byte-identical
    experiments = ("lds", "correlation-scan")

    def __init__(self, nc, seed, out_dir):
        self.nc = nc
        self.configs = {
            name: nc.experiments.ExperimentConfig(
                name, out_dir=str(Path(out_dir) / name), seed=seed)
            for name in self.experiments}

    @classmethod
    def grad_evals(cls, config):
        # one batched density+gradient evaluation per grid
        return 2 * len(config.sigma_z_grid) if config.experiment == "lds" \
            else 0

    @classmethod
    def setup(cls, nc):
        """The lds models, plans and evaluators with one call each."""
        config = nc.experiments.ExperimentConfig("lds")
        for sigma_z in config.sigma_z_grid:
            model = nc.modelzoo.build_lds_model(config.sigma_x, sigma_z)
            dncp = nc.reparam.apply_plan(model,
                                         nc.reparam.full_dncp_plan(model))
            data = {"x1": np.zeros(1), "x2": np.zeros(1)}
            for m in (model, dncp):
                post = nc.hmc.LatentPosterior(m, np.zeros(0), data)
                post.value_and_grad(np.zeros((config.grid_resolution, 2)))

    def round(self):
        run_experiment = self.nc.experiments.run_experiment
        start = clock()
        detail = {}
        for name, config in self.configs.items():
            t0 = clock()
            paths = run_experiment(config)
            detail[name] = {"seconds": clock() - t0, "paths": paths}
        seconds = clock() - start
        evals = sum(self.grad_evals(c) for c in self.configs.values())
        # hashed outside the timed span, before the next round rewrites them
        for name in self.experiments:
            detail[name]["digest"] = {
                k: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                for k, p in detail[name]["paths"].items()}
        return Round(seconds, len(self.configs), evals, detail)

    def check(self, rounds):
        """The files on disk (the last round's), and every round's bytes
        against the first round's."""
        detail = rounds[-1].detail
        failures = self._check_lds(detail["lds"]["paths"]) + \
            self._check_scan(detail["correlation-scan"]["paths"])
        first = rounds[0].detail
        for rnd in rounds[1:]:
            for name in self.experiments:
                if rnd.detail[name]["digest"] != first[name]["digest"]:
                    failures.append(f"{name}: a rerun with the same config "
                                    f"wrote different bytes")
        return failures

    def _check_lds(self, paths):
        config = self.configs["lds"]
        summary = json.loads(Path(paths["summary.json"]).read_text())
        cells = {c["sigma_z"]: c for c in summary["cells"]}
        with open(paths["results.csv"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        failures = []
        expected = len(config.sigma_z_grid) * 2 * config.grid_resolution ** 2
        if len(rows) != expected:
            failures.append(f"lds wrote {len(rows)} rows, not {expected}")
        groups = {}
        for r in rows:
            groups.setdefault((float(r[0]), r[1]), []).append(r)
        for (sigma_z, system), group in groups.items():
            cell = cells[sigma_z]
            model = ref.lds_reference(config.sigma_x, sigma_z, cell["x1"],
                                      cell["x2"], system)
            values = np.array([[float(v) for v in r[4:8]] for r in group])
            want = model.log_density(values[:, :2])
            if not _close(values[:, 2], want, 1e-9):
                failures.append(
                    f"lds sigma_z={sigma_z:g} {system}: log_density differs "
                    f"from the Gaussian reference")
            rho = ref.squared_correlation(model.precision())
            if not _close(values[:, 3], rho, 1e-9):
                failures.append(
                    f"lds sigma_z={sigma_z:g} {system}: rho_sq differs from "
                    f"the exact precision")
            if not _close(cell[f"rho_sq_{system}"], rho, 1e-9):
                failures.append(f"lds sigma_z={sigma_z:g}: summary rho_sq")
            if cell["prefer_dncp"] != bool(sigma_z < config.sigma_x):
                failures.append(f"lds sigma_z={sigma_z:g}: prefer_dncp")
        return failures

    def _check_scan(self, paths):
        with open(paths["results.csv"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        failures = []
        if len(rows) != self.configs["correlation-scan"].n_points:
            failures.append("correlation-scan wrote the wrong row count")
        for r in rows:
            alpha, beta, w, sigma, rho_cp, rho_dncp = (float(v) for v in r[:6])
            prefer = r[6] == "1"
            want_cp, want_dncp = ref.local_factor_correlations(alpha, beta, w,
                                                               sigma)
            if not (_close(rho_cp, want_cp, 1e-9)
                    and _close(rho_dncp, want_dncp, 1e-9)):
                failures.append(f"correlation-scan: rho2 differs at {r[:4]}")
            if prefer != (sigma ** -2 > -beta) or \
                    prefer != (rho_dncp < rho_cp):
                failures.append(f"correlation-scan: prefer_dncp at {r[:4]}")
        return failures


WORKLOADS = {w.name: w for w in (SampleDbn, LearnMlp, GridLds)}
