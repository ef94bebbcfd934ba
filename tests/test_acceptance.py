"""End-to-end checks tying the whole package together.

Each test pins one shipped behavior at its stated tolerance: closed-form
correlation algebra against Hessian oracles, transform identities against
direct density evaluation, sampler moments against analytic posteriors,
the parameterization ESS contrasts at desk scale, estimator bias and
recovery properties of the two learners, and ESS estimator calibration.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from ncbayes.analysis import (
    LocalFactorSummary,
    correlation_limits,
    cp_local_hessian,
    cp_squared_correlation,
    dncp_local_hessian,
    dncp_squared_correlation,
    hessian_log_posterior,
    lds_correlations,
    squared_correlation_from_hessian,
)
from ncbayes.diagnostics import effective_sample_size, ess_report
from ncbayes.experiments import ExperimentConfig, run_experiment
from ncbayes.graph import (
    ancestral_sample,
    build_model,
    grad_log_joint_latents,
    grad_log_joint_params,
    log_joint,
    random_params,
)
from ncbayes.hmc import HmcConfig, run_chain
from ncbayes.learning import mmcl_estimate, mmcl_gradient
from ncbayes.modelzoo import (
    build_dbn_model,
    build_generative_mlp,
    build_lds_model,
)
from ncbayes.reparam import apply_plan, full_dncp_plan, z_from_eps
from test_hmc import leapfrog


def random_summaries(n, rng):
    out = []
    for _ in range(n):
        out.append(LocalFactorSummary(
            alpha=-(10.0 ** rng.uniform(-2.0, 2.0)),
            beta=-(10.0 ** rng.uniform(-2.0, 2.0)),
            w=rng.standard_normal(),
            sigma=10.0 ** rng.uniform(-2.0, 2.0)))
    return out


class TestCorrelationAlgebra:
    def test_closed_forms_match_hessian_oracle(self):
        draws = random_summaries(1000, np.random.default_rng(42))
        start = time.perf_counter()
        for s in draws:
            oracle_cp = squared_correlation_from_hessian(
                cp_local_hessian(s), 0, 1)
            oracle_dncp = squared_correlation_from_hessian(
                dncp_local_hessian(s), 0, 1)
            assert cp_squared_correlation(s) == pytest.approx(
                oracle_cp, rel=1e-10)
            assert dncp_squared_correlation(s) == pytest.approx(
                oracle_dncp, rel=1e-10)
        assert time.perf_counter() - start < 1.0

    def test_preference_threshold_has_no_counterexamples(self):
        for s in random_summaries(1000, np.random.default_rng(42)):
            stronger_cp = cp_squared_correlation(s) > \
                dncp_squared_correlation(s)
            assert stronger_cp == (s.sigma ** -2 > -s.beta)

    def test_threshold_equality_case(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sigma = 10.0 ** rng.uniform(-2.0, 2.0)
            s = LocalFactorSummary(
                alpha=-(10.0 ** rng.uniform(-2.0, 2.0)),
                beta=-(sigma ** -2),
                w=rng.standard_normal(), sigma=sigma)
            diff = cp_squared_correlation(s) - dncp_squared_correlation(s)
            assert abs(diff) <= 1e-12

    def test_limits_reached_along_geometric_sequences(self):
        base = LocalFactorSummary(alpha=-1.3, beta=-0.8, w=0.6, sigma=0.9)
        moves = {
            "sigma->0": lambda k: {"sigma": base.sigma * 10.0 ** -k},
            "sigma->inf": lambda k: {"sigma": base.sigma * 10.0 ** k},
            "beta->0": lambda k: {"beta": base.beta * 10.0 ** -k},
            "beta->-inf": lambda k: {"beta": base.beta * 10.0 ** k},
            "alpha->0": lambda k: {"alpha": base.alpha * 10.0 ** -k},
            "alpha->-inf": lambda k: {"alpha": base.alpha * 10.0 ** k},
        }
        fields = {"alpha": base.alpha, "beta": base.beta, "w": base.w,
                  "sigma": base.sigma}
        for which, move in moves.items():
            want_cp, want_dncp = correlation_limits(base, which)
            s = LocalFactorSummary(**{**fields, **move(6)})
            assert cp_squared_correlation(s) == pytest.approx(
                want_cp, abs=1e-3)
            assert dncp_squared_correlation(s) == pytest.approx(
                want_dncp, abs=1e-3)
        # the two pure limits are tabulated as exact endpoints
        assert correlation_limits(base, "sigma->0") == (1.0, 0.0)
        assert correlation_limits(base, "beta->-inf") == (0.0, 1.0)


class TestTwoStepChainThreshold:
    GRID = (0.02, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0)

    def test_preference_grid_has_no_violations(self):
        for sigma_z in self.GRID:
            for sigma_x in self.GRID:
                report = lds_correlations(sigma_x, sigma_z)
                assert report.prefer_dncp == (sigma_z < sigma_x)
                if sigma_z == sigma_x:
                    assert abs(report.rho_sq_cp
                               - report.rho_sq_dncp) <= 1e-12
                else:
                    weaker_dncp = report.rho_sq_dncp < report.rho_sq_cp
                    assert weaker_dncp == (sigma_z < sigma_x)

    def test_closed_form_hessians_match_finite_differences(self):
        data = {"x1": np.zeros(1), "x2": np.zeros(1)}
        for sigma_z in self.GRID:
            for sigma_x in self.GRID:
                report = lds_correlations(sigma_x, sigma_z)
                model = build_lds_model(sigma_x, sigma_z)
                for closed, system in ((report.hessian_cp, "cp"),
                                       (report.hessian_dncp, "dncp")):
                    fd = hessian_log_posterior(model, np.zeros(0), data,
                                               system)
                    assert np.allclose(fd, closed, atol=1e-5, rtol=0)


def mixed_transform_spec():
    return {"nodes": [
        {"id": "r", "dim": 1, "family": "exponential",
         "link": {"bias": 2.0}},
        {"id": "y", "dim": 1, "family": "lognormal", "parents": ["r"],
         "link": {"weights": {"r": [[0.5]]}}, "scale": 0.7},
        {"id": "s", "dim": 2, "family": "gaussian", "parents": ["y"],
         "link": {"weights": {"y": [[0.3], [-0.2]]}}, "scale": 1.2},
        {"id": "x", "kind": "observed", "dim": 2, "family": "gaussian",
         "parents": ["s"], "link": {"weights": {"s": "identity"}},
         "scale": 1.0},
    ]}


class TestChangeOfVariables:
    def test_pointwise_identity_across_all_transforms(self):
        model = build_model(mixed_transform_spec())
        plan = full_dncp_plan(model)
        nc = apply_plan(model, plan)
        theta = np.zeros(0)
        env = model.layout.unpack(theta)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            eps = {"eps_r": rng.uniform(0.02, 0.98, 1),
                   "eps_y": rng.standard_normal(1),
                   "eps_s": rng.standard_normal(2)}
            zs = z_from_eps(model, plan, eps, theta)
            x = rng.standard_normal(2)
            centered = log_joint(model, theta, {**zs, "x": x})
            noncentered = log_joint(nc, theta, {**eps, "x": x})
            jac = (plan["r"].jacobian_log_abs_det({}, eps["eps_r"], env)
                   + plan["y"].jacobian_log_abs_det(
                       {"r": zs["r"]}, eps["eps_y"], env)
                   + plan["s"].jacobian_log_abs_det(
                       {"y": zs["y"]}, eps["eps_s"], env))
            assert noncentered == pytest.approx(centered + jac, abs=1e-9)

    def test_both_systems_sample_the_same_law(self):
        model = build_model(mixed_transform_spec())
        nc = apply_plan(model, full_dncp_plan(model))
        theta = np.zeros(0)
        a = ancestral_sample(model, theta, np.random.default_rng(1),
                             size=100_000)
        b = ancestral_sample(nc, theta, np.random.default_rng(2),
                             size=100_000)
        for key, col in (("r", 0), ("y", 0), ("s", 0), ("s", 1), ("x", 1)):
            p = stats.ks_2samp(a[key][:, col], b[key][:, col]).pvalue
            assert p > 0.001


def fd_latent_gradients(model, theta, assignment, free_ids, h=1e-5):
    out = {}
    for node_id in free_ids:
        v = np.asarray(assignment[node_id], dtype=np.float64)
        g = np.zeros_like(v)
        for k in range(v.size):
            up, dn = dict(assignment), dict(assignment)
            vu, vd = v.copy(), v.copy()
            vu[k] += h
            vd[k] -= h
            up[node_id], dn[node_id] = vu, vd
            g[k] = (log_joint(model, theta, up)
                    - log_joint(model, theta, dn)) / (2 * h)
        out[node_id] = g
    return out


def fd_param_gradient(model, theta, assignment, h=1e-5):
    g = np.zeros_like(theta)
    for k in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (log_joint(model, up, assignment)
                - log_joint(model, dn, assignment)) / (2 * h)
    return g


class TestGradientCorrectness:
    def zoo(self):
        rng = np.random.default_rng(0)
        lds = build_lds_model(1.0, 2.0)
        dbn, theta_dbn = build_dbn_model(3, 2, 2, 0.5, rng)
        mlp = build_generative_mlp((2, 2, 4), obs_dim=3,
                                   sigmas=(1.0, 0.8, 0.0))
        theta_mlp = random_params(mlp, rng)
        models = [(lds, np.zeros(0)), (dbn, theta_dbn), (mlp, theta_mlp)]
        transformed = [(apply_plan(m, full_dncp_plan(m)), th)
                       for m, th in models]
        return models + transformed

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for model, theta in self.zoo():
            free = [i for i in model.topo_order
                    if model.nodes[i].kind in ("latent", "auxiliary")]
            for _ in range(100):
                draw = ancestral_sample(model, theta, rng)
                assignment = {i: draw[i] for i in draw
                              if model.nodes[i].kind != "deterministic"}
                _, grads = grad_log_joint_latents(model, theta, assignment)
                want = fd_latent_gradients(model, theta, assignment, free)
                for node_id in free:
                    assert np.allclose(grads[node_id], want[node_id],
                                       rtol=1e-6, atol=1e-9)
                if theta.size:
                    _, got = grad_log_joint_params(model, theta, assignment)
                    assert np.allclose(got,
                                       fd_param_gradient(model, theta,
                                                         assignment),
                                       rtol=1e-6, atol=1e-9)


def lds_posterior(sigma_x=1.0, sigma_z=2.0, x1=1.5, x2=-0.5):
    model = build_lds_model(sigma_x, sigma_z)
    data = {"x1": np.array([x1]), "x2": np.array([x2])}
    a, b = sigma_x ** -2, sigma_z ** -2
    precision = np.array([[1.0 + a + b, -b], [-b, a + b]])
    cov = np.linalg.inv(precision)
    mean = cov @ np.array([a * x1, a * x2])
    return model, data, mean, cov


class TestChainCorrectness:
    def test_moments_match_analytic_posterior(self):
        model, data, mean, cov = lds_posterior()
        config = HmcConfig(step_size=0.4, burn_in=1000, samples=20_000,
                           seed=3)
        result = run_chain(model, np.zeros(0), data, config)
        draws = result.draws
        report = ess_report(draws)
        ess = report.per_coordinate_ess
        for k in range(2):
            se = np.sqrt(cov[k, k] / ess[k])
            assert abs(draws[:, k].mean() - mean[k]) < 3 * se
        sample_cov = np.cov(draws.T)
        for i in range(2):
            for j in range(2):
                se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2)
                             / report.min_ess)
                assert abs(sample_cov[i, j] - cov[i, j]) < 3 * se

    def test_leapfrog_reversibility_and_volume(self):
        precision = np.array([[2.25, -0.25], [-0.25, 1.25]])

        def grad(q):
            return -(precision @ q)

        rng = np.random.default_rng(9)
        q0, p0 = rng.standard_normal(2), rng.standard_normal(2)
        q1, p1 = leapfrog(q0, p0, 0.1, 25, grad)
        q2, p2 = leapfrog(q1, -p1, 0.1, 25, grad)
        assert np.allclose(q2, q0, atol=1e-10, rtol=0)
        assert np.allclose(-p2, p0, atol=1e-10, rtol=0)

        eps = 1e-5
        jac = np.zeros((4, 4))
        base = np.concatenate([q0, p0])
        for k in range(4):
            up, dn = base.copy(), base.copy()
            up[k] += eps
            dn[k] -= eps
            uq, upv = leapfrog(up[:2], up[2:], 0.05, 5, grad)
            dq, dpv = leapfrog(dn[:2], dn[2:], 0.05, 5, grad)
            jac[:, k] = (np.concatenate([uq, upv])
                         - np.concatenate([dq, dpv])) / (2 * eps)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-6


@pytest.fixture(scope="module")
def ess_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("essgrid")
    config = ExperimentConfig("dbn-ess", out_dir=str(out), seed=0)
    paths = run_experiment(config)
    summary = json.load(open(paths["summary.json"]))
    cells = {int(c["log_sigma_z"]): c for c in summary["cells"]}
    return cells, summary


@pytest.mark.slow
class TestParameterizationEssContrast:
    def test_ess_ratios_across_the_grid(self, ess_grid):
        cells, _ = ess_grid
        low, high = cells[-5], cells[-1]
        assert low["ess_dncp"] >= 10 * low["ess_cp"]
        assert max(high["ess_cp"], high["ess_dncp"]) <= \
            3 * min(high["ess_cp"], high["ess_dncp"])
        floor = min(min(c["ess_cp"], c["ess_dncp"])
                    for c in cells.values())
        for cell in cells.values():
            assert cell["ess_mix"] >= 10 * floor
        # where the pure samplers disagree most, the mixture stays within
        # a small factor of the better one while dwarfing the worse one
        better = max(low["ess_cp"], low["ess_dncp"])
        worse = min(low["ess_cp"], low["ess_dncp"])
        assert better <= 3 * low["ess_mix"]
        assert low["ess_mix"] >= 10 * worse

    def test_centered_ess_rises_with_conditional_scale(self, ess_grid):
        # the worst-coordinate ESS estimator saturates near its floor for
        # the three smallest scales at this draw budget, so the measured
        # rank trend carries estimator noise there
        _, summary = ess_grid
        assert summary["spearman_cp_vs_grid"] > 0.9


TOY_SIGMA_X = 1.0


def bound_toy():
    model = build_model({"nodes": [
        {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
        {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["z"],
         "link": {"weights": {"z": "identity"}, "bias": {"param": "b"}},
         "scale": TOY_SIGMA_X},
    ]})
    return apply_plan(model, full_dncp_plan(model))


class TestBoundEstimator:
    def test_bias_shrinks_and_stays_below_truth(self):
        nc = bound_toy()
        theta = np.zeros(1)
        data = {"x": np.array([0.0])}
        truth = float(stats.norm.logpdf(0.0, 0.0,
                                        np.sqrt(1.0 + TOY_SIGMA_X ** 2)))
        ls = (1, 10, 100, 1000)
        reps = 200
        rng = np.random.default_rng(17)
        estimates = np.empty((reps, len(ls)))
        for rep in range(reps):
            for col, L in enumerate(ls):
                estimates[rep, col] = mmcl_estimate(nc, theta, data, L, rng)
        means = estimates.mean(axis=0)
        ses = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
        # past L=100 the bias is smaller than the replication noise, so
        # monotonicity is asserted up to three standard errors of each
        # paired difference
        diffs = np.diff(estimates, axis=1)
        diff_ses = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(diffs.mean(axis=0) >= -3.0 * diff_ses)
        assert np.all(means <= truth + ses)
        big = mmcl_estimate(nc, theta, data, 10_000,
                            np.random.default_rng(3))
        assert abs(big - truth) < 0.02

    def test_gradient_matches_finite_differences_under_fixed_seed(self):
        nc = bound_toy()
        data = {"x": np.array([0.7])}
        theta = np.array([0.3])
        grad = mmcl_gradient(nc, theta, data, 50, np.random.default_rng(4))
        h = 1e-5
        up = mmcl_estimate(nc, theta + h, data, 50,
                           np.random.default_rng(4))
        dn = mmcl_estimate(nc, theta - h, data, 50,
                           np.random.default_rng(4))
        assert grad[0] == pytest.approx((up - dn) / (2 * h), rel=1e-6)


class TestLearningRecovery:
    def test_both_learners_reach_ground_truth_likelihood(self, tmp_path):
        # synthetic data only; full-size image benchmarks are out of scope
        config = ExperimentConfig("mmcl-vs-mcem", out_dir=str(tmp_path),
                                  seed=0)
        paths = run_experiment(config)
        summary = json.load(open(paths["summary.json"]))
        assert summary["n_train"] == 1000
        for method in ("mmcl", "mcem"):
            gap = summary[f"{method}_train_gap"]
            assert abs(gap) <= 0.1


def ar1(phi, n, rng, burn=500):
    noise = rng.standard_normal(n + burn)
    x = np.empty(n + burn)
    x[0] = noise[0]
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + noise[t]
    return x[burn:]


class TestEssCalibration:
    def test_iid_input(self):
        x = np.random.default_rng(0).standard_normal(4000)
        assert 3400 <= effective_sample_size(x) <= 4600

    def test_correlated_input(self):
        x = ar1(0.9, 4000, np.random.default_rng(2))
        want = 4000 * (1.0 - 0.9) / (1.0 + 0.9)
        assert effective_sample_size(x) == pytest.approx(want, rel=0.2)
