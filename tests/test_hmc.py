"""Sampler kernels against closed-form targets and analytic posteriors."""

import numpy as np
import pytest
from scipy import stats

from ncbayes import diagnostics, graph, hmc
from ncbayes.errors import (
    ConfigurationError,
    DomainError,
    NonFinite,
    ShapeError,
    StepUnderflow,
    UnboundInput,
)
from ncbayes.graph import build_model, pack_coords, unpack_coords
from ncbayes.hmc import (
    HmcConfig,
    LatentPosterior,
    _adapt,
    _integrate,
    _transition,
    run_chain,
    run_chains,
)
from ncbayes.modelzoo import build_dbn_model, build_lds_model
from ncbayes.reparam import apply_plan, eps_from_z, full_dncp_plan, z_from_eps


class StdNormalTarget:
    """Isotropic unit Gaussian in any dimension, over rows of a batch."""

    def value_and_grad(self, q):
        return -0.5 * np.sum(q * q, axis=-1), -q


def lds_problem(sigma_x=1.0, sigma_z=2.0, x1=1.5, x2=-0.5):
    """Linear-Gaussian pair with its exact posterior mean and covariance.

    The posterior of (z1, z2) given (x1, x2) is Gaussian with precision
    assembled from the three quadratic couplings; inverting it analytically
    gives the oracle moments.
    """
    model = build_lds_model(sigma_x=sigma_x, sigma_z=sigma_z)
    theta = np.zeros(model.layout.size)
    data = {"x1": np.array([x1]), "x2": np.array([x2])}
    a, b = 1.0 / sigma_x ** 2, 1.0 / sigma_z ** 2
    prec = np.array([[1.0 + a + b, -b], [-b, b + a]])
    cov = np.linalg.inv(prec)
    mean = cov @ np.array([a * x1, a * x2])
    return model, theta, data, mean, cov


def dbn_problem(T=4, latent_dim=2, obs_dim=3, sigma_z=0.5, seed=4):
    rng = np.random.default_rng(seed)
    model, theta = build_dbn_model(T=T, latent_dim=latent_dim,
                                   obs_dim=obs_dim, sigma_z=sigma_z, rng=rng)
    draw = graph.ancestral_sample(model, theta, np.random.default_rng(seed + 1))
    data = {i: draw[i] for i in model.nodes
            if model.nodes[i].kind == "observed"}
    return model, theta, data


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            HmcConfig(step_size=0.0)
        with pytest.raises(ConfigurationError):
            HmcConfig(step_size=np.inf)
        with pytest.raises(ConfigurationError):
            HmcConfig(step_size=0.1, leapfrog_steps=0)
        with pytest.raises(ConfigurationError):
            HmcConfig(step_size=0.1, target_accept=1.0)
        with pytest.raises(ConfigurationError):
            HmcConfig(step_size=0.1, burn_in=-1)
        with pytest.raises(ConfigurationError):
            HmcConfig(step_size=0.1, samples=0)

    def test_defaults(self):
        cfg = HmcConfig(step_size=0.1)
        assert cfg.leapfrog_steps == 10
        assert cfg.target_accept == 0.9
        assert cfg.burn_in == 1000
        assert cfg.samples == 4000


def leapfrog(q, p, step_size, n_steps, grad_fn):
    """The sampler's leapfrog map for a gradient-only target."""
    q, p, _, _ = _integrate(q, p, lambda x: (0.0, grad_fn(x)), step_size,
                            n_steps)
    return q, p


class TestLeapfrog:
    def grad(self, prec):
        return lambda q: -prec @ q

    def test_reversible_to_1e_minus_10(self):
        prec = np.array([[2.0, 0.6], [0.6, 1.0]])
        rng = np.random.default_rng(0)
        q0, p0 = rng.standard_normal(2), rng.standard_normal(2)
        q1, p1 = leapfrog(q0, p0, 0.1, 25, self.grad(prec))
        q2, p2 = leapfrog(q1, -p1, 0.1, 25, self.grad(prec))
        assert np.max(np.abs(q2 - q0)) < 1e-10
        assert np.max(np.abs(p2 + p0)) < 1e-10

    def test_energy_error_second_order_in_step(self):
        # one step on a unit Gaussian from rest; halving the step must cut
        # the energy error by at least the second-order factor of four
        def energy_error(h):
            q0, p0 = np.array([1.0]), np.array([0.0])
            q1, p1 = leapfrog(q0, p0, h, 1, lambda q: -q)
            h0 = 0.5 * (q0 @ q0 + p0 @ p0)
            h1 = 0.5 * (q1 @ q1 + p1 @ p1)
            return abs(h1 - h0)

        e1, e2 = energy_error(0.1), energy_error(0.05)
        assert e2 <= e1 / 3.9
        order = np.log2(e1 / e2)
        assert order >= 1.9

    def test_zero_gradient_is_pure_drift(self):
        q = np.array([0.3, -1.2])
        p = np.array([2.0, 0.5])
        q1, p1 = leapfrog(q, p, 0.25, 8, lambda x: np.zeros_like(x))
        assert np.allclose(q1, q + 0.25 * 8 * p, rtol=0, atol=1e-12)
        assert np.array_equal(p1, p)

    def test_volume_preserved_to_1e_minus_6(self):
        prec = np.array([[1.5, -0.4], [-0.4, 0.8]])
        grad = self.grad(prec)
        x0 = np.array([0.4, -0.2, 0.9, 0.1])

        def flow(x):
            q1, p1 = leapfrog(x[:2], x[2:], 0.05, 5, grad)
            return np.concatenate([q1, p1])

        eps = 1e-5
        jac = np.empty((4, 4))
        for j in range(4):
            up, dn = x0.copy(), x0.copy()
            up[j] += eps
            dn[j] -= eps
            jac[:, j] = (flow(up) - flow(dn)) / (2 * eps)
        assert abs(abs(np.linalg.det(jac)) - 1.0) < 1e-6


class TestHmcStep:
    def chain(self, step_size, n, seed, q0=None):
        target = StdNormalTarget()
        q = np.array([[0.0]]) if q0 is None else q0
        logp, g = target.value_and_grad(q)
        rng = np.random.default_rng(seed)
        out = np.empty(n)
        accepts = np.empty(n, dtype=bool)
        for i in range(n):
            p0 = rng.standard_normal((1, 1))
            u = rng.random(1)
            q, logp, g, acc = _transition(q, logp, g, target, step_size, 10,
                                          p0, u)
            accepts[i] = acc[0]
            out[i] = q[0, 0]
        return out, accepts

    def test_standard_normal_moments(self):
        draws, _ = self.chain(0.5, 20_000, seed=11)
        assert abs(draws.mean()) < 0.03
        assert 0.94 < draws.var() < 1.06

    def test_tiny_step_accepts_everything(self):
        _, accepts = self.chain(1e-3, 500, seed=2)
        assert accepts.all()

    def test_huge_step_rejects_and_keeps_state(self):
        target = StdNormalTarget()
        q = np.array([[1.3]])
        logp, g = target.value_and_grad(q)
        rng = np.random.default_rng(0)
        p0, u = rng.standard_normal((1, 1)), rng.random(1)
        with np.errstate(over="ignore", invalid="ignore"):
            q1, logp1, g1, acc = _transition(q, logp, g, target, 1e6, 10,
                                             p0, u)
        assert not acc[0]
        assert q1 is q and logp1 is logp and g1 is g

    def test_fixed_seed_reproducible(self):
        a, acc_a = self.chain(0.5, 200, seed=7)
        b, acc_b = self.chain(0.5, 200, seed=7)
        assert np.array_equal(a, b)
        assert np.array_equal(acc_a, acc_b)

    def test_rows_move_independently(self):
        # a batch of two rows equals the two rows run alone
        target = StdNormalTarget()
        q = np.array([[0.4, -1.0], [2.0, 0.3]])
        logp, g = target.value_and_grad(q)
        rng = np.random.default_rng(5)
        p0, u = rng.standard_normal((2, 2)), rng.random(2)
        both = _transition(q, logp, g, target, 0.7, 10, p0, u)
        for r in range(2):
            one = _transition(q[r:r + 1], logp[r:r + 1], g[r:r + 1], target,
                              0.7, 10, p0[r:r + 1], u[r:r + 1])
            for got, want in zip(both, one):
                assert np.array_equal(got[r], want[0])


class TestAdaptation:
    def test_all_accept_closed_form(self):
        s = np.array([0.01])
        for _ in range(100):
            s = _adapt(s, True, 0.9)
        assert s[0] == pytest.approx(0.01 * 1.02 ** 100, rel=1e-12)

    def test_alternating_at_half_target_drifts_under_one_percent(self):
        s = np.array([1.0])
        for it in range(1000):
            s = _adapt(s, it % 2 == 0, 0.5)
        assert abs(s[0] - 1.0) < 0.01

    def test_frozen_after_burn_in(self):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.3, burn_in=50, samples=60, seed=1)
        r = run_chain(model, theta, data, cfg)
        frozen = r.step_trace[cfg.burn_in:]
        assert np.all(frozen == r.final_step_sizes["cp"])
        assert r.step_trace[cfg.burn_in - 1] != r.final_step_sizes["cp"]
        assert r.step_trace[0] == 0.3

    def test_underflow_raises(self):
        with pytest.raises(StepUnderflow):
            _adapt(np.array([1.05e-12]), np.array([False]), 0.9)

    def test_fixed_point_sits_at_target_rate(self):
        # accepting at exactly the target rate leaves the step unchanged
        # over each full cycle, up to floating-point rounding
        s = np.array([1.0])
        for it in range(1000):
            s = _adapt(s, it % 10 != 0, 0.9)
        assert s[0] == pytest.approx(1.0, rel=1e-9)

    def test_rows_adapt_independently(self):
        s = _adapt(np.array([1.0, 1.0]), np.array([True, False]), 0.9)
        assert s[0] == 1.02
        assert s[1] == pytest.approx(1.02 ** -9, rel=1e-12)


class TestLatentPosterior:
    def test_matches_graph_log_joint_and_gradients(self):
        for model, theta, data in (lds_problem()[:3], dbn_problem()):
            target = LatentPosterior(model, theta, data)
            rng = np.random.default_rng(5)
            for _ in range(3):
                q = rng.standard_normal(target.dim)
                value, grad = target.value_and_grad(q)
                assign = dict(unpack_coords(model, q))
                assign.update(data)
                ref_value = graph.log_joint(model, theta, assign)
                ref_grads = graph.grad_log_joint_latents(model, theta,
                                                         assign)[1]
                ref = np.concatenate([ref_grads[i] for i in model.free_ids])
                assert value == pytest.approx(ref_value, rel=1e-10)
                assert np.allclose(grad, ref, rtol=1e-10, atol=1e-12)

    def test_batched_rows_match_scalar_calls(self):
        model, theta, data = dbn_problem()
        target = LatentPosterior(model, theta, data)
        q = np.random.default_rng(6).standard_normal((3, target.dim))
        values, grads = target.value_and_grad(q)
        for r in range(3):
            v, g = target.value_and_grad(q[r])
            assert values[r] == pytest.approx(v, rel=1e-12)
            assert np.allclose(grads[r], g, rtol=1e-12, atol=1e-14)

    def test_missing_observation_raises(self):
        model, theta, data, _, _ = lds_problem()
        del data["x2"]
        with pytest.raises(UnboundInput):
            LatentPosterior(model, theta, data)

    def test_bad_shapes_raise(self):
        model, theta, data, _, _ = lds_problem()
        with pytest.raises(ShapeError):
            LatentPosterior(model, np.zeros(3), data)
        with pytest.raises(ShapeError):
            LatentPosterior(model, theta, {**data, "x1": np.zeros(2)})
        with pytest.raises(ShapeError):
            LatentPosterior(model, theta, {**data, "z1": np.zeros(1)})

    def test_observed_outside_support_raises(self):
        model = build_model({"nodes": [
            {"id": "r", "kind": "observed", "dim": 1,
             "family": "exponential", "link": {"bias": 2.0}},
            {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
        ]})
        theta = np.zeros(model.layout.size)
        with pytest.raises(DomainError):
            LatentPosterior(model, theta, {"r": np.array([-1.0])})

    def test_out_of_support_point_is_neg_inf_with_zero_grad(self):
        model = build_model({"nodes": [
            {"id": "r", "dim": 1, "family": "exponential",
             "link": {"bias": 2.0}},
            {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
             "parents": ["r"], "link": {"weights": {"r": "identity"}},
             "scale": 1.0},
        ]})
        theta = np.zeros(model.layout.size)
        target = LatentPosterior(model, theta, {"x": np.array([0.4])})
        value, grad = target.value_and_grad(np.array([-0.5]))
        assert value == -np.inf
        assert np.array_equal(grad, np.zeros(1))
        values, grads = target.value_and_grad(np.array([[-0.5], [0.7]]))
        assert values[0] == -np.inf
        assert np.array_equal(grads[0], np.zeros(1))
        assert np.isfinite(values[1])


class TestRunChain:
    def test_row_count_matches_samples(self):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.2, burn_in=40, samples=37, seed=1)
        r = run_chain(model, theta, data, cfg)
        assert r.draws.shape == (37, 2)
        assert r.accept_trace.shape == (77,)
        assert r.step_trace.shape == (77,)
        assert set(r.system_trace) <= {"cp", "dncp"}

    def test_rejects_unknown_parameterization(self):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.2)
        with pytest.raises(ConfigurationError):
            run_chain(model, theta, data, cfg, parameterization="gibbs")

    def test_moments_match_analytic_posterior(self):
        model, theta, data, mean, cov = lds_problem()
        cfg = HmcConfig(step_size=0.3, burn_in=500, samples=6000, seed=3)
        sd = np.sqrt(np.diag(cov))
        for par in ("cp", "dncp", "mix"):
            r = run_chain(model, theta, data, cfg, parameterization=par)
            for j in range(2):
                x = r.draws[:, j]
                ess = diagnostics.effective_sample_size(x)
                se_mean = sd[j] / np.sqrt(ess)
                assert abs(x.mean() - mean[j]) < 3 * se_mean, par
                se_var = cov[j, j] * np.sqrt(2.0 / ess)
                assert abs(x.var() - cov[j, j]) < 3 * se_var, par

    def test_draws_match_exact_posterior_by_ks(self):
        model, theta, data, mean, cov = lds_problem()
        cfg = HmcConfig(step_size=0.3, burn_in=500, samples=6000, seed=9)
        r = run_chain(model, theta, data, cfg)
        x = r.draws[:, 0]
        stride = max(1, int(np.ceil(len(x) / diagnostics.effective_sample_size(x))))
        thinned = x[::stride]
        exact = np.random.default_rng(10).normal(
            mean[0], np.sqrt(cov[0, 0]), size=thinned.size
        )
        assert stats.ks_2samp(thinned, exact).pvalue > 0.01

    def test_nonfinite_initial_density_raises(self):
        model, theta, data, _, _ = lds_problem()
        data = {"x1": np.array([1e200]), "x2": np.array([0.0])}
        cfg = HmcConfig(step_size=0.2, burn_in=10, samples=10, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite):
                run_chain(model, theta, data, cfg)


class TestMixture:
    def test_degenerate_weights_reproduce_pure_chains(self):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.3, burn_in=150, samples=400, seed=7)
        for par, rho in (("cp", 1.0), ("dncp", 0.0)):
            pure = run_chain(model, theta, data, cfg, parameterization=par)
            mix = run_chain(model, theta, data, cfg, parameterization="mix",
                            mix_rho=rho)
            assert np.array_equal(pure.draws, mix.draws)
            assert np.array_equal(pure.accept_trace, mix.accept_trace)
            assert np.all(mix.system_trace == par)

    @pytest.mark.parametrize("rho", [np.nan, 1.5, -0.1, np.inf, "0.5",
                                     None])
    def test_mix_rho_outside_unit_interval_rejected(self, rho):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.3, burn_in=5, samples=5)
        for par in ("mix", "cp"):
            with pytest.raises(ConfigurationError):
                run_chains(model, theta, data, cfg, parameterization=par,
                           mix_rho=rho)

    def test_stored_draws_survive_coordinate_round_trip(self):
        # every stored draw is in z-coordinates; mapping it to the noise
        # coordinates and back must be the identity to 1e-10
        for model, theta, data in (lds_problem()[:3], dbn_problem()):
            cfg = HmcConfig(step_size=0.15, burn_in=150, samples=250, seed=13)
            plan = full_dncp_plan(model)
            r = run_chain(model, theta, data, cfg, parameterization="mix",
                          plan=plan)
            assert {"cp", "dncp"} == set(r.system_trace)
            zvals = unpack_coords(model, r.draws)
            evals = eps_from_z(model, plan, zvals, theta)
            back = z_from_eps(model, plan, evals, theta)
            tmodel = apply_plan(model, plan)
            eps_coords = pack_coords(tmodel, evals)
            round_trip = pack_coords(model, back)
            assert eps_coords.shape == r.draws.shape
            assert np.max(np.abs(round_trip - r.draws)) < 1e-10


class TestRunChains:
    def test_single_row_equals_run_chain(self):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.2, burn_in=100, samples=200, seed=21)
        a = run_chain(model, theta, data, cfg, parameterization="mix")
        b = run_chains(model, theta, data, cfg, parameterization="mix",
                       seeds=(21,))[0]
        assert np.array_equal(a.draws, b.draws)

    def test_rows_are_independent_replicates(self):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.2, burn_in=100, samples=200, seed=0)
        rows = run_chains(model, theta, data, cfg, seeds=(3, 4, 5))
        singles = [run_chain(
            model, theta, data,
            HmcConfig(step_size=0.2, burn_in=100, samples=200, seed=s),
        ) for s in (3, 4, 5)]
        for row, single in zip(rows, singles):
            assert np.array_equal(row.draws, single.draws)
        assert not np.array_equal(rows[0].draws, rows[1].draws)

    def test_batch_is_deterministic(self):
        model, theta, data = dbn_problem()
        cfg = HmcConfig(step_size=0.1, burn_in=60, samples=80, seed=0)
        a = run_chains(model, theta, data, cfg, parameterization="mix",
                       seeds=(1, 2))
        b = run_chains(model, theta, data, cfg, parameterization="mix",
                       seeds=(1, 2))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.draws, rb.draws)
            assert np.array_equal(ra.step_trace, rb.step_trace)

    def test_mix_rows_share_the_system_schedule(self):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.2, burn_in=80, samples=120, seed=0)
        single = run_chain(model, theta, data, cfg, parameterization="mix")
        rows = run_chains(model, theta, data, cfg, parameterization="mix",
                          seeds=(0, 8, 9))
        assert np.array_equal(single.draws, rows[0].draws)
        for r in rows[1:]:
            assert np.array_equal(r.system_trace, rows[0].system_trace)

    @pytest.mark.parametrize("seeds", [(), []])
    def test_no_seeds_rejected(self, seeds):
        model, theta, data, _, _ = lds_problem()
        cfg = HmcConfig(step_size=0.2, burn_in=10, samples=10)
        with pytest.raises(ConfigurationError, match="seeds"):
            run_chains(model, theta, data, cfg, seeds=seeds)


class TestAcceptanceBand:
    def test_adapted_acceptance_brackets_target_on_dbn(self):
        model, theta, data = dbn_problem(T=10, latent_dim=2, obs_dim=5,
                                         sigma_z=0.5, seed=4)
        cfg = HmcConfig(step_size=0.05, burn_in=400, samples=400, seed=2)
        for par in ("cp", "dncp", "mix"):
            r = run_chain(model, theta, data, cfg, parameterization=par)
            rate = r.accept_trace[cfg.burn_in:].mean()
            assert 0.8 <= rate <= 0.97, (par, rate)
