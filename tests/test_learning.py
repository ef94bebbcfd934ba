"""Learning ops against analytic marginals and conjugate EM oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logsumexp, softmax

from ncbayes import graph, learning
from ncbayes.errors import (
    ConfigurationError,
    EmptyESample,
    ShapeError,
)
from ncbayes.experiments import two_layer_model
from ncbayes.graph import build_model
from ncbayes.hmc import HmcConfig
from ncbayes.learning import (
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
from ncbayes.reparam import apply_plan, full_dncp_plan

SIGMA_X = 1.0


def toy_model(sigma_x=SIGMA_X):
    """z ~ N(0,1), x ~ N(z + b, sigma_x^2) with learnable bias b.

    The marginal is x ~ N(b, 1 + sigma_x^2), so the true log-likelihood
    and its b-gradient are closed-form.
    """
    return build_model({"nodes": [
        {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
        {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["z"],
         "link": {"weights": {"z": "identity"}, "bias": {"param": "b"}},
         "scale": float(sigma_x)},
    ]})


def toy_truth(x, b, sigma_x=SIGMA_X):
    return float(stats.norm.logpdf(x, b, np.sqrt(1.0 + sigma_x ** 2)))


def toy_marginal_grad(x, b, sigma_x=SIGMA_X):
    return (x - b) / (1.0 + sigma_x ** 2)


def noncentered_toy(sigma_x=SIGMA_X):
    model = toy_model(sigma_x)
    return apply_plan(model, full_dncp_plan(model))


class TestAdagrad:
    def test_first_step_hand_value(self):
        state = adagrad_init(1, learning_rate=0.1)
        theta, state = adagrad_update(np.zeros(1), np.array([2.0]), state)
        assert theta[0] == pytest.approx(0.1 * 2.0 / (2.0 + 1e-8), rel=1e-12)
        assert state.accumulators[0] == pytest.approx(4.0)

    def test_zero_gradient_is_a_no_op(self):
        state = adagrad_init(3, learning_rate=0.5)
        theta0 = np.array([1.0, -2.0, 0.3])
        theta, state2 = adagrad_update(theta0, np.zeros(3), state)
        assert np.array_equal(theta, theta0)
        assert np.array_equal(state2.accumulators, state.accumulators)

    def test_constant_gradient_steps_shrink_as_inverse_sqrt(self):
        state = adagrad_init(1, learning_rate=0.3)
        theta = np.zeros(1)
        g = np.array([0.7])
        deltas = []
        for _ in range(50):
            new, state = adagrad_update(theta, g, state)
            deltas.append(float(new[0] - theta[0]))
            theta = new
        for t in (1, 4, 25, 49):
            assert deltas[t] == pytest.approx(0.3 / np.sqrt(t + 1.0),
                                              rel=1e-7)
        acc = state.accumulators[0]
        assert acc == pytest.approx(50 * 0.49, rel=1e-12)

    def test_accumulators_never_decrease(self):
        rng = np.random.default_rng(0)
        state = adagrad_init(4, learning_rate=0.1)
        theta = np.zeros(4)
        prev = state.accumulators.copy()
        for _ in range(30):
            theta, state = adagrad_update(theta, rng.standard_normal(4),
                                          state)
            assert np.all(state.accumulators >= prev)
            prev = state.accumulators.copy()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdagradState(-0.1, np.zeros(2))
        with pytest.raises(ConfigurationError):
            AdagradState(0.1, np.zeros(2), epsilon=0.0)
        with pytest.raises(ShapeError):
            adagrad_update(np.zeros(2), np.zeros(3), adagrad_init(2, 0.1))

    @pytest.mark.parametrize("dim", [-1, 2.5, True, np.float64(2.0), "2"])
    def test_dim_must_be_a_non_negative_integer(self, dim):
        with pytest.raises(ConfigurationError, match="dim"):
            adagrad_init(dim, 0.1)

    def test_integer_dims_of_any_kind(self):
        assert adagrad_init(0, 0.1).accumulators.shape == (0,)
        assert adagrad_init(np.int64(3), 0.1).accumulators.shape == (3,)


class TestMmclEstimate:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MmclConfig(L=0)
        with pytest.raises(ConfigurationError):
            MmclConfig(L=5, batch_size=0)
        with pytest.raises(ConfigurationError):
            mmcl_estimate(noncentered_toy(), np.zeros(1),
                          {"x": np.array([0.0])}, 0,
                          np.random.default_rng(0))

    @pytest.mark.parametrize("kwargs", [
        {"L": "3"}, {"L": 2.5}, {"L": True}, {"L": 3, "batch_size": 1.5},
        {"L": 3, "seed": -1}, {"L": 3, "seed": 1.0}])
    def test_config_takes_integers_only(self, kwargs):
        with pytest.raises(ConfigurationError):
            MmclConfig(**kwargs)

    @pytest.mark.parametrize("fn", [mmcl_estimate, mmcl_gradient])
    @pytest.mark.parametrize("L", [2.5, "3", True])
    def test_draws_must_be_an_integer(self, fn, L):
        with pytest.raises(ConfigurationError, match="L must"):
            fn(noncentered_toy(), np.zeros(1), {"x": np.array([0.0])}, L,
               np.random.default_rng(0))

    def test_requires_fully_noncentered_model(self):
        with pytest.raises(ConfigurationError):
            mmcl_estimate(toy_model(), np.zeros(1), {"x": np.array([0.0])},
                          10, np.random.default_rng(0))

    def test_converges_to_analytic_marginal(self):
        est = mmcl_estimate(noncentered_toy(), np.zeros(1),
                            {"x": np.array([0.0])}, 10_000,
                            np.random.default_rng(3))
        assert abs(est - toy_truth(0.0, 0.0)) < 0.02

    def test_single_draw_is_the_conditional_log_density(self):
        nc = noncentered_toy()
        rng = np.random.default_rng(8)
        eps = np.random.default_rng(8).standard_normal((1, 1))
        est = mmcl_estimate(nc, np.array([0.4]), {"x": np.array([1.1])}, 1,
                            rng)
        expected = stats.norm.logpdf(1.1, eps[0, 0] + 0.4, SIGMA_X)
        assert est == pytest.approx(float(expected), rel=1e-12)

    def test_model_without_latents_is_exact_and_l_independent(self):
        model = build_model({"nodes": [
            {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
             "link": {"bias": {"param": "b"}}, "scale": 0.7},
        ]})
        theta = np.array([0.25])
        data = {"x": np.array([0.9])}
        exact = float(stats.norm.logpdf(0.9, 0.25, 0.7))
        for L in (1, 7, 64):
            est = mmcl_estimate(model, theta, data, L,
                                np.random.default_rng(L))
            assert est == pytest.approx(exact, rel=1e-12)
        grad = mmcl_gradient(model, theta, data, 5,
                             np.random.default_rng(0))
        assert grad[0] == pytest.approx((0.9 - 0.25) / 0.7 ** 2, rel=1e-12)

    def test_jensen_bias_and_monotonicity_in_l(self):
        nc = noncentered_toy()
        theta = np.zeros(1)
        data = {"x": np.array([0.0])}
        truth = toy_truth(0.0, 0.0)
        rng = np.random.default_rng(17)
        reps = 200
        means, ses, variances = {}, {}, {}
        for L in (1, 10, 100, 1000):
            vals = np.array([mmcl_estimate(nc, theta, data, L, rng)
                             for _ in range(reps)])
            means[L] = vals.mean()
            ses[L] = vals.std(ddof=1) / np.sqrt(reps)
            variances[L] = vals.var(ddof=1)
        for lo, hi in ((1, 10), (10, 100), (100, 1000)):
            assert means[hi] >= means[lo] - ses[lo]
        for L in (1, 10, 100, 1000):
            assert means[L] <= truth + ses[L]
        assert variances[1000] < variances[10]


class TestMmclGradient:
    def test_matches_finite_differences_under_common_seed(self):
        nc = noncentered_toy()
        data = {"x": np.array([0.7])}
        theta = np.array([0.3])
        grad = mmcl_gradient(nc, theta, data, 50, np.random.default_rng(4))
        h = 1e-5
        up = mmcl_estimate(nc, theta + h, data, 50, np.random.default_rng(4))
        dn = mmcl_estimate(nc, theta - h, data, 50, np.random.default_rng(4))
        fd = (up - dn) / (2 * h)
        assert grad[0] == pytest.approx(fd, rel=1e-6)

    def test_mean_gradient_matches_analytic_marginal_gradient(self):
        # the estimator gradient is biased at finite L like the estimate
        # itself; at L=300 the bias is far below the replication noise
        nc = noncentered_toy()
        data = {"x": np.array([0.7])}
        theta = np.array([0.3])
        rng = np.random.default_rng(5)
        reps = 2000
        grads = np.array([
            mmcl_gradient(nc, theta, data, 300, rng)[0]
            for _ in range(reps)
        ])
        se = grads.std(ddof=1) / np.sqrt(reps)
        assert abs(grads.mean() - toy_marginal_grad(0.7, 0.3)) < 3 * se


class TestDatasetHelpers:
    def test_marginal_log_likelihood_is_seed_stable(self):
        nc = noncentered_toy()
        data = {"x": np.random.default_rng(0).normal(0.2, 1.4, (40, 1))}
        a = marginal_log_likelihood(nc, np.zeros(1), data, 200, seed=9)
        b = marginal_log_likelihood(nc, np.zeros(1), data, 200, seed=9)
        assert a == b

    @pytest.mark.parametrize("L,block", [(0, None), (-3, None), (10, 0),
                                         (10, -1), (0, 5), (2.5, None),
                                         ("3", None), (True, None),
                                         (10, 2.5), (10, True)])
    def test_draws_and_block_must_be_positive(self, L, block):
        nc = noncentered_toy()
        data = {"x": np.zeros((4, 1))}
        with pytest.raises(ConfigurationError):
            marginal_log_likelihood(nc, np.zeros(1), data, L, seed=0,
                                    block=block)

    def test_block_size_does_not_change_the_estimate(self):
        # the blocks draw the noise in order, one row per point and draw
        nc = noncentered_toy()
        data = {"x": np.random.default_rng(1).normal(0.2, 1.4, (7, 1))}
        whole = marginal_log_likelihood(nc, np.zeros(1), data, 30, seed=4)
        for block in (1, 3, 7, 50):
            assert marginal_log_likelihood(
                nc, np.zeros(1), data, 30, seed=4, block=block
            ) == pytest.approx(whole, rel=1e-12)

    def test_chunks_equal_one_unchunked_block(self, monkeypatch):
        # two latents, 37 points at L = 150: 5,550 rows, no multiple of a
        # chunk, so the last chunk is short; the mean keeps its bits
        model = two_layer_model((2, 3), 5)
        nc = apply_plan(model, full_dncp_plan(model))
        theta = graph.random_params(model, np.random.default_rng(11))
        data = {"x": np.random.default_rng(12).standard_normal((37, 5))}
        n, L = 37, 150
        assert (n * L) % learning.EVAL_CHUNK_ROWS
        chunked = marginal_log_likelihood(nc, theta, data, L, seed=5)
        for rows in (n * L, 1, 1000):
            monkeypatch.setattr(learning, "EVAL_CHUNK_ROWS", rows)
            assert marginal_log_likelihood(nc, theta, data, L,
                                           seed=5) == chunked
        sample = learning._draw_sample(nc, data, L, 5)
        estimates, _ = learning._block_estimates(nc, theta, sample.data,
                                                 sample.eps, L, False)
        assert chunked == float(estimates.sum()) / n

    def test_dataset_validation(self):
        nc = noncentered_toy()
        with pytest.raises(ShapeError):
            marginal_log_likelihood(nc, np.zeros(1), {}, 10, seed=0)
        with pytest.raises(ShapeError):
            marginal_log_likelihood(
                nc, np.zeros(1),
                {"x": np.zeros((5, 1)), "z": np.zeros((5, 1))}, 10, seed=0)


class TestCompleteDataGradient:
    def test_matches_conjugate_em_oracle(self):
        # with exact posterior samples the M-step gradient estimates the
        # marginal gradient (the EM identity for this conjugate pair)
        model = toy_model()
        x, b = 1.1, 0.2
        post_mean = (x - b) / (1.0 + SIGMA_X ** 2)
        post_sd = np.sqrt(SIGMA_X ** 2 / (1.0 + SIGMA_X ** 2))
        S = 4000
        z = np.random.default_rng(6).normal(post_mean, post_sd, (S, 1, 1))
        grad = complete_data_gradient(model, np.array([b]),
                                      {"x": np.array([[x]])}, z)
        se = (post_sd / SIGMA_X ** 2) / np.sqrt(S)
        assert abs(grad[0] - toy_marginal_grad(x, b)) < 3 * se

    def test_empty_sample_axis_raises(self):
        model = toy_model()
        with pytest.raises(EmptyESample):
            complete_data_gradient(model, np.zeros(1),
                                   {"x": np.array([[1.0]])},
                                   np.zeros((0, 1, 1)))


class TestMcem:
    def make_data(self, n, b_true, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(b_true, np.sqrt(1.0 + SIGMA_X ** 2), (n, 1))
        return {"x": x}

    def test_zero_e_step_samples_raises(self):
        model = toy_model()
        with pytest.raises(EmptyESample):
            mcem_iteration(model, np.zeros(1), self.make_data(10, 0.5, 0),
                           HmcConfig(step_size=0.3, leapfrog_steps=10),
                           0, adagrad_init(1, 0.1),
                           np.random.default_rng(0))

    def test_fixed_seed_trajectory_is_reproducible(self):
        model = toy_model()
        data = self.make_data(20, 0.5, 1)
        cfg = HmcConfig(step_size=0.3, leapfrog_steps=10)

        def run():
            theta = np.zeros(1)
            opt = adagrad_init(1, 0.2)
            chains = None
            rng = np.random.default_rng(42)
            out = []
            for _ in range(4):
                theta, opt, chains = mcem_iteration(
                    model, theta, data, cfg, 5, opt, rng, chains=chains)
                out.append(theta.copy())
            return np.array(out)

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("e_step_samples,thin", [
        (2.5, 2), (True, 2), ("5", 2), (-1, 2), (5, 1.7), (5, True),
        (5, 0)])
    def test_counts_must_be_integers(self, e_step_samples, thin):
        model = toy_model()
        with pytest.raises(ConfigurationError):
            mcem_iteration(model, np.zeros(1), self.make_data(10, 0.5, 0),
                           HmcConfig(step_size=0.3, leapfrog_steps=10),
                           e_step_samples, adagrad_init(1, 0.1),
                           np.random.default_rng(0), thin=thin)

    def test_iterations_climb_toward_the_mle(self):
        model = toy_model()
        n, b_true = 400, 0.8
        data = self.make_data(n, b_true, 2)
        b_mle = float(np.mean(data["x"]))
        cfg = HmcConfig(step_size=0.3, leapfrog_steps=10)
        theta = np.zeros(1)
        opt = adagrad_init(1, 0.3)
        chains = None
        rng = np.random.default_rng(7)
        for _ in range(60):
            theta, opt, chains = mcem_iteration(model, theta, data, cfg, 5,
                                                opt, rng, chains=chains)
        assert abs(theta[0] - b_mle) < 0.05


class TestTrain:
    def make_split(self, n, b_true, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(b_true, np.sqrt(1.0 + SIGMA_X ** 2), (n + n // 4, 1))
        return {"x": x[:n]}, {"x": x[n:]}

    def analytic_best(self, data):
        x = data["x"][:, 0]
        b_mle = x.mean()
        return float(np.mean(stats.norm.logpdf(
            x, b_mle, np.sqrt(1.0 + SIGMA_X ** 2))))

    def test_zero_learning_rate_gives_flat_trace(self):
        model = toy_model()
        tr, te = self.make_split(30, 0.4, 3)
        schedule = TrainConfig(iterations=2, learning_rate=0.0,
                               mmcl=MmclConfig(L=10, seed=0),
                               l_eval=100, theta0=np.array([0.1]))
        trace = train("mmcl", model, tr, te, schedule)
        lls = [row.train_log_lik for row in trace]
        assert all(v == lls[0] for v in lls)
        assert all(np.array_equal(row.theta, trace[0].theta)
                   for row in trace)

    def test_mmcl_reaches_the_analytic_mle_value(self):
        model = toy_model()
        tr, te = self.make_split(200, 0.8, 4)
        best = self.analytic_best(tr)
        schedule = TrainConfig(iterations=5, learning_rate=0.3,
                               mmcl=MmclConfig(L=25, seed=1),
                               l_eval=400, eval_every=5,
                               theta0=np.zeros(1))
        trace = train("mmcl", model, tr, te, schedule)
        assert trace[-1].train_log_lik > best - 0.05
        assert trace[-1].train_log_lik < best + 0.05

    def test_larger_training_l_does_not_lose(self):
        model = toy_model()
        tr, te = self.make_split(120, 0.6, 5)
        final = {}
        for L in (10, 500):
            schedule = TrainConfig(iterations=4, learning_rate=0.3,
                                   mmcl=MmclConfig(L=L, seed=2),
                                   l_eval=400, eval_every=4,
                                   theta0=np.zeros(1))
            final[L] = train("mmcl", model, tr, te, schedule)[-1]
        assert final[500].train_log_lik >= final[10].train_log_lik - 0.02

    def test_mcem_matches_mmcl_destination(self):
        model = toy_model()
        tr, te = self.make_split(150, 0.7, 6)
        best = self.analytic_best(tr)
        schedule = TrainConfig(iterations=50, learning_rate=0.3,
                               mmcl=MmclConfig(L=10, seed=3),
                               hmc=HmcConfig(step_size=0.3, leapfrog_steps=10),
                               e_step_samples=5, l_eval=400, eval_every=50,
                               theta0=np.zeros(1))
        trace = train("mcem", model, tr, te, schedule)
        assert abs(trace[-1].train_log_lik - best) < 0.1

    @pytest.mark.parametrize("name", ["iterations", "eval_every", "l_eval",
                                      "e_step_samples", "thin"])
    @pytest.mark.parametrize("value", [0, 2.5, True, "2"])
    def test_schedule_counts_must_be_positive_integers(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            TrainConfig(**{"iterations": 1, "learning_rate": 0.1,
                           "mmcl": MmclConfig(L=5), name: value})

    @pytest.mark.parametrize("method", ["mmcl", "mcem"])
    def test_trace_equals_marginal_log_likelihood_at_each_theta(self,
                                                                method):
        """The trace evaluates each split's one fixed sample at every
        traced theta, as the seeded estimate of that theta does."""
        model = two_layer_model((2, 3), 5)
        nc = apply_plan(model, full_dncp_plan(model))
        rng = np.random.default_rng(13)
        x = rng.standard_normal((50, 5))
        tr, te = {"x": x[:40]}, {"x": x[40:]}
        schedule = TrainConfig(
            iterations=4, learning_rate=0.2,
            mmcl=MmclConfig(L=4, batch_size=8, seed=3),
            hmc=HmcConfig(step_size=0.2, leapfrog_steps=4, seed=3),
            e_step_samples=2, l_eval=30, eval_every=2, eval_seed=21)
        trace = train(method, model, tr, te, schedule)
        assert [row.iteration for row in trace] == [0, 2, 4]
        assert not np.array_equal(trace[0].theta, trace[-1].theta)
        for row in trace:
            assert row.train_log_lik == marginal_log_likelihood(
                nc, row.theta, tr, 30, 21)
            assert row.test_log_lik == marginal_log_likelihood(
                nc, row.theta, te, 30, 22)

    def test_rejects_unknown_method(self):
        model = toy_model()
        tr, te = self.make_split(10, 0.0, 7)
        schedule = TrainConfig(iterations=1, learning_rate=0.1,
                               mmcl=MmclConfig(L=5))
        with pytest.raises(ConfigurationError):
            train("vi", model, tr, te, schedule)


@st.composite
def log_weight_blocks(draw):
    """(rows, L) blocks at one scale, with ties and non-finite entries."""
    rows, L = draw(st.integers(1, 4)), draw(st.integers(1, 39))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    seed = draw(st.integers(0, 2**32 - 1))
    w = scale * np.random.default_rng(seed).standard_normal((rows, L))
    for _ in range(draw(st.integers(0, 4))):  # ties, often with the max
        r, a, b = (draw(st.integers(0, rows - 1)),
                   draw(st.integers(0, L - 1)), draw(st.integers(0, L - 1)))
        w[r, a] = w[r].max() if draw(st.booleans()) else w[r, b]
    for _ in range(draw(st.integers(0, 3))):
        w[draw(st.integers(0, rows - 1)), draw(st.integers(0, L - 1))] = (
            draw(st.sampled_from([np.inf, -np.inf, np.nan])))
    if draw(st.booleans()):  # a whole row of one value
        w[0] = draw(st.sampled_from([-np.inf, np.inf, np.nan, 0.5]))
    return w


@settings(max_examples=300, deadline=None)
@given(w=log_weight_blocks())
def test_logsumexp_rows_is_scipys_bit_for_bit(w):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = learning._logsumexp_rows(w)
    np.testing.assert_array_equal(got, logsumexp(w, axis=1))


@settings(max_examples=300, deadline=None)
@given(w=log_weight_blocks())
def test_softmax_seed_is_scipys_bit_for_bit(w):
    b, L = w.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = learning._SoftmaxSeed(b, L)(w.reshape(-1))
        want = softmax(w, axis=1).reshape(-1) / b
    np.testing.assert_array_equal(got, want)
