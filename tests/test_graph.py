"""Factor-graph construction, joint density, gradients, ancestral sampling."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from ncbayes import graph
from ncbayes.errors import (
    ConfigurationError,
    CycleError,
    ObservedNotLeaf,
    ShapeError,
    UnboundInput,
    UnsupportedFamily,
    ZeroScale,
)


def two_layer_spec():
    return {
        "nodes": [
            {"id": "z", "kind": "latent", "dim": 2, "family": "gaussian",
             "link": {"bias": 0.0}, "scale": 1.0},
            {"id": "x", "kind": "observed", "dim": 3, "family": "gaussian",
             "parents": ["z"],
             "link": {"activation": "tanh", "weights": {"z": "param"}, "bias": "param"},
             "scale": [0.5, 1.0, 2.0]},
            {"id": "k", "kind": "observed", "dim": 3, "family": "bernoulli",
             "parents": ["z"],
             "link": {"weights": {"z": "param"}}},
        ]
    }


class TestBuildValidation:
    def test_cycle_detected(self):
        spec = {"nodes": [
            {"id": "a", "dim": 1, "family": "gaussian", "parents": ["b"], "scale": 1.0},
            {"id": "b", "dim": 1, "family": "gaussian", "parents": ["a"], "scale": 1.0},
        ]}
        with pytest.raises(CycleError):
            graph.build_model(spec)

    def test_observed_cannot_be_parent(self):
        spec = {"nodes": [
            {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian", "scale": 1.0},
            {"id": "z", "dim": 1, "family": "gaussian", "parents": ["x"], "scale": 1.0},
        ]}
        with pytest.raises(ObservedNotLeaf):
            graph.build_model(spec)

    def test_weight_shape_mismatch(self):
        spec = {"nodes": [
            {"id": "z", "dim": 2, "family": "gaussian", "scale": 1.0},
            {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
             "parents": ["z"], "link": {"weights": {"z": [[1.0]]}}, "scale": 1.0},
        ]}
        with pytest.raises(ShapeError):
            graph.build_model(spec)

    def test_unknown_family(self):
        spec = {"nodes": [{"id": "z", "dim": 1, "family": "cauchy", "scale": 1.0}]}
        with pytest.raises(UnsupportedFamily):
            graph.build_model(spec)

    def test_observed_auxiliary_family_rejected(self):
        spec = {"nodes": [{"id": "x", "kind": "observed", "dim": 1,
                           "family": "std_normal_aux"}]}
        with pytest.raises(UnsupportedFamily):
            graph.build_model(spec)

    def test_zero_scale_on_observed_rejected(self):
        spec = {"nodes": [
            {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
             "scale": 0.0},
        ]}
        with pytest.raises(ZeroScale):
            graph.build_model(spec)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, [1.0, np.nan],
                                       [np.inf, 1.0]])
    def test_non_finite_scale_rejected(self, scale):
        spec = {"nodes": [{"id": "z", "dim": 2, "family": "gaussian",
                           "scale": scale}]}
        with pytest.raises(ZeroScale, match="non-finite"):
            graph.build_model(spec)

    def test_negative_scale_rejected(self):
        spec = {"nodes": [{"id": "z", "dim": 1, "family": "gaussian", "scale": -1.0}]}
        with pytest.raises(ZeroScale):
            graph.build_model(spec)

    def test_duplicate_id_rejected(self):
        spec = {"nodes": [
            {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
            {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
        ]}
        with pytest.raises(ShapeError):
            graph.build_model(spec)

    def test_latent_bernoulli_rejected(self):
        spec = {"nodes": [{"id": "z", "dim": 1, "family": "bernoulli"}]}
        with pytest.raises(UnsupportedFamily):
            graph.build_model(spec)

    def test_shared_blocks_are_disjoint_and_cover(self):
        spec = {"nodes": [
            {"id": "z1", "dim": 2, "family": "gaussian", "scale": 1.0},
            {"id": "z2", "dim": 2, "family": "gaussian", "parents": ["z1"],
             "link": {"weights": {"z1": {"param": "W"}}, "bias": {"param": "c"}},
             "scale": 0.3},
            {"id": "z3", "dim": 2, "family": "gaussian", "parents": ["z2"],
             "link": {"weights": {"z2": {"param": "W"}}, "bias": {"param": "c"}},
             "scale": 0.3},
        ]}
        model = graph.build_model(spec)
        assert set(model.layout) == {"W", "c"}
        assert model.layout.size == 4 + 2
        covered = np.zeros(model.layout.size, dtype=bool)
        for name in model.layout:
            s = model.layout.slice_of(name)
            assert not covered[s].any()
            covered[s] = True
        assert covered.all()


class TestLogJoint:
    def test_standard_normal_root(self):
        model = graph.build_model(
            {"nodes": [{"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0}]}
        )
        theta = np.zeros(0)
        value = graph.log_joint(model, theta, {"z": np.array([0.0])})
        assert value == pytest.approx(-0.9189385332046727, abs=1e-15)

    def test_matches_independent_per_factor_densities(self):
        rng = np.random.default_rng(42)
        model = graph.build_model(two_layer_spec())
        theta = rng.standard_normal(model.layout.size)
        env = model.layout.unpack(theta)
        for _ in range(20):
            z = rng.standard_normal(2)
            x = rng.standard_normal(3)
            k = rng.integers(0, 2, 3).astype(float)
            got = graph.log_joint(model, theta, {"z": z, "x": x, "k": k})
            mean_x = np.tanh(env["x.W.z"] @ z + env["x.b"])
            logits = env["k.W.z"] @ z
            want = (
                stats.norm.logpdf(z, 0.0, 1.0).sum()
                + stats.norm.logpdf(x, mean_x, [0.5, 1.0, 2.0]).sum()
                + stats.bernoulli.logpmf(k.astype(int), expit(logits)).sum()
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_declaration_order_does_not_matter(self):
        spec = two_layer_spec()
        reordered = {"nodes": [spec["nodes"][2], spec["nodes"][0], spec["nodes"][1]]}
        a = graph.build_model(spec)
        b = graph.build_model(reordered)
        rng = np.random.default_rng(3)
        theta_a = rng.standard_normal(a.layout.size)
        # block registration order differs; map by name
        theta_b = b.layout.pack(a.layout.unpack(theta_a))
        point = {"z": np.array([0.2, -0.4]), "x": np.array([0.1, 0.9, -1.2]),
                 "k": np.array([1.0, 0.0, 1.0])}
        assert graph.log_joint(a, theta_a, point) == pytest.approx(
            graph.log_joint(b, theta_b, point), rel=1e-14
        )

    def test_exponential_and_lognormal_match_scipy(self):
        model = graph.build_model({"nodes": [
            {"id": "r", "dim": 1, "family": "exponential", "link": {"bias": 2.0}},
            {"id": "y", "dim": 1, "family": "lognormal", "parents": ["r"],
             "link": {"weights": {"r": [[0.5]]}}, "scale": 0.7},
        ]})
        theta = np.zeros(0)
        r, y = np.array([0.8]), np.array([1.7])
        got = graph.log_joint(model, theta, {"r": r, "y": y})
        want = (
            stats.expon.logpdf(r, scale=1.0 / 2.0).sum()
            + stats.lognorm.logpdf(y, s=0.7, scale=np.exp(0.5 * r)).sum()
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_out_of_support_gives_minus_inf(self):
        model = graph.build_model({"nodes": [
            {"id": "r", "dim": 1, "family": "exponential", "link": {"bias": 1.0}},
        ]})
        assert graph.log_joint(model, np.zeros(0), {"r": np.array([-0.1])}) == -np.inf

    def test_batched_rows_match_scalar_calls(self):
        rng = np.random.default_rng(8)
        model = graph.build_model(two_layer_spec())
        theta = rng.standard_normal(model.layout.size)
        zb = rng.standard_normal((6, 2))
        xv = rng.standard_normal(3)
        kv = np.array([1.0, 0.0, 0.0])
        batched = graph.log_joint(model, theta, {"z": zb, "x": xv, "k": kv})
        assert batched.shape == (6,)
        for i in range(6):
            one = graph.log_joint(model, theta, {"z": zb[i], "x": xv, "k": kv})
            assert batched[i] == pytest.approx(one, rel=1e-13)

    def test_missing_node_and_bad_shape(self):
        model = graph.build_model(two_layer_spec())
        theta = np.zeros(model.layout.size)
        with pytest.raises(UnboundInput):
            graph.log_joint(model, theta, {"z": np.zeros(2), "x": np.zeros(3)})
        with pytest.raises(ShapeError):
            graph.log_joint(model, theta,
                            {"z": np.zeros(5), "x": np.zeros(3), "k": np.zeros(3)})
        with pytest.raises(ShapeError):
            graph.log_joint(model, np.zeros(3),
                            {"z": np.zeros(2), "x": np.zeros(3), "k": np.zeros(3)})


class TestGradients:
    def test_latent_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        model = graph.build_model(two_layer_spec())
        theta = rng.standard_normal(model.layout.size)
        data = {"x": rng.standard_normal(3), "k": np.array([0.0, 1.0, 1.0])}
        step = 1e-5
        for _ in range(10):
            z = rng.standard_normal(2)
            point = {"z": z, **data}
            _, grads = graph.grad_log_joint_latents(model, theta, point)
            for j in range(2):
                zp, zm = z.copy(), z.copy()
                zp[j] += step
                zm[j] -= step
                fd = (
                    graph.log_joint(model, theta, {"z": zp, **data})
                    - graph.log_joint(model, theta, {"z": zm, **data})
                ) / (2 * step)
                assert grads["z"][j] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_param_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        model = graph.build_model(two_layer_spec())
        theta = rng.standard_normal(model.layout.size)
        point = {"z": rng.standard_normal(2), "x": rng.standard_normal(3),
                 "k": np.array([1.0, 1.0, 0.0])}
        _, grad = graph.grad_log_joint_params(model, theta, point)
        step = 1e-5
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step
            tm[j] -= step
            fd = (
                graph.log_joint(model, tp, point) - graph.log_joint(model, tm, point)
            ) / (2 * step)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_shared_block_gradient_accumulates(self):
        spec = {"nodes": [
            {"id": "z1", "dim": 1, "family": "gaussian", "scale": 1.0},
            {"id": "z2", "dim": 1, "family": "gaussian", "parents": ["z1"],
             "link": {"weights": {"z1": {"param": "w"}}}, "scale": 1.0},
            {"id": "z3", "dim": 1, "family": "gaussian", "parents": ["z2"],
             "link": {"weights": {"z2": {"param": "w"}}}, "scale": 1.0},
        ]}
        model = graph.build_model(spec)
        theta = np.array([0.7])
        point = {"z1": [1.0], "z2": [0.5], "z3": [2.0]}
        _, grad = graph.grad_log_joint_params(model, theta, point)
        # d/dw [logN(z2; w z1, 1) + logN(z3; w z2, 1)]
        want = (0.5 - 0.7 * 1.0) * 1.0 + (2.0 - 0.7 * 0.5) * 0.5
        assert grad[0] == pytest.approx(want, rel=1e-12)


class TestDeterministicNodes:
    def spec(self):
        return {"nodes": [
            {"id": "z1", "dim": 2, "family": "gaussian", "scale": 1.0},
            {"id": "z2", "dim": 2, "family": "gaussian", "parents": ["z1"],
             "link": {"activation": "tanh", "weights": {"z1": [[1.0, 0.5], [0.0, 1.0]]}},
             "scale": 0.0},
            {"id": "x", "kind": "observed", "dim": 2, "family": "gaussian",
             "parents": ["z2"], "scale": 0.4},
        ]}

    def test_zero_scale_latent_becomes_deterministic(self):
        model = graph.build_model(self.spec())
        assert model.nodes["z2"].kind == "deterministic"
        assert model.free_ids == ("z1",)

    def test_log_joint_recomputes_deterministic_values(self):
        model = graph.build_model(self.spec())
        theta = np.zeros(0)
        z1 = np.array([0.3, -0.2])
        x = np.array([0.1, 0.2])
        w = np.array([[1.0, 0.5], [0.0, 1.0]])
        z2 = np.tanh(w @ z1)
        want = (
            stats.norm.logpdf(z1).sum() + stats.norm.logpdf(x, z2, 0.4).sum()
        )
        got = graph.log_joint(model, theta, {"z1": z1, "x": x, "z2": 999.0 * np.ones(2)})
        assert got == pytest.approx(want, rel=1e-12)

    def test_deterministic_chain_sampling_equals_mean_forward(self):
        model = graph.build_model(self.spec())
        theta = np.zeros(0)
        rng = np.random.default_rng(0)
        draw = graph.ancestral_sample(model, theta, rng)
        w = np.array([[1.0, 0.5], [0.0, 1.0]])
        np.testing.assert_allclose(draw["z2"], np.tanh(w @ draw["z1"]), rtol=1e-14)


class TestAncestralSampling:
    def test_same_seed_same_draw(self):
        model = graph.build_model(two_layer_spec())
        theta = graph.random_params(model, np.random.default_rng(1))
        a = graph.ancestral_sample(model, theta, np.random.default_rng(77))
        b = graph.ancestral_sample(model, theta, np.random.default_rng(77))
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_moments_of_linear_gaussian_child(self):
        model = graph.build_model({"nodes": [
            {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
            {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
             "parents": ["z"], "link": {"weights": {"z": [[2.0]]}, "bias": 1.0},
             "scale": 0.5},
        ]})
        draws = graph.ancestral_sample(
            model, np.zeros(0), np.random.default_rng(9), size=200_000
        )
        x = draws["x"][:, 0]
        # x = 1 + 2 z + 0.5 eps: mean 1, var 4.25
        se_mean = np.sqrt(4.25 / x.size)
        assert abs(x.mean() - 1.0) < 4 * se_mean
        assert abs(x.var() - 4.25) < 0.05

    def test_exponential_child_mean(self):
        model = graph.build_model({"nodes": [
            {"id": "r", "dim": 1, "family": "exponential", "link": {"bias": 4.0}},
        ]})
        draws = graph.ancestral_sample(model, np.zeros(0), np.random.default_rng(2),
                                       size=100_000)
        assert draws["r"].mean() == pytest.approx(0.25, abs=0.005)

    @pytest.mark.parametrize("size", [-1, 0, 2.5, True, np.float64(2.0)])
    def test_size_must_be_a_positive_integer(self, size):
        model = graph.build_model(two_layer_spec())
        theta = graph.random_params(model, np.random.default_rng(4))
        with pytest.raises(ConfigurationError, match="size"):
            graph.ancestral_sample(model, theta, np.random.default_rng(5),
                                   size=size)

    def test_bernoulli_values_are_binary(self):
        model = graph.build_model(two_layer_spec())
        theta = graph.random_params(model, np.random.default_rng(4))
        draw = graph.ancestral_sample(model, theta, np.random.default_rng(5), size=50)
        assert set(np.unique(draw["k"])) <= {0.0, 1.0}


class TestCoordinatePacking:
    def test_pack_unpack_roundtrip(self):
        model = graph.build_model(two_layer_spec())
        a = {"z": np.array([1.0, -2.0])}
        vec = graph.pack_coords(model, a)
        back = graph.unpack_coords(model, vec)
        np.testing.assert_array_equal(back["z"], a["z"])

    def test_unpack_rejects_wrong_length(self):
        model = graph.build_model(two_layer_spec())
        with pytest.raises(ShapeError):
            graph.unpack_coords(model, np.zeros(5))
