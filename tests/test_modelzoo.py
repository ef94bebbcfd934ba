"""Structural checks of the bundled example models."""

import numpy as np
import pytest

from ncbayes import modelzoo, reparam
from ncbayes.errors import ShapeError, ZeroScale
from ncbayes.experiments import two_layer_model

NON_FINITE = [np.nan, np.inf, -np.inf]


class TestLds:
    def test_structure(self):
        model = modelzoo.build_lds_model(1.0, 0.5)
        assert len(model.nodes) == 4
        assert model.free_ids == ("z1", "z2")
        assert model.observed_ids == ("x1", "x2")
        assert model.layout.size == 0
        order = list(model.topo_order)
        assert order.index("z1") < order.index("z2")
        assert order.index("z2") < order.index("x2")

    def test_second_state_transform_is_shift_plus_scaled_noise(self):
        model = modelzoo.build_lds_model(1.0, 0.5)
        plan = {"z2": reparam.location_scale_transform(model, "z2")}
        out = reparam.z_from_eps(
            model, plan, {"z1": np.array([0.3]), "eps_z2": np.array([1.0])},
            np.zeros(0),
        )
        assert out["z2"] == pytest.approx(0.3 + 0.5 * 1.0, abs=1e-15)

    def test_scale_validation(self):
        with pytest.raises(ZeroScale):
            modelzoo.build_lds_model(0.0, 1.0)
        with pytest.raises(ZeroScale):
            modelzoo.build_lds_model(1.0, -2.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_scales_rejected(self, bad):
        with pytest.raises(ZeroScale):
            modelzoo.build_lds_model(bad, 1.0)
        with pytest.raises(ZeroScale):
            modelzoo.build_lds_model(1.0, bad)


class TestDbn:
    def test_structure_and_sharing(self):
        model, theta0 = modelzoo.build_dbn_model(
            4, 2, 5, 0.1, np.random.default_rng(0)
        )
        assert len(model.nodes) == 8
        assert set(model.layout) == {"W_z", "b_z", "W_x"}
        assert model.layout.size == 4 + 2 + 10
        assert theta0.shape == (16,)
        for t in range(1, 5):
            assert model.nodes[f"x{t}"].parents == (f"z{t}",)
        for t in range(2, 5):
            assert model.nodes[f"z{t}"].parents == (f"z{t - 1}",)

    def test_emission_on_previous_state(self):
        model, _ = modelzoo.build_dbn_model(
            3, 2, 4, 0.1, np.random.default_rng(0), emission_on_previous=True
        )
        assert model.nodes["x1"].parents == ("z1",)
        assert model.nodes["x2"].parents == ("z1",)
        assert model.nodes["x3"].parents == ("z2",)

    def test_initial_params_reproducible(self):
        _, a = modelzoo.build_dbn_model(5, 2, 5, 0.1, np.random.default_rng(42))
        _, b = modelzoo.build_dbn_model(5, 2, 5, 0.1, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ShapeError):
            modelzoo.build_dbn_model(1, 2, 5, 0.1, np.random.default_rng(0))
        with pytest.raises(ZeroScale):
            modelzoo.build_dbn_model(3, 2, 5, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_sigma_z_rejected(self, bad):
        with pytest.raises(ZeroScale):
            modelzoo.build_dbn_model(3, 2, 5, bad, np.random.default_rng(0))


class TestGenerativeMlp:
    def test_default_top_layer_is_deterministic(self):
        model = modelzoo.build_generative_mlp(obs_dim=20)
        assert model.nodes["z3"].kind == "deterministic"
        assert model.free_ids == ("z1", "z2")
        assert model.free_dim() == 6
        assert model.nodes["x"].dim == 20
        assert model.nodes["x"].factor.family == "bernoulli"

    def test_all_layers_stochastic_when_scales_positive(self):
        model = modelzoo.build_generative_mlp(
            dims=(3, 3, 10), obs_dim=8, sigmas=(1.0, 1.0, 0.5)
        )
        assert model.free_ids == ("z1", "z2", "z3")
        assert model.free_dim() == 16

    def test_validation(self):
        with pytest.raises(ShapeError):
            modelzoo.build_generative_mlp(dims=(3, 3), obs_dim=8)
        with pytest.raises(ZeroScale):
            modelzoo.build_generative_mlp(obs_dim=8, sigmas=(0.0, 1.0, 1.0))
        with pytest.raises(ShapeError):
            modelzoo.build_generative_mlp(dims=(), obs_dim=8, sigmas=())

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_root_scale_rejected(self, bad):
        with pytest.raises(ZeroScale):
            modelzoo.build_generative_mlp(obs_dim=8, sigmas=(bad, 1.0, 1.0))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_lower_scale_rejected(self, bad):
        with pytest.raises(ZeroScale):
            modelzoo.build_generative_mlp(dims=(2, 3), obs_dim=4,
                                          sigmas=(1.0, bad))

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_any_number_of_layers(self, depth):
        model = modelzoo.build_generative_mlp(
            dims=(2,) * depth, obs_dim=3, sigmas=(1.0,) * depth)
        assert model.free_ids == tuple(f"z{k}" for k in range(1, depth + 1))
        assert model.nodes["x"].parents == (f"z{depth}",)
        assert list(model.layout)[-2:] == [f"x.W.z{depth}", "x.b"]

    def test_two_layer_model_is_the_two_layer_mlp(self):
        model = two_layer_model((2, 3), 7)
        assert list(model.topo_order) == ["z1", "z2", "x"]
        assert {i: (n.kind, n.parents, n.dim)
                for i, n in model.nodes.items()} == {
            "z1": ("latent", (), 2), "z2": ("latent", ("z1",), 3),
            "x": ("observed", ("z2",), 7)}
        assert model.layout.blocks == {
            "z2.W.z1": (0, (3, 2)), "z2.b": (6, (3,)),
            "x.W.z2": (9, (7, 3)), "x.b": (30, (7,))}
