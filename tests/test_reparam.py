"""Noise transforms: invertibility, change of variables, graph rewriting."""

import numpy as np
import pytest
from scipy import stats

from ncbayes import graph, reparam
from ncbayes.errors import (
    DomainError,
    NonInvertible,
    ShapeError,
    UnboundInput,
    UnsupportedFamily,
)


def gaussian_chain_spec():
    return {"nodes": [
        {"id": "z1", "dim": 1, "family": "gaussian", "scale": 1.0},
        {"id": "z2", "dim": 1, "family": "gaussian", "parents": ["z1"],
         "link": {"weights": {"z1": "identity"}}, "scale": 0.5},
        {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["z2"], "link": {"weights": {"z2": "identity"}},
         "scale": 0.8},
    ]}


def mixed_family_spec():
    return {"nodes": [
        {"id": "r", "dim": 1, "family": "exponential", "link": {"bias": 2.0}},
        {"id": "y", "dim": 1, "family": "lognormal", "parents": ["r"],
         "link": {"weights": {"r": [[0.5]]}}, "scale": 0.7},
        {"id": "s", "dim": 1, "family": "gaussian", "parents": ["y"],
         "link": {"weights": {"y": [[0.3]]}}, "scale": 1.2},
        {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["s"], "link": {"weights": {"s": "identity"}},
         "scale": 1.0},
    ]}


class TestTransformMaps:
    def test_location_scale_forward_values(self):
        model = graph.build_model(gaussian_chain_spec())
        plan = reparam.full_dncp_plan(model)
        values = reparam.z_from_eps(
            model, plan,
            {"eps_z1": np.array([1.0]), "eps_z2": np.array([1.0])},
            np.zeros(0),
        )
        assert values["z1"] == pytest.approx(1.0, abs=1e-15)
        assert values["z2"] == pytest.approx(1.5, abs=1e-15)

    def test_inverse_cdf_forward_and_inverse_values(self):
        model = graph.build_model(
            {"nodes": [{"id": "r", "dim": 1, "family": "exponential",
                        "link": {"bias": 2.0}}]}
        )
        t = reparam.inverse_cdf_transform(model, "r")
        eps = np.array([1.0 - np.exp(-1.0)])
        z = reparam.z_from_eps(model, {"r": t}, {"eps_r": eps}, np.zeros(0))
        assert z["r"] == pytest.approx(0.5, rel=1e-14)
        back = reparam.eps_from_z(model, {"r": t}, {"r": np.array([1.0])},
                                  np.zeros(0))[t.aux_id]
        assert back == pytest.approx(0.8646647167633873, rel=1e-14)

    def test_composition_forward_value_and_mean(self):
        model = graph.build_model(
            {"nodes": [{"id": "y", "dim": 1, "family": "lognormal",
                        "link": {"bias": 0.25}, "scale": 0.5}]}
        )
        t = reparam.composition_transform(model, "y")

        def g(eps):
            return reparam.z_from_eps(model, {"y": t}, {"eps_y": eps},
                                      np.zeros(0))["y"]

        got = g(np.array([0.3]))
        assert got == pytest.approx(np.exp(0.4), rel=1e-14)
        rng = np.random.default_rng(11)
        draws = g(rng.standard_normal((400_000, 1)))
        # E exp(mu + s eps) = exp(mu + s^2 / 2)
        assert draws.mean() == pytest.approx(1.4549914146182013, abs=5e-3)

    def test_roundtrip_on_random_points(self):
        model = graph.build_model(mixed_family_spec())
        plan = reparam.full_dncp_plan(model)
        rng = np.random.default_rng(21)
        theta = np.zeros(0)
        for _ in range(200):
            zs = {
                "r": rng.exponential(0.5, 1),
                "y": rng.lognormal(0.0, 0.7, 1),
                "s": rng.standard_normal(1),
            }
            eps = reparam.eps_from_z(model, plan, zs, theta)
            assert set(eps) == {"eps_r", "eps_y", "eps_s"}
            assert 0.0 < eps["eps_r"] < 1.0
            back = reparam.z_from_eps(model, plan, eps, theta)
            for node_id, z in zs.items():
                np.testing.assert_allclose(back[node_id], z, rtol=1e-10)

    def test_partial_plan_passes_centered_values_through(self):
        model = graph.build_model(gaussian_chain_spec())
        plan = {"z2": reparam.location_scale_transform(model, "z2")}
        theta = np.zeros(0)
        zs = {"z1": np.array([0.4]), "z2": np.array([-0.3])}
        eps = reparam.eps_from_z(model, plan, zs, theta)
        assert set(eps) == {"z1", "eps_z2"}
        np.testing.assert_array_equal(eps["z1"], zs["z1"])
        assert eps["eps_z2"] == pytest.approx((-0.3 - 0.4) / 0.5, rel=1e-14)
        back = reparam.z_from_eps(model, plan, eps, theta)
        np.testing.assert_allclose(back["z2"], zs["z2"], rtol=1e-14)

    def test_batched_rows_match_scalar_maps(self):
        model = graph.build_model(gaussian_chain_spec())
        plan = reparam.full_dncp_plan(model)
        rng = np.random.default_rng(3)
        eps = {"eps_z1": rng.standard_normal((7, 1)),
               "eps_z2": rng.standard_normal((7, 1))}
        batch = reparam.z_from_eps(model, plan, eps, np.zeros(0))
        for i in range(7):
            one = reparam.z_from_eps(
                model, plan,
                {"eps_z1": eps["eps_z1"][i], "eps_z2": eps["eps_z2"][i]},
                np.zeros(0),
            )
            np.testing.assert_allclose(batch["z2"][i], one["z2"], rtol=1e-14)

    def test_missing_values_raise(self):
        model = graph.build_model(gaussian_chain_spec())
        plan = reparam.full_dncp_plan(model)
        with pytest.raises(UnboundInput):
            reparam.z_from_eps(model, plan, {"eps_z1": np.zeros(1)}, np.zeros(0))
        with pytest.raises(UnboundInput):
            reparam.eps_from_z(model, plan, {"z1": np.zeros(1)}, np.zeros(0))


class TestChangeOfVariables:
    """log p(eps) must equal log p(z | parents) + log |det dg/deps|."""

    def test_location_scale_identity(self):
        model = graph.build_model({"nodes": [
            {"id": "u", "dim": 3, "family": "gaussian", "scale": 1.0},
            {"id": "z", "dim": 3, "family": "gaussian", "parents": ["u"],
             "link": {"weights": {"u": [[0.4, 0.0, 0.1],
                                        [0.0, -0.7, 0.2],
                                        [0.3, 0.3, 0.3]]},
                      "bias": [0.1, -0.2, 0.0]},
             "scale": [0.5, 1.0, 2.0]},
        ]})
        t = reparam.location_scale_transform(model, "z")
        w = np.array([[0.4, 0.0, 0.1], [0.0, -0.7, 0.2], [0.3, 0.3, 0.3]])
        b = np.array([0.1, -0.2, 0.0])
        s = np.array([0.5, 1.0, 2.0])
        rng = np.random.default_rng(17)
        for _ in range(1000):
            u = rng.standard_normal(3)
            eps = rng.standard_normal(3)
            z = reparam.z_from_eps(model, {"z": t}, {"u": u, "eps_z": eps},
                                   np.zeros(0))["z"]
            lhs = stats.norm.logpdf(eps).sum()
            rhs = (stats.norm.logpdf(z, w @ u + b, s).sum()
                   + t.jacobian_log_abs_det({"u": u}, eps, {}))
            assert abs(lhs - rhs) < 1e-9

    def test_inverse_cdf_identity(self):
        model = graph.build_model({"nodes": [
            {"id": "u", "dim": 1, "family": "lognormal",
             "link": {"bias": 0.0}, "scale": 0.4},
            {"id": "r", "dim": 2, "family": "exponential", "parents": ["u"],
             "link": {"weights": {"u": [[0.3], [0.8]]}, "bias": 1.5}},
        ]})
        t = reparam.inverse_cdf_transform(model, "r")
        rng = np.random.default_rng(29)
        for _ in range(1000):
            u = rng.lognormal(0.0, 0.4, 1)
            eps = rng.random(2)
            rate = np.array([[0.3], [0.8]]) @ u + 1.5
            z = reparam.z_from_eps(model, {"r": t}, {"u": u, "eps_r": eps},
                                   np.zeros(0))["r"]
            lhs = 0.0  # uniform density on (0, 1)
            rhs = (stats.expon.logpdf(z, scale=1.0 / rate).sum()
                   + t.jacobian_log_abs_det({"u": u}, eps, {}))
            assert abs(lhs - rhs) < 1e-9

    def test_composition_identity(self):
        model = graph.build_model({"nodes": [
            {"id": "u", "dim": 2, "family": "gaussian", "scale": 1.0},
            {"id": "y", "dim": 2, "family": "lognormal", "parents": ["u"],
             "link": {"weights": {"u": [[0.6, -0.1], [0.2, 0.5]]}},
             "scale": 0.7},
        ]})
        t = reparam.composition_transform(model, "y")
        w = np.array([[0.6, -0.1], [0.2, 0.5]])
        rng = np.random.default_rng(31)
        for _ in range(1000):
            u = rng.standard_normal(2)
            eps = rng.standard_normal(2)
            y = reparam.z_from_eps(model, {"y": t}, {"u": u, "eps_y": eps},
                                   np.zeros(0))["y"]
            lhs = stats.norm.logpdf(eps).sum()
            rhs = (stats.lognorm.logpdf(y, s=0.7, scale=np.exp(w @ u)).sum()
                   + t.jacobian_log_abs_det({"u": u}, eps, {}))
            assert abs(lhs - rhs) < 1e-9


class TestApplyPlan:
    def test_rewritten_graph_structure(self):
        model = graph.build_model(gaussian_chain_spec())
        plan = reparam.full_dncp_plan(model)
        new = reparam.apply_plan(model, plan)
        assert new.layout is model.layout
        assert new.free_ids == ("eps_z1", "eps_z2")
        assert new.nodes["eps_z1"].kind == "auxiliary"
        assert new.nodes["eps_z1"].parents == ()
        assert new.nodes["z2"].kind == "deterministic"
        assert new.nodes["z2"].parents == ("z1", "eps_z2")
        assert new.nodes["x"].kind == "observed"

    def test_log_joint_of_rewritten_graph(self):
        model = graph.build_model(gaussian_chain_spec())
        plan = reparam.full_dncp_plan(model)
        new = reparam.apply_plan(model, plan)
        rng = np.random.default_rng(13)
        theta = np.zeros(0)
        for _ in range(25):
            eps = {"eps_z1": rng.standard_normal(1),
                   "eps_z2": rng.standard_normal(1)}
            x = rng.standard_normal(1)
            zs = reparam.z_from_eps(model, plan, eps, theta)
            got = graph.log_joint(new, theta, {**eps, "x": x})
            want = (stats.norm.logpdf(eps["eps_z1"]).sum()
                    + stats.norm.logpdf(eps["eps_z2"]).sum()
                    + stats.norm.logpdf(x, zs["z2"], 0.8).sum())
            assert got == pytest.approx(want, rel=1e-12)

    def test_log_joint_mixed_families(self):
        model = graph.build_model(mixed_family_spec())
        plan = reparam.full_dncp_plan(model)
        new = reparam.apply_plan(model, plan)
        rng = np.random.default_rng(37)
        theta = np.zeros(0)
        for _ in range(25):
            eps = {"eps_r": rng.random(1), "eps_y": rng.standard_normal(1),
                   "eps_s": rng.standard_normal(1)}
            x = rng.standard_normal(1)
            zs = reparam.z_from_eps(model, plan, eps, theta)
            got = graph.log_joint(new, theta, {**eps, "x": x})
            # uniform noise contributes zero; normal noise is standard normal
            want = (stats.norm.logpdf(eps["eps_y"]).sum()
                    + stats.norm.logpdf(eps["eps_s"]).sum()
                    + stats.norm.logpdf(x, zs["s"], 1.0).sum())
            assert got == pytest.approx(want, rel=1e-12)

    def test_gradient_flows_through_noise(self):
        model = graph.build_model(mixed_family_spec())
        plan = reparam.full_dncp_plan(model)
        new = reparam.apply_plan(model, plan)
        theta = np.zeros(0)
        point = {"eps_r": np.array([0.6]), "eps_y": np.array([0.2]),
                 "eps_s": np.array([-0.8]), "x": np.array([0.5])}
        _, grads = graph.grad_log_joint_latents(new, theta, point)
        step = 1e-6
        for name in ("eps_r", "eps_y", "eps_s"):
            hi = dict(point, **{name: point[name] + step})
            lo = dict(point, **{name: point[name] - step})
            fd = (graph.log_joint(new, theta, hi)
                  - graph.log_joint(new, theta, lo)) / (2 * step)
            assert grads[name][0] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_uniform_noise_out_of_support(self):
        model = graph.build_model(mixed_family_spec())
        new = reparam.apply_plan(model, reparam.full_dncp_plan(model))
        point = {"eps_r": np.array([1.2]), "eps_y": np.zeros(1),
                 "eps_s": np.zeros(1), "x": np.zeros(1)}
        assert graph.log_joint(new, np.zeros(0), point) == -np.inf

    def test_marginals_preserved(self):
        model = graph.build_model(gaussian_chain_spec())
        new = reparam.apply_plan(model, reparam.full_dncp_plan(model))
        n = 20_000
        a = graph.ancestral_sample(model, np.zeros(0), np.random.default_rng(101), size=n)
        b = graph.ancestral_sample(new, np.zeros(0), np.random.default_rng(202), size=n)
        assert stats.ks_2samp(a["z2"][:, 0], b["z2"][:, 0]).pvalue > 0.001
        assert stats.ks_2samp(a["x"][:, 0], b["x"][:, 0]).pvalue > 0.001

    def test_marginals_preserved_nongaussian(self):
        model = graph.build_model(mixed_family_spec())
        new = reparam.apply_plan(model, reparam.full_dncp_plan(model))
        n = 20_000
        a = graph.ancestral_sample(model, np.zeros(0), np.random.default_rng(7), size=n)
        b = graph.ancestral_sample(new, np.zeros(0), np.random.default_rng(8), size=n)
        for node_id in ("r", "y", "s"):
            assert stats.ks_2samp(a[node_id][:, 0], b[node_id][:, 0]).pvalue > 0.001


class TestValidation:
    def test_family_mismatch_rejected(self):
        model = graph.build_model(mixed_family_spec())
        with pytest.raises(UnsupportedFamily):
            reparam.location_scale_transform(model, "r")
        with pytest.raises(UnsupportedFamily):
            reparam.inverse_cdf_transform(model, "y")

    def test_only_latent_nodes_transformable(self):
        model = graph.build_model(gaussian_chain_spec())
        with pytest.raises(UnsupportedFamily):
            reparam.location_scale_transform(model, "x")
        with pytest.raises(ShapeError):
            reparam.location_scale_transform(model, "nope")

    def test_plan_key_must_match_transform(self):
        model = graph.build_model(gaussian_chain_spec())
        t = reparam.location_scale_transform(model, "z2")
        with pytest.raises(ShapeError):
            reparam.apply_plan(model, {"z1": t})

    def test_aux_id_collision_rejected(self):
        model = graph.build_model({"nodes": [
            {"id": "eps_z", "dim": 1, "family": "gaussian", "scale": 1.0},
            {"id": "z", "dim": 1, "family": "gaussian", "parents": ["eps_z"],
             "link": {"weights": {"eps_z": "identity"}}, "scale": 1.0},
        ]})
        plan = {"z": reparam.location_scale_transform(model, "z")}
        with pytest.raises(ShapeError):
            reparam.apply_plan(model, plan)

    def test_domain_errors(self):
        model = graph.build_model(mixed_family_spec())
        plan = reparam.full_dncp_plan(model)
        with pytest.raises(DomainError):
            reparam.z_from_eps(model, {"r": plan["r"]},
                               {"eps_r": np.array([1.0])}, np.zeros(0))
        z = {"r": np.array([1.0]), "y": np.array([1.0]), "s": np.array([0.0])}
        with pytest.raises(DomainError):
            reparam.eps_from_z(model, {"r": plan["r"]},
                               {**z, "r": np.array([-0.5])}, np.zeros(0))
        with pytest.raises(DomainError):
            reparam.eps_from_z(model, {"y": plan["y"]},
                               {**z, "y": np.array([0.0])}, np.zeros(0))

    def test_translation_domain_errors(self):
        model = graph.build_model({"nodes": [
            {"id": "r", "dim": 1, "family": "exponential",
             "link": {"bias": "param"}},
        ]})
        plan = reparam.full_dncp_plan(model)
        good, bad = np.array([2.0]), np.array([-2.0])
        for eps in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                reparam.z_from_eps(model, plan, {"eps_r": np.array([eps])},
                                   good)
        for theta in (bad, np.zeros(1)):
            with pytest.raises(DomainError):
                reparam.z_from_eps(model, plan, {"eps_r": np.array([0.5])},
                                   theta)
            with pytest.raises(DomainError):
                graph.ancestral_sample(model, theta,
                                       np.random.default_rng(0), size=3)
        with pytest.raises(DomainError):
            reparam.eps_from_z(model, plan, {"r": np.array([-0.1])}, good)
        z = reparam.z_from_eps(model, plan, {"eps_r": np.array([0.5])}, good)
        assert z["r"] == pytest.approx(np.log(2.0) / 2.0, rel=1e-14)

    def test_nonpositive_scale_not_invertible(self):
        model = graph.build_model({"nodes": [
            {"id": "z", "dim": 1, "family": "gaussian", "scale": "param"},
        ]})
        t = reparam.location_scale_transform(model, "z")
        with pytest.raises(NonInvertible):
            reparam.eps_from_z(model, {"z": t}, {"z": np.array([0.3])},
                               np.array([-1.0]))
