"""Sampling and coordinate translation against independent references.

The differential tests pin ``ancestral_sample``, ``z_from_eps`` and
``eps_from_z`` to a plain numpy recursion of the DBN and the LDS that
draws from the same generator in the same order, bit for bit.  The
identity tests check the paper's central fact: the non-centered graph
evaluated at fresh noise is an ancestral sample of the centered model.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.special import expit
from test_reparam import mixed_family_spec

from ncbayes.graph import ancestral_sample, build_model, random_params
from ncbayes.modelzoo import build_dbn_model, build_generative_mlp, build_lds_model
from ncbayes.reparam import eps_from_z, full_dncp_plan, z_from_eps

T, LATENT, OBS, SIGMA_Z = 10, 2, 5, 0.3
SIGMA_X, SIGMA_Z_LDS = 0.5, 0.2


def dbn():
    return build_dbn_model(T, LATENT, OBS, SIGMA_Z, np.random.default_rng(4))


def lds():
    return build_lds_model(SIGMA_X, SIGMA_Z_LDS), np.zeros(0)


def mlp():
    model = build_generative_mlp(dims=(2, 3, 6), obs_dim=4)
    return model, random_params(model, np.random.default_rng(8))


def mixed():
    return build_model(mixed_family_spec()), np.zeros(0)


def matvec(w, z):
    return w @ z if z.ndim == 1 else z @ w.T


def shape_of(dim, size):
    return (dim,) if size is None else (size, dim)


def dbn_recursion(env, rng, size):
    """z_1 = n, z_t = tanh(W z_{t-1} + b) + sigma n, x_t = u < expit(W_x z_t)."""
    w, b, w_x = env["W_z"], env["b_z"], env["W_x"]
    noise, values = {}, {}
    for t in range(1, T + 1):
        n = rng.standard_normal(shape_of(LATENT, size))
        noise[f"eps_z{t}"] = n
        z = n if t == 1 else (
            np.tanh(matvec(w, values[f"z{t - 1}"]) + b) + SIGMA_Z * n)
        values[f"z{t}"] = z
        u = rng.random(shape_of(OBS, size))
        values[f"x{t}"] = (u < expit(matvec(w_x, z))).astype(np.float64)
    return values, noise


def dbn_noise_of(env, values):
    w, b = env["W_z"], env["b_z"]
    out = {"eps_z1": values["z1"] / 1.0}
    for t in range(2, T + 1):
        mean = np.tanh(matvec(w, values[f"z{t - 1}"]) + b)
        out[f"eps_z{t}"] = (values[f"z{t}"] - mean) / SIGMA_Z
    return out


def lds_recursion(rng, size):
    """z_1 = n, x_1 = z_1 + sigma_x n, z_2 = z_1 + sigma_z n, x_2 = z_2 + sigma_x n."""
    draw = lambda: rng.standard_normal(shape_of(1, size))  # noqa: E731
    n1 = draw()
    x1 = n1 + SIGMA_X * draw()
    n2 = draw()
    z2 = n1 + SIGMA_Z_LDS * n2
    x2 = z2 + SIGMA_X * draw()
    return ({"z1": n1, "x1": x1, "z2": z2, "x2": x2},
            {"eps_z1": n1, "eps_z2": n2})


@pytest.mark.parametrize("size", [None, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dbn_matches_numpy_recursion(size, seed):
    model, theta = dbn()
    assert model.topo_order == tuple(
        i for t in range(1, T + 1) for i in (f"z{t}", f"x{t}"))
    env = model.layout.unpack(theta)
    want, noise = dbn_recursion(env, np.random.default_rng(seed), size)

    draw = ancestral_sample(model, theta, np.random.default_rng(seed),
                            size=size)
    assert set(draw) == set(want)
    for node_id, value in want.items():
        assert_array_equal(draw[node_id], value)

    plan = full_dncp_plan(model)
    zs = z_from_eps(model, plan, noise, theta)
    eps = eps_from_z(model, plan, want, theta)
    for t in range(1, T + 1):
        assert_array_equal(zs[f"z{t}"], want[f"z{t}"])
    for aux_id, value in dbn_noise_of(env, want).items():
        assert_array_equal(eps[aux_id], value)


@pytest.mark.parametrize("size", [None, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lds_matches_numpy_recursion(size, seed):
    model, theta = lds()
    assert model.topo_order == ("z1", "x1", "z2", "x2")
    want, noise = lds_recursion(np.random.default_rng(seed), size)

    draw = ancestral_sample(model, theta, np.random.default_rng(seed),
                            size=size)
    for node_id, value in want.items():
        assert_array_equal(draw[node_id], value)

    plan = full_dncp_plan(model)
    zs = z_from_eps(model, plan, noise, theta)
    eps = eps_from_z(model, plan, want, theta)
    for node_id in ("z1", "z2"):
        assert_array_equal(zs[node_id], want[node_id])
    assert_array_equal(eps["eps_z1"], want["z1"])
    assert_array_equal(eps["eps_z2"], (want["z2"] - want["z1"]) / SIGMA_Z_LDS)


UNIFORM_NOISE = {"exponential", "uniform_aux", "bernoulli"}


def standard_noise(model, rng, size):
    """One draw per non-deterministic node in topological order: uniform
    for exponential, uniform_aux and Bernoulli nodes, normal otherwise."""
    out = {}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        if node.kind == "deterministic":
            continue
        shape = shape_of(node.dim, size)
        out[node_id] = (rng.random(shape) if node.factor.family in UNIFORM_NOISE
                        else rng.standard_normal(shape))
    return out


@pytest.mark.parametrize("size", [None, 4])
@pytest.mark.parametrize("build", [dbn, mlp, lds, mixed])
def test_ancestral_sample_is_the_dncp_graph_at_fresh_noise(build, size):
    model, theta = build()
    plan = full_dncp_plan(model)
    assert build is not mlp or any(
        node.kind == "deterministic" for node in model.nodes.values())
    for seed in range(3):
        draw = ancestral_sample(model, theta, np.random.default_rng(seed),
                                size=size)
        noise = standard_noise(model, np.random.default_rng(seed), size)
        eps = {plan[i].aux_id if i in plan else i: v for i, v in noise.items()}
        zs = z_from_eps(model, plan, eps, theta)
        for node_id in model.topo_order:
            if model.nodes[node_id].kind in ("latent", "deterministic"):
                assert_array_equal(draw[node_id], zs[node_id])
