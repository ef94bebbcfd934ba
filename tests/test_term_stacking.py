"""Stacked factor terms score like one term per node.

``graph._compile`` gives nodes with equal signatures one stacked term.
These tests build chains with isomorphic runs -- shared and per-node
parameters, parameter and constant scales, per-row and shared observed
values in one group, nodes that differ in a single attribute -- and check
``log_joint``, ``grad_log_joint_latents`` and ``grad_log_joint_params``
against a sum over nodes of scipy.stats log-densities and their numpy
gradients.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit

from ncbayes import graph
from ncbayes.graph import ParamRef
from ncbayes.modelzoo import build_dbn_model

RTOL = 1e-12
SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _coeff(c, env):
    return env[c.name] if isinstance(c, ParamRef) else c


def reference(model, theta, values):
    """Per-node log-density sum and its gradients by latent node and by
    parameter block, for affine-link Gaussian and Bernoulli nodes."""
    env = model.layout.unpack(theta)
    rows = max(np.shape(v)[0] for v in values.values() if np.ndim(v) == 2)
    full = {i: np.broadcast_to(v, (rows, model.nodes[i].dim)) for i, v in values.items()}
    total = np.zeros(rows)
    grad_z = {i: np.zeros((rows, model.nodes[i].dim)) for i in model.free_ids}
    grad_p = {name: np.zeros(shape) for name, (_, shape) in model.layout.blocks.items()}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        factor, link, v = node.factor, node.factor.link, full[node_id]
        pre = np.broadcast_to(_coeff(link.bias, env), (rows, node.dim)).copy()
        for pid, w in link.weights:
            pre += full[pid] @ _coeff(w, env).T
        loc = {"tanh": np.tanh, "sigmoid": expit,
               "identity": lambda a: a}[link.activation](pre)
        if factor.family == "gaussian":
            s = _coeff(factor.scale, env)
            total += stats.norm.logpdf(v, loc, s).sum(axis=-1)
            d_loc = (v - loc) / s**2
            if node_id in grad_z:
                grad_z[node_id] -= d_loc
            if isinstance(factor.scale, ParamRef):
                grad_p[factor.scale.name] += np.sum(((v - loc) ** 2 / s**2 - 1.0) / s)
        else:
            total += stats.bernoulli.logpmf(v, expit(loc)).sum(axis=-1)
            d_loc = v - expit(loc)
        slope = {"tanh": 1.0 - loc**2, "sigmoid": loc * (1.0 - loc),
                 "identity": 1.0}[link.activation]
        d_pre = d_loc * slope
        for pid, w in link.weights:
            if pid in grad_z:
                grad_z[pid] += d_pre @ _coeff(w, env)
            if isinstance(w, ParamRef):
                grad_p[w.name] += d_pre.T @ full[pid]
        if isinstance(link.bias, ParamRef):
            grad_p[link.bias.name] += d_pre.sum(axis=0)
    return total, grad_z, model.layout.pack(grad_p)


def _assert_matches(model, theta, values):
    expected, grad_z, grad_p = reference(model, theta, values)
    atol = RTOL * max(1.0, np.abs(expected).max())
    np.testing.assert_allclose(graph.log_joint(model, theta, values), expected,
                               rtol=RTOL, atol=atol)
    value, grads = graph.grad_log_joint_latents(model, theta, values)
    np.testing.assert_allclose(value, expected, rtol=RTOL, atol=atol)
    for node_id, g in grad_z.items():
        np.testing.assert_allclose(grads[node_id], g, rtol=RTOL,
                                   atol=RTOL * max(1.0, np.abs(g).max()))
    value, grad = graph.grad_log_joint_params(model, theta, values)
    np.testing.assert_allclose(value, expected, rtol=RTOL, atol=atol)
    np.testing.assert_allclose(grad, grad_p, rtol=RTOL,
                               atol=RTOL * max(1.0, np.abs(grad_p).max(initial=0.0)))


def _theta(model, rng):
    theta = 0.6 * rng.standard_normal(model.layout.size)
    for name in model.layout:
        if name.startswith("scale"):
            sl = model.layout.slice_of(name)
            theta[sl] = rng.uniform(0.5, 1.5, sl.stop - sl.start)
    return theta


def _values(model, rng, rows, shared):
    values = {}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        shape = (node.dim,) if node_id in shared else (rows, node.dim)
        if node.factor.family == "bernoulli":
            values[node_id] = (rng.random(shape) < 0.5).astype(np.float64)
        else:
            values[node_id] = rng.standard_normal(shape)
    return values


def _stacked(model):
    root = graph._compile(model).root
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
            if node.op == "stack":
                return True
    return False


ATTRIBUTES = {
    "weights": [{"param": "W"}, "param", "identity"],
    "activation": ["tanh", "identity", "sigmoid"],
    "bias": [{"param": "b"}, 0.0, 0.3],
    "scale": [{"param": "scale_z"}, 0.6, 0.9],
}


@st.composite
def chain_models(draw):
    """A Gaussian chain z1..zT with observed x_t on z_t; every transition
    copies one base configuration except where a node changes one
    attribute, so runs of isomorphic nodes are common."""
    T, d, o = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = {k: draw(st.sampled_from(range(len(v)))) for k, v in ATTRIBUTES.items()}
    nodes = [{"id": "z1", "dim": d, "family": "gaussian", "scale": 1.0}]
    for t in range(2, T + 1):
        choice = dict(base)
        changed = draw(st.sampled_from([None, None, *ATTRIBUTES]))
        if changed is not None:
            choice[changed] = draw(st.sampled_from(range(len(ATTRIBUTES[changed]))))
        pick = {k: ATTRIBUTES[k][i] for k, i in choice.items()}
        nodes.append({"id": f"z{t}", "dim": d, "family": "gaussian",
                      "parents": [f"z{t - 1}"],
                      "link": {"activation": pick["activation"],
                               "weights": {f"z{t - 1}": pick["weights"]},
                               "bias": pick["bias"]},
                      "scale": pick["scale"]})
    family = draw(st.sampled_from(["gaussian", "bernoulli"]))
    emission = draw(st.sampled_from([{"param": "W_x"}, [[0.4] * d] * o]))
    for t in range(1, T + 1):
        node = {"id": f"x{t}", "kind": "observed", "dim": o, "family": family,
                "parents": [f"z{t}"], "link": {"weights": {f"z{t}": emission}}}
        if family == "gaussian":
            node["scale"] = draw(st.sampled_from([{"param": "scale_x"}, 0.7]))
        nodes.append(node)
    model = graph.build_model({"nodes": nodes})
    shared = {f"x{t}" for t in range(1, T + 1) if draw(st.booleans())}
    return model, shared


@SETTINGS
@given(case=chain_models(), rows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_chain_equals_per_node_sum(case, rows, seed):
    model, shared = case
    rng = np.random.default_rng(seed)
    _assert_matches(model, _theta(model, rng), _values(model, rng, rows, shared))


@SETTINGS
@given(T=st.integers(2, 8), d=st.integers(1, 3), o=st.integers(1, 4),
       previous=st.booleans(), rows=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_dbn_equals_per_node_sum(T, d, o, previous, rows, seed):
    rng = np.random.default_rng(seed)
    model, theta = build_dbn_model(T, d, o, rng.uniform(0.1, 1.0), rng,
                                   emission_on_previous=previous)
    assert _stacked(model)
    shared = {f"x{t}" for t in range(1, T + 1) if rng.random() < 0.5}
    _assert_matches(model, theta, _values(model, rng, rows, shared))


@pytest.mark.parametrize("attribute,values", [
    ("scale", [0.5, 0.5, 0.9, 0.5]),
    ("activation", ["tanh", "tanh", "identity", "sigmoid"]),
    ("bias", [0.2, 0.2, -0.4, 0.2]),
])
def test_nodes_differing_in_one_attribute_score_correctly(attribute, values):
    nodes = [{"id": "z1", "dim": 2, "family": "gaussian", "scale": 1.0}]
    for t, v in enumerate(values, start=2):
        spec = {"activation": "tanh", "bias": 0.2, "scale": 0.5}
        spec[attribute] = v
        nodes.append({"id": f"z{t}", "dim": 2, "family": "gaussian",
                      "parents": [f"z{t - 1}"],
                      "link": {"activation": spec["activation"],
                               "weights": {f"z{t - 1}": {"param": "W"}},
                               "bias": spec["bias"]},
                      "scale": spec["scale"]})
    model = graph.build_model({"nodes": nodes})
    assert _stacked(model)
    rng = np.random.default_rng(3)
    _assert_matches(model, _theta(model, rng), _values(model, rng, 3, ()))
