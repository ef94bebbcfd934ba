"""The flat gradient of packed inputs has the per-node adjoints' bits.

A gradient program whose packed inputs are read through no stack and no
run of scaled inputs sums each input's adjoint in a local of its own,
``0.0`` plus its contributions in the per-node program's order, and
concatenates those; other programs add every contribution into a zeroed
gradient.  Either way each entry of ``record.packed`` has the bits of
``0.0 +`` the per-node program's adjoint in ``record.grads``: the same
value, except that an all ``-0.0`` entry reads ``+0.0``.  Checked bit for
bit, signed zeros included, for the latent coordinates and for the
parameter vector of the MLP, lds and mixed-family models, with exact
zeros in the values so that signed zero adjoints occur.
"""

import linecache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncbayes import autodiff as ad
from ncbayes import graph
from ncbayes.graph import LatentPosterior, unpack_coords
from test_packed_posterior import case, free_values, observed_values

PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

MODELS = ("two-layer-mlp", "generative-mlp", "lds", "row-consistency-spec",
          "chain-exp-logn-gauss", "chain-logn-exp")
CASES = [(name, system) for name in MODELS
         for system in ("cp", "dncp", "partial")]

# cases whose latent posterior reads no packed input through a stack or
# a run of scaled inputs, so their program builds the gradient per input
PER_INPUT = [("two-layer-mlp", "cp"), ("two-layer-mlp", "partial"),
             ("generative-mlp", "cp"), ("generative-mlp", "partial"),
             ("lds", "partial"), ("row-consistency-spec", "cp"),
             ("chain-exp-logn-gauss", "cp"), ("chain-logn-exp", "dncp")]


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(bits(got), bits(want))


def packed_sources(root, layout):
    """Source of each of ``root``'s gradient programs for ``layout``."""
    return ["".join(linecache.getlines(fn.__code__.co_filename))
            for key, fn in root._programs.functions.items()
            if key[2] and key[3] == layout]


def posterior_source(name, system, seed):
    """Source of the bound program of a four-row posterior."""
    model, theta = case(name, system)
    rng = np.random.default_rng(seed)
    post = LatentPosterior(model, theta, observed_values(model, rng, 4))
    q = free_values(model, rng, 4)
    post.value_and_grad(q)
    return "".join(linecache.getlines(
        post._bound[q.shape].program.__code__.co_filename))


def flat_reference(record, layout, lead):
    """``0.0 +`` each name's per-node adjoint, flattened, end to end."""
    return np.concatenate([
        0.0 + record.grads.get(name, np.zeros(lead + shape)).reshape(
            lead + (-1,)) for name, shape in layout], axis=-1)


def zero_out(values, rng, count):
    """``values`` with ``count`` entries set to ``+0.0`` or ``-0.0``."""
    values = np.array(values, dtype=np.float64)
    flat = values.reshape(-1)
    for k in rng.integers(0, max(flat.size, 1), count if flat.size else 0):
        flat[k] = -0.0 if rng.random() < 0.5 else 0.0
    return values


def assert_latent_gradient(model, theta, data, q, seed):
    compiled = graph._compile(model)
    bindings = graph._bindings(model, compiled, theta,
                               {**data, **unpack_coords(model, q)})
    layout = tuple((i, (model.nodes[i].dim,)) for i in model.free_ids)
    fixed = {k: v for k, v in bindings.items() if k not in model.free_ids}
    with np.errstate(all="ignore"):
        packed = ad.evaluate_with_gradient(
            compiled.root, fixed, seed_adjoint=seed, packed=(layout, q))
        per_node = ad.evaluate_with_gradient(
            compiled.root, bindings, seed_adjoint=seed,
            wrt=frozenset(model.free_ids))
        want = flat_reference(per_node, layout, q.shape[:-1])
    assert_same_bits(packed.value, per_node.value)
    assert_same_bits(packed.packed, want)


def assert_param_gradient(model, theta, values, seed):
    compiled = graph._compile(model)
    bindings = graph._bindings(model, compiled, theta, values)
    layout = model.layout.packed
    with np.errstate(all="ignore"):
        value, grad = graph._param_gradient(model, compiled, theta,
                                            bindings, seed)
        per_node = ad.evaluate_with_gradient(
            compiled.root, bindings, seed_adjoint=seed,
            wrt=frozenset(name for name, _ in layout))
        want = flat_reference(per_node, layout, ())
    assert_same_bits(value, per_node.value)
    assert_same_bits(grad, want)


@pytest.mark.parametrize("name,system", CASES,
                         ids=[f"{n}-{s}" for n, s in CASES])
@PROPERTY
@given(rows=st.sampled_from((None, 1, 3, 16)), unit=st.booleans(),
       zeros=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_flat_gradient_has_the_per_node_bits(name, system, rows, unit,
                                             zeros, seed):
    model, theta = case(name, system)
    rng = np.random.default_rng(seed)
    theta = zero_out(theta, rng, zeros // 3)
    q = zero_out(free_values(model, rng, rows), rng, zeros)
    data = observed_values(model, rng, rows)
    weights = None if rows is None else (
        np.ones(rows) if unit else rng.standard_normal(rows))
    assert_latent_gradient(model, theta, data, q, weights)
    if theta.size:
        lead = (3 if rows is None else rows,)
        values = {**observed_values(model, rng, lead[0]),
                  **unpack_coords(model, zero_out(
                      free_values(model, rng, lead[0]), rng, zeros))}
        assert_param_gradient(model, theta, values,
                              np.ones(lead) if unit
                              else rng.standard_normal(lead))


@pytest.mark.parametrize("name,system", PER_INPUT,
                         ids=[f"{n}-{s}" for n, s in PER_INPUT])
def test_posterior_programs_build_the_gradient_per_input(name, system):
    source = posterior_source(name, system, 1)
    assert "grad = np.concatenate([" in source
    assert "grad = np.zeros" not in source and "grad[" not in source


@pytest.mark.parametrize("system", ["cp", "dncp"])
def test_dbn_programs_keep_zero_and_add(system):
    source = posterior_source("dbn", system, 2)
    assert "grad = np.zeros(" in source and "np.concatenate" not in source


def test_all_negative_zero_entry_reads_positive_zero():
    """``d/dz`` of a standard normal log-density at ``z = 0`` is ``-0.0``
    per node, ``+0.0`` packed; the input the root misses is zeros."""
    z = ad.inp("z")
    root = ad.gaussian_log_pdf(z, ad.constant(0.0), ad.constant(1.0))
    layout = (("z", (2,)), ("u", (3,)))
    q = np.array([[0.0, 0.0, 1.0, 2.0, 3.0], [1.5, 0.0, 4.0, 5.0, 6.0]])
    packed = ad.evaluate_with_gradient(root, {}, seed_adjoint=np.ones(2),
                                       packed=(layout, q))
    per_node = ad.evaluate_with_gradient(root, {"z": q[:, :2]},
                                         seed_adjoint=np.ones(2))
    assert np.signbit(per_node.grads["z"][[0, 0, 1], [0, 1, 1]]).all()
    assert_same_bits(packed.packed, [[0.0, 0.0, 0.0, 0.0, 0.0],
                                     [-1.5, 0.0, 0.0, 0.0, 0.0]])
    (source,) = packed_sources(root, layout)
    assert "np.concatenate" in source
