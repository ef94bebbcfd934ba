"""The packed parameter gradient equals the per-block program bit for bit.

``graph._param_gradient`` hands the tape the flat parameter vector whole,
as a packed layout of the blocks' shapes, and gets one flat gradient
back.  The oracle binds every block on its own as a view of ``theta``
(``graph._bindings``), runs the per-block program with ``wrt`` the
blocks' inputs and packs the adjoint dict by hand.  Values and gradients
must be equal (``np.array_equal``, sign bits included) for the MMCL and
complete-data densities of the generative MLP and the DBN, in both
coordinate systems, at a single point and at 1, 7 and 400 rows, under a
row seed of ones and the MMCL softmax seed.
"""

import functools

import numpy as np
import pytest

from ncbayes import autodiff as ad
from ncbayes import graph, learning
from ncbayes.modelzoo import build_dbn_model, build_generative_mlp
from ncbayes.reparam import apply_plan, full_dncp_plan

ROWS = (None, 1, 7, 400)
# (points, draws per point) of the softmax seed at each row count
SOFTMAX = {1: (1, 1), 7: (1, 7), 400: (8, 50)}


def oracle(model, compiled, theta, bindings, seed):
    """The per-block program's value and its adjoints packed by hand."""
    wrt = frozenset(f"theta:{name}" for name in model.layout)
    record = ad.evaluate_with_gradient(compiled.root, bindings,
                                       seed_adjoint=seed, wrt=wrt)
    grad = np.zeros(model.layout.size)
    for name in model.layout:
        g = record.grads.get(f"theta:{name}")
        if g is not None:
            grad[model.layout.slice_of(name)] = np.asarray(g).reshape(-1)
    return record.value, grad


def mlp():
    model = build_generative_mlp(dims=(2, 3, 6), obs_dim=8)
    return model, 0.5 * graph.random_params(model, np.random.default_rng(5))


def dbn():
    return build_dbn_model(10, 2, 5, 0.3, np.random.default_rng(4))


@functools.lru_cache(maxsize=None)
def case(name, system):
    model, theta = {"mlp": mlp, "dbn": dbn}[name]()
    if system == "dncp":
        model = apply_plan(model, full_dncp_plan(model))
    return model, theta


CASES = [(name, system, density, rows, seed)
         for name in ("mlp", "dbn") for system in ("cp", "dncp")
         for density in ("joint", "observed") for rows in ROWS
         for seed in ("ones", "softmax") if rows or seed == "ones"]


def _id(c):
    name, system, density, rows, seed = c
    return f"{name}-{system}-{density}-{rows or 'point'}-{seed}"


@pytest.mark.parametrize("name,system,density,rows,seed", CASES,
                         ids=[_id(c) for c in CASES])
def test_packed_theta_gradient_equals_the_per_block_program(
        name, system, density, rows, seed):
    model, theta = case(name, system)
    draw = graph.ancestral_sample(model, theta, np.random.default_rng(11),
                                  size=rows)
    compiled = graph._compile(model, observed_only=density == "observed")
    bindings = graph._bindings(model, compiled, theta, draw)
    if rows is None:
        weights = None
    elif seed == "ones":
        weights = np.ones(rows)
    else:
        weights = learning._SoftmaxSeed(*SOFTMAX[rows])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, grad = graph._param_gradient(model, compiled, theta, bindings,
                                            weights)
        want_value, want_grad = oracle(model, compiled, theta, bindings,
                                       weights)
    assert np.array_equal(value, want_value)
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(np.signbit(grad), np.signbit(want_grad))
    assert grad.shape == (model.layout.size,)
    assert np.any(grad != 0.0)


def test_learners_make_one_tape_call_per_gradient(monkeypatch):
    """Each MMCL block and each M-step is one call of the tape, through
    the module attribute, seeded per row."""
    calls = []
    original = ad.evaluate_with_gradient

    def counting(*args, **kwargs):
        calls.append(len(kwargs["seed_adjoint"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(ad, "evaluate_with_gradient", counting)
    model, theta = case("mlp", "cp")
    nc = apply_plan(model, full_dncp_plan(model))
    x = (np.random.default_rng(2).random((3, 8)) < 0.5).astype(float)
    learning.mmcl_gradient(nc, theta, {"x": x[0]}, 5,
                           np.random.default_rng(1))
    samples = np.random.default_rng(3).standard_normal(
        (2, 3, model.free_dim()))
    learning.complete_data_gradient(model, theta, {"x": x}, samples)
    assert calls == [5, 6]
