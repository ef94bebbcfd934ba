"""The packed evaluator equals the per-node program bit for bit.

``LatentPosterior.value_and_grad`` hands the tape one flat ``q`` and gets
one flat gradient back.  The oracle binds every free node on its own
(``graph._bindings``), runs the per-node program with
``wrt=frozenset(free_ids)``, packs its adjoints with ``pack_coords`` and
applies the evaluator's support and finiteness masking.  Values and
gradients must be equal (``assert_array_equal``) for every model family,
in the model's own coordinates and after a full or partial non-centered
rewrite, at a single point and at 1, 3, 16 and 32 rows, with
out-of-support and overflowing rows mixed in.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncbayes import autodiff as ad
from ncbayes import graph
from ncbayes.experiments import two_layer_model
from ncbayes.graph import LatentPosterior, pack_coords, unpack_coords
from ncbayes.modelzoo import (
    build_dbn_model,
    build_generative_mlp,
    build_lds_model,
)
from ncbayes.reparam import apply_plan, full_dncp_plan
from test_row_consistency import SPEC, chain
from test_term_stacking import _theta, chain_models

ROWS = (None, 1, 3, 16, 32)
PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def oracle(model, theta, data, q):
    """The per-node evaluation of ``LatentPosterior.value_and_grad``."""
    compiled = graph._compile(model)
    bindings = graph._bindings(model, compiled, theta,
                               {**data, **unpack_coords(model, q)})
    bad = graph._mask_bad_rows(compiled.support_checks, bindings)
    rows = q.shape[0] if q.ndim == 2 else next(
        (v.shape[0] for v in data.values() if np.ndim(v) == 2), None)
    seed = None if rows is None else np.ones(rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        record = ad.evaluate_with_gradient(
            compiled.root, bindings, seed_adjoint=seed,
            wrt=frozenset(model.free_ids))
    grads = {i: record.grads.get(i, np.zeros(q.shape[:-1] + (
        model.nodes[i].dim,))) for i in model.free_ids}
    grad = pack_coords(model, grads) if grads else np.zeros(q.shape)
    grad = np.where(np.isfinite(grad), grad, 0.0)
    value = record.value
    if q.ndim == 1:
        if bad or not np.all(np.isfinite(value)):
            return -np.inf, np.zeros(q.size)
        return value, grad
    keep = np.isfinite(value) & np.logical_not(bad)
    return np.where(keep, value, -np.inf), grad * keep[:, None]


def assert_matches_oracle(model, theta, data, q):
    value, grad = LatentPosterior(model, theta, data).value_and_grad(q)
    want_value, want_grad = oracle(model, theta, data, q)
    np.testing.assert_array_equal(value, want_value)
    np.testing.assert_array_equal(grad, want_grad)
    assert np.shape(grad) == q.shape


def free_values(model, rng, rows, bad_rows=(), huge_rows=()):
    """In-support values of every free node; rows ``bad_rows`` get one
    out-of-support value where the model has a constrained node, rows
    ``huge_rows`` are scaled far enough to overflow the density."""
    shape = () if rows is None else (rows,)
    values = {}
    for node_id in model.free_ids:
        node = model.nodes[node_id]
        size = shape + (node.dim,)
        family = node.factor.family
        if family == "exponential":
            values[node_id] = rng.exponential(1.0, size)
        elif family == "lognormal":
            values[node_id] = rng.lognormal(0.0, 0.5, size)
        elif family == "uniform_aux":
            values[node_id] = rng.uniform(0.01, 0.99, size)
        else:
            values[node_id] = 1.5 * rng.standard_normal(size)
    q = pack_coords(model, values)
    slices, _ = graph.coord_slices(model)
    constrained = [(slices[i], model.nodes[i].factor.family)
                   for i in model.free_ids
                   if model.nodes[i].factor.family in
                   ("exponential", "lognormal", "uniform_aux")]
    for r in bad_rows:
        if constrained:
            sl, family = constrained[r % len(constrained)]
            row = q[..., sl] if rows is None else q[r, sl]
            row[r % row.size] = 1.5 if family == "uniform_aux" else -0.25
    for r in huge_rows:
        if rows is None:
            q *= 1e200
        else:
            q[r] *= 1e200
    return q


def observed_values(model, rng, rows):
    """Data for each observed node: one shared vector, or one per row."""
    data = {}
    for node_id in model.observed_ids:
        node = model.nodes[node_id]
        size = ((rows,) if rows else ()) + (node.dim,)
        if node.factor.family == "bernoulli":
            data[node_id] = (rng.random(size) < 0.5).astype(np.float64)
        elif node.factor.family in ("exponential", "lognormal"):
            data[node_id] = rng.exponential(1.0, size) + 0.1
        else:
            data[node_id] = rng.standard_normal(size)
    return data


def spec_model():
    model = graph.build_model(SPEC)
    return model, 0.5 * np.random.default_rng(3).standard_normal(
        model.layout.size)


def dbn(previous):
    return build_dbn_model(10, 2, 5, 0.3, np.random.default_rng(4),
                           emission_on_previous=previous)


def mlp():
    model = build_generative_mlp(dims=(2, 3, 6), obs_dim=8)
    return model, 0.5 * graph.random_params(model, np.random.default_rng(5))


def two_layer():
    model = two_layer_model((2, 3), 5)
    return model, graph.random_params(model, np.random.default_rng(6))


def interleaved():
    """Two stacked priors whose members alternate in ``q``: n1, n3 and n2,
    n4 share signatures, so neither group is a run of coordinates; the
    emissions stack all four."""
    nodes = [{"id": f"n{k}", "dim": 2, "family": "gaussian",
              "scale": 1.0 if k % 2 else 0.5} for k in range(1, 5)]
    nodes += [{"id": f"x{k}", "kind": "observed", "dim": 3,
               "family": "gaussian", "parents": [f"n{k}"],
               "link": {"weights": {f"n{k}": {"param": "W"}}}, "scale": 0.7}
              for k in range(1, 5)]
    model = graph.build_model({"nodes": nodes})
    return model, graph.random_params(model, np.random.default_rng(7))


BASES = {
    "row-consistency-spec": spec_model,
    "chain-exp-logn-gauss": lambda: chain(("exponential", "lognormal",
                                           "gaussian")),
    "chain-logn-exp": lambda: chain(("lognormal", "exponential")),
    "dbn": lambda: dbn(False),
    "dbn-emission-on-previous": lambda: dbn(True),
    "lds": lambda: (build_lds_model(0.5, 0.1), np.zeros(0)),
    "generative-mlp": mlp,
    "two-layer-mlp": two_layer,
    "interleaved-groups": interleaved,
}


def partial(model):
    """Every other latent node rewritten; the rest stay centered."""
    plan = full_dncp_plan(model)
    return apply_plan(model, {i: t for k, (i, t) in enumerate(plan.items())
                              if k % 2 == 0})


@functools.lru_cache(maxsize=None)
def case(name, system):
    model, theta = BASES[name]()
    if system == "dncp":
        model = apply_plan(model, full_dncp_plan(model))
    elif system == "partial":
        model = partial(model)
    return model, theta


CASES = [(name, system) for name in BASES
         for system in ("cp", "dncp", "partial")]


@pytest.mark.parametrize("name,system", CASES,
                         ids=[f"{n}-{s}" for n, s in CASES])
@PROPERTY
@given(rows=st.sampled_from(ROWS), per_row_data=st.booleans(),
       bad=st.sets(st.integers(0, 31), max_size=4),
       huge=st.sets(st.integers(0, 31), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_evaluator_equals_per_node_program(name, system, rows, per_row_data,
                                           bad, huge, seed):
    model, theta = case(name, system)
    rng = np.random.default_rng(seed)
    n = rows or 3
    bad = [r for r in bad if r < n] if rows else sorted(bad)[:1]
    huge = [r for r in huge if r < n] if rows else sorted(huge)[:1]
    q = free_values(model, rng, rows, bad, huge)
    data = observed_values(model, rng, n if per_row_data else None)
    assert_matches_oracle(model, theta, data, q)


@PROPERTY
@given(chain_case=chain_models(), dncp=st.booleans(),
       rows=st.sampled_from(ROWS), bad=st.sets(st.integers(0, 31), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_stacking_chains_equal_per_node_program(chain_case, dncp, rows, bad,
                                                seed):
    model, shared = chain_case
    rng = np.random.default_rng(seed)
    theta = _theta(model, rng)
    if dncp:
        model = apply_plan(model, full_dncp_plan(model))
    n = rows or 3
    q = free_values(model, rng, rows, huge_rows=[r for r in bad if r < n]
                    if rows else sorted(bad)[:1])
    data = observed_values(model, rng, n)
    data = {i: v[0] if i in shared else v for i, v in data.items()}
    assert_matches_oracle(model, theta, data, q)


def _source_names(name, system):
    """Global names the evaluator's generated programs read."""
    model, theta = case(name, system)
    data = observed_values(model, np.random.default_rng(0), None)
    target = LatentPosterior(model, theta, data)
    target.value_and_grad(np.full((4, target.dim), 0.5))
    return {name for fn in target.compiled.root._programs.functions.values()
            for name in fn.__code__.co_names}


def test_groups_off_the_coordinate_runs_are_gathered_and_scattered():
    names = _source_names("interleaved-groups", "cp")
    assert any(n.startswith("ix_") for n in names)  # the stacked values
    assert any(n.startswith("cx_") for n in names)  # their adjoint


def test_dbn_groups_are_views_of_q_in_both_systems():
    for system in ("cp", "dncp"):
        names = _source_names("dbn", system)
        assert not any(n.startswith(("ix_", "cx_")) for n in names)


def test_free_node_the_root_does_not_reach_gets_zeros():
    z = ad.inp("z")
    root = ad.total(ad.square(z))
    layout = (("u", (2,)), ("z", (3,)), ("w", (1,)))
    q = np.arange(12.0).reshape(2, 6)
    record = ad.evaluate_with_gradient(root, {}, seed_adjoint=np.ones(2),
                                       packed=(layout, q))
    want = np.zeros((2, 6))
    want[:, 2:5] = 2.0 * q[:, 2:5]
    np.testing.assert_array_equal(record.packed, want)
    assert record.grads == {}


def test_packed_input_read_by_several_nodes_sums_like_the_unpacked_program():
    a, b = ad.inp("z"), ad.inp("z")  # one name, two leaves
    root = ad.total(ad.tanh(a) * b) + ad.total(ad.total(ad.stack(a, b)))
    q = np.random.default_rng(1).standard_normal((3, 2))
    unpacked = ad.evaluate_with_gradient(root, {"z": q},
                                         seed_adjoint=np.ones(3))
    packed = ad.evaluate_with_gradient(root, {}, seed_adjoint=np.ones(3),
                                       packed=((("z", (2,)),), q))
    np.testing.assert_array_equal(packed.value, unpacked.value)
    np.testing.assert_array_equal(packed.packed, unpacked.grads["z"])


def _blocks_of(layout, values):
    """Bindings of each layout name to its block of ``values``, reshaped."""
    out, lo = {}, 0
    for name, shape in layout:
        size = int(np.prod(shape))
        out[name] = values[..., lo:lo + size].reshape(values.shape[:-1]
                                                      + shape)
        lo += size
    return out


def test_two_axis_block_is_a_reshaped_view_with_a_flat_adjoint():
    w, x = ad.inp("w"), ad.inp("x")
    root = ad.total(ad.tanh(ad.affine(w, x, ad.inp("b")))) \
        + ad.total(ad.total(ad.square(w)))
    layout = (("b", (2,)), ("w", (2, 3)))
    rng = np.random.default_rng(8)
    theta, xv = rng.standard_normal(8), rng.standard_normal((4, 3))
    blocks = _blocks_of(layout, theta)
    np.testing.assert_array_equal(blocks["w"], theta[2:].reshape(2, 3))
    packed = ad.evaluate_with_gradient(root, {"x": xv},
                                       seed_adjoint=np.ones(4),
                                       wrt=frozenset(), packed=(layout, theta))
    unpacked = ad.evaluate_with_gradient(root, {"x": xv, **blocks},
                                         seed_adjoint=np.ones(4),
                                         wrt=frozenset({"b", "w"}))
    np.testing.assert_array_equal(packed.value, unpacked.value)
    np.testing.assert_array_equal(packed.packed, np.concatenate(
        [unpacked.grads["b"], unpacked.grads["w"].reshape(-1)]))
    assert packed.grads == {}


def test_only_one_axis_blocks_form_a_packed_stack():
    """A stack of 2-D blocks lying end to end is built operand by operand:
    one reshaped view of their columns would put rows where the stack
    axis goes, which the asymmetric weights below would show."""
    a, b, u, v = (ad.inp(n) for n in "abuv")
    weights = np.arange(12.0).reshape(2, 2, 3)
    root = (ad.total(ad.total(ad.total(ad.square(ad.stack(a, b)) * weights)))
            + ad.total(ad.total(ad.stack(u, v) * weights[0])))
    layout = (("a", (2, 3)), ("b", (2, 3)), ("u", (3,)), ("v", (3,)))
    values = np.random.default_rng(9).standard_normal((5, 18))
    blocks = _blocks_of(layout, values)
    packed = ad.evaluate_with_gradient(root, {}, seed_adjoint=np.ones(5),
                                       packed=(layout, values))
    unpacked = ad.evaluate_with_gradient(root, blocks,
                                         seed_adjoint=np.ones(5))
    np.testing.assert_array_equal(packed.value, unpacked.value)
    np.testing.assert_array_equal(packed.packed, np.concatenate(
        [unpacked.grads[n].reshape(5, -1) for n in "abuv"], axis=-1))
    names = {n for fn in root._programs.functions.values()
             for n in fn.__code__.co_names}
    assert "empty" in names  # the 2-D blocks, operand by operand


def test_packed_values_must_hold_the_layout():
    root = ad.total(ad.inp("z"))
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(root, {}, packed=((("z", (2,)),),
                                                    np.zeros(3)))
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(root, {}, packed=((("z", (2,)), ("z", (1,))),
                                                    np.zeros(3)))


def test_caller_q_is_left_as_it_was():
    model, theta = case("row-consistency-spec", "cp")
    data = observed_values(model, np.random.default_rng(2), None)
    q = free_values(model, np.random.default_rng(3), 3, bad_rows=(0, 2))
    before = q.copy()
    value, _ = LatentPosterior(model, theta, data).value_and_grad(q)
    np.testing.assert_array_equal(q, before)
    assert value[0] == -np.inf and value[2] == -np.inf
    assert np.isfinite(value[1])
