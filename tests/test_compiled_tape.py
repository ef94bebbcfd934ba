"""Differential tests of the tape against direct numpy.

Op level: every op's value against the same formula in numpy, and its
adjoint (a vector-Jacobian product with a random seed) against central
differences of that formula, over scalar, ``(d,)``, ``(1, d)`` and
``(R, d)`` operands that broadcast.  Model level:
``LatentPosterior.value_and_grad`` against an independent numpy log-joint
whose gradient comes from complex-step differences, which are exact to
rounding.
"""

import linecache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ncbayes import autodiff as ad
from ncbayes import graph, reparam
from ncbayes.errors import UnboundInput
from ncbayes.experiments import two_layer_model
from ncbayes.graph import AffineLink, CustomLink, LatentPosterior
from ncbayes.modelzoo import build_dbn_model, build_generative_mlp, build_lds_model

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


# -- op level ------------------------------------------------------------------

def _gauss(x, m, s):
    return np.sum(-0.5 * ((x - m) / s) ** 2 - np.log(s) - HALF_LOG_2PI, axis=-1)


def _affine(w, x, b):
    return (w @ x if x.ndim == 1 else x @ w.T) + b


def _stack(*xs):
    return np.stack(np.broadcast_arrays(*xs), axis=-2)


REAL, POSITIVE, UNIT = (-2.0, 2.0), (0.5, 2.0), (0.05, 0.95)

# name: (builder, numpy reference, domain of each operand, reduces last axis)
OPS = {
    "add": (ad.add, np.add, (REAL, REAL), False),
    "add3": (ad.add, lambda a, b, c: a + b + c, (REAL, REAL, REAL), False),
    "mul": (ad.mul, np.multiply, (REAL, REAL), False),
    "tanh": (ad.tanh, np.tanh, (REAL,), False),
    "sigmoid": (ad.sigmoid, expit, (REAL,), False),
    "log": (ad.log, np.log, (POSITIVE,), False),
    "exp": (ad.exp, np.exp, (REAL,), False),
    "square": (ad.square, np.square, (REAL,), False),
    "reciprocal": (ad.reciprocal, np.reciprocal, (POSITIVE,), False),
    "total": (ad.total, lambda x: np.sum(x, axis=-1), (REAL,), True),
    "gaussian": (ad.gaussian_log_pdf, _gauss, (REAL, REAL, POSITIVE), True),
    "bernoulli": (ad.bernoulli_log_pmf,
                  lambda x, a: np.sum(x * a - np.logaddexp(0.0, a), axis=-1),
                  (UNIT, REAL), True),
}


def _operand_shape(kind, d, R):
    return {"scalar": (), "vector": (d,), "row": (1, d), "batch": (R, d)}[kind]


@st.composite
def op_case(draw, name):
    _, _, domains, reduces = OPS[name]
    d, R = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    kinds = st.sampled_from(["scalar", "vector", "row", "batch"])
    shapes = [_operand_shape(draw(kinds), d, R) for _ in domains]
    if reduces and not any(shapes):
        shapes[0] = (d,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [rng.uniform(lo, hi, size=s) for (lo, hi), s in zip(domains, shapes)]
    return values, rng


def _central_vjp(fn, values, seed, k, step=1e-6):
    """d/dvalues[k] of sum(seed * fn(*values)) by central differences."""
    base = values[k]
    out = np.zeros(base.shape)
    flat = out.reshape(-1)
    for j in range(base.size):
        hi, lo = base.copy().reshape(-1), base.copy().reshape(-1)
        hi[j] += step
        lo[j] -= step
        args_hi = list(values)
        args_lo = list(values)
        args_hi[k], args_lo[k] = hi.reshape(base.shape), lo.reshape(base.shape)
        flat[j] = np.sum(seed * (fn(*args_hi) - fn(*args_lo))) / (2.0 * step)
    return out


def _check_op(build, fn, values, rng, const=()):
    """Build ``build`` over inputs a0, a1, ... (or constants at ``const``)
    and compare value and adjoints with numpy."""
    names = [f"a{k}" for k in range(len(values))]
    exprs = [ad.constant(v) if k in const else ad.inp(n)
             for k, (n, v) in enumerate(zip(names, values))]
    root = build(*exprs)
    bindings = dict(zip(names, values))
    expected = fn(*values)
    value = ad.evaluate(root, bindings)
    np.testing.assert_allclose(value, expected, rtol=1e-12, atol=1e-13)
    seed = None if np.ndim(expected) == 0 else rng.standard_normal(np.shape(expected))
    record = ad.evaluate_with_gradient(root, bindings, seed_adjoint=seed)
    np.testing.assert_allclose(record.value, expected, rtol=1e-12, atol=1e-13)
    weight = 1.0 if seed is None else seed
    for k, name in enumerate(names):
        if k in const:
            assert name not in record.grads
            continue
        grad = record.grads[name]
        assert grad.shape == np.shape(values[k])
        np.testing.assert_allclose(grad, _central_vjp(fn, values, weight, k),
                                   rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("name", sorted(OPS))
@SETTINGS
@given(data=st.data())
def test_op_value_and_adjoint_match_numpy(name, data):
    build, fn, _, _ = OPS[name]
    values, rng = data.draw(op_case(name))
    _check_op(build, fn, values, rng)


@SETTINGS
@given(data=st.data())
def test_gaussian_with_constant_scale(data):
    values, rng = data.draw(op_case("gaussian"))
    _check_op(ad.gaussian_log_pdf, _gauss, values, rng, const=(2,))


@SETTINGS
@given(x_ndim=st.integers(1, 3), bias_shape=st.sampled_from(["scalar", "vector"]),
       m=st.integers(1, 3), d=st.integers(1, 3), R=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_affine_over_1d_2d_and_3d_operands(x_ndim, bias_shape, m, d, R, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, d))
    x = rng.standard_normal((R + 1, R, d)[3 - x_ndim:])
    b = rng.standard_normal(() if bias_shape == "scalar" else (m,))
    _check_op(ad.affine, _affine, [w, x, b], rng)


@SETTINGS
@given(k=st.integers(2, 4), d=st.integers(1, 3), R=st.integers(2, 4),
       kinds=st.lists(st.sampled_from(["vector", "row", "batch"]),
                      min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_stack_broadcasts_members_on_axis_minus_two(k, d, R, kinds, seed):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(_operand_shape(kind, d, R))
              for kind in kinds[:k]]
    _check_op(ad.stack, _stack, values, rng)


def test_input_name_used_twice_sums_adjoints():
    x1, x2, y = ad.inp("x"), ad.inp("x"), ad.inp("y")
    root = ad.total(ad.add(ad.mul(x1, y), ad.tanh(x2)))
    xv, yv = np.array([0.3, -1.2]), np.array([2.0, 0.5])
    record = ad.evaluate_with_gradient(root, {"x": xv, "y": yv})
    assert record.value == pytest.approx(np.sum(xv * yv + np.tanh(xv)), rel=1e-14)
    np.testing.assert_allclose(record.grads["x"], yv + 1.0 - np.tanh(xv) ** 2,
                               rtol=1e-14)
    np.testing.assert_allclose(record.grads["y"], xv, rtol=1e-14)


def test_sum_of_thousands_of_terms():
    # each term reads its own input node of the one name "x"
    root = ad.total(ad.add(*(ad.mul(ad.constant(float(k)), ad.tanh(ad.inp("x")))
                             for k in range(3000))))
    xv = np.array([0.3, -0.8])
    record = ad.evaluate_with_gradient(root, {"x": xv})
    weight = 3000 * 2999 / 2
    assert record.value == pytest.approx(weight * np.sum(np.tanh(xv)), rel=1e-12)
    np.testing.assert_allclose(record.grads["x"], weight * (1.0 - np.tanh(xv) ** 2),
                               rtol=1e-12)


def test_wrt_restricts_the_returned_adjoints():
    x, y = ad.inp("x"), ad.inp("y")
    root = ad.total(ad.mul(x, ad.exp(y)))
    bindings = {"x": np.array([1.5, -0.5]), "y": np.array([0.2, 0.1])}
    full = ad.evaluate_with_gradient(root, bindings)
    only_x = ad.evaluate_with_gradient(root, bindings, wrt=frozenset({"x", "z"}))
    assert set(only_x.grads) == {"x"}
    np.testing.assert_array_equal(only_x.grads["x"], full.grads["x"])
    assert only_x.value == full.value


def test_free_node_the_joint_never_reaches_gets_zero_gradient():
    # a uniform noise root with no children adds no term to the joint
    model = graph.build_model({"nodes": [
        {"id": "u", "kind": "auxiliary", "dim": 2, "family": "uniform_aux"},
        {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
        {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["z"], "link": {"weights": {"z": "identity"}},
         "scale": 0.5},
    ]})
    post = LatentPosterior(model, np.zeros(0), {"x": np.array([0.4])})
    slices, _ = graph.coord_slices(model)
    q = np.array([[0.3, 0.6, 0.2], [0.5, 0.5, -1.0]])
    q[:, slices["z"]] = [[0.2], [-1.0]]
    q[:, slices["u"]] = [[0.3, 0.6], [0.5, 0.5]]
    value, grad = post.value_and_grad(q)
    np.testing.assert_array_equal(grad[:, slices["u"]], 0.0)
    z = q[:, slices["z"]][:, 0]
    np.testing.assert_allclose(grad[:, slices["z"]][:, 0],
                               -z + (0.4 - z) / 0.25, rtol=1e-14)


def test_callable_seed_runs_between_forward_and_backward():
    rng = np.random.default_rng(5)
    w, x = ad.inp("w"), ad.inp("x")
    root = ad.gaussian_log_pdf(ad.inp("y"), ad.affine(w, x, ad.constant(0.0)),
                               ad.constant(0.7))
    bindings = {"w": rng.standard_normal((2, 3)), "x": rng.standard_normal((4, 3)),
                "y": rng.standard_normal((4, 2))}
    seen = []

    def seed(value):
        seen.append(np.array(value))
        return np.exp(value - value.max())

    record = ad.evaluate_with_gradient(root, bindings, seed_adjoint=seed)
    (value,) = seen
    np.testing.assert_array_equal(value, ad.evaluate(root, bindings))
    fixed = ad.evaluate_with_gradient(root, bindings, seed_adjoint=seed(value))
    for name in bindings:
        np.testing.assert_array_equal(record.grads[name], fixed.grads[name])


def test_one_root_at_changing_row_counts():
    rng = np.random.default_rng(9)
    w, x, b = ad.inp("w"), ad.inp("x"), ad.inp("b")
    root = ad.bernoulli_log_pmf(ad.inp("k"), ad.tanh(ad.affine(w, x, b)))
    wv, bv = rng.standard_normal((3, 2)), rng.standard_normal(3)
    for rows in (1, 3, 16, 1):
        xv = rng.standard_normal((rows, 2))
        kv = (rng.random((rows, 3)) < 0.5).astype(float)
        seed = rng.random(rows)
        bindings = {"w": wv, "x": xv, "b": bv, "k": kv}
        record = ad.evaluate_with_gradient(root, bindings, seed_adjoint=seed)
        a = np.tanh(xv @ wv.T + bv)
        np.testing.assert_allclose(
            record.value, np.sum(kv * a - np.logaddexp(0.0, a), axis=-1),
            rtol=1e-13)
        ga = seed[:, None] * (kv - expit(a)) * (1.0 - a * a)
        np.testing.assert_allclose(record.grads["w"], ga.T @ xv, rtol=1e-12)
        np.testing.assert_allclose(record.grads["x"], ga @ wv, rtol=1e-12)
        np.testing.assert_allclose(record.grads["b"], ga.sum(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(ad.evaluate(root, bindings), record.value)


def test_error_contract():
    x, y = ad.inp("x"), ad.inp("y")
    root = ad.gaussian_log_pdf(x, y, ad.constant(1.0))
    with pytest.raises(UnboundInput, match="'y'"):
        ad.evaluate(root, {"x": np.zeros(2)})
    with pytest.raises(UnboundInput, match="'y'"):
        ad.evaluate_with_gradient(root, {"x": np.zeros(2)})
    batch = {"x": np.zeros((3, 2)), "y": np.ones(2)}
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(root, batch)
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(ad.outputs(x, y), batch)
    # a seed must have the root's shape
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(root, batch, seed_adjoint=np.ones(2))
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(root, {"x": np.zeros(2), "y": np.ones(2)},
                                  seed_adjoint=np.ones(1))
    # inputs pass through np.asarray(..., float64): lists and ints work
    assert ad.evaluate(root, {"x": [1, 2], "y": [1, 2]}) == pytest.approx(
        -2.0 * HALF_LOG_2PI, rel=1e-15)


# -- model level ------------------------------------------------------------------

def _softplus(a):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(a.real > 0.0, a + np.log1p(np.exp(-a)), np.log1p(np.exp(a)))


def _coeff(c, env):
    return env[c.name] if isinstance(c, graph.ParamRef) else c


def _affine_link(link, parents, env):
    pre = _coeff(link.bias, env)
    for pid, w in link.weights:
        pre = pre + parents[pid] @ _coeff(w, env).T
    if link.activation == "tanh":
        return np.tanh(pre)
    if link.activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    return pre


def _ref_term(family, v, loc, s):
    if family == "gaussian":
        return _gauss(v, loc, s)
    if family == "lognormal":
        return _gauss(np.log(v), loc, s) - np.sum(np.log(v), axis=-1)
    if family == "exponential":
        return np.sum(np.log(loc) - loc * v, axis=-1)
    return np.sum(v * loc - _softplus(loc), axis=-1)


def reference_log_joint(cp_model, planned, theta, values):
    """Numpy log-joint of ``cp_model`` with the nodes in ``planned`` in
    non-centered form; ``values`` holds eps under ``eps_<id>`` for those.
    Works on complex inputs, for complex-step differentiation."""
    env = cp_model.layout.unpack(theta)
    vals, total = {}, 0.0
    for node_id in cp_model.topo_order:
        node = cp_model.nodes[node_id]
        loc = _affine_link(node.factor.link, vals, env)
        scale = node.factor.scale
        s = None if scale is None else _coeff(scale, env)
        family = node.factor.family
        if node.kind == graph.DETERMINISTIC:
            vals[node_id] = loc
        elif node_id in planned:
            eps = values[f"eps_{node_id}"]
            if family == "exponential":
                vals[node_id] = -np.log(1.0 - eps) / loc
            else:
                z = loc + s * eps
                vals[node_id] = np.exp(z) if family == "lognormal" else z
                total = total + _gauss(eps, 0.0, 1.0)
        else:
            vals[node_id] = values[node_id]
            total = total + _ref_term(family, values[node_id], loc, s)
    return total


def _assert_model_matches(cp_model, planned, theta, data, q):
    model = cp_model
    if planned:
        plan = reparam.full_dncp_plan(cp_model)
        model = reparam.apply_plan(cp_model, {i: plan[i] for i in planned})
    post = LatentPosterior(model, theta, data)
    value, grad = post.value_and_grad(q)

    slices, _ = graph.coord_slices(model)

    def ref(qc):
        values = dict(data)
        values.update({i: qc[..., sl] for i, sl in slices.items()})
        return reference_log_joint(cp_model, planned, theta, values)

    expected = ref(q)
    step = 1e-30
    ref_grad = np.zeros(q.shape)
    for k in range(q.shape[-1]):
        qc = q.astype(complex)
        qc[..., k] += 1j * step
        ref_grad[..., k] = ref(qc).imag / step
    np.testing.assert_allclose(value, expected, rtol=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_grad).max())


def _data(model, theta, seed):
    draw = graph.ancestral_sample(model, theta, np.random.default_rng(seed))
    return {i: draw[i] for i in model.observed_ids}


def _coords(model, rows, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for node_id in model.free_ids:
        node = model.nodes[node_id]
        shape = (() if rows is None else (rows,)) + (node.dim,)
        if node.factor.family == "uniform_aux":
            parts.append(rng.uniform(0.05, 0.95, shape))
        elif node.factor.family in ("exponential", "lognormal"):
            parts.append(rng.uniform(0.2, 2.0, shape))
        else:
            parts.append(0.8 * rng.standard_normal(shape))
    return np.concatenate(parts, axis=-1)


def _cases():
    rng = np.random.default_rng(17)
    dbn, dbn_theta = build_dbn_model(10, 2, 3, 0.3, rng)
    mlp = build_generative_mlp(dims=(2, 3, 4), obs_dim=5)
    small = two_layer_model((2, 3), 4)
    mixed = graph.build_model({"nodes": [
        {"id": "r", "dim": 1, "family": "exponential", "link": {"bias": 2.0}},
        {"id": "y", "dim": 1, "family": "lognormal", "parents": ["r"],
         "link": {"weights": {"r": [[0.5]]}}, "scale": 0.7},
        {"id": "s", "dim": 1, "family": "gaussian", "parents": ["y"],
         "link": {"weights": {"y": [[0.3]]}}, "scale": 1.2},
        {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
         "parents": ["s"], "link": {"weights": {"s": "identity"}},
         "scale": 1.0},
    ]})
    return {
        "dbn": (dbn, dbn_theta),
        "lds": (build_lds_model(0.5, 0.2), np.zeros(0)),
        "mlp": (mlp, 0.5 * rng.standard_normal(mlp.layout.size)),
        "two-layer": (small, 0.5 * rng.standard_normal(small.layout.size)),
        "mixed": (mixed, np.zeros(0)),
    }


CASES = _cases()


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("system", ["cp", "dncp"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_latent_posterior_matches_numpy_log_joint(name, system, rows):
    cp_model, theta = CASES[name]
    planned = ()
    if system == "dncp":
        planned = tuple(i for i in cp_model.topo_order
                        if cp_model.nodes[i].kind == graph.LATENT)
    data = _data(cp_model, theta, 4)
    model = cp_model if not planned else reparam.apply_plan(
        cp_model, reparam.full_dncp_plan(cp_model))
    q = _coords(model, rows, 8)
    _assert_model_matches(cp_model, planned, theta, data, q)


def test_partial_plan_with_custom_links_matches_numpy():
    cp_model, theta = CASES["dbn"]
    planned = ("z2", "z5", "z6")
    plan = reparam.full_dncp_plan(cp_model)
    model = reparam.apply_plan(cp_model, {i: plan[i] for i in planned})
    assert any(isinstance(n.factor.link, CustomLink) for n in model.nodes.values())
    assert all(isinstance(cp_model.nodes[i].factor.link, AffineLink)
               for i in cp_model.topo_order)
    data = _data(cp_model, theta, 2)
    q = _coords(model, 3, 6)
    _assert_model_matches(cp_model, planned, theta, data, q)


def test_models_differing_in_constants_compile_once(monkeypatch):
    """Programs of equal source share one code object; each still runs on
    its own root's constants."""
    data = {"x1": np.array([0.3]), "x2": np.array([-0.4])}
    q = np.random.default_rng(5).standard_normal((3, 2))

    def value_and_grad(sigma_z):
        model = build_lds_model(1.0, sigma_z)
        return LatentPosterior(model, np.zeros(0), data).value_and_grad(q)

    alone = {}
    for sigma_z in (0.5, 2.0):
        monkeypatch.setattr(ad, "_CODE", {})
        alone[sigma_z] = value_and_grad(sigma_z)
    monkeypatch.setattr(ad, "_CODE", {})
    calls = []

    def counting_compile(*args):
        calls.append(args)
        return compile(*args)

    monkeypatch.setattr(ad, "compile", counting_compile, raising=False)
    shared = {sigma_z: value_and_grad(sigma_z) for sigma_z in (0.5, 2.0)}
    assert len(calls) == 1
    assert not np.array_equal(shared[0.5][0], shared[2.0][0])
    for sigma_z, (value, grad) in shared.items():
        np.testing.assert_array_equal(value, alone[sigma_z][0])
        np.testing.assert_array_equal(grad, alone[sigma_z][1])


def test_each_program_source_has_a_file_name_of_its_own():
    """Profiles and tracebacks tell programs apart, and show their lines."""
    z = ad.inp("z")
    names = []
    for root in (ad.total(ad.tanh(z)), ad.total(ad.exp(z))):
        ad.evaluate_with_gradient(root, {"z": np.ones(3)})
        (program,) = root._programs.functions.values()
        names.append(program.__code__.co_filename)
    assert names[0] != names[1]
    for name in names:
        assert linecache.getline(name, 1).startswith("def program")
