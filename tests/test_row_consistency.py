"""Row i of a batched evaluation equals the single-row evaluation of row i.

Covers every family, in the model's own coordinates and after a full
non-centered rewrite, with batches that mix in-support rows and finite
out-of-support rows.  Out-of-support rows give ``-inf`` with zero gradient
and leave the other rows untouched.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncbayes import graph
from ncbayes.errors import DomainError, NcbayesError, ShapeError
from ncbayes.graph import LatentPosterior, pack_coords, unpack_coords
from ncbayes.learning import marginal_log_likelihood
from ncbayes.reparam import apply_plan, eps_from_z, full_dncp_plan, z_from_eps

RTOL = 1e-12
ATOL = 1e-12

SPEC = {"nodes": [
    {"id": "e", "dim": 2, "family": "exponential", "link": {"bias": 1.5}},
    {"id": "l", "dim": 1, "family": "lognormal", "parents": ["e"],
     "link": {"weights": {"e": "param"}}, "scale": 0.7},
    {"id": "g", "dim": 2, "family": "gaussian", "parents": ["l"],
     "link": {"weights": {"l": "param"}, "bias": "param"}, "scale": 0.8},
    {"id": "x", "kind": "observed", "dim": 3, "family": "gaussian",
     "parents": ["g", "e"], "link": {"weights": {"g": "param", "e": "param"}},
     "scale": 1.1},
    {"id": "k", "kind": "observed", "dim": 2, "family": "bernoulli",
     "parents": ["g"], "link": {"weights": {"g": "param"}}},
]}

CP = graph.build_model(SPEC)
DNCP = apply_plan(CP, full_dncp_plan(CP))
THETA = 0.5 * np.random.default_rng(3).standard_normal(CP.layout.size)
SHARED = {"x": np.array([0.4, -1.1, 0.9]), "k": np.array([1.0, 0.0])}

GOOD = {
    "gaussian": st.floats(-3.0, 3.0),
    "std_normal_aux": st.floats(-3.0, 3.0),
    "exponential": st.floats(0.0, 5.0),
    "lognormal": st.floats(0.05, 5.0),
    "uniform_aux": st.floats(0.01, 0.99),
}
BAD = {
    "exponential": st.floats(-5.0, -1e-3),
    "lognormal": st.floats(-5.0, 0.0),
    "uniform_aux": st.one_of(st.floats(-2.0, 0.0), st.floats(1.0, 3.0)),
}


def test_models_cover_every_family():
    families = {n.factor.family for m in (CP, DNCP) for n in m.nodes.values()
                if n.kind != "deterministic"}
    assert families == {"exponential", "lognormal", "gaussian", "bernoulli",
                        "std_normal_aux", "uniform_aux"}


@st.composite
def coordinate_rows(draw, model, min_rows=1, max_rows=5, rows=None):
    """A (rows, dim) batch; each supported coordinate may be out of support."""
    if rows is None:
        rows = draw(st.integers(min_rows, max_rows))
    out = []
    for _ in range(rows):
        row = []
        for node_id in model.free_ids:
            family = model.nodes[node_id].factor.family
            value = GOOD[family]
            if family in BAD:
                value = st.one_of(value, BAD[family])
            row.extend(draw(value) for _ in range(model.nodes[node_id].dim))
        out.append(row)
    return np.array(out, dtype=np.float64)


def per_row_data(draw, rows):
    x = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=3 * rows,
                               max_size=3 * rows))).reshape(rows, 3)
    k = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                               min_size=2 * rows, max_size=2 * rows)))
    return {"x": x, "k": k.reshape(rows, 2)}


def assert_row_matches(value, grad, ref_value, ref_grad):
    if ref_value == -np.inf:
        assert value == -np.inf
        assert np.array_equal(grad, np.zeros_like(grad))
    else:
        assert np.isfinite(value)
        np.testing.assert_allclose(value, ref_value, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=ATOL)


def flat(model, grads):
    return pack_coords(model, grads)


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("model", [CP, DNCP], ids=["cp", "dncp"])
class TestSharedData:
    @PROPERTY
    @given(data=st.data())
    def test_log_joint_rows(self, model, data):
        q = data.draw(coordinate_rows(model))
        batch = graph.log_joint(model, THETA,
                                {**unpack_coords(model, q), **SHARED})
        for i, row in enumerate(q):
            one = graph.log_joint(model, THETA,
                                  {**unpack_coords(model, row), **SHARED})
            if one == -np.inf:
                assert batch[i] == -np.inf
            else:
                assert batch[i] == pytest.approx(one, rel=RTOL)

    @PROPERTY
    @given(data=st.data())
    def test_grad_log_joint_latents_rows(self, model, data):
        q = data.draw(coordinate_rows(model))
        value, grads = graph.grad_log_joint_latents(
            model, THETA, {**unpack_coords(model, q), **SHARED})
        grad = flat(model, grads)
        for i, row in enumerate(q):
            v, g = graph.grad_log_joint_latents(
                model, THETA, {**unpack_coords(model, row), **SHARED})
            assert_row_matches(value[i], grad[i], v, flat(model, g))

    @PROPERTY
    @given(data=st.data())
    def test_evaluator_rows(self, model, data):
        q = data.draw(coordinate_rows(model))
        target = LatentPosterior(model, THETA, SHARED)
        value, grad = target.value_and_grad(q)
        for i, row in enumerate(q):
            v, g = target.value_and_grad(row)
            assert_row_matches(value[i], grad[i], v, g)


@pytest.mark.parametrize("model", [CP, DNCP], ids=["cp", "dncp"])
class TestPerRowData:
    @PROPERTY
    @given(data=st.data())
    def test_rows_match_single_datapoint_evaluators(self, model, data):
        rows = data.draw(st.integers(1, 5))
        q = data.draw(coordinate_rows(model, rows=rows))
        obs = per_row_data(data.draw, rows)
        value, grad = LatentPosterior(model, THETA, obs).value_and_grad(q)
        assert value.shape == (rows,)
        for i in range(rows):
            one = LatentPosterior(model, THETA,
                                  {k: v[i] for k, v in obs.items()})
            v, g = one.value_and_grad(q[i])
            assert_row_matches(value[i], grad[i], v, g)

    @PROPERTY
    @given(data=st.data())
    def test_single_point_against_per_row_data(self, model, data):
        # one value per datapoint, gradient summed over the datapoints
        rows = data.draw(st.integers(1, 5))
        q = data.draw(coordinate_rows(model, rows=1))[0]
        obs = per_row_data(data.draw, rows)
        value, grad = LatentPosterior(model, THETA, obs).value_and_grad(q)
        singles = [
            LatentPosterior(model, THETA, {k: v[i] for k, v in obs.items()})
            .value_and_grad(q) for i in range(rows)
        ]
        if singles[0][0] == -np.inf:
            assert value == -np.inf
            assert np.array_equal(grad, np.zeros(q.size))
            return
        assert value.shape == (rows,)
        np.testing.assert_allclose(value, [v for v, _ in singles],
                                   rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(grad, np.sum([g for _, g in singles], 0),
                                   rtol=RTOL, atol=ATOL)
        # grad_log_joint_latents keeps the same result
        v2, g2 = graph.grad_log_joint_latents(
            model, THETA, {**unpack_coords(model, q), **obs})
        np.testing.assert_allclose(v2, value, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(flat(model, g2), grad, rtol=RTOL,
                                   atol=ATOL)

    def test_batch_must_have_one_row_per_datapoint(self, model):
        obs = {"x": np.zeros((3, 3)), "k": np.zeros((3, 2))}
        target = LatentPosterior(model, THETA, obs)
        q = np.full((2, target.dim), 0.5)
        with pytest.raises(ShapeError):
            target.value_and_grad(q)
        with pytest.raises(ShapeError):
            LatentPosterior(model, THETA, {"x": np.zeros((3, 3)),
                                           "k": np.zeros((2, 2))})


def test_observed_out_of_support_raises_in_latent_gradient():
    model = graph.build_model({"nodes": [
        {"id": "z", "dim": 1, "family": "gaussian", "scale": 1.0},
        {"id": "r", "kind": "observed", "dim": 1, "family": "exponential",
         "link": {"bias": 2.0}},
    ]})
    point = {"z": np.array([0.3]), "r": np.array([-1.0])}
    assert graph.log_joint(model, np.zeros(0), point) == -np.inf
    with pytest.raises(DomainError):
        graph.grad_log_joint_latents(model, np.zeros(0), point)


def test_latent_gradient_without_free_nodes_and_with_mixed_shapes():
    model = graph.build_model({"nodes": [
        {"id": "x", "kind": "observed", "dim": 1, "family": "gaussian",
         "scale": 1.0},
    ]})
    value, grads = graph.grad_log_joint_latents(model, np.zeros(0),
                                                {"x": np.array([0.2])})
    assert value == pytest.approx(-0.5 * 0.04 - 0.5 * np.log(2 * np.pi))
    assert grads == {}
    with pytest.raises(ShapeError):
        graph.grad_log_joint_latents(
            CP, THETA, {**unpack_coords(CP, np.full((3, 5), 0.5)),
                        "l": np.array([0.5]), **SHARED})


class TestOneRule:
    """Posterior data, learner datasets and full assignments take their
    values by one rule (``graph._node_values``)."""

    def test_deterministic_values(self):
        eps = unpack_coords(DNCP, np.full(5, 0.5))
        g = {"g": np.zeros(2)}
        assert DNCP.nodes["g"].kind == "deterministic"
        # a full assignment drops them: the joint recomputes them
        assert graph.log_joint(DNCP, THETA, {**eps, **SHARED, **g}) == \
            graph.log_joint(DNCP, THETA, {**eps, **SHARED})
        # data and datasets take observed values only
        with pytest.raises(ShapeError, match="'g'"):
            LatentPosterior(DNCP, THETA, {**SHARED, **g})
        with pytest.raises(ShapeError, match="'g'"):
            marginal_log_likelihood(DNCP, THETA, {**SHARED, **g}, 2, 0)

    @PROPERTY
    @given(data=st.data())
    def test_any_values_return_or_raise_a_package_error(self, data):
        model = data.draw(st.sampled_from([CP, DNCP]))
        everything = data.draw(value_dicts(model, model.topo_order))
        observed = data.draw(value_dicts(model, model.observed_ids))
        calls = [
            lambda: graph.log_joint(model, THETA, everything),
            lambda: graph.grad_log_joint_params(model, THETA, everything),
            lambda: graph.grad_log_joint_latents(model, THETA, everything),
            lambda: LatentPosterior(model, THETA, observed).value_and_grad(
                np.full(model.free_dim(), 0.5)),
            lambda: marginal_log_likelihood(model, THETA, observed, 2, 0),
        ]
        for call in calls:
            try:
                with np.errstate(all="ignore"):
                    call()
            except NcbayesError:
                pass


FAULTS = ("none", "missing", "extra", "axes", "dim", "rows")


@st.composite
def value_dicts(draw, model, ids):
    """Values for ``ids`` (scalars of length-1 nodes, vectors and row
    matrices) with at most one fault: a missing key, a key for another
    node or for none, a value of 3 axes or of the wrong trailing length,
    or row matrices that disagree on the number of rows."""
    rows = draw(st.integers(0, 3))
    out = {}
    for key in ids:
        dim = model.nodes[key].dim
        shape = draw(st.sampled_from(
            [(dim,), (rows, dim)] + ([()] if dim == 1 else [])))
        out[key] = np.full(shape, draw(st.sampled_from([0.0, 0.5, 1.0])))
    fault = draw(st.sampled_from(FAULTS))
    key, other = draw(st.permutations(ids))[:2]
    dim = model.nodes[key].dim
    if fault == "missing":
        del out[key]
    elif fault == "extra":
        out[draw(st.sampled_from(
            [i for i in model.topo_order if i not in ids] + ["nope"]))] = \
            np.full(2, 0.5)
    elif fault == "axes":
        out[key] = np.full((1, rows, dim), 0.5)
    elif fault == "dim":
        out[key] = np.full(draw(st.sampled_from(
            [(dim + 1,), (rows, dim - 1)])), 0.5)
    elif fault == "rows":
        out[key] = np.full((rows + 1, dim), 0.5)
        out[other] = np.full((rows, model.nodes[other].dim), 0.5)
    return out


@functools.lru_cache(maxsize=None)
def chain(families):
    """A chain of 2-dim latent nodes with the given families; exponential
    rates pass through a sigmoid, so they stay positive."""
    nodes = []
    for k, family in enumerate(families):
        link = {"activation": "sigmoid" if family == "exponential" else "tanh",
                "bias": "param"}
        node = {"id": f"n{k}", "dim": 2, "family": family, "link": link}
        if k:
            node["parents"] = [f"n{k - 1}"]
            link["weights"] = {f"n{k - 1}": "param"}
        if family != "exponential":
            node["scale"] = 0.6
        nodes.append(node)
    model = graph.build_model({"nodes": nodes})
    theta = 0.5 * np.random.default_rng(5).standard_normal(model.layout.size)
    return model, theta


@st.composite
def translation_cases(draw):
    """A Gaussian/log-normal/exponential chain, a full or partial plan, and
    the (key, family) of each value the translation's caller supplies in
    each coordinate system."""
    families = tuple(draw(st.sampled_from(["gaussian", "lognormal",
                                           "exponential"]))
                     for _ in range(draw(st.integers(1, 3))))
    model, theta = chain(families)
    planned = draw(st.sets(st.sampled_from(model.free_ids), min_size=1))
    plan = {i: t for i, t in full_dncp_plan(model).items() if i in planned}
    z_keys = [(i, model.nodes[i].factor.family) for i in model.free_ids]
    eps_keys = [(plan[i].aux_id, plan[i].aux_family) if i in plan else key
                for i, key in zip(model.free_ids, z_keys)]
    return model, theta, plan, z_keys, eps_keys


def row_batch(draw, keys, rows):
    return {key: np.array([[draw(GOOD[family]) for _ in range(2)]
                           for _ in range(rows)])
            for key, family in keys}


class TestTranslations:
    """Row i of a batched translation equals the translation of row i."""

    @PROPERTY
    @given(data=st.data())
    def test_z_from_eps_rows(self, data):
        model, theta, plan, _, eps_keys = data.draw(translation_cases())
        rows = data.draw(st.integers(1, 5))
        eps = row_batch(data.draw, eps_keys, rows)
        batch = z_from_eps(model, plan, eps, theta)
        for i in range(rows):
            one = z_from_eps(model, plan, {k: v[i] for k, v in eps.items()},
                             theta)
            assert set(one) == set(batch)
            for key, value in one.items():
                np.testing.assert_allclose(batch[key][i], value, rtol=RTOL,
                                           atol=ATOL)

    @PROPERTY
    @given(data=st.data())
    def test_eps_from_z_rows(self, data):
        model, theta, plan, z_keys, _ = data.draw(translation_cases())
        rows = data.draw(st.integers(1, 5))
        zs = row_batch(data.draw, z_keys, rows)
        batch = eps_from_z(model, plan, zs, theta)
        for i in range(rows):
            one = eps_from_z(model, plan, {k: v[i] for k, v in zs.items()},
                             theta)
            assert set(one) == set(batch)
            for key, value in one.items():
                np.testing.assert_allclose(batch[key][i], value, rtol=RTOL,
                                           atol=ATOL)
