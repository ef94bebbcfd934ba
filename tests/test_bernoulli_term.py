"""The Bernoulli term's softplus and sigmoid, taken from one ``exp(-|a|)``.

The generated programs write ``x*a - softplus(a)`` with the softplus
``max(a, 0) + log1p(e)`` and the adjoint's sigmoid ``where(a < 0, e, 1) /
(1 + e)``, ``e = exp(-|a|)``, one exponential per term in forward and
gradient programs alike.  Against ``np.logaddexp(0, a)`` and
``expit(a)`` both lie within 4 ULP.  Below ``a = -708`` ``expit`` flushes
its subnormal results to zero where the new sigmoid keeps them, so there
the bound is an absolute difference below the smallest normal double.
A batch gives every row the bits of that row run alone, and a program
with a Bernoulli node calls neither ``logaddexp`` nor ``expit``.
"""

import linecache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ncbayes import autodiff as ad
from ncbayes.graph import LatentPosterior, log_joint, unpack_coords
from test_packed_posterior import case, free_values, observed_values, two_layer

ULP = 4
TINY = 2.3e-308  # just above the smallest normal double, 2.225e-308
FLUSH = -708.0   # expit returns 0 or a subnormal below about this logit

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
           -2.2250738585072014e-308, 1e-17, -1e-17, 36.0, -36.0, 37.5, -37.5,
           708.0, -708.0, 708.4, -708.4, 709.8, -709.8, 745.0, -745.0, 746.0,
           -746.0, 1e308, -1e308, np.inf, -np.inf, np.nan]


def _ordered(x):
    """Doubles as integers in the order of their values (-0.0 == 0.0)."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64).astype(object)
    return np.where(bits < 0, -(bits + 2**63), bits)


def _ulps(got, want):
    """ULP distance per element; 0 where both are NaN, and unbounded
    where only one is."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(got) | np.isnan(want)
    dist = np.abs(_ordered(np.where(nan, 0.0, got))
                  - _ordered(np.where(nan, 0.0, want)))
    dist[nan & (np.isnan(got) != np.isnan(want))] = 2**64
    return dist


def _term(a):
    """The tape's softplus and sigmoid of the 1-D logits ``a``: with
    ``x = 0`` the term is ``-softplus(a)`` and its adjoint ``-sigmoid(a)``
    (one logit per row, so the sum over the last axis is the element)."""
    a = np.asarray(a, dtype=np.float64)
    root = ad.bernoulli_log_pmf(ad.inp("x"), ad.inp("a"))
    bindings = {"x": np.zeros((a.size, 1)), "a": a.reshape(-1, 1)}
    with np.errstate(over="ignore", invalid="ignore"):
        record = ad.evaluate_with_gradient(root, bindings,
                                           seed_adjoint=np.ones(a.size))
        value = ad.evaluate(root, bindings)
    np.testing.assert_array_equal(value, record.value)
    return -record.value, -record.grads["a"][:, 0]


def assert_close_to_numpy(a):
    a = np.asarray(a, dtype=np.float64)
    softplus, sigmoid = _term(a)
    with np.errstate(invalid="ignore"):
        want_softplus = 0.0 * a - np.logaddexp(0.0, a)  # NaN at ±inf, as before
    assert max(_ulps(-softplus, want_softplus), default=0) <= ULP
    want = expit(a)
    low = a < FLUSH
    assert max(_ulps(sigmoid[~low], want[~low]), default=0) <= ULP
    assert np.all(np.abs(sigmoid[low] - want[low]) <= TINY)
    assert np.all(sigmoid[low] >= 0.0)


def test_special_values():
    assert_close_to_numpy(SPECIAL)
    softplus, sigmoid = _term([-np.inf, np.inf, -1e308, 1e308])
    np.testing.assert_array_equal(sigmoid, [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_array_equal(softplus[2:], [0.0, 1e308])


def test_the_flushed_range_keeps_subnormals():
    a = -np.linspace(706.0, 746.0, 4001)
    assert_close_to_numpy(a)
    _, sigmoid = _term(a)
    flushed = expit(a) == 0.0
    assert flushed.any() and np.all(np.diff(sigmoid) <= 0.0)


@pytest.mark.parametrize("scale", [1.0, 5.0, 40.0, 300.0])
def test_normal_draws(scale):
    assert_close_to_numpy(
        scale * np.random.default_rng(int(scale)).standard_normal(200_000))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=64))
def test_any_double(values):
    assert_close_to_numpy(values)


# -- rows: a batch gives each row the bits of that row alone -----------------

@pytest.mark.parametrize("rows", [1, 3, 7, 9, 17, 33])
@pytest.mark.parametrize("strided", [False, True])
def test_each_row_has_the_bits_of_that_row_alone(rows, strided):
    rng = np.random.default_rng(rows)
    x = (rng.random((rows, 10, 5)) < 0.5).astype(np.float64)
    wide = 8.0 * rng.standard_normal((rows, 10, 10))
    wide[0, 0, :4] = [-745.0, -709.8, 709.8, 0.0]
    a = wide[..., ::2] if strided else np.ascontiguousarray(wide[..., ::2])
    assert a.flags.c_contiguous != strided
    root = ad.bernoulli_log_pmf(ad.inp("x"), ad.inp("a"))
    seed = rng.standard_normal((rows, 10))
    batch = ad.evaluate_with_gradient(root, {"x": x, "a": a},
                                      seed_adjoint=seed)
    for r in range(rows):
        alone = ad.evaluate_with_gradient(root, {"x": x[r], "a": a[r]},
                                          seed_adjoint=seed[r])
        np.testing.assert_array_equal(batch.value[r], alone.value)
        for name in ("x", "a"):
            np.testing.assert_array_equal(batch.grads[name][r],
                                          alone.grads[name])


# -- generated source ----------------------------------------------------------

@pytest.mark.parametrize("model", ["dbn-cp", "dbn-dncp", "mlp"])
def test_programs_take_one_exp_per_term(model):
    """The posterior's bound gradient program and the forward-only
    program of ``log_joint``."""
    rng = np.random.default_rng(2)
    m, theta = two_layer() if model == "mlp" else case(*model.split("-"))
    data = observed_values(m, rng, 4)
    q = free_values(m, rng, 4)
    post = LatentPosterior(m, theta, data)
    post.value_and_grad(q)
    log_joint(m, theta, {**data, **unpack_coords(m, q)})
    root = post.compiled.root
    terms = sum(node.op == "bernoulliLogPmf"
                for node in ad._topological_order(root))
    programs = list(root._programs.functions.values())
    assert terms >= 1 and len(programs) == 2
    for program in programs:
        source = "".join(linecache.getlines(program.__code__.co_filename))
        assert source.startswith("def program")
        assert "logaddexp" not in source and "expit" not in source
        assert source.count("np.exp(") == terms
        assert source.count("np.exp(-np.abs(") == terms
