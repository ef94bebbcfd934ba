"""Bound programs against the unbound programs they stand in for.

A bound program holds its fixed inputs (observed values, θ), converted
once per evaluator, and is written for a seed of ones.  Run on the same
packed values it must give the unbound program's value and flat gradient
bit for bit, with the same sign bits, at every batch shape and for rows
that are out of support or not finite.  Binding is cached: a second call
or a second evaluator of one model and shape generates and compiles
nothing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncbayes import autodiff as ad
from ncbayes.graph import LatentPosterior
from ncbayes.modelzoo import build_dbn_model
from test_packed_posterior import case, free_values, observed_values, two_layer

MODELS = {
    "dbn-cp": lambda: case("dbn", "cp"),
    "dbn-dncp": lambda: case("dbn", "dncp"),
    "lds-cp": lambda: case("lds", "cp"),
    "lds-dncp": lambda: case("lds", "dncp"),
    "mlp-estep": two_layer,
}
ROWS = (None, 1, 3, 16, 32, 400)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def assert_bound_matches(post, q, seed):
    """The bound and the unbound program of ``post`` at ``q``, raw."""
    root, bindings = post.compiled.root, post._bindings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        want = ad.evaluate_with_gradient(root, bindings, seed_adjoint=seed,
                                         wrt=frozenset(),
                                         packed=(post._layout, q))
        bound = ad.bind(root, bindings, (post._layout, q), seed)
        got = ad.evaluate_with_gradient(bound, None, seed_adjoint=bound.seed,
                                        packed=q)
    assert_same_bits(got.value, want.value)
    assert_same_bits(got.packed, want.packed)
    assert got.grads == want.grads == {}


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.sampled_from(ROWS),
       bad=st.sets(st.integers(0, 399), max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_bound_program_equals_unbound(name, rows, bad, seed):
    model, theta = MODELS[name]()
    rng = np.random.default_rng(seed)
    per_row = name == "mlp-estep"  # one datapoint per row, as the E-step
    n = rows or 5
    post = LatentPosterior(model, theta,
                           observed_values(model, rng, n if per_row else None))
    q = free_values(model, rng, rows, huge_rows=[r for r in bad if r < n]
                    if rows else sorted(bad)[:1])
    for k, r in enumerate(sorted(bad)):
        if rows and r < n and k:
            q[r, r % q.shape[1]] = (np.nan, -np.inf)[k % 2]
    outer = q.shape[0] if q.ndim == 2 else post.rows
    assert_bound_matches(post, q, None if outer is None else np.ones(outer))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_evaluator_calls_keep_their_bits(name):
    """``value_and_grad`` (bound) against the same evaluator's values
    through the unbound program, masking included."""
    model, theta = MODELS[name]()
    rng = np.random.default_rng(11)
    post = LatentPosterior(model, theta, observed_values(
        model, rng, 16 if name == "mlp-estep" else None))
    q = free_values(model, rng, 16, huge_rows=[3])
    q[5, 0] = np.nan
    value, grad = post.value_and_grad(q)
    with np.errstate(over="ignore", invalid="ignore"):
        want = ad.evaluate_with_gradient(
            post.compiled.root, post._bindings, seed_adjoint=np.ones(16),
            wrt=frozenset(), packed=(post._layout, q))
    keep = np.isfinite(want.value)
    assert not keep[3] and not keep[5] and keep.sum() == 14
    assert_same_bits(value, np.where(keep, want.value, -np.inf))
    assert_same_bits(grad, np.where(np.isfinite(want.packed), want.packed,
                                    0.0) * keep[:, None])


@pytest.mark.parametrize("seed", [np.linspace(0.5, 2.0, 8), np.full(8, 2.0),
                                  np.r_[np.ones(7), 0.0]])
def test_bind_takes_only_a_seed_of_ones(seed):
    model, theta = case("dbn", "dncp")
    rng = np.random.default_rng(2)
    post = LatentPosterior(model, theta, observed_values(model, rng, None))
    q = free_values(model, rng, 8)
    with pytest.raises(ValueError):
        ad.bind(post.compiled.root, post._bindings, (post._layout, q), seed)


def test_bound_call_takes_only_its_own_seed():
    model, theta = case("dbn", "cp")
    rng = np.random.default_rng(3)
    post = LatentPosterior(model, theta, observed_values(model, rng, None))
    q = free_values(model, rng, 4)
    bound = ad.bind(post.compiled.root, post._bindings, (post._layout, q),
                    np.ones(4))
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(bound, None, seed_adjoint=np.ones(4),
                                  packed=q)
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(bound, None, seed_adjoint=bound.seed,
                                  packed=q[:3])
    with pytest.raises(ValueError):
        ad.bind(post.compiled.root, post._bindings, (post._layout, q),
                np.ones(5))
    with pytest.raises(ValueError):
        ad.bind(post.compiled.root, post._bindings, (post._layout, q),
                lambda value: np.ones(4))


def _dbn(sigma_z):
    return build_dbn_model(10, 2, 5, sigma_z, np.random.default_rng(4))


def test_second_call_generates_nothing(monkeypatch):
    model, theta = _dbn(0.4)
    rng = np.random.default_rng(5)
    post = LatentPosterior(model, theta, observed_values(model, rng, None))
    q = free_values(model, rng, 32)
    first = post.value_and_grad(q)
    calls = []
    generate = ad._generate
    monkeypatch.setattr(ad, "_generate",
                        lambda *a, **k: calls.append(a) or generate(*a, **k))
    again = post.value_and_grad(q.copy())
    assert calls == []
    assert_same_bits(again[0], first[0])
    assert_same_bits(again[1], first[1])


def test_second_evaluator_compiles_no_code(monkeypatch):
    """A new evaluator of one model and shape (an EM round's new θ) only
    converts its arguments for the cached program."""
    model, theta = _dbn(0.6)
    rng = np.random.default_rng(6)
    data = observed_values(model, rng, None)
    q = free_values(model, rng, 16)
    LatentPosterior(model, theta, data).value_and_grad(q)
    calls = []
    generate = ad._generate
    monkeypatch.setattr(ad, "_generate",
                        lambda *a, **k: calls.append(a) or generate(*a, **k))
    monkeypatch.setattr(ad, "compile", lambda *a: calls.append(a) or
                        compile(*a), raising=False)
    post = LatentPosterior(model, 0.5 * theta, data)
    value, grad = post.value_and_grad(q)
    assert calls == []
    fresh, _ = _dbn(0.6)  # a root of its own, generated anew
    want = LatentPosterior(fresh, 0.5 * theta, data).value_and_grad(q)
    assert_same_bits(value, want[0])
    assert_same_bits(grad, want[1])


def _three_adds():
    """Each input takes three contributions: from the stacked prior, from
    a second stack through ``tanh`` and, last, from its scaled copy; the
    scaled copies form one run."""
    eps = [ad.inp(n) for n in ("e1", "e2", "e3")]
    mapped = ad.stack(*(ad.mul(c, e) for c, e in zip(
        (0.3, np.array([1.7, -0.2]), 2.5), eps)))
    return ad.add(
        ad.total(ad.gaussian_log_pdf(ad.stack(*eps), 0.0, 1.0)),
        ad.total(ad.total(ad.tanh(ad.stack(*eps)) * 1.3)),
        ad.total(ad.gaussian_log_pdf(mapped, 0.1, 0.7))), True


def _reader_between():
    """A chain of scaled inputs, as a non-centered chain, with ``tanh(e1)``
    read between the members: its add to e1 falls between theirs, so the
    scaled inputs form no run."""
    e1, e2, e3 = eps = [ad.inp(n) for n in ("e1", "e2", "e3")]
    x1 = ad.mul(0.3, e1)
    x2 = ad.add(ad.tanh(x1), ad.mul(np.array([1.7, -0.2]), e2),
                ad.mul(0.4, ad.tanh(e1)))
    x3 = ad.add(ad.tanh(x2), ad.mul(2.5, e3))
    return ad.add(
        ad.total(ad.gaussian_log_pdf(ad.stack(*eps), 0.0, 1.0)),
        ad.total(ad.gaussian_log_pdf(ad.stack(x1, x2, x3), 0.1, 0.7))), False


@pytest.mark.parametrize("build", [_three_adds, _reader_between])
def test_fused_scales_keep_the_order_of_adds(build):
    """The dict program sums each input's contributions in the unpacked
    order; the packed gradient, bound or not, must equal it bit for bit,
    which a fused add moved ahead of (or past) another cannot."""
    root, fused = build()
    names = ("e1", "e2", "e3")
    layout = tuple((n, (2,)) for n in names)
    rng = np.random.default_rng(8)
    for rows in (1, 7, 64):
        q = 3.0 * rng.standard_normal((rows, 6))
        blocks = {n: q[:, 2 * k:2 * k + 2] for k, n in enumerate(names)}
        want = ad.evaluate_with_gradient(root, blocks,
                                         seed_adjoint=np.ones(rows))
        flat = np.concatenate([want.grads[n] for n in names], axis=-1)
        unbound = ad.evaluate_with_gradient(root, {},
                                            seed_adjoint=np.ones(rows),
                                            packed=(layout, q))
        bound = ad.bind(root, {}, (layout, q), np.ones(rows))
        got = ad.evaluate_with_gradient(bound, None, seed_adjoint=bound.seed,
                                        packed=q)
        for record in (unbound, got):
            assert_same_bits(record.value, want.value)
            assert_same_bits(record.packed, flat)
    assert fused == any(name.startswith("k_")
                        for fn in root._programs.functions.values()
                        for name in fn.__code__.co_names)


def test_scalar_terms_keep_their_adjoint_shape():
    """A unit seed drops out of a product only where the partial already
    has the product's shape; scalar terms keep their spread adjoint."""
    z, w = ad.inp("z"), ad.inp("w")
    root = (ad.gaussian_log_pdf(z, 0.5, 2.0)
            + ad.total(ad.gaussian_log_pdf(w, z, 0.7)))
    layout = (("z", ()), ("w", (3,)))
    q = np.array([0.3, -1.0, 0.2, 2.0])
    want = ad.evaluate_with_gradient(root, {}, packed=(layout, q))
    bound = ad.bind(root, {}, (layout, q))
    got = ad.evaluate_with_gradient(bound, None, seed_adjoint=bound.seed,
                                    packed=q)
    assert_same_bits(got.value, want.value)
    assert_same_bits(got.packed, want.packed)
