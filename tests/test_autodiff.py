"""Differentiation engine: op values, adjoints, and finite-difference checks."""

import numpy as np
import pytest

from ncbayes import autodiff as ad
from ncbayes.errors import UnboundInput


def finite_difference_check(root: ad.Expr, bindings: dict, step: float = 1e-5) -> float:
    """Largest relative disagreement between adjoints and central differences.

    Every coordinate of every bound input is perturbed by ``±step``.  The
    relative error uses a unit floor in the denominator so that near-zero
    gradients are compared absolutely.
    """
    record = ad.evaluate_with_gradient(root, bindings)
    if np.ndim(record.value) != 0 and not np.isscalar(record.value):
        raise ValueError("finite_difference_check needs a scalar expression")
    worst = 0.0
    for name, grad in record.grads.items():
        base = np.array(bindings[name], dtype=np.float64)
        flat = base.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            perturbed = dict(bindings)
            work = base.copy().reshape(-1)
            work[k] = saved + step
            perturbed[name] = work.reshape(base.shape)
            hi = ad.evaluate(root, perturbed)
            work = base.copy().reshape(-1)
            work[k] = saved - step
            perturbed[name] = work.reshape(base.shape)
            lo = ad.evaluate(root, perturbed)
            fd = (hi - lo) / (2.0 * step)
            adj = gflat[k]
            err = abs(adj - fd) / max(1.0, abs(adj), abs(fd))
            worst = max(worst, err)
    return worst


def test_gaussian_log_pdf_values():
    x = ad.inp("x")
    expr = ad.gaussian_log_pdf(x, ad.constant([0.0]), ad.constant(1.0))
    assert ad.evaluate(expr, {"x": np.array([0.0])}) == pytest.approx(
        -0.9189385332046727, abs=1e-15
    )
    assert ad.evaluate(expr, {"x": np.array([1.0])}) == pytest.approx(
        -1.4189385332046727, abs=1e-15
    )


def test_gaussian_log_pdf_adjoints():
    # d/dmu = (x - mu)/sigma^2, d/dx = -(x - mu)/sigma^2,
    # d/dsigma = (x - mu)^2/sigma^3 - 1/sigma
    x, mu, s = ad.inp("x"), ad.inp("mu"), ad.inp("sigma")
    expr = ad.gaussian_log_pdf(x, mu, s)
    rec = ad.evaluate_with_gradient(
        expr, {"x": np.array([1.0]), "mu": np.array([0.0]), "sigma": np.array([2.0])}
    )
    np.testing.assert_allclose(rec.grads["mu"], [0.25], rtol=1e-14)
    np.testing.assert_allclose(rec.grads["x"], [-0.25], rtol=1e-14)
    np.testing.assert_allclose(rec.grads["sigma"], [1.0 / 8.0 - 0.5], rtol=1e-14)


def test_gaussian_scalar_scale_adjoint_sums_over_coordinates():
    x, s = ad.inp("x"), ad.inp("sigma")
    expr = ad.gaussian_log_pdf(x, ad.constant([0.0, 0.0, 0.0]), s)
    xv = np.array([1.0, -2.0, 0.5])
    rec = ad.evaluate_with_gradient(expr, {"x": xv, "sigma": np.array(1.5)})
    expected = np.sum(xv**2 / 1.5**3 - 1.0 / 1.5)
    np.testing.assert_allclose(rec.grads["sigma"], expected, rtol=1e-13)


def test_gaussian_scale_floor_clamps_value_and_gradient():
    x, s = ad.inp("x"), ad.inp("sigma")
    expr = ad.gaussian_log_pdf(x, ad.constant([0.0]), s)
    bindings = {"x": np.array([0.0]), "sigma": np.array([0.0])}
    floored = ad.evaluate(expr, bindings)
    assert np.isfinite(floored)
    assert floored == pytest.approx(-0.9189385332046727 - np.log(ad.SIGMA_FLOOR))
    rec = ad.evaluate_with_gradient(expr, bindings)
    np.testing.assert_allclose(rec.grads["sigma"], [0.0])


def test_bernoulli_log_pmf_value_and_gradient():
    x, a = ad.inp("x"), ad.inp("logits")
    expr = ad.bernoulli_log_pmf(x, a)
    rec = ad.evaluate_with_gradient(
        expr, {"x": np.array([1.0, 0.0]), "logits": np.array([0.0, 0.0])}
    )
    assert rec.value == pytest.approx(2.0 * np.log(0.5), abs=1e-15)
    # d/da = x - sigmoid(a)
    np.testing.assert_allclose(rec.grads["logits"], [0.5, -0.5], rtol=1e-14)


def test_bernoulli_log_pmf_extreme_logits_stay_finite():
    x, a = ad.inp("x"), ad.inp("logits")
    expr = ad.bernoulli_log_pmf(x, a)
    rec = ad.evaluate_with_gradient(
        expr, {"x": np.array([1.0, 0.0]), "logits": np.array([800.0, -800.0])}
    )
    assert np.isfinite(rec.value)
    assert rec.value == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(rec.grads["logits"]))


def test_elementwise_op_values():
    x = ad.inp("x")
    v = np.array([0.5, 2.0])
    np.testing.assert_allclose(ad.evaluate(ad.square(x), {"x": v}), v * v)
    np.testing.assert_allclose(ad.evaluate(ad.reciprocal(x), {"x": v}), 1.0 / v)
    np.testing.assert_allclose(ad.evaluate(ad.exp(ad.log(x)), {"x": v}), v, rtol=1e-15)
    assert ad.evaluate(ad.total(ad.tanh(x)), {"x": np.zeros(3)}) == 0.0


def test_tanh_and_sigmoid_unit_slopes():
    x = ad.inp("x")
    rec = ad.evaluate_with_gradient(ad.total(ad.tanh(x)), {"x": np.array([0.0])})
    np.testing.assert_allclose(rec.grads["x"], [1.0], rtol=1e-15)
    rec = ad.evaluate_with_gradient(ad.total(ad.sigmoid(x)), {"x": np.array([0.0])})
    np.testing.assert_allclose(rec.grads["x"], [0.25], rtol=1e-15)


def test_affine_gradients():
    w, x, b = ad.inp("w"), ad.inp("x"), ad.inp("b")
    expr = ad.total(ad.affine(w, x, b))
    wv = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    xv = np.array([0.5, -1.0])
    bv = np.array([0.1, 0.2, 0.3])
    rec = ad.evaluate_with_gradient(expr, {"w": wv, "x": xv, "b": bv})
    assert rec.value == pytest.approx(np.sum(wv @ xv + bv), rel=1e-14)
    np.testing.assert_allclose(rec.grads["x"], wv.T @ np.ones(3), rtol=1e-14)
    np.testing.assert_allclose(rec.grads["w"], np.outer(np.ones(3), xv), rtol=1e-14)
    np.testing.assert_allclose(rec.grads["b"], np.ones(3))


def test_linear_expression_finite_difference_is_exact():
    x = ad.inp("x")
    expr = ad.total(ad.add(ad.mul(ad.constant(3.0), x), ad.constant([1.0, -2.0])))
    err = finite_difference_check(expr, {"x": np.array([0.3, -0.7])})
    assert err < 1e-10


def test_smooth_composite_finite_difference():
    rng = np.random.default_rng(7)
    w, x, b, s = ad.inp("w"), ad.inp("x"), ad.inp("b"), ad.inp("s")
    hidden = ad.tanh(ad.affine(w, x, b))
    expr = ad.add(
        ad.gaussian_log_pdf(ad.inp("y"), hidden, s),
        ad.bernoulli_log_pmf(ad.inp("k"), ad.affine(w, ad.sigmoid(x), b)),
        ad.total(ad.log(ad.add(ad.square(x), ad.constant(1.5)))),
    )
    for _ in range(10):
        bindings = {
            "w": rng.standard_normal((3, 2)),
            "x": rng.standard_normal(2),
            "b": rng.standard_normal(3),
            "s": np.abs(rng.standard_normal(3)) + 0.5,
            "y": rng.standard_normal(3),
            "k": rng.integers(0, 2, size=3).astype(float),
        }
        assert finite_difference_check(expr, bindings, step=1e-5) < 1e-6


def test_gradient_of_sum_is_sum_of_gradients():
    rng = np.random.default_rng(11)
    x = ad.inp("x")
    f = ad.total(ad.square(x))
    g = ad.total(ad.mul(ad.constant(2.0), ad.tanh(x)))
    combined = ad.add(f, g)
    for _ in range(5):
        v = {"x": rng.standard_normal(4)}
        gf = ad.evaluate_with_gradient(f, v).grads["x"]
        gg = ad.evaluate_with_gradient(g, v).grads["x"]
        gc = ad.evaluate_with_gradient(combined, v).grads["x"]
        np.testing.assert_allclose(gc, gf + gg, rtol=1e-14)


def test_reused_subexpression_accumulates_adjoint():
    x = ad.inp("x")
    expr = ad.total(ad.add(x, x))
    rec = ad.evaluate_with_gradient(expr, {"x": np.array([1.0, 2.0])})
    np.testing.assert_allclose(rec.grads["x"], [2.0, 2.0])


def test_repeated_evaluation_is_deterministic():
    x = ad.inp("x")
    expr = ad.gaussian_log_pdf(ad.tanh(x), ad.constant([0.0]), ad.constant(1.0))
    v = {"x": np.array([0.37])}
    first = ad.evaluate(expr, v)
    for _ in range(3):
        assert ad.evaluate(expr, v) == first


def test_unbound_input_raises():
    x, y = ad.inp("x"), ad.inp("y")
    expr = ad.total(ad.add(x, y))
    with pytest.raises(UnboundInput):
        ad.evaluate(expr, {"x": np.array([1.0])})


def test_batched_rows_match_scalar_loop():
    rng = np.random.default_rng(23)
    w, x, s = ad.inp("w"), ad.inp("x"), ad.inp("s")
    expr = ad.gaussian_log_pdf(ad.inp("y"), ad.tanh(ad.affine(w, x, ad.constant(0.0))), s)
    wv = rng.standard_normal((3, 2))
    sv = np.array([0.7, 1.1, 0.4])
    xb = rng.standard_normal((5, 2))
    yb = rng.standard_normal((5, 3))
    batched = ad.evaluate(expr, {"w": wv, "x": xb, "y": yb, "s": sv})
    assert batched.shape == (5,)
    for i in range(5):
        one = ad.evaluate(expr, {"w": wv, "x": xb[i], "y": yb[i], "s": sv})
        assert batched[i] == pytest.approx(one, rel=1e-14)


def test_batched_seed_adjoint_weights_rows():
    rng = np.random.default_rng(29)
    w, x = ad.inp("w"), ad.inp("x")
    expr = ad.gaussian_log_pdf(
        ad.inp("y"), ad.affine(w, x, ad.constant(0.0)), ad.constant(1.0)
    )
    wv = rng.standard_normal((2, 2))
    xb = rng.standard_normal((4, 2))
    yb = rng.standard_normal((4, 2))
    weights = rng.random(4)
    rec = ad.evaluate_with_gradient(
        expr, {"w": wv, "x": xb, "y": yb}, seed_adjoint=weights
    )
    expected = np.zeros_like(wv)
    for i in range(4):
        one = ad.evaluate_with_gradient(expr, {"w": wv, "x": xb[i], "y": yb[i]})
        expected += weights[i] * one.grads["w"]
    np.testing.assert_allclose(rec.grads["w"], expected, rtol=1e-12)
    with pytest.raises(ValueError):
        ad.evaluate_with_gradient(expr, {"w": wv, "x": xb, "y": yb})


def test_operator_overloads_compose():
    x = ad.inp("x")
    expr = ad.total((x * 2.0 + 1.0 - x) / 2.0)
    v = np.array([3.0, -1.0])
    assert ad.evaluate(expr, {"x": v}) == pytest.approx(np.sum((v + 1.0) / 2.0))
