"""Reverse-mode differentiation over small expression graphs.

The engine targets log-densities of factored probabilistic models: scalar
outputs assembled from a modest number of vector-valued operations.  An
expression is a DAG of :class:`Expr` nodes; evaluating it walks the graph
forward in topological order, and the gradient walk replays the same order
backward, accumulating adjoints.  There is no second-order support on
purpose -- curvature is obtained elsewhere by finite differences of the
gradient.

Shape conventions
-----------------
Values are scalars, vectors of shape ``(d,)``, or row batches of shape
``(B, d)``.  Elementwise operations broadcast with numpy semantics, the
reductions (``gaussian_log_pdf``, ``bernoulli_log_pmf``, ``total``) sum over
the trailing axis only, and ``affine`` treats a 2-D operand as a batch of
rows.  Gradients of broadcast operands are summed back to the operand's own
shape, so a parameter shared across a batch receives the batch-summed
adjoint.

Expression graphs are built once per model and reused across evaluations;
each evaluation supplies fresh values for the named ``inp`` leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import UnboundInput

# Gaussian scales are clamped below at this floor during density evaluation.
SIGMA_FLOOR = 1e-8

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class Expr:
    """One node of an expression DAG.

    Instances are created through the module-level constructors (``inp``,
    ``constant``, ``add``, ...) rather than directly.  Arithmetic operators
    are overloaded for readability when assembling transforms.
    """

    __slots__ = ("op", "children", "value", "name", "_tape")

    def __init__(self, op, children=(), value=None, name=None):
        self.op = op
        self.children = tuple(children)
        self.value = value  # constants only
        self.name = name  # inputs only
        self._tape = None

    def __add__(self, other):
        return add(self, as_expr(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, as_expr(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(constant(-1.0), self)

    def __sub__(self, other):
        return add(self, -as_expr(other))

    def __rsub__(self, other):
        return add(as_expr(other), -self)

    def __truediv__(self, other):
        return mul(self, reciprocal(as_expr(other)))

    def __repr__(self):
        if self.op == "input":
            return f"Expr(input {self.name!r})"
        return f"Expr({self.op}, {len(self.children)} children)"


def as_expr(x) -> Expr:
    """Wrap scalars and arrays as constant nodes; pass expressions through."""
    if isinstance(x, Expr):
        return x
    return constant(x)


def constant(value) -> Expr:
    return Expr("constant", value=np.asarray(value, dtype=np.float64))


def inp(name: str) -> Expr:
    """A named leaf whose value is supplied at evaluation time."""
    return Expr("input", name=str(name))


def add(*terms) -> Expr:
    """Elementwise sum of one or more operands (broadcasting)."""
    terms = tuple(as_expr(t) for t in terms)
    if not terms:
        raise ValueError("add() needs at least one operand")
    if len(terms) == 1:
        return terms[0]
    return Expr("add", terms)


def mul(a, b) -> Expr:
    return Expr("mul", (as_expr(a), as_expr(b)))


def affine(weights, x, bias) -> Expr:
    """Matrix-vector product plus offset: ``weights @ x + bias``.

    ``weights`` must evaluate to a 2-D array ``(m, d)``; a 2-D ``x`` is
    treated as a batch of rows ``(B, d)`` giving ``(B, m)``.
    """
    return Expr("affine", (as_expr(weights), as_expr(x), as_expr(bias)))


def tanh(x) -> Expr:
    return Expr("tanh", (as_expr(x),))


def sigmoid(x) -> Expr:
    return Expr("sigmoid", (as_expr(x),))


def log(x) -> Expr:
    return Expr("log", (as_expr(x),))


def exp(x) -> Expr:
    return Expr("exp", (as_expr(x),))


def square(x) -> Expr:
    return Expr("square", (as_expr(x),))


def reciprocal(x) -> Expr:
    return Expr("reciprocal", (as_expr(x),))


def gaussian_log_pdf(x, mean, scale) -> Expr:
    """Sum over the trailing axis of elementwise normal log-densities.

    The scale is clamped below at ``SIGMA_FLOOR``; the adjoint with respect
    to a clamped scale entry is zero.
    """
    return Expr("gaussianLogPdf", (as_expr(x), as_expr(mean), as_expr(scale)))


def bernoulli_log_pmf(x, logits) -> Expr:
    """Sum over the trailing axis of Bernoulli log-masses at logits.

    Evaluated as ``x*a - logaddexp(0, a)``, which equals
    ``x log sigmoid(a) + (1-x) log sigmoid(-a)`` and stays finite for large
    logits of either sign.
    """
    return Expr("bernoulliLogPmf", (as_expr(x), as_expr(logits)))


def total(x) -> Expr:
    """Sum of the elements along the trailing axis."""
    return Expr("sum", (as_expr(x),))


def outputs(*exprs) -> Expr:
    """Several expressions evaluated in one pass; the value is their tuple.

    Subterms shared between the outputs run once.  Forward only: there is
    no gradient through this node.
    """
    return Expr("outputs", tuple(as_expr(e) for e in exprs))


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the operand's shape."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _expand(g):
    """Give a trailing-axis reduction's adjoint back its summed axis."""
    return np.asarray(g, dtype=np.float64)[..., None]


def _sum_last(t):
    """Sum along the trailing axis; a scalar counts as one element."""
    t = np.asarray(t)
    return t.sum(axis=-1) if t.ndim else t[()]


def _topological_order(root: Expr):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node.children:
            stack.append((child, False))
    return order


class _Tape:
    """Per-root compilation: topological order plus forward/backward closures.

    ``wrt`` restricts which input leaves receive adjoints.  Backward
    closures are only emitted along paths from the root to those inputs,
    so a tape differentiated with respect to a few coordinates skips the
    arithmetic for every other gradient.  ``wrt=None`` keeps all inputs.
    """

    __slots__ = ("order", "index", "template", "forward_ops", "backward_ops",
                 "root_index", "input_indices")

    def __init__(self, root: Expr, wrt=None):
        self.order = _topological_order(root)
        self.index = {id(node): i for i, node in enumerate(self.order)}
        self.template = [
            node.value if node.op == "constant" else None for node in self.order
        ]
        self.root_index = self.index[id(root)]
        self.input_indices = [
            (node.name, i) for i, node in enumerate(self.order)
            if node.op == "input" and (wrt is None or node.name in wrt)
        ]
        live = []
        self.forward_ops = []
        self.backward_ops = []
        for i, node in enumerate(self.order):
            ci = tuple(self.index[id(c)] for c in node.children)
            if node.op == "input":
                live.append(wrt is None or node.name in wrt)
            else:
                live.append(any(live[j] for j in ci))
            fwd = _FORWARD_BUILDERS[node.op](node, i, ci)
            if fwd is not None:
                self.forward_ops.append(fwd)
            if live[i] and node.op not in ("input", "constant"):
                cl = tuple(live[j] for j in ci)
                bwd = _BACKWARD_BUILDERS[node.op](node, i, ci, cl)
                if bwd is not None:
                    self.backward_ops.append(bwd)
        self.backward_ops.reverse()

    def run_forward(self, bindings):
        vals = self.template.copy()
        for op in self.forward_ops:
            op(vals, bindings)
        return vals


def _tape_for(root: Expr, wrt=None) -> _Tape:
    tapes = root._tape
    if tapes is None:
        tapes = root._tape = {}
    tape = tapes.get(wrt)
    if tape is None:
        tape = tapes[wrt] = _Tape(root, wrt)
    return tape


# -- forward closures --------------------------------------------------------

def _fwd_constant(node, i, ci):
    return None


def _fwd_input(node, i, ci):
    name = node.name

    def run(vals, bindings, i=i, name=name):
        try:
            v = bindings[name]
        except KeyError:
            raise UnboundInput(f"no value bound for input '{name}'") from None
        vals[i] = np.asarray(v, dtype=np.float64)

    return run


def _fwd_add(node, i, ci):
    def run(vals, bindings, i=i, ci=ci):
        acc = vals[ci[0]]
        for j in ci[1:]:
            acc = acc + vals[j]
        vals[i] = acc

    return run


def _fwd_mul(node, i, ci):
    a, b = ci

    def run(vals, bindings, i=i, a=a, b=b):
        vals[i] = vals[a] * vals[b]

    return run


def _fwd_affine(node, i, ci):
    wi, xi, bi = ci

    def run(vals, bindings, i=i, wi=wi, xi=xi, bi=bi):
        w, x, b = vals[wi], vals[xi], vals[bi]
        if x.ndim <= 1:
            vals[i] = w @ x + b
        else:
            vals[i] = x @ w.T + b

    return run


def _fwd_tanh(node, i, ci):
    j = ci[0]

    def run(vals, bindings, i=i, j=j):
        vals[i] = np.tanh(vals[j])

    return run


def _fwd_sigmoid(node, i, ci):
    j = ci[0]

    def run(vals, bindings, i=i, j=j):
        vals[i] = expit(vals[j])

    return run


def _fwd_log(node, i, ci):
    j = ci[0]

    def run(vals, bindings, i=i, j=j):
        vals[i] = np.log(vals[j])

    return run


def _fwd_exp(node, i, ci):
    j = ci[0]

    def run(vals, bindings, i=i, j=j):
        vals[i] = np.exp(vals[j])

    return run


def _fwd_square(node, i, ci):
    j = ci[0]

    def run(vals, bindings, i=i, j=j):
        x = vals[j]
        vals[i] = x * x

    return run


def _fwd_reciprocal(node, i, ci):
    j = ci[0]

    def run(vals, bindings, i=i, j=j):
        vals[i] = 1.0 / vals[j]

    return run


def _fwd_gaussian(node, i, ci):
    xi, mi, si = ci
    sc = node.children[2]
    if sc.op == "constant":
        # fixed scale: fold the clamp, the reciprocal, and log s + c once
        s = np.maximum(np.asarray(sc.value, dtype=np.float64), SIGMA_FLOOR)
        inv = 1.0 / s
        offset = np.log(s) + _HALF_LOG_2PI

        def run(vals, bindings, i=i, xi=xi, mi=mi, inv=inv, offset=offset):
            r = (vals[xi] - vals[mi]) * inv
            t = -0.5 * (r * r) - offset
            vals[i] = _sum_last(t)

        return run

    def run(vals, bindings, i=i, xi=xi, mi=mi, si=si):
        x, mu, sigma = vals[xi], vals[mi], vals[si]
        s = np.maximum(sigma, SIGMA_FLOOR)
        r = (x - mu) / s
        t = -0.5 * r * r - np.log(s) - _HALF_LOG_2PI
        vals[i] = _sum_last(t)

    return run


def _fwd_bernoulli(node, i, ci):
    xi, ai = ci

    def run(vals, bindings, i=i, xi=xi, ai=ai):
        x, a = vals[xi], vals[ai]
        t = x * a - np.logaddexp(0.0, a)
        vals[i] = _sum_last(t)

    return run


def _fwd_sum(node, i, ci):
    j = ci[0]

    def run(vals, bindings, i=i, j=j):
        vals[i] = _sum_last(vals[j])

    return run


def _fwd_outputs(node, i, ci):
    def run(vals, bindings, i=i, ci=ci):
        vals[i] = tuple(vals[j] for j in ci)

    return run


_FORWARD_BUILDERS = {
    "constant": _fwd_constant,
    "input": _fwd_input,
    "add": _fwd_add,
    "mul": _fwd_mul,
    "affine": _fwd_affine,
    "tanh": _fwd_tanh,
    "sigmoid": _fwd_sigmoid,
    "log": _fwd_log,
    "exp": _fwd_exp,
    "square": _fwd_square,
    "reciprocal": _fwd_reciprocal,
    "gaussianLogPdf": _fwd_gaussian,
    "bernoulliLogPmf": _fwd_bernoulli,
    "sum": _fwd_sum,
    "outputs": _fwd_outputs,
}


# -- backward closures --------------------------------------------------------

def _accumulate(adj, j, g):
    cur = adj[j]
    adj[j] = g if cur is None else cur + g


def _bwd_none(node, i, ci, cl):
    return None


def _bwd_add(node, i, ci, cl):
    targets = tuple(j for j, alive in zip(ci, cl) if alive)

    def run(vals, adj, i=i, targets=targets):
        g = adj[i]
        if g is None:
            return
        for j in targets:
            _accumulate(adj, j, _unbroadcast(g, vals[j].shape))

    return run


def _bwd_mul(node, i, ci, cl):
    a, b = ci
    la, lb = cl

    def run(vals, adj, i=i, a=a, b=b, la=la, lb=lb):
        g = adj[i]
        if g is None:
            return
        if la:
            _accumulate(adj, a, _unbroadcast(g * vals[b], vals[a].shape))
        if lb:
            _accumulate(adj, b, _unbroadcast(g * vals[a], vals[b].shape))

    return run


def _bwd_affine(node, i, ci, cl):
    wi, xi, bi = ci
    lw, lx, lb = cl

    def run(vals, adj, i=i, wi=wi, xi=xi, bi=bi, lw=lw, lx=lx, lb=lb):
        g = adj[i]
        if g is None:
            return
        w, x = vals[wi], vals[xi]
        if x.ndim <= 1:
            if lw:
                _accumulate(adj, wi, np.outer(g, x))
            if lx:
                _accumulate(adj, xi, w.T @ g)
        else:
            if lw:
                _accumulate(adj, wi, g.T @ x)
            if lx:
                _accumulate(adj, xi, g @ w)
        if lb:
            _accumulate(adj, bi, _unbroadcast(g, vals[bi].shape))

    return run


def _bwd_tanh(node, i, ci, cl):
    j = ci[0]

    def run(vals, adj, i=i, j=j):
        g = adj[i]
        if g is None:
            return
        t = vals[i]
        _accumulate(adj, j, g * (1.0 - t * t))

    return run


def _bwd_sigmoid(node, i, ci, cl):
    j = ci[0]

    def run(vals, adj, i=i, j=j):
        g = adj[i]
        if g is None:
            return
        s = vals[i]
        _accumulate(adj, j, g * s * (1.0 - s))

    return run


def _bwd_log(node, i, ci, cl):
    j = ci[0]

    def run(vals, adj, i=i, j=j):
        g = adj[i]
        if g is None:
            return
        _accumulate(adj, j, g / vals[j])

    return run


def _bwd_exp(node, i, ci, cl):
    j = ci[0]

    def run(vals, adj, i=i, j=j):
        g = adj[i]
        if g is None:
            return
        _accumulate(adj, j, g * vals[i])

    return run


def _bwd_square(node, i, ci, cl):
    j = ci[0]

    def run(vals, adj, i=i, j=j):
        g = adj[i]
        if g is None:
            return
        _accumulate(adj, j, 2.0 * g * vals[j])

    return run


def _bwd_reciprocal(node, i, ci, cl):
    j = ci[0]

    def run(vals, adj, i=i, j=j):
        g = adj[i]
        if g is None:
            return
        y = vals[i]
        _accumulate(adj, j, -g * y * y)

    return run


def _bwd_gaussian(node, i, ci, cl):
    xi, mi, si = ci
    lx, lm, ls = cl
    sc = node.children[2]
    if sc.op == "constant" and not ls:
        # fixed scale: d/dx = -(x - mu)/s^2 with the clamp folded in
        s = np.maximum(np.asarray(sc.value, dtype=np.float64), SIGMA_FLOOR)
        inv2 = 1.0 / (s * s)

        def run(vals, adj, i=i, xi=xi, mi=mi, inv2=inv2, lx=lx, lm=lm):
            g = adj[i]
            if g is None:
                return
            x, mu = vals[xi], vals[mi]
            core = (x - mu) * inv2
            ge = _expand(g)
            gc = ge * core
            if lx:
                _accumulate(adj, xi, _unbroadcast(-gc, x.shape))
            if lm:
                _accumulate(adj, mi, _unbroadcast(gc, np.shape(mu)))

        return run

    def run(vals, adj, i=i, xi=xi, mi=mi, si=si, lx=lx, lm=lm, ls=ls):
        g = adj[i]
        if g is None:
            return
        x, mu, sigma = vals[xi], vals[mi], vals[si]
        s = np.maximum(sigma, SIGMA_FLOOR)
        r = (x - mu) / s
        ge = _expand(g)
        if lx:
            _accumulate(adj, xi, _unbroadcast(ge * (-r / s), x.shape))
        if lm:
            _accumulate(adj, mi, _unbroadcast(ge * (r / s), np.shape(mu)))
        if ls:
            # clamped scale entries get zero adjoint
            ds = np.where(sigma >= SIGMA_FLOOR, (r * r - 1.0) / s, 0.0)
            _accumulate(adj, si, _unbroadcast(ge * ds, sigma.shape))

    return run


def _bwd_bernoulli(node, i, ci, cl):
    xi, ai = ci
    lx, la = cl

    def run(vals, adj, i=i, xi=xi, ai=ai, lx=lx, la=la):
        g = adj[i]
        if g is None:
            return
        x, a = vals[xi], vals[ai]
        ge = _expand(g)
        if la:
            _accumulate(adj, ai, _unbroadcast(ge * (x - expit(a)), a.shape))
        if lx:
            # d/dx of the log-mass is log sig(a) - log sig(-a) = a
            _accumulate(adj, xi, _unbroadcast(ge * a, np.shape(x)))

    return run


def _bwd_sum(node, i, ci, cl):
    j = ci[0]

    def run(vals, adj, i=i, j=j):
        g = adj[i]
        if g is None:
            return
        x = vals[j]
        _accumulate(adj, j, _expand(g) * np.ones_like(x))

    return run


_BACKWARD_BUILDERS = {
    "constant": _bwd_none,
    "input": _bwd_none,
    "add": _bwd_add,
    "mul": _bwd_mul,
    "affine": _bwd_affine,
    "tanh": _bwd_tanh,
    "sigmoid": _bwd_sigmoid,
    "log": _bwd_log,
    "exp": _bwd_exp,
    "square": _bwd_square,
    "reciprocal": _bwd_reciprocal,
    "gaussianLogPdf": _bwd_gaussian,
    "bernoulliLogPmf": _bwd_bernoulli,
    "sum": _bwd_sum,
    "outputs": _bwd_none,
}


@dataclass
class GradientRecord:
    """Value of an expression and adjoints of every bound input leaf."""

    value: object
    grads: dict


def evaluate(root: Expr, bindings: dict):
    """Forward pass only; returns a float for scalar-valued expressions and
    a tuple for :func:`outputs`."""
    tape = _tape_for(root)
    vals = tape.run_forward(bindings)
    out = vals[tape.root_index]
    if isinstance(out, tuple) or np.ndim(out) != 0:
        return out
    return float(out)


def evaluate_with_gradient(root: Expr, bindings: dict, seed_adjoint=None,
                           wrt=None) -> GradientRecord:
    """Forward and reverse pass.

    Parameters
    ----------
    root : Expr
        Expression to differentiate.
    bindings : dict
        Values for every ``inp`` leaf, keyed by name.
    seed_adjoint : array or callable, optional
        Adjoint of the root.  Defaults to 1 for scalar roots; required for
        batched (vector-valued) roots, where it weights each batch row.  A
        callable receives the root value after the forward pass and returns
        the adjoint, so a seed that depends on the value costs no second
        forward pass.
    wrt : frozenset of str, optional
        Input names to differentiate with respect to.  When given, the
        reverse pass skips every path that only reaches other inputs and
        ``grads`` contains exactly these names.  ``None`` keeps all inputs.

    Returns
    -------
    GradientRecord
        ``value`` is the root value; ``grads`` maps each input name to the
        adjoint array, shaped like the bound value.  Inputs sharing a name
        have their adjoints summed.
    """
    if root.op == "outputs":
        raise ValueError("a multi-output expression has no gradient")
    tape = _tape_for(root, wrt)
    vals = tape.run_forward(bindings)
    out = vals[tape.root_index]
    adj = [None] * len(vals)
    if callable(seed_adjoint):
        seed_adjoint = seed_adjoint(out)
    if seed_adjoint is None:
        if np.ndim(out) != 0:
            raise ValueError("non-scalar root needs an explicit seed_adjoint")
        adj[tape.root_index] = np.float64(1.0)
    else:
        adj[tape.root_index] = np.asarray(seed_adjoint, dtype=np.float64)
    for op in tape.backward_ops:
        op(vals, adj)
    grads = {}
    for name, i in tape.input_indices:
        g = adj[i]
        if g is None:
            g = np.zeros_like(vals[i])
        if name in grads:
            grads[name] = grads[name] + g
        else:
            grads[name] = np.asarray(g, dtype=np.float64)
    value = float(out) if np.ndim(out) == 0 else out
    return GradientRecord(value=value, grads=grads)


def finite_difference_check(root: Expr, bindings: dict, step: float = 1e-5) -> float:
    """Largest relative disagreement between adjoints and central differences.

    Every coordinate of every bound input is perturbed by ``±step``.  The
    relative error uses a unit floor in the denominator so that near-zero
    gradients are compared absolutely.
    """
    record = evaluate_with_gradient(root, bindings)
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
            hi = evaluate(root, perturbed)
            work = base.copy().reshape(-1)
            work[k] = saved - step
            perturbed[name] = work.reshape(base.shape)
            lo = evaluate(root, perturbed)
            fd = (hi - lo) / (2.0 * step)
            ad = gflat[k]
            err = abs(ad - fd) / max(1.0, abs(ad), abs(fd))
            worst = max(worst, err)
    return worst
