"""Reverse-mode differentiation over small expression graphs.

The engine targets log-densities of factored probabilistic models: scalar
outputs assembled from a modest number of vector-valued operations.  An
expression is a DAG of :class:`Expr` nodes.  The first call at a new set
of input shapes compiles the DAG into one straight-line Python function of
numpy calls: a shape-inference pass gives every node its shape, so the
sums that fold a broadcast adjoint back to its operand's shape are written
out in the code, and a node's first adjoint contribution is a plain
assignment.  A gradient program runs the forward code, then the seed, then
the backward code along the paths that reach the requested inputs; a
forward-only program has no backward code.  Programs are cached on the
root per input shapes, ``wrt`` and packed layout.  There is no
second-order support on purpose -- curvature is obtained elsewhere by
finite differences of the gradient.

Packed inputs
-------------
A group of inputs can arrive as column slices of one array (a *layout*
of ``(name, width)`` pairs, see :func:`evaluate_with_gradient`).  The
program reads each as a view of that array, a ``stack`` of such inputs
of one width as one reshaped view when they lie end to end (else as one
gather), and writes their adjoints into one flat gradient by one rule:
the gradient starts as zeros and every contribution is added in place
where the backward pass reaches it, with one slice (or index) add per
stacked adjoint.  Every coordinate so takes its contributions in the
unpacked program's order, and as ``0.0 + x == x`` both programs give the
same bits -- save that a coordinate whose every contribution is ``-0.0``
reads ``+0.0``.

Shape conventions
-----------------
Values are scalars, vectors of shape ``(d,)``, or row batches of shape
``(..., d)``.  Elementwise operations broadcast with numpy semantics, the
reductions (``gaussian_log_pdf``, ``bernoulli_log_pmf``, ``total``) sum over
the trailing axis only, ``affine`` treats an operand of two or more axes
as a batch of rows, and ``stack`` adds an axis at -2.  Gradients of
broadcast operands are summed back to the operand's own shape, so a
parameter shared across a batch receives the batch-summed adjoint.

Expression graphs are built once per model and reused across evaluations;
each evaluation supplies fresh values for the named ``inp`` leaves.
"""

from __future__ import annotations

import math
import re
from collections import Counter
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

    __slots__ = ("op", "children", "value", "name", "_programs")

    def __init__(self, op, children=(), value=None, name=None):
        self.op = op
        self.children = tuple(children)
        self.value = value  # constants only
        self.name = name  # inputs only
        self._programs = None

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

    ``weights`` must evaluate to a 2-D array ``(m, d)``; an ``x`` of two or
    more axes is treated as a batch of rows ``(..., d)`` giving ``(..., m)``.
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


def stack(*exprs) -> Expr:
    """Operands broadcast to one shape ``(..., d)`` and stacked on a new
    axis -2, giving ``(..., k, d)`` for ``k`` operands."""
    if not exprs:
        raise ValueError("stack() needs at least one operand")
    return Expr("stack", tuple(as_expr(e) for e in exprs))


def outputs(*exprs) -> Expr:
    """Several expressions evaluated in one pass; the value is their tuple.

    Subterms shared between the outputs run once.  Forward only: there is
    no gradient through this node.
    """
    return Expr("outputs", tuple(as_expr(e) for e in exprs))


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


class _Programs:
    """Per-root cache: topological order, input names, the names bound
    apart from each packed layout, and the generated functions, keyed by
    (input shapes, ``wrt``, gradient or forward-only, layout)."""

    __slots__ = ("order", "names", "unpacked", "functions")

    def __init__(self, root):
        self.order = _topological_order(root)
        self.names = tuple(dict.fromkeys(
            node.name for node in self.order if node.op == "input"))
        self.unpacked = {None: self.names}
        self.functions = {}


def _seed(seed, value, shape):
    """The root adjoint: 1 for a scalar root, else the (callable's) seed,
    which must have the root's shape."""
    if callable(seed):
        seed = seed(value)
    if seed is None:
        if shape:
            raise ValueError("non-scalar root needs an explicit seed_adjoint")
        return np.float64(1.0)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != shape:
        raise ValueError(
            f"seed_adjoint has shape {seed.shape}, the root has shape {shape}")
    return seed


class _Writer:
    """Writes the straight-line code of one program.

    ``kids[i]`` indexes node ``i``'s children, ``var[i]`` is the name
    holding its value and ``shape[i]`` its shape.  The adjoint of node
    ``i`` is ``g{i}``; ``live[i]`` says whether node ``i`` reaches a
    differentiated input and ``started[i]`` whether its adjoint has been
    assigned yet.

    With a packed ``layout``, ``packed[name]`` is an input's (offset,
    width) in the argument ``flat``.  ``stacked[i]`` holds the column
    offsets of a stack read from ``flat`` at once and ``read`` the nodes
    that read a packed input as a view of its own.  Their adjoints are
    added into the zeroed flat gradient ``grad`` by :meth:`contribute`.
    """

    def __init__(self, order, names, shapes, layout=None):
        self.order = order
        self.index = {id(node): i for i, node in enumerate(order)}
        self.kids = [[self.index[id(c)] for c in node.children]
                     for node in order]
        self.arg = {name: f"a{k}" for k, name in enumerate(names)}
        self.packed, self.flat = {}, None
        if layout is not None:
            *shapes, flat = shapes
            lo = 0
            for name, width in layout:
                if name in self.packed:
                    raise ValueError(f"layout names '{name}' twice")
                self.packed[name] = (lo, width)
                lo += width
            if not flat or flat[-1] != lo:
                raise ValueError(f"packed values of shape {flat} do not hold "
                                 f"the layout's {lo} coordinates")
            self.flat = flat
        self.bound = dict(zip([n for n in names if n not in self.packed],
                              shapes))
        for name, (lo, width) in self.packed.items():
            self.bound[name] = flat[:-1] + (width,)
        self.uses = Counter(node.name for node in order if node.op == "input")
        self.stacked = {i: self._stacked(node) for i, node in enumerate(order)
                        if node.op == "stack"}
        self.read, self.views = {len(order) - 1}, set()
        for i, kids in enumerate(self.kids):
            if self.stacked.get(i) is None:
                self.read.update(kids)
        self.namespace = {"np": np, "expit": expit, "_seed": _seed,
                          "SIGMA_FLOOR": SIGMA_FLOOR,
                          "HALF_LOG_2PI": _HALF_LOG_2PI}
        self.lines = []
        self.var, self.shape = [], []
        self.live = self.started = None

    def _direct(self, node):
        """A packed input read through one node: its adjoint contributions
        go straight into the flat gradient."""
        return (node.op == "input" and node.name in self.packed
                and self.uses[node.name] == 1)

    def _stacked(self, node):
        """Column offsets of a stack of direct packed inputs of one width,
        else None."""
        if not all(self._direct(c) for c in node.children):
            return None
        if len({self.packed[c.name][1] for c in node.children}) > 1:
            return None
        return [self.packed[c.name][0] for c in node.children]

    def emit(self, line):
        self.lines.append("    " + line)

    def emit_sum(self, v, terms):
        """``v = terms[0] + terms[1] + ...`` as a running sum in lines of at
        most 100 operands: the same left-to-right order, and Python's
        compiler does not recurse once per operand."""
        for k in range(0, len(terms), 100):
            self.emit(f"{v} = " + " + ".join(
                terms[:100] if k == 0 else [v, *terms[k:k + 100]]))

    def const(self, i, value, tag="c"):
        name = f"{tag}_{i}"
        self.namespace[name] = value
        return name

    # -- forward ----------------------------------------------------------------

    def forward(self):
        for i, node in enumerate(self.order):
            ci = self.kids[i]
            var = [self.var[j] for j in ci]
            shp = [self.shape[j] for j in ci]
            v = f"v{i}"
            op = node.op
            if op == "constant":
                v, shape = self.const(i, node.value), node.value.shape
            elif op == "input":
                v, shape = self.arg[node.name], self.bound[node.name]
                if (node.name in self.packed and i in self.read
                        and v not in self.views):
                    lo, width = self.packed[node.name]
                    self.emit(f"{v} = flat[..., {lo}:{lo + width}]")
                    self.views.add(v)
            elif op == "add":
                self.emit_sum(v, var)
                shape = np.broadcast_shapes(*shp)
            elif op == "mul":
                self.emit(f"{v} = {var[0]} * {var[1]}")
                shape = np.broadcast_shapes(*shp)
            elif op == "affine":
                (w, x, b), (sw, sx, sb) = var, shp
                if len(sw) != 2 or not sx:
                    raise ValueError("affine needs (m, d) weights and a vector "
                                     f"or batch operand, got {sw} and {sx}")
                product = sx[:-1] + sw[:1]
                if len(sx) == 1:
                    self.emit(f"{v} = {w} @ {x} + {b}")
                elif len(sx) == 2:
                    self.emit(f"{v} = {x} @ {w}.T + {b}")
                else:  # one 2-D product, not a stack of tiny ones
                    self.emit(f"{v} = ({x}.reshape(-1, {sw[1]}) @ {w}.T)"
                              f".reshape({product}) + {b}")
                shape = np.broadcast_shapes(product, sb)
            elif op in _ELEMENTWISE:
                self.emit(f"{v} = " + _ELEMENTWISE[op].format(x=var[0]))
                shape = shp[0]
            elif op == "gaussianLogPdf":
                shape = self._forward_gaussian(i, node, var, shp)
            elif op == "bernoulliLogPmf":
                x, a = var
                self.emit(f"t{i} = {x} * {a} - np.logaddexp(0.0, {a})")
                shape = self._sum_last(v, f"t{i}", np.broadcast_shapes(*shp))
            elif op == "sum":
                shape = self._sum_last(v, var[0], shp[0])
            elif op == "stack":
                full = np.broadcast_shapes(*shp)
                if not full:
                    raise ValueError("stack() needs operands with a trailing axis")
                shape = full[:-1] + (len(var),) + full[-1:]
                cols = self.stacked[i]
                if cols is None:
                    self.emit(f"{v} = np.empty({shape})")
                    for k, x in enumerate(var):
                        self.emit(f"{v}[..., {k}, :] = {x}")
                elif _run(cols, full[-1]):
                    self.emit(f"{v} = flat[..., {cols[0]}:"
                              f"{cols[0] + len(cols) * full[-1]}]"
                              f".reshape({shape})")
                else:
                    index = np.add.outer(cols, np.arange(full[-1]))
                    self.emit(f"{v} = flat[..., {self.const(i, index, 'ix')}]")
            elif op == "outputs":
                self.emit(f"{v} = ({''.join(x + ', ' for x in var)})")
                shape = None
            else:
                raise ValueError(f"unknown op '{op}'")
            self.var.append(v)
            self.shape.append(shape)

    def _sum_last(self, v, t, shape):
        """``v`` = sum of ``t`` over its trailing axis (a scalar counts as
        one element); returns the shape of ``v``.

        numpy adds fewer than 8 elements in order, so a short axis is
        summed by that many whole-array adds, the same bits without a
        per-row reduction loop."""
        if not shape:
            self.emit(f"{v} = {t}[()]")
        elif shape[-1] < 8:
            self.emit(f"{v} = " + " + ".join(
                f"{t}[..., {k}]" for k in range(shape[-1])))
        else:
            self.emit(f"{v} = {t}.sum(axis=-1)")
        return shape[:-1]

    def _forward_gaussian(self, i, node, var, shp):
        x, mu, sigma = var
        scale = node.children[2]
        if scale.op == "constant":
            # fixed scale: fold the clamp, the reciprocal, and log s + c once
            s = np.maximum(scale.value, SIGMA_FLOOR)
            inv = self.const(i, 1.0 / s, "inv")
            offset = self.const(i, np.log(s) + _HALF_LOG_2PI, "off")
            self.emit(f"d{i} = {x} - {mu}")
            self.emit(f"r{i} = d{i} * {inv}")
            self.emit(f"t{i} = -0.5 * (r{i} * r{i}) - {offset}")
        else:
            self.emit(f"s{i} = np.maximum({sigma}, SIGMA_FLOOR)")
            self.emit(f"r{i} = ({x} - {mu}) / s{i}")
            self.emit(f"t{i} = -0.5 * r{i} * r{i} - np.log(s{i}) - HALF_LOG_2PI")
        return self._sum_last(f"v{i}", f"t{i}", np.broadcast_shapes(*shp))

    # -- backward ---------------------------------------------------------------

    def backward(self, root, wrt):
        order = self.order
        self.live = []
        for i, node in enumerate(order):
            if node.op == "input":
                self.live.append(wrt is None or node.name in wrt
                                 or node.name in self.packed)
            else:
                self.live.append(any(self.live[j] for j in self.kids[i]))
        self.started = [False] * len(order)
        if self.flat is not None:
            self.emit(f"grad = np.zeros({self.flat})")
        r = self.index[id(root)]
        self.emit(f"g{r} = _seed(seed, {self.var[r]}, {self.shape[r]})")
        self.started[r] = True
        for i in reversed(range(len(order))):
            if (self.live[i] and self.started[i]
                    and order[i].op not in ("input", "constant")):
                self._backward_node(i, order[i])

    def add_to(self, j, expr):
        """Add ``expr`` to the adjoint of node ``j`` if it needs one."""
        if not self.live[j]:
            return
        if self._direct(self.order[j]):
            self.contribute([self.order[j].name], expr, False)
        elif self.started[j]:
            self.emit(f"g{j} = g{j} + ({expr})")
        else:
            self.emit(f"g{j} = {expr}")
            self.started[j] = True

    def fold(self, expr, shape, target):
        """``expr`` (of ``shape``) summed back down to ``target`` by the
        sums a broadcast to ``shape`` implies."""
        if shape == target:
            return expr
        full = np.broadcast_shapes(shape, target)
        if full != shape:  # the adjoint itself broadcasts up first
            expr, shape = f"np.broadcast_to({expr}, {full})", full
            if shape == target:
                return expr + ".copy()"
        while len(shape) > len(target):
            expr, shape = f"({expr}).sum(axis=0)", shape[1:]
        for axis, n in enumerate(target):
            if n == 1 and shape[axis] != 1:
                expr = f"({expr}).sum(axis={axis}, keepdims=True)"
        return expr

    def _backward_node(self, i, node):
        ci = self.kids[i]
        var = [self.var[j] for j in ci]
        shp = [self.shape[j] for j in ci]
        live = [self.live[j] for j in ci]
        g, shape, op = f"g{i}", self.shape[i], node.op
        if op == "add":
            for j, s in zip(ci, shp):
                self.add_to(j, self.fold(g, shape, s))
        elif op == "mul":
            (a, b), (sa, sb) = ci, shp
            self.add_to(a, self.fold(f"{g} * {var[1]}", shape, sa))
            self.add_to(b, self.fold(f"{g} * {var[0]}", shape, sb))
        elif op == "affine":
            (wi, xi, bi), (w, x, _), (sw, sx, sb) = ci, var, shp
            product = sx[:-1] + sw[:1]
            gp = self.fold(g, shape, product)
            if gp != g and (live[0] or live[1]):
                self.emit(f"p{i} = {gp}")
                gp = f"p{i}"
            if len(sx) == 1:
                self.add_to(wi, f"np.outer({gp}, {x})")
                self.add_to(xi, f"{w}.T @ {gp}")
            elif len(sx) == 2:
                self.add_to(wi, f"{gp}.T @ {x}")
                self.add_to(xi, f"{gp} @ {w}")
            else:
                self.add_to(wi, f"{gp}.reshape(-1, {sw[0]}).T @ "
                                f"{x}.reshape(-1, {sw[1]})")
                self.add_to(xi, f"({gp}.reshape(-1, {sw[0]}) @ {w})"
                                f".reshape({sx})")
            self.add_to(bi, self.fold(g, shape, sb))
        elif op in _ELEMENTWISE:
            adjoint = _ELEMENTWISE_ADJOINT[op]
            self.add_to(ci[0], adjoint.format(g=g, x=var[0], y=self.var[i]))
        elif op == "gaussianLogPdf":
            self._backward_gaussian(i, node, ci, var, shp)
        elif op == "bernoulliLogPmf":
            (xi, ai), (x, a), (sx, sa) = ci, var, shp
            self.emit(f"e{i} = {g}[..., None]")
            ge = shape + (1,)
            self.add_to(ai, self.fold(f"e{i} * ({x} - expit({a}))",
                                      np.broadcast_shapes(ge, sx, sa), sa))
            # d/dx of the log-mass is log sig(a) - log sig(-a) = a
            self.add_to(xi, self.fold(f"e{i} * {a}",
                                      np.broadcast_shapes(ge, sa), sx))
        elif op == "sum":
            (sx,) = shp
            self.add_to(ci[0], f"{g}[..., None].repeat({sx[-1]}, axis=-1)"
                        if sx else g)
        elif op == "stack":
            if self.stacked[i] is not None:
                self.contribute([c.name for c in node.children], g, True)
                return
            full = np.broadcast_shapes(*shp)
            for k, (j, s) in enumerate(zip(ci, shp)):
                self.add_to(j, self.fold(f"{g}[..., {k}, :]", full, s))

    def _backward_gaussian(self, i, node, ci, var, shp):
        (xi, mi, si), sigma = ci, var[2]
        self.emit(f"e{i} = g{i}[..., None]")
        full = np.broadcast_shapes(self.shape[i] + (1,), *shp)
        scale = node.children[2]
        if scale.op == "constant":
            # fixed scale: d/dx = -(x - mu)/s^2 with the clamp folded in
            s = np.maximum(scale.value, SIGMA_FLOOR)
            inv2 = self.const(i, 1.0 / (s * s), "inv2")
            self.emit(f"q{i} = e{i} * (d{i} * {inv2})")
            self.add_to(xi, self.fold(f"-q{i}", full, shp[0]))
            self.add_to(mi, self.fold(f"q{i}", full, shp[1]))
            return
        self.add_to(xi, self.fold(f"e{i} * (-r{i} / s{i})", full, shp[0]))
        self.add_to(mi, self.fold(f"e{i} * (r{i} / s{i})", full, shp[1]))
        # clamped scale entries get zero adjoint
        self.add_to(si, self.fold(
            f"e{i} * np.where({sigma} >= SIGMA_FLOOR, (r{i} * r{i} - 1.0) / s{i}, 0.0)",
            full, shp[2]))

    def grads(self):
        """Dict display of each differentiated unpacked input's summed
        adjoint; a packed input read through several nodes contributes the
        sum to the flat gradient."""
        parts = {}
        for i, node in enumerate(self.order):
            if node.op == "input" and self.live[i] and not self._direct(node):
                parts.setdefault(node.name, []).append(i)
        items = []
        for name, nodes in parts.items():
            total = f"g{nodes[0]}"
            if not self.shape[nodes[0]]:
                total = f"np.asarray({total}, dtype=np.float64)"
            if len(nodes) > 1:
                self.emit_sum(f"g{nodes[0]}",
                              [total] + [f"g{j}" for j in nodes[1:]])
                total = f"g{nodes[0]}"
            if name in self.packed:
                self.contribute([name], total, False)
            else:
                items.append(f"{name!r}: {total}")
        return "{" + ", ".join(items) + "}"

    # -- the flat gradient of packed inputs ----------------------------------------

    def contribute(self, names, source, stacked):
        """Add ``source`` into the flat gradient ``grad`` at the packed
        inputs ``names``: one input, or the operands of a packed stack
        (``source`` is then the stack's adjoint, ``(..., k, width)``).

        One ``+=`` per run of operands with no input twice, written where
        the backward pass reaches it, so every coordinate takes its
        contributions in the per-node program's order.
        """
        width = self.packed[names[0]][1]
        a = 0
        while a < len(names):
            b = a + 1
            while b < len(names) and names[b] not in names[a:b]:
                b += 1
            cols = [self.packed[n][0] for n in names[a:b]]
            part = source
            if stacked and b - a == 1:
                part = f"{source}[..., {a}, :]"
            elif stacked:
                if b - a < len(names):
                    part = f"{source}[..., {a}:{b}, :]"
                part += f".reshape({self.flat[:-1] + ((b - a) * width,)})"
            if _run(cols, width):
                target = f"{cols[0]}:{cols[0] + len(cols) * width}"
            else:
                target = self.const(len(self.lines), np.add.outer(
                    cols, np.arange(width)).reshape(-1), "cx")
            self.emit(f"grad[..., {target}] += {part}")
            a = b


def _run(cols, width):
    """Whether blocks of ``width`` at offsets ``cols`` lie end to end."""
    return all(b == a + width for a, b in zip(cols, cols[1:]))


_ELEMENTWISE = {
    "tanh": "np.tanh({x})",
    "sigmoid": "expit({x})",
    "log": "np.log({x})",
    "exp": "np.exp({x})",
    "square": "{x} * {x}",
    "reciprocal": "1.0 / {x}",
}

# adjoint of the operand ``x`` given the node's adjoint ``g`` and value ``y``
_ELEMENTWISE_ADJOINT = {
    "tanh": "{g} * (1.0 - {y} * {y})",
    "sigmoid": "{g} * {y} * (1.0 - {y})",
    "log": "{g} / {x}",
    "exp": "{g} * {y}",
    "square": "2.0 * {g} * {x}",
    "reciprocal": "-{g} * {y} * {y}",
}

# the writer's temporaries: values, adjoints and per-node intermediates
_TEMPORARY = re.compile(r"\b[vtdrsqepg]\d+\b")


def _free_dead(lines):
    """``lines`` with each temporary deleted after its last use, so a large
    batch reuses freed buffers instead of holding every intermediate."""
    names = [dict.fromkeys(_TEMPORARY.findall(line)) for line in lines]
    last = {name: k for k, used in enumerate(names) for name in used}
    out = []
    for k, line in enumerate(lines[:-1]):
        out.append(line)
        dead = [name for name in names[k] if last[name] == k]
        if dead:
            out.append(f"    del {', '.join(dead)}")
    return out + lines[-1:]


def _generate(programs, root, shapes, wrt, gradient, layout):
    """Source, compiled, of one program for ``root`` at input ``shapes``
    (the packed values' shape last when there is a ``layout``)."""
    writer = _Writer(programs.order, programs.names, shapes, layout)
    writer.forward()
    r = writer.index[id(root)]
    value = writer.var[r]
    if writer.shape[r] == ():
        value = f"float({value})"
    args = [writer.arg[name] for name in programs.unpacked[layout]]
    if layout is not None:
        args.append("flat")
    if gradient:
        writer.backward(root, wrt)
        value = f"{value}, {writer.grads()}"
        if layout is not None:
            value += ", grad"
        args.append("seed")
    lines = _free_dead(writer.lines + [f"    return {value}"])
    source = "\n".join([f"def program({', '.join(args)}):", *lines, ""])
    namespace = writer.namespace
    exec(compile(source, "<ncbayes.autodiff program>", "exec"), namespace)
    return namespace["program"]


def _prepare(root, bindings, wrt, gradient, packed=None):
    """The program for these bindings' shapes, and its arguments."""
    programs = root._programs
    if programs is None:
        programs = root._programs = _Programs(root)
    layout = None if packed is None else packed[0]
    names = programs.unpacked.get(layout)
    if names is None:
        skip = {name for name, _ in layout}
        names = programs.unpacked[layout] = tuple(
            name for name in programs.names if name not in skip)
    try:
        args = [np.asarray(bindings[name], dtype=np.float64)
                for name in names]
    except KeyError:
        missing = next(n for n in names if n not in bindings)
        raise UnboundInput(f"no value bound for input '{missing}'") from None
    if packed is not None:
        args.append(np.asarray(packed[1], dtype=np.float64))
    shapes = tuple([a.shape for a in args])
    key = (shapes, wrt, gradient, layout)
    function = programs.functions.get(key)
    if function is None:
        function = programs.functions[key] = _generate(
            programs, root, shapes, wrt, gradient, layout)
    return function, args


@dataclass
class GradientRecord:
    """Value of an expression, adjoints of the bound input leaves and, for
    packed inputs, the adjoint of the packed values."""

    value: object
    grads: dict
    packed: object = None


def evaluate(root: Expr, bindings: dict):
    """Forward pass only; returns a float for scalar-valued expressions and
    a tuple for :func:`outputs`."""
    function, args = _prepare(root, bindings, None, False)
    return function(*args)


def evaluate_with_gradient(root: Expr, bindings: dict, seed_adjoint=None,
                           wrt=None, packed=None) -> GradientRecord:
    """Forward and reverse pass.

    Parameters
    ----------
    root : Expr
        Expression to differentiate.
    bindings : dict
        Values for every ``inp`` leaf, keyed by name.
    seed_adjoint : array or callable, optional
        Adjoint of the root, of the root's shape.  Defaults to 1 for scalar
        roots; required for batched (vector-valued) roots, where it weights
        each batch row.  A callable receives the root value after the
        forward pass and returns the adjoint, so a seed that depends on the
        value costs no second forward pass.
    wrt : frozenset of str, optional
        Input names to differentiate with respect to.  When given, the
        reverse pass skips every path that only reaches other inputs and
        ``grads`` contains exactly these names.  ``None`` keeps all inputs.
    packed : (layout, values), optional
        Inputs bound as slices of one array: ``layout`` is a tuple of
        ``(name, width)`` pairs and ``values`` has shape ``(..., total
        width)``, each name taking the next ``width`` columns.  These names
        are not looked up in ``bindings`` and are always differentiated.

    Returns
    -------
    GradientRecord
        ``value`` is the root value; ``grads`` maps each input name to the
        adjoint array, shaped like the bound value.  Inputs sharing a name
        have their adjoints summed.  With ``packed``, ``packed`` is the
        adjoint of ``values`` in one array of its shape: zeros to which
        each contribution is added in the unpacked program's order, so
        every entry has the bits of the unpacked program's adjoint (an
        all ``-0.0`` entry reads ``+0.0``) and names the root does not
        reach stay zero.
    """
    if root.op == "outputs":
        raise ValueError("a multi-output expression has no gradient")
    function, args = _prepare(root, bindings, wrt, True, packed)
    return GradientRecord(*function(*args, seed_adjoint))
