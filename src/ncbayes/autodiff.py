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
root per input shapes, ``wrt`` and packed layout, and their code objects
across roots by generated source: models that differ only in their
constants compile each program once and run it in each root's own
namespace of constants.  There is no second-order support on purpose --
curvature is obtained elsewhere by finite differences of the gradient.

Packed inputs
-------------
A group of inputs can arrive as column slices of one array (a *layout*
of ``(name, shape)`` pairs, see :func:`evaluate_with_gradient`).  The
program reads each as a view of that array, reshaped to the input's
shape when it has other than one axis; a ``stack`` of 1-D inputs of one
width as one reshaped view when they lie end to end (else as one
gather).  It returns their adjoints, flattened, as one flat gradient.
When no packed input is read through a stack or a run of scaled inputs
(below), each input sums its adjoint in a local of its own, ``0.0`` plus
its first contribution and then each next one where the backward pass
reaches it, and one ``np.concatenate`` in layout order builds the
gradient, with zeros for inputs the root does not reach.  Otherwise the
gradient starts as zeros and every contribution is added in place, with
one slice (or index) add per stacked adjoint.  Either way every
coordinate takes its contributions in the unpacked program's order, and
as ``0.0 + x == x`` both programs give the same bits -- save that a
coordinate whose every contribution is ``-0.0`` reads ``+0.0``.

Bound programs
--------------
:func:`bind` converts every input outside the layout to an array and
finds the program for their shapes and the packed values' once, so a
:class:`Bound` call of :func:`evaluate_with_gradient` on the packed
values alone converts, keys and checks no bound input.  The seed must
be ones (None for a scalar root), and the program is written for it:
``1.0 * x == x``, so the products of a reduction's spread adjoint with
its operand's partial drop out, as do the sums' ``[..., None]`` and
``.repeat``.  A call brings the seed it was bound with (checked by
identity) and values of the bound shape.

Packed inputs each scaled by a constant (``mul``), with their columns
end to end, form a run: the program multiplies the run's columns once
and reads each value as a view, and copies their adjoints into one
buffer added to the gradient by one ``grad[...] += G * k``.  A run is
formed only where no other node reads those inputs between its first
and its last member, so every coordinate still takes its adds in the
unpacked program's order.

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

import linecache
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

    Evaluated as ``x*a - max(a, 0) - log1p(e)``, which equals
    ``x log sigmoid(a) + (1-x) log sigmoid(-a)``, with the adjoint's sigmoid
    ``where(a < 0, e, 1) / (1 + e)`` from the same ``e = exp(-|a|)``
    (Maechler 2012), one exponential per entry; both stay finite for large
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
    (input shapes, ``wrt``, gradient or forward-only, layout, unit
    seed)."""

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
    shape) in the argument ``flat``.  ``stacked[i]`` holds the column
    offsets of a stack read from ``flat`` at once and ``read`` the nodes
    that read a packed input as a view of its own; ``scaled`` holds the
    members of runs of scaled inputs.  :meth:`contribute` takes each
    packed input's adjoint contributions.  With neither a stack nor a
    run (``per_input``) it sums them in the local ``sums[name]`` and
    :meth:`gather` concatenates those into the flat gradient ``grad``;
    else it adds them into ``grad``, zeroed at the start of the backward
    pass.

    With ``unit`` the seed is ones, else the argument ``seed``;
    ``pending`` holds the nodes whose adjoint is ones not yet written
    (see :meth:`add_to`).
    """

    def __init__(self, order, names, shapes, layout=None, unit=False):
        self.order = order
        self.index = {id(node): i for i, node in enumerate(order)}
        self.kids = [[self.index[id(c)] for c in node.children]
                     for node in order]
        self.arg = {name: f"a{k}" for k, name in enumerate(names)}
        self.packed, self.flat = {}, None
        if layout is not None:
            *shapes, flat = shapes
            lo = 0
            for name, shape in layout:
                if name in self.packed:
                    raise ValueError(f"layout names '{name}' twice")
                self.packed[name] = (lo, shape)
                lo += math.prod(shape)
            if not flat or flat[-1] != lo:
                raise ValueError(f"packed values of shape {flat} do not hold "
                                 f"the layout's {lo} coordinates")
            self.flat = flat
        self.bound = dict(zip([n for n in names if n not in self.packed],
                              shapes))
        for name, (lo, shape) in self.packed.items():
            self.bound[name] = flat[:-1] + shape
        self.uses = Counter(node.name for node in order if node.op == "input")
        self.unit = unit
        self.stacked = {i: self._stacked(node) for i, node in enumerate(order)
                        if node.op == "stack"}
        self.scaled = self._scaled_runs()
        self.per_input = bool(self.packed) and not self.scaled and all(
            cols is None for cols in self.stacked.values())
        self.sums = {}
        self.read, self.views = {len(order) - 1}, set()
        for i, kids in enumerate(self.kids):
            if self.stacked.get(i) is None and i not in self.scaled:
                self.read.update(kids)
        self.namespace = {"np": np, "expit": expit, "_seed": _seed,
                          "SIGMA_FLOOR": SIGMA_FLOOR,
                          "HALF_LOG_2PI": _HALF_LOG_2PI}
        self.lines = []
        self.var, self.shape = [], []
        self.live = self.started = None
        self.pending = set()

    def _direct(self, node):
        """A packed input read through one node: its adjoint contributions
        go straight into the flat gradient."""
        return (node.op == "input" and node.name in self.packed
                and self.uses[node.name] == 1)

    def _stacked(self, node):
        """Column offsets of a stack of direct packed 1-D inputs of one
        width, else None."""
        if not all(self._direct(c) for c in node.children):
            return None
        shapes = {self.packed[c.name][1] for c in node.children}
        if len(shapes) > 1 or len(shapes.pop()) != 1:
            return None
        return [self.packed[c.name][0] for c in node.children]

    def _scaled_runs(self):
        """Runs of scaled packed inputs: ``mul`` nodes of a constant and a
        direct packed 1-D input it broadcasts to (no other such node
        reading it), two or more with their columns end to end and no
        other reader of those inputs between them, so that their adjoints
        can go to ``grad`` at once.  Maps each member to (first and last
        member, run columns, own columns, constant)."""
        found = {}
        for i, node in enumerate(self.order):
            for k, c in enumerate(node.children if node.op == "mul" else ()):
                p = node.children[1 - k]
                if c.op == "constant" and self._direct(p):
                    lo, shape = self.packed[p.name]
                    if len(shape) == 1 and c.value.shape in ((), (1,), shape):
                        found.setdefault(lo, []).append(
                            (lo, lo + shape[0], i, self.kids[i][1 - k], c))
        runs, scaled = [], {}
        for member in sorted(m[0] for m in found.values() if len(m) == 1):
            if runs and runs[-1][-1][1] == member[0]:
                runs[-1].append(member)
            else:
                runs.append([member])
        for run in runs:
            members = [m[2] for m in run]
            first, last = min(members), max(members)
            if len(run) > 1 and not any(
                    first < k < last and k not in members and j in kids
                    for k, kids in enumerate(self.kids) for *_, j, _ in run):
                for lo, hi, i, _, c in run:
                    scaled[i] = (first, last, (run[0][0], run[-1][1]),
                                 (lo, hi), c)
        return scaled

    def emit(self, line):
        self.lines.append(line)

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
                    lo, block = self.packed[node.name]
                    view = f"flat[..., {lo}:{lo + math.prod(block)}]"
                    if len(block) != 1:
                        view += f".reshape({shape})"
                    self.emit(f"{v} = {view}")
                    self.views.add(v)
            elif op == "add":
                self.emit_sum(v, var)
                shape = np.broadcast_shapes(*shp)
            elif op == "mul":
                shape = np.broadcast_shapes(*shp)
                if i in self.scaled:
                    self._forward_scaled(i, v)
                else:
                    self.emit(f"{v} = {var[0]} * {var[1]}")
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
                # the backward pass takes the sigmoid from the same p{i}
                self.emit(f"p{i} = np.exp(-np.abs({a}))")
                self.emit(f"t{i} = {x} * {a} - (np.maximum({a}, 0.0)"
                          f" + np.log1p(p{i}))")
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

    def _forward_scaled(self, i, v):
        """A scaled input of a run: one product over the run's columns at
        its first member, each member a view of that."""
        first, _, (lo, hi), (a, b), _ = self.scaled[i]
        if i == first:
            scales = np.concatenate([
                np.broadcast_to(c.value, (y - x,)) for _, _, _, (x, y), c in
                sorted(m for m in self.scaled.values() if m[0] == first)])
            self.emit(f"m{i} = {self.const(i, scales, 'k')} * "
                      f"flat[..., {lo}:{hi}]")
        self.emit(f"{v} = m{first}[..., {a - lo}:{b - lo}]")

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
        if self.flat is not None and not self.per_input:
            self.emit(f"grad = np.zeros({self.flat})")
        r = self.index[id(root)]
        self.started[r] = True
        if self.unit:
            self.pending.add(r)
        else:
            self.emit(f"g{r} = _seed(seed, {self.var[r]}, {self.shape[r]})")
        for i in reversed(range(len(order))):
            if (self.live[i] and self.started[i]
                    and order[i].op not in ("input", "constant")):
                self._backward_node(i, order[i])

    def add_to(self, j, expr):
        """Add ``expr`` to the adjoint of node ``j`` if it needs one.  A
        first adjoint of ones (``_ONE``) stays pending, as ones drop out of
        products."""
        if not self.live[j]:
            return
        direct = self._direct(self.order[j])
        if expr is _ONE and (self.started[j] or direct):
            expr = self.ones(self.shape[j])
        if direct:
            self.contribute([self.order[j].name], expr, False)
        elif self.started[j]:
            g = self.adjoint(j)
            self.emit(f"{g} = {g} + ({expr})")
        elif expr is _ONE:
            self.started[j] = True
            self.pending.add(j)
        else:
            self.started[j] = True
            self.emit(f"g{j} = {expr}")

    def adjoint(self, j):
        """The name of node j's adjoint, written out if still pending."""
        if j in self.pending:
            self.pending.remove(j)
            self.emit(f"g{j} = {self.ones(self.shape[j])}")
        return f"g{j}"

    def ones(self, shape):
        return self.const("_".join(map(str, shape)), np.ones(shape), "one")

    def _spread(self, i, drop):
        """``e{i} * `` (node i's adjoint over the summed axis, times), or
        nothing when that adjoint is ones and ``drop`` says the factor
        already has the product's shape: ``1.0 * x == x``."""
        if drop and i in self.pending:
            self.pending.remove(i)
            return ""
        self.emit(f"e{i} = {self.adjoint(i)}[..., None]")
        return f"e{i} * "

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
        shape, op = self.shape[i], node.op
        if op == "gaussianLogPdf":
            return self._backward_gaussian(i, node, ci, var, shp)
        if op == "bernoulliLogPmf":
            (xi, ai), (x, a), (sx, sa) = ci, var, shp
            ge = shape + (1,)
            fa, fx = (np.broadcast_shapes(ge, sx, sa),
                      np.broadcast_shapes(ge, sa))
            e = self._spread(i, np.broadcast_shapes(sx, sa) == fa and sa == fx)
            self.add_to(ai, self.fold(
                f"{e}({x} - np.where({a} < 0.0, p{i}, 1.0) / (1.0 + p{i}))",
                fa, sa))
            # d/dx of the log-mass is log sig(a) - log sig(-a) = a
            self.add_to(xi, self.fold(f"{e}{a}", fx, sx))
            return
        if i in self.pending:  # ones pass through sums and adds
            if op == "sum" or (op == "add" and set(shp) == {shape}):
                self.pending.remove(i)
                for j in ci:
                    self.add_to(j, _ONE)
                return
        if i in self.scaled:
            return self._fuse(i)
        if op == "stack" and self.stacked[i] is not None:
            self.contribute([c.name for c in node.children], self.adjoint(i),
                            True)
            return
        g = self.adjoint(i)
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
        elif op == "sum":
            (sx,) = shp
            self.add_to(ci[0], f"{g}[..., None].repeat({sx[-1]}, axis=-1)"
                        if sx else g)
        elif op == "stack":
            full = np.broadcast_shapes(*shp)
            for k, (j, s) in enumerate(zip(ci, shp)):
                self.add_to(j, self.fold(f"{g}[..., {k}, :]", full, s))

    def _backward_gaussian(self, i, node, ci, var, shp):
        (xi, mi, si), sigma = ci, var[2]
        full = np.broadcast_shapes(self.shape[i] + (1,), *shp)
        e = self._spread(i, np.broadcast_shapes(*shp) == full)
        scale = node.children[2]
        if scale.op == "constant":
            # fixed scale: d/dx = -(x - mu)/s^2 with the clamp folded in
            s = np.maximum(scale.value, SIGMA_FLOOR)
            inv2 = self.const(i, 1.0 / (s * s), "inv2")
            self.emit(f"q{i} = {e}(d{i} * {inv2})")
            self.add_to(xi, self.fold(f"-q{i}", full, shp[0]))
            self.add_to(mi, self.fold(f"q{i}", full, shp[1]))
            return
        self.add_to(xi, self.fold(f"{e}(-r{i} / s{i})", full, shp[0]))
        self.add_to(mi, self.fold(f"{e}(r{i} / s{i})", full, shp[1]))
        # clamped scale entries get zero adjoint
        self.add_to(si, self.fold(
            f"{e}np.where({sigma} >= SIGMA_FLOOR, "
            f"(r{i} * r{i} - 1.0) / s{i}, 0.0)", full, shp[2]))

    def adjoint_dict(self):
        """Dict display of each differentiated unpacked input's summed
        adjoint; a packed input read through several nodes contributes the
        sum to the flat gradient."""
        parts = {}
        for i, node in enumerate(self.order):
            if node.op == "input" and self.live[i] and not self._direct(node):
                parts.setdefault(node.name, []).append(i)
        items = []
        for name, nodes in parts.items():
            total = self.adjoint(nodes[0])
            if not self.shape[nodes[0]]:
                total = f"np.asarray({total}, dtype=np.float64)"
            if len(nodes) > 1:
                self.emit_sum(f"g{nodes[0]}",
                              [total] + [self.adjoint(j) for j in nodes[1:]])
                total = f"g{nodes[0]}"
            if name in self.packed:
                self.contribute([name], total, False)
            else:
                items.append(f"{name!r}: {total}")
        return "{" + ", ".join(items) + "}"

    # -- the flat gradient of packed inputs ----------------------------------------

    def contribute(self, names, source, stacked):
        """Add ``source`` to the adjoint of the packed inputs ``names``:
        one input, or the operands of a packed stack (``source`` is then
        the stack's adjoint, ``(..., k, width)``).  An input of other than
        one axis adds its adjoint flattened.

        Per input, the first contribution starts its local sum as ``0.0 +
        source`` and each next one adds to it.  Else one ``+=`` into the
        flat gradient ``grad`` per run of operands with no input twice.
        Either is written where the backward pass reaches it, so every
        coordinate takes its contributions in the per-node program's
        order.
        """
        shape = self.packed[names[0]][1]
        width = math.prod(shape)
        if len(shape) != 1:
            source = f"({source}).reshape({self.flat[:-1] + (width,)})"
        if self.per_input:
            (name,) = names
            total = self.sums.get(name)
            if total is None:
                total = self.sums[name] = f"B{self.packed[name][0]}"
                self.emit(f"{total} = 0.0 + ({source})")
            else:
                self.emit(f"{total} = {total} + ({source})")
            return
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

    def gather(self):
        """With per-input sums, write ``grad`` as their concatenation in
        layout order, zeros for the inputs the root does not reach."""
        if not self.per_input:
            return
        parts = [self.sums.get(name) or self.const(
            lo, np.zeros(self.flat[:-1] + (math.prod(shape),)), "zero")
            for name, (lo, shape) in self.packed.items()]
        self.emit(f"grad = np.concatenate([{', '.join(parts)}], axis=-1)")

    def _fuse(self, i):
        """Copy scaled input i's adjoint into its run's buffer; the run's
        first member, reached last, adds the buffer times the scales."""
        first, last, (lo, hi), (a, b), _ = self.scaled[i]
        g = self.adjoint(i)
        if i == last:
            self.emit(f"G{first} = np.empty({self.flat[:-1] + (hi - lo,)})")
        self.emit(f"G{first}[..., {a - lo}:{b - lo}] = {g}")
        if i == first:
            self.emit(f"grad[..., {lo}:{hi}] += G{first} * k_{first}")


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

# an adjoint of ones
_ONE = object()


def _free_dead(lines):
    """``lines``, indented, with each temporary deleted after its last use
    (the last line, a ``return``, excepted), so a large batch reuses freed
    buffers instead of holding every intermediate."""
    names = [dict.fromkeys(_TEMPORARY.findall(line)) for line in lines]
    last = {name: k for k, used in enumerate(names) for name in used}
    out = []
    for k, line in enumerate(lines):
        out.append("    " + line)
        dead = [name for name in names[k] if last[name] == k]
        if dead and k < len(lines) - 1:
            out.append(f"    del {', '.join(dead)}")
    return out


# code objects by generated source: roots that differ only in the values
# of their constants (held in each program's own namespace) share one
_CODE = {}


def _generate(programs, root, shapes, wrt, gradient, layout, unit=False):
    """``program(a0, ..., [flat], [seed])`` for ``root`` at input ``shapes``
    (the packed values' last with a ``layout``), its ``root_shape`` set; a
    gradient program takes the seed unless ``unit``."""
    writer = _Writer(programs.order, programs.names, shapes, layout, unit)
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
        value = f"{value}, {writer.adjoint_dict()}"
        if layout is not None:
            writer.gather()
            value += ", grad"
        if not unit:
            args.append("seed")
    source = "\n".join([f"def program({', '.join(args)}):",
                        *_free_dead(writer.lines + [f"return {value}"]), ""])
    code = _CODE.get(source)
    if code is None:  # a file name of its own, its source in linecache
        filename = f"<ncbayes.autodiff program {len(_CODE)}>"
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        code = _CODE[source] = compile(source, filename, "exec")
    namespace = writer.namespace
    exec(code, namespace)
    program = namespace["program"]
    program.root_shape = writer.shape[r]
    return program


def _prepare(root, bindings, wrt, gradient, packed=None, unit=False):
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
    key = (shapes, wrt, gradient, layout, unit)
    function = programs.functions.get(key)
    if function is None:
        function = programs.functions[key] = _generate(
            programs, root, shapes, wrt, gradient, layout, unit)
    return function, args


@dataclass(frozen=True)
class Bound:
    """A unit-seed gradient program, its arguments but the packed values
    (converted once), its seed and the packed values' ``shape``; made by
    :func:`bind`, run by :func:`evaluate_with_gradient`."""

    program: object
    args: tuple
    seed: object
    shape: tuple


def bind(root: Expr, bindings: dict, packed, seed_adjoint=None) -> Bound:
    """Bind ``root``'s gradient program to fixed inputs and a unit seed.

    ``bindings`` holds every input outside ``packed``, a ``(layout,
    values)`` pair as in :func:`evaluate_with_gradient` whose values have
    the shape of every call's.  ``seed_adjoint`` is ones of the root's
    shape (None for a scalar root); any other seed, or a callable, raises
    ValueError.  Binding converts the inputs and checks the seed once."""
    if callable(seed_adjoint) or not (
            seed_adjoint is None or (np.asarray(seed_adjoint) == 1.0).all()):
        raise ValueError("a bound program takes a seed_adjoint of ones")
    program, args = _prepare(root, bindings, frozenset(), True, packed,
                             unit=True)
    _seed(seed_adjoint, None, program.root_shape)
    return Bound(program, tuple(args[:-1]), seed_adjoint, args[-1].shape)


@dataclass
class GradientRecord:
    """Value of an expression, adjoints of the bound input leaves and, for
    packed inputs, the adjoint of the packed values."""

    value: object
    grads: dict
    packed: object = None


def evaluate(root: Expr, bindings: dict, packed=None):
    """Forward pass only; returns a float for scalar-valued expressions and
    a tuple for :func:`outputs`.  ``packed`` binds inputs as slices of one
    array, as in :func:`evaluate_with_gradient`."""
    function, args = _prepare(root, bindings, None, False, packed)
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
        ``(name, shape)`` pairs and ``values`` has shape ``(..., total
        size)``, each name taking the next ``prod(shape)`` columns, read
        as an array of shape ``(..., *shape)``.  These names are not
        looked up in ``bindings`` and are always differentiated.

    A :class:`Bound` ``root`` takes no ``bindings`` or ``wrt``, the seed
    it was bound with and ``packed`` as the values alone, of the bound
    shape.

    Returns
    -------
    GradientRecord
        ``value`` is the root value; ``grads`` maps each input name to the
        adjoint array, shaped like the bound value.  Inputs sharing a name
        have their adjoints summed.  With ``packed``, ``packed`` is the
        adjoint of ``values`` in one array of its shape: each entry is
        ``0.0`` plus its contributions, added in the unpacked program's
        order, so every entry has the bits of the unpacked program's
        adjoint (an all ``-0.0`` entry reads ``+0.0``) and names the root
        does not reach are zero.
    """
    if isinstance(root, Bound):
        if seed_adjoint is not root.seed or bindings or wrt is not None:
            raise ValueError("a bound program takes its packed values and "
                             "the seed it was bound with, nothing else")
        values = np.asarray(packed, dtype=np.float64)
        if values.shape != root.shape:
            raise ValueError(f"packed values of shape {values.shape} for a "
                             f"program bound at {root.shape}")
        return GradientRecord(*root.program(*root.args, values))
    if root.op == "outputs":
        raise ValueError("a multi-output expression has no gradient")
    function, args = _prepare(root, bindings, wrt, True, packed)
    return GradientRecord(*function(*args, seed_adjoint))
