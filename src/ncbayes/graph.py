"""Directed factor-graph models over named vector nodes.

A model is a DAG of nodes, each carrying one conditional factor: a
distribution family plus a link function mapping parent values to the
family's location parameter (mean, logits, or rate).  The joint log-density
is compiled once into a reverse-mode expression (see :mod:`.autodiff`) and
reused across evaluations, so repeated gradient calls during sampling and
learning pay only for array work.

Node kinds
----------
``latent``
    Free coordinates of the posterior; sampled by inference.
``observed``
    Data leaves.  Observed nodes may not be parents of anything.
``auxiliary``
    Parameter-free root noise (standard normal or uniform) introduced by
    reparameterization.
``deterministic``
    A pure function of parents; carries no density term and is excluded
    from the sampled coordinate set.  A Gaussian latent whose fixed scale
    is exactly zero is converted to this kind at build time.

Parameters live in one flat vector.  Named blocks (weight matrices, biases,
scales) map to disjoint slices via :class:`ParamLayout`; factors reference
blocks by name, so several factors may share one block (tied weights).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml
from scipy.special import expit

from . import autodiff as ad
from .errors import (
    ConfigurationError,
    CycleError,
    DomainError,
    NonFinite,
    ObservedNotLeaf,
    ShapeError,
    UnboundInput,
    UnsupportedFamily,
    ZeroScale,
)


def _is(value, kinds):
    """``isinstance``, save that a bool (or a YAML true or false) is no
    number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_int(name, value, least):
    """Reject ``value`` unless it is an integer, not a bool, of at least
    ``least``."""
    if not (_is(value, numbers.Integral) and value >= least):
        raise ConfigurationError(
            f"{name} must be an integer of at least {least}, got {value!r}")


LATENT, OBSERVED, AUXILIARY, DETERMINISTIC = (
    "latent", "observed", "auxiliary", "deterministic",
)

_DENSITY_FAMILIES = {"gaussian", "bernoulli", "exponential", "lognormal"}
_AUX_FAMILIES = {"std_normal_aux", "uniform_aux"}
_ACTIVATIONS = {"identity", "tanh", "sigmoid"}

# An assignment is a plain dict: node id -> value array of shape (dim,) or,
# for row-batched evaluation, (B, dim).
Assignment = dict


@dataclass(frozen=True)
class ParamRef:
    """Reference to a named block of the flat parameter vector."""

    name: str


@dataclass(frozen=True)
class AffineLink:
    """Location map ``activation(sum_p W_p @ parent_p + bias)``.

    ``weights`` pairs each parent id with either a fixed matrix of shape
    ``(dim, parent_dim)`` or a :class:`ParamRef`; ``bias`` is a fixed vector
    or a :class:`ParamRef`.
    """

    weights: tuple = ()
    bias: object = 0.0
    activation: str = "identity"


@dataclass(frozen=True)
class CustomLink:
    """Location map given directly as an expression builder.

    ``build(parent_exprs, param_exprs)`` returns an autodiff expression.  It
    is the link's only definition: densities, sampling and translations all
    evaluate it through the tape.
    """

    build: object


@dataclass(frozen=True)
class Factor:
    """Conditional family attached to a node."""

    family: str
    link: object = None
    scale: object = None  # fixed array, ParamRef, or None


@dataclass(frozen=True)
class NodeSpec:
    id: str
    kind: str
    dim: int
    parents: tuple
    factor: Factor


class ParamLayout:
    """Disjoint contiguous slices of one flat parameter vector.

    ``packed`` is the tape's layout of the blocks' ``theta:`` inputs, so
    the flat vector goes to the tape whole (see :func:`_param_gradient`).
    """

    def __init__(self, blocks):
        # blocks: iterable of (name, shape) in registration order
        self.blocks = {}
        offset = 0
        for name, shape in blocks:
            size = math.prod(shape)
            self.blocks[name] = (offset, tuple(shape))
            offset += size
        self.size = offset
        self.packed = tuple((f"theta:{name}", shape)
                            for name, (_, shape) in self.blocks.items())

    def slice_of(self, name):
        offset, shape = self.blocks[name]
        size = math.prod(shape)
        return slice(offset, offset + size)

    def unpack(self, theta):
        """Views of ``theta`` reshaped per block, keyed by block name."""
        env = {}
        for name, (offset, shape) in self.blocks.items():
            size = math.prod(shape)
            env[name] = theta[offset:offset + size].reshape(shape)
        return env

    def pack(self, env):
        theta = np.zeros(self.size)
        for name, (offset, shape) in self.blocks.items():
            size = math.prod(shape)
            theta[offset:offset + size] = np.asarray(env[name]).reshape(-1)
        return theta

    def __iter__(self):
        return iter(self.blocks)


class FactorGraphModel:
    """Validated DAG of nodes plus the parameter layout.

    Instances are immutable after construction; compiled expressions are
    cached internally and shared across evaluations.
    """

    def __init__(self, nodes, layout):
        self.nodes = {n.id: n for n in nodes}
        self.layout = layout
        self.topo_order = _toposort(nodes)
        self._compiled = {}

    @property
    def free_ids(self):
        """Sampled coordinates: latent and auxiliary nodes in topological order."""
        return tuple(
            i for i in self.topo_order
            if self.nodes[i].kind in (LATENT, AUXILIARY)
        )

    @property
    def observed_ids(self):
        return tuple(i for i in self.topo_order if self.nodes[i].kind == OBSERVED)

    def free_dim(self):
        return sum(self.nodes[i].dim for i in self.free_ids)


def _toposort(nodes):
    by_id = {n.id: n for n in nodes}
    children = {n.id: [] for n in nodes}
    indegree = {n.id: len(n.parents) for n in nodes}
    for n in nodes:
        for p in n.parents:
            children[p].append(n.id)
    ready = [i for i, d in indegree.items() if d == 0]
    order = []
    while ready:
        ready.sort()  # stable, declaration-independent order among roots
        i = ready.pop(0)
        order.append(i)
        for c in children[i]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    if len(order) != len(by_id):
        stuck = sorted(set(by_id) - set(order))
        raise CycleError(f"parent relation has a cycle through {stuck}")
    return tuple(order)


# -- model construction from a declarative description -----------------------

def build_model(spec) -> FactorGraphModel:
    """Build and validate a model from a declarative description.

    ``spec`` is a mapping with a ``nodes`` list (or YAML text parsing to
    one).  Each node entry gives ``id``, ``kind``, ``dim``, ``family``, and
    optionally ``parents``, ``link`` (``activation``, ``weights``, ``bias``)
    and ``scale``.  Weight, bias, and scale entries are fixed numbers/lists,
    the string ``"param"`` (auto-named learnable block), or
    ``{"param": name}`` (shared learnable block).
    """
    if isinstance(spec, str):
        spec = yaml.safe_load(spec)
    if not isinstance(spec, dict) or "nodes" not in spec:
        raise ShapeError("model description must be a mapping with a 'nodes' list")
    entries = spec["nodes"]
    if not entries:
        raise ShapeError("model description has no nodes")

    registry = _BlockRegistry()
    seen = set()
    dims = {}
    kinds = {}
    raw = []
    for entry in entries:
        node_id = str(entry.get("id", ""))
        if not node_id:
            raise ShapeError("every node needs an id")
        if node_id in seen:
            raise ShapeError(f"duplicate node id '{node_id}'")
        if node_id.startswith("theta:"):
            raise ShapeError(f"node id '{node_id}' uses the reserved prefix 'theta:'")
        seen.add(node_id)
        dim = int(entry.get("dim", 1))
        if dim < 1:
            raise ShapeError(f"node '{node_id}': dim must be >= 1")
        dims[node_id] = dim
        kinds[node_id] = entry.get("kind", LATENT)
        raw.append(entry)

    nodes = []
    for entry in raw:
        nodes.append(_build_node(entry, dims, kinds, registry))

    layout = ParamLayout(registry.ordered())
    return FactorGraphModel(nodes, layout)


class _BlockRegistry:
    def __init__(self):
        self._shapes = {}
        self._order = []

    def register(self, name, shape, node_id):
        shape = tuple(shape)
        if name in self._shapes:
            if self._shapes[name] != shape:
                raise ShapeError(
                    f"parameter block '{name}' used with shape {shape} at node "
                    f"'{node_id}' but registered with {self._shapes[name]}"
                )
        else:
            self._shapes[name] = shape
            self._order.append(name)
        return ParamRef(name)

    def ordered(self):
        return [(name, self._shapes[name]) for name in self._order]


def _build_node(entry, dims, kinds, registry):
    node_id = str(entry["id"])
    kind = entry.get("kind", LATENT)
    if kind not in (LATENT, OBSERVED, AUXILIARY):
        raise UnsupportedFamily(f"node '{node_id}': unknown kind '{kind}'")
    dim = dims[node_id]
    family = entry.get("family")
    parents = tuple(str(p) for p in entry.get("parents", ()))
    for p in parents:
        if p not in dims:
            raise ShapeError(f"node '{node_id}': unknown parent '{p}'")
        if kinds.get(p) == OBSERVED:
            raise ObservedNotLeaf(
                f"observed node '{p}' cannot be a parent of '{node_id}'"
            )

    if family in _AUX_FAMILIES:
        if kind != AUXILIARY:
            raise UnsupportedFamily(
                f"node '{node_id}': family '{family}' requires kind 'auxiliary'"
            )
        if parents:
            raise ShapeError(f"auxiliary node '{node_id}' cannot have parents")
        return NodeSpec(node_id, AUXILIARY, dim, (), Factor(family))
    if kind == AUXILIARY:
        raise UnsupportedFamily(
            f"node '{node_id}': auxiliary nodes need an auxiliary family"
        )
    if family not in _DENSITY_FAMILIES:
        raise UnsupportedFamily(f"node '{node_id}': unknown family '{family}'")
    if family == "bernoulli" and kind != OBSERVED:
        raise UnsupportedFamily(
            f"node '{node_id}': discrete latent nodes are not supported"
        )

    link = _build_link(entry.get("link", {}), node_id, dim, parents, dims, registry)

    scale = None
    if family in ("gaussian", "lognormal"):
        scale = _build_scale(entry.get("scale"), node_id, registry)
    elif "scale" in entry:
        raise ShapeError(f"node '{node_id}': family '{family}' takes no scale")

    # a Gaussian latent with fixed zero scale is a deterministic function
    # of its parents
    if (
        family == "gaussian"
        and kind == LATENT
        and isinstance(scale, np.ndarray)
        and np.all(scale == 0.0)
    ):
        return NodeSpec(node_id, DETERMINISTIC, dim, parents,
                        Factor("deterministic", link=link))
    if isinstance(scale, np.ndarray):
        if not np.all(np.isfinite(scale)):
            raise ZeroScale(f"node '{node_id}': non-finite scale")
        if np.any(scale < 0.0):
            raise ZeroScale(f"node '{node_id}': negative scale")
        if np.any(scale == 0.0):
            raise ZeroScale(
                f"node '{node_id}': zero scale where a density is required"
            )

    return NodeSpec(node_id, kind, dim, parents, Factor(family, link, scale))


def _build_link(raw, node_id, dim, parents, dims, registry):
    if not isinstance(raw, dict):
        raise ShapeError(f"node '{node_id}': link must be a mapping")
    activation = raw.get("activation", "identity")
    if activation not in _ACTIVATIONS:
        raise UnsupportedFamily(
            f"node '{node_id}': unknown link activation '{activation}'"
        )
    weight_spec = raw.get("weights", {})
    weights = []
    for p in parents:
        wspec = weight_spec.get(p, "identity") if isinstance(weight_spec, dict) else weight_spec
        shape = (dim, dims[p])
        if isinstance(wspec, str) and wspec == "identity":
            if dims[p] != dim:
                raise ShapeError(
                    f"node '{node_id}': identity weights need parent '{p}' of "
                    f"dim {dim}, got {dims[p]}"
                )
            weights.append((p, np.eye(dim)))
        elif isinstance(wspec, str) and wspec == "param":
            weights.append((p, registry.register(f"{node_id}.W.{p}", shape, node_id)))
        elif isinstance(wspec, dict) and "param" in wspec:
            weights.append((p, registry.register(str(wspec["param"]), shape, node_id)))
        else:
            w = np.asarray(wspec, dtype=np.float64)
            if w.shape != shape:
                raise ShapeError(
                    f"node '{node_id}': weights for parent '{p}' must have "
                    f"shape {shape}, got {w.shape}"
                )
            weights.append((p, w))

    braw = raw.get("bias", 0.0)
    if isinstance(braw, str) and braw == "param":
        bias = registry.register(f"{node_id}.b", (dim,), node_id)
    elif isinstance(braw, dict) and "param" in braw:
        bias = registry.register(str(braw["param"]), (dim,), node_id)
    else:
        bias = np.asarray(braw, dtype=np.float64)
        if bias.ndim == 0:
            bias = np.full(dim, float(bias))
        if bias.shape != (dim,):
            raise ShapeError(
                f"node '{node_id}': bias must be scalar or length {dim}"
            )
    return AffineLink(tuple(weights), bias, activation)


def _build_scale(raw, node_id, registry):
    if raw is None:
        raise ZeroScale(f"node '{node_id}': a scale is required")
    if isinstance(raw, str) and raw == "param":
        return registry.register(f"{node_id}.sigma", (1,), node_id)
    if isinstance(raw, dict) and "param" in raw:
        return registry.register(str(raw["param"]), (1,), node_id)
    scale = np.asarray(raw, dtype=np.float64)
    if scale.ndim == 0:
        scale = scale.reshape(1)
    if scale.ndim != 1:
        raise ShapeError(f"node '{node_id}': scale must be scalar or vector")
    return scale


# -- compiled joint density ---------------------------------------------------

class _Compiled:
    __slots__ = ("root", "value_ids", "support_checks")

    def __init__(self, root, value_ids, support_checks):
        self.root = root
        self.value_ids = value_ids
        self.support_checks = support_checks


def _link_expr(link, node, parent_exprs, param_exprs):
    if isinstance(link, CustomLink):
        return link.build(parent_exprs, param_exprs)
    expr = _coeff_expr(link.bias, param_exprs)
    for pid, w in link.weights:
        expr = ad.affine(_coeff_expr(w, param_exprs), parent_exprs[pid], expr)
    if link.activation == "tanh":
        expr = ad.tanh(expr)
    elif link.activation == "sigmoid":
        expr = ad.sigmoid(expr)
    return expr


def _coeff_expr(coeff, param_exprs):
    if isinstance(coeff, ParamRef):
        return param_exprs[coeff.name]
    return ad.constant(coeff)


_SUPPORT = {"exponential": "nonnegative", "lognormal": "positive",
            "uniform_aux": "unit_interval"}


def _node_exprs(model, value_expr):
    """Expressions for every node's value and link, over shared parameters.

    ``value_expr(node, link, param_exprs)`` gives each node's value from its
    link expression (``None`` for auxiliary nodes), whose parents' values
    it reads.
    """
    param_exprs = {name: ad.inp(f"theta:{name}") for name in model.layout}
    values, links = {}, {}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        if node.factor.link is not None:
            parent_exprs = {p: values[p] for p in node.parents}
            links[node_id] = _link_expr(node.factor.link, node, parent_exprs,
                                        param_exprs)
        values[node_id] = value_expr(node, links.get(node_id), param_exprs)
    return values, links, param_exprs


def _given(node, link, param_exprs):
    """Deterministic nodes follow their links; every other value is bound."""
    return link if node.kind == DETERMINISTIC else ad.inp(node.id)


def _coeff_key(coeff):
    """Equal keys for the same parameter block or equal constants."""
    if coeff is None or isinstance(coeff, ParamRef):
        return coeff
    coeff = np.asarray(coeff, dtype=np.float64)
    return coeff.shape, coeff.tobytes()


def _signature(model, node):
    """Nodes with equal signatures have terms of the same expression over
    different values; a :class:`CustomLink` node has none."""
    factor, link = node.factor, node.factor.link
    if isinstance(link, CustomLink):
        return None
    key = (factor.family, node.dim, _coeff_key(factor.scale))
    if link is not None:
        key += (link.activation, _coeff_key(link.bias),
                tuple((_coeff_key(w), model.nodes[p].dim) for p, w in link.weights))
    return key


def _term(family, value, link, scale):
    """Log-density of ``value`` summed over its trailing axis."""
    if family == "gaussian":
        return ad.gaussian_log_pdf(value, link, scale)
    if family == "bernoulli":
        return ad.bernoulli_log_pmf(value, link)
    if family == "exponential":
        return ad.total(ad.log(link)) - ad.total(ad.mul(link, value))
    if family == "lognormal":
        return (ad.gaussian_log_pdf(ad.log(value), link, scale)
                - ad.total(ad.log(value)))
    return ad.gaussian_log_pdf(value, ad.constant(0.0), ad.constant(1.0))


def _compile(model, observed_only=False):
    """The joint log-density (or only the observed nodes' terms) as one
    expression, cached on the model.

    Non-deterministic nodes with equal :func:`_signature` -- family, dim,
    scale, and an affine link with the same activation, bias and weight
    coefficient and parent dim at each position -- share one term: their
    values and each position's parent values are stacked on a group axis,
    the family's term is built once over the stacks and summed over that
    axis.  Terms are leaves of the joint's sum, so this needs no
    independence analysis.  Custom-link nodes keep a term of their own.
    """
    key = "obs" if observed_only else "joint"
    cached = model._compiled.get(key)
    if cached is not None:
        return cached

    values, links, param_exprs = _node_exprs(model, _given)
    groups = {}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        # uniform noise has density 1 on (0, 1); support is enforced apart
        if node.kind == DETERMINISTIC or node.factor.family == "uniform_aux":
            continue
        if observed_only and node.kind != OBSERVED:
            continue
        signature = _signature(model, node)
        groups.setdefault(node_id if signature is None else signature,
                          []).append(node)
    terms = []
    for members in groups.values():
        node, factor = members[0], members[0].factor
        scale = (None if factor.scale is None
                 else _coeff_expr(factor.scale, param_exprs))
        if len(members) == 1:
            terms.append(_term(factor.family, values[node.id],
                               links.get(node.id), scale))
            continue
        link = factor.link
        if link is not None:
            parents = {pid: ad.stack(*(values[m.factor.link.weights[k][0]]
                                       for m in members))
                       for k, (pid, _) in enumerate(link.weights)}
            link = _link_expr(link, node, parents, param_exprs)
        value = ad.stack(*(values[m.id] for m in members))
        terms.append(ad.total(_term(factor.family, value, link, scale)))

    root = ad.add(*terms) if terms else ad.constant(0.0)
    value_ids = tuple(
        i for i in model.topo_order if model.nodes[i].kind != DETERMINISTIC
    )
    support_checks = tuple((i, _SUPPORT[model.nodes[i].factor.family])
                           for i in value_ids
                           if model.nodes[i].factor.family in _SUPPORT)
    compiled = _Compiled(root, value_ids, support_checks)
    model._compiled[key] = compiled
    return compiled


def _check_theta(model, theta):
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.layout.size,):
        raise ShapeError(
            f"parameter vector must have shape ({model.layout.size},), "
            f"got {theta.shape}"
        )
    return theta


def _node_values(model, values, ids):
    """The values of nodes ``ids`` as float arrays, and their row count.

    The one rule for posterior data, learner datasets and full
    assignments: every id needs a value (:class:`UnboundInput`); a
    scalar is a vector of length 1; a value is a ``(dim,)`` vector shared
    by every row or a ``(rows, dim)`` matrix, all matrices of one
    ``rows`` (None without one); any other shape, and a key outside
    ``ids``, raise :class:`ShapeError`.
    """
    values = dict(values)
    out, rows = {}, None
    for node_id in ids:
        try:
            value = np.asarray(values.pop(node_id), dtype=np.float64)
        except KeyError:
            raise UnboundInput(f"no value for node '{node_id}'") from None
        if value.ndim == 0:
            value = value.reshape(1)
        dim = model.nodes[node_id].dim
        if value.ndim > 2 or value.shape[-1] != dim:
            raise ShapeError(
                f"node '{node_id}' takes a vector of length {dim} or one "
                f"such row per datapoint, got shape {value.shape}"
            )
        if value.ndim == 2:
            if rows not in (None, value.shape[0]):
                raise ShapeError(
                    f"node '{node_id}' has {value.shape[0]} rows where "
                    f"other values have {rows}"
                )
            rows = value.shape[0]
        out[node_id] = value
    if values:
        raise ShapeError(f"keys {sorted(map(str, values))} name no node "
                         f"that takes a value here")
    return out, rows


def _full_assignment(model, assignment):
    """The compiled joint and the :func:`_node_values` of a full
    assignment, less the deterministic nodes, which the joint recomputes."""
    compiled = _compile(model)
    kept = {i: v for i, v in dict(assignment).items()
            if i not in model.nodes or model.nodes[i].kind != DETERMINISTIC}
    return (compiled, *_node_values(model, kept, compiled.value_ids))


def _bindings(model, compiled, theta, assignment):
    """The :func:`_node_values` of ``compiled``'s nodes in ``assignment``
    (other keys are ignored) and ``theta:`` views of each θ block: the
    inputs of ``compiled.root`` unpacked, for reference programs."""
    ids = compiled.value_ids
    bindings, _ = _node_values(
        model, {i: v for i, v in assignment.items() if i in ids}, ids)
    bindings.update((f"theta:{name}", v)
                    for name, v in model.layout.unpack(theta).items())
    return bindings


def _out_of_support(values, kind):
    if kind == "nonnegative":
        return values < 0.0
    if kind == "positive":
        return values <= 0.0
    return (values <= 0.0) | (values >= 1.0)


def _mask_bad_rows(checks, bindings):
    """Mask of batch rows (or a bare bool) holding an out-of-support value.

    ``checks`` pairs node ids with support kinds.  Each offending value is
    replaced in ``bindings`` by 0.5, which every support contains, so the
    forward pass stays NaN-free; every other value, in the bad rows too,
    is left as it is, so good rows evaluate exactly as they would alone.
    """
    bad = False
    for node_id, kind in checks:
        v = bindings[node_id]
        out = _out_of_support(v, kind)
        if out.any():
            bindings[node_id] = np.where(out, 0.5, v)
            bad = np.logical_or(bad, np.any(out, axis=-1))
    return bad


def log_joint(model, theta, assignment):
    """Joint log-density of a full assignment under parameters ``theta``.

    Every latent, auxiliary and observed node takes a value by the one
    rule of :func:`_node_values`: a ``(dim,)`` vector shared by every row
    or a ``(rows, dim)`` matrix, all matrices of one row count, and no key
    for a node that does not exist.  Values given for deterministic nodes
    are ignored: the compiled expression recomputes them.  Returns
    ``-inf`` when a value lies outside its family's support, and raises
    :class:`NonFinite` if the result is NaN with in-support inputs.
    Row-batched assignments give a vector of per-row log-densities.
    """
    theta = _check_theta(model, theta)
    compiled, values, _ = _full_assignment(model, assignment)
    bad = _mask_bad_rows(compiled.support_checks, values)
    if np.ndim(bad) == 0 and bad:
        return -np.inf
    value = ad.evaluate(compiled.root, values,
                        packed=(model.layout.packed, theta))
    if np.any(bad):
        value = np.where(bad, -np.inf, value)
    if np.any(np.isnan(value)):
        raise NonFinite("log-joint evaluated to NaN")
    return value


def grad_log_joint_latents(model, theta, assignment):
    """Log-joint and its gradient with respect to the free coordinates.

    Returns ``(value, grads)`` where ``grads`` maps each latent and
    auxiliary node id to the adjoint array.  This is
    :meth:`LatentPosterior.value_and_grad` with the observed values of
    ``assignment`` as data, so row i of a batch equals the call on row i
    alone: out-of-support rows give ``-inf`` with zero gradients, and an
    out-of-support observed value raises :class:`DomainError`.  Values
    follow the one rule of :func:`log_joint`; beyond it, free values are
    either all ``(dim,)`` points or all ``(rows, dim)`` batches.
    """
    theta = _check_theta(model, theta)
    _, values, _ = _full_assignment(model, assignment)
    if len({values[i].shape[:-1] for i in model.free_ids}) > 1:
        raise ShapeError(
            "free values must be all single points or all batches of the "
            "same number of rows"
        )
    target = LatentPosterior(
        model, theta, {i: values[i] for i in model.observed_ids}
    )
    value, grad = target.value_and_grad(pack_coords(model, values))
    return value, unpack_coords(model, grad)


def grad_log_joint_params(model, theta, assignment):
    """Log-joint and its gradient with respect to the flat parameter vector;
    a row batch gives per-row values and the gradient summed over rows.
    Values follow the one rule of :func:`log_joint`."""
    theta = _check_theta(model, theta)
    compiled, values, rows = _full_assignment(model, assignment)
    return _param_gradient(model, compiled, theta, values,
                           None if rows is None else np.ones(rows))


def _param_gradient(model, compiled, theta, values, seed):
    """Value of ``compiled.root`` at node ``values`` and its gradient with
    respect to the flat parameter vector ``theta``, which goes to the tape
    packed; ``seed`` weights the rows of a batched root."""
    record = ad.evaluate_with_gradient(
        compiled.root, values, seed_adjoint=seed, wrt=frozenset(),
        packed=(model.layout.packed, theta))
    return record.value, record.packed


class LatentPosterior:
    """Log density of the free coordinates given data, with gradient.

    The one evaluator behind the samplers, the Monte Carlo EM E-step and
    :func:`grad_log_joint_latents`.  The parameters, the data and a seed
    of ones are bound once per batch shape (see :func:`.autodiff.bind`),
    so arrays changed in place after construction are not seen; each
    call hands that program ``q`` whole, packed in :func:`coord_slices`
    order, and gets one flat gradient back.
    Accepts a single ``(dim,)`` point or a ``(rows, dim)`` batch.
    Out-of-support and numerically exploded rows come back as ``-inf``
    with zero gradient instead of raising: the sampler treats them as
    rejections.

    ``data`` gives the observed nodes, and only them, values by the one
    rule of :func:`_node_values`: a ``(dim,)`` vector shared by every row
    or an ``(n, dim)`` matrix giving row i its own datapoint, all with the
    same ``n``, so one batch runs one chain per datapoint; batches must
    then have ``n`` rows.  A single ``(dim,)`` point against per-row data
    gives one value per datapoint and the gradient summed over them.
    """

    def __init__(self, model, theta, data):
        self.model = model
        self.theta = _check_theta(model, theta)
        self.compiled = _compile(model)
        self.slices, self.dim = coord_slices(model)
        self._layout = tuple((i, (model.nodes[i].dim,))
                             for i in model.free_ids)
        self._bound = {}

        bindings, self.rows = _node_values(model, data or {},
                                           model.observed_ids)
        bindings.update((f"theta:{name}", v)
                        for name, v in model.layout.unpack(self.theta).items())
        self._bindings = bindings

        # observed values are checked once; free values on every call
        self._checks = []
        for node_id, kind in self.compiled.support_checks:
            if node_id in self.slices:
                self._checks.append((self.slices[node_id], kind))
            elif np.any(_out_of_support(bindings[node_id], kind)):
                raise DomainError(
                    f"observed value for '{node_id}' lies outside the "
                    f"support of its family"
                )

    def value_and_grad(self, q):
        """Log density and gradient at ``q``; ``(rows, dim)`` batches allowed."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape[-1] != self.dim or q.ndim > 2 or (
            q.ndim == 2 and self.rows not in (None, q.shape[0])
        ):
            raise ShapeError(
                f"expected coordinates of length {self.dim}"
                + ("" if self.rows is None else f" in {self.rows} rows")
                + f", got shape {q.shape}"
            )
        bad = False
        for sl, kind in self._checks:
            v = q[..., sl]
            out = _out_of_support(v, kind)
            if out.any():
                if bad is False:  # the first one: leave the caller's q be
                    q = q.copy()
                q[..., sl] = np.where(out, 0.5, v)
                bad = np.logical_or(bad, np.any(out, axis=-1))
        bound = self._bound.get(q.shape)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if bound is None:
                rows = q.shape[0] if q.ndim == 2 else self.rows
                bound = self._bound[q.shape] = ad.bind(
                    self.compiled.root, self._bindings, (self._layout, q),
                    None if rows is None else np.ones(rows))
            record = ad.evaluate_with_gradient(
                bound, None, seed_adjoint=bound.seed, packed=q)
        grad = record.packed
        grad = np.where(np.isfinite(grad), grad, 0.0)
        value = record.value

        if q.ndim == 1:
            if bad or not np.isfinite(value).all():
                return -np.inf, np.zeros(self.dim)
            return value, grad
        keep = np.isfinite(value) & np.logical_not(bad)
        if not keep.all():
            value = np.where(keep, value, -np.inf)
            grad = grad * keep[:, None]
        return value, grad


# -- forward programs: sampling and deterministic values ---------------------

_UNIFORM_NOISE = {"exponential", "uniform_aux", "bernoulli"}
_NOISE_MAPPED = {"gaussian", "lognormal", "exponential"}


def _noise_map(node, loc, eps, param_exprs):
    """Value of a continuous node at standard noise ``eps``, as an expression.

    ``loc + scale * eps`` for Gaussian nodes and ``exp`` of it for
    log-normal ones (normal ``eps``); ``-log(1 - eps) / rate`` for
    exponential nodes (uniform ``eps``, ``loc`` is the rate).
    """
    if node.factor.family == "exponential":
        return -ad.log(1.0 - eps) / loc
    value = ad.add(loc, ad.mul(_coeff_expr(node.factor.scale, param_exprs), eps))
    return ad.exp(value) if node.factor.family == "lognormal" else value


def _program(model, key, value_expr, ids, link_ids=()):
    """Forward-only expression for the values (by ``value_expr``, see
    :func:`_node_exprs`) of nodes ``ids`` followed by the links of nodes
    ``link_ids``, cached in ``model._compiled`` under ``key``."""
    root = model._compiled.get(key)
    if root is None:
        values, links, _ = _node_exprs(model, value_expr)
        root = model._compiled[key] = ad.outputs(
            *(values[i] for i in ids), *(links[i] for i in link_ids))
    return root


def _run(root, env, values):
    """Evaluate a program at parameter blocks ``env`` and node ``values``."""
    bindings = {f"theta:{name}": v for name, v in env.items()}
    bindings.update(values)
    return ad.evaluate(root, bindings)


def _map_noise(model, key, noise_ids, ids, env, values):
    """Values of nodes ``ids`` when each node in ``noise_ids`` follows its
    family's noise map of the noise bound under ``noise_ids[node_id]``.

    Bernoulli nodes give their logits; other values follow :func:`_given`.
    One program per ``key``, which must determine ``noise_ids`` and ``ids``.
    """
    def value_expr(node, link, param_exprs):
        if node.id in noise_ids:
            eps = ad.inp(noise_ids[node.id])
            return _noise_map(node, link, eps, param_exprs)
        return link if node.factor.family == "bernoulli" else _given(
            node, link, param_exprs)

    rate_ids = tuple(i for i in noise_ids
                     if model.nodes[i].factor.family == "exponential")
    root = _program(model, key, value_expr, ids, rate_ids)
    with np.errstate(divide="ignore"):
        out = _run(root, env, values)
    for node_id, rate in zip(rate_ids, out[len(ids):]):
        if np.any(rate <= 0.0):
            raise DomainError(f"node '{node_id}': rate must be positive")
    return dict(zip(ids, out))


def ancestral_sample(model, theta, rng, size=None):
    """Draw a full joint assignment: the model evaluated at fresh noise.

    One standard noise array is drawn per non-deterministic node in
    topological order: normal for Gaussian, log-normal and
    ``std_normal_aux`` nodes, uniform for exponential, ``uniform_aux`` and
    Bernoulli nodes.  One pass of the model's expressions then maps the
    noise to values (see :func:`_noise_map`), so the draw equals the
    non-centered graph at the same noise; Bernoulli values are
    ``u < expit(logits)``.  With ``size=n`` every node value is an
    ``(n, dim)`` row batch drawn with shared parameters; otherwise values
    are ``(dim,)`` vectors.  Observed nodes are sampled too.  A ``size``
    that is not a positive integer raises ``ConfigurationError``.
    """
    if size is not None:
        _check_int("size", size, 1)
    theta = _check_theta(model, theta)
    noise, noise_ids, shapes = {}, {}, {}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        shape = shapes[node_id] = (
            (node.dim,) if size is None else (size, node.dim))
        if node.kind == DETERMINISTIC:
            continue
        family = node.factor.family
        draw = rng.random if family in _UNIFORM_NOISE else rng.standard_normal
        noise[node_id] = draw(shape)
        if family in _NOISE_MAPPED:
            noise_ids[node_id] = node_id
    values = _map_noise(model, "sample", noise_ids, model.topo_order,
                        model.layout.unpack(theta), noise)
    for node_id, value in values.items():
        node = model.nodes[node_id]
        if node.factor.family == "bernoulli":
            value = (noise[node_id] < expit(value)).astype(np.float64)
        elif node.kind == DETERMINISTIC or value.shape != shapes[node_id]:
            # a copy, never a constant or parameter block of the program
            value = np.broadcast_to(value, shapes[node_id]).copy()
        values[node_id] = value
    return values


# -- flat views of the free coordinates ---------------------------------------

def coord_slices(model):
    """Contiguous slices of a flat vector over the free node ids."""
    slices = {}
    offset = 0
    for i in model.free_ids:
        d = model.nodes[i].dim
        slices[i] = slice(offset, offset + d)
        offset += d
    return slices, offset


def pack_coords(model, assignment):
    """Concatenate the free nodes' values into one vector."""
    parts = [np.asarray(assignment[i], dtype=np.float64)
             for i in model.free_ids]
    return np.concatenate(parts, axis=-1) if parts else np.zeros(0)


def unpack_coords(model, vector):
    """Split a flat (or row-batched) vector back into per-node values."""
    slices, total = coord_slices(model)
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape[-1] != total:
        raise ShapeError(
            f"coordinate vector has trailing length {vector.shape[-1]}, "
            f"expected {total}"
        )
    return {i: vector[..., s] for i, s in slices.items()}


def random_params(model, rng, scale=1.0):
    """Standard-normal initial parameter vector (scaled)."""
    return scale * rng.standard_normal(model.layout.size)
