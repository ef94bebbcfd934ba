"""Switching latent nodes between centered and non-centered form.

A latent node is *centered* (CP) when the sampler works on the node's value
``z`` directly, with density ``p(z | parents)``.  The *non-centered* form
(DNCP) rewrites the node as a deterministic map ``z = g(parents, eps)`` of a
fresh auxiliary root ``eps`` whose marginal is parameter-free.  The map must
be smooth and invertible in ``eps``, which ties the two densities together
through the usual change of variables:

    p(eps) = p(z = g(parents, eps) | parents) * |det dg/deps|

Three standard constructions are provided:

* location-scale for Gaussian nodes: ``g = mean(parents) + scale * eps``
  with standard-normal ``eps``;
* inverse CDF for exponential nodes: ``g = -log(1 - eps) / rate(parents)``
  with uniform ``eps``;
* composition for log-normal nodes: ``g = exp(mean(parents) + scale * eps)``
  with standard-normal ``eps``.

Each map ``g`` exists once, as an expression (``graph._noise_map``): the
rewritten graph's density, :func:`z_from_eps` and ancestral sampling all
evaluate it through the tape.  The inverses and log-Jacobians are numeric
and read their link values from the tape.

A plan maps node ids to transforms; nodes absent from the plan stay
centered, so mixed parameterizations are ordinary.  :func:`apply_plan`
rewrites the model graph (auxiliary roots plus deterministic nodes), while
:func:`z_from_eps` / :func:`eps_from_z` translate assignments between the
two coordinate systems without rebuilding anything: each runs one tape
program per model and set of planned nodes, cached on the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    DomainError,
    NonInvertible,
    ShapeError,
    UnboundInput,
    UnsupportedFamily,
)
from .graph import (
    AUXILIARY,
    DETERMINISTIC,
    LATENT,
    CustomLink,
    Factor,
    FactorGraphModel,
    NodeSpec,
    ParamRef,
    _given,
    _link_expr,
    _map_noise,
    _noise_map,
    _program,
    _run,
)


@dataclass(frozen=True)
class DncpTransform:
    """Invertible noise map for one latent node of ``model``.

    ``build_expr(parent_exprs, eps_expr, param_exprs)`` is the forward map
    as an expression, the node family's noise map.
    ``jacobian_log_abs_det`` is numeric, taking ``(parent_values, eps,
    param_env)``, and evaluates the node's link through the tape.
    """

    model: FactorGraphModel
    node_id: str
    aux_id: str
    aux_family: str

    def build_expr(self, parent_exprs, eps_expr, param_exprs):
        node = self.model.nodes[self.node_id]
        loc = _link_expr(node.factor.link, node, parent_exprs, param_exprs)
        return _noise_map(node, loc, eps_expr, param_exprs)

    def _link(self, parent_values, env):
        root = _program(self.model, ("link", self.node_id),
                        lambda node, link, params: ad.inp(node.id),
                        (), (self.node_id,))
        return _run(root, env, parent_values)[0]

    def jacobian_log_abs_det(self, parent_values, eps, env):
        node = self.model.nodes[self.node_id]
        eps = np.asarray(eps, dtype=np.float64)
        if node.factor.family == "gaussian":
            s = np.broadcast_to(_scale(node, env), (node.dim,))
            return float(np.sum(np.log(s)))
        loc = self._link(parent_values, env)
        if node.factor.family == "exponential":
            t = -np.log(_rate(node, loc)) - np.log1p(-eps)
        else:
            s = _scale(node, env)
            t = np.log(s) + loc + s * eps
        return np.sum(np.atleast_1d(np.broadcast_to(t, eps.shape)), axis=-1)


def _scale(node, env):
    s = node.factor.scale
    s = np.asarray(env[s.name] if isinstance(s, ParamRef) else s, dtype=np.float64)
    if (s <= 0.0).any():
        raise NonInvertible(f"node '{node.id}': scale must be positive")
    return s


def _rate(node, loc):
    if (loc <= 0.0).any():
        raise DomainError(f"node '{node.id}': rate must be positive")
    return loc


def _inverse(node, loc, z, env):
    """Noise that the node's noise map sends to ``z`` at link value ``loc``."""
    z = np.asarray(z, dtype=np.float64)
    family = node.factor.family
    if family == "exponential":
        if (z < 0.0).any():
            raise DomainError(f"node '{node.id}': value outside support")
        return -np.expm1(-_rate(node, loc) * z)
    if family == "lognormal":
        if (z <= 0.0).any():
            raise DomainError(f"node '{node.id}': value outside support")
        z = np.log(z)
    return (z - loc) / _scale(node, env)


def _require_latent(model, node_id, family):
    node = model.nodes.get(node_id)
    if node is None:
        raise ShapeError(f"no node '{node_id}' in model")
    if node.kind != LATENT:
        raise UnsupportedFamily(
            f"node '{node_id}' has kind '{node.kind}'; only latent nodes "
            "can be reparameterized"
        )
    if node.factor.family != family:
        raise UnsupportedFamily(
            f"node '{node_id}' has family '{node.factor.family}', expected "
            f"'{family}'"
        )
    return node


_AUX_FAMILY = {"gaussian": "std_normal_aux", "exponential": "uniform_aux",
               "lognormal": "std_normal_aux"}


def _transform(model, node_id, family):
    _require_latent(model, node_id, family)
    return DncpTransform(model, node_id, f"eps_{node_id}", _AUX_FAMILY[family])


def location_scale_transform(model, node_id) -> DncpTransform:
    """Non-centered form of a Gaussian node: ``z = mean(parents) + scale * eps``."""
    return _transform(model, node_id, "gaussian")


def inverse_cdf_transform(model, node_id) -> DncpTransform:
    """Non-centered form of an exponential node via its inverse CDF.

    ``eps`` is uniform on (0, 1) and ``z = -log(1 - eps) / rate(parents)``.
    """
    return _transform(model, node_id, "exponential")


def composition_transform(model, node_id) -> DncpTransform:
    """Non-centered form of a log-normal node: ``z = exp(mean + scale * eps)``."""
    return _transform(model, node_id, "lognormal")


def full_dncp_plan(model) -> dict:
    """A plan reparameterizing every latent node of the model."""
    plan = {}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        if node.kind != LATENT:
            continue
        if node.factor.family not in _AUX_FAMILY:
            raise UnsupportedFamily(
                f"node '{node_id}': no transform for family "
                f"'{node.factor.family}'"
            )
        plan[node_id] = _transform(model, node_id, node.factor.family)
    return plan


def apply_plan(model, plan) -> FactorGraphModel:
    """Rewrite the graph so planned nodes become deterministic maps of noise.

    Each planned latent node keeps its id but becomes deterministic with an
    extra auxiliary parent carrying the noise; unplanned nodes are copied
    unchanged.  The parameter layout is shared with the original model, so
    the same flat parameter vector drives both graphs.
    """
    for node_id, transform in plan.items():
        _require_latent(model, node_id, model.nodes[node_id].factor.family)
        if transform.node_id != node_id:
            raise ShapeError(
                f"plan entry '{node_id}' holds a transform for "
                f"'{transform.node_id}'"
            )
        if transform.aux_id in model.nodes:
            raise ShapeError(
                f"auxiliary id '{transform.aux_id}' collides with an "
                "existing node"
            )
    nodes = []
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        transform = plan.get(node_id)
        if transform is None:
            nodes.append(node)
            continue
        nodes.append(NodeSpec(transform.aux_id, AUXILIARY, node.dim, (),
                              Factor(transform.aux_family)))
        original_parents = node.parents

        def build(parent_exprs, param_exprs, t=transform, pids=original_parents):
            pe = {p: parent_exprs[p] for p in pids}
            return t.build_expr(pe, parent_exprs[t.aux_id], param_exprs)

        nodes.append(NodeSpec(node_id, DETERMINISTIC, node.dim,
                              original_parents + (transform.aux_id,),
                              Factor("deterministic", link=CustomLink(build))))
    return FactorGraphModel(nodes, model.layout)


def z_from_eps(model, plan, assignment, theta) -> dict:
    """Recover latent values from auxiliary noise under a plan.

    ``assignment`` supplies ``eps`` for every planned node (keyed by the
    transform's ``aux_id``) and plain values for unplanned latent nodes.
    Returns values for every latent and deterministic node of the original
    model, from one pass of the noise maps and links through the tape.
    """
    env = model.layout.unpack(np.asarray(theta, dtype=np.float64))
    aux_ids = {i: t.aux_id for i, t in plan.items()}
    for node_id, aux_id in aux_ids.items():
        if model.nodes[node_id].factor.family == "exponential":
            eps = np.asarray(assignment.get(aux_id, ()), dtype=np.float64)
            if np.any(eps <= 0.0) or np.any(eps >= 1.0):
                raise DomainError(f"node '{node_id}': eps must lie in (0, 1)")
    ids = tuple(i for i in model.topo_order
                if model.nodes[i].kind in (LATENT, DETERMINISTIC))
    values = _map_noise(model, ("z_from_eps", tuple(aux_ids.items())),
                        aux_ids, ids, env, assignment)
    for node_id in model.topo_order:
        if model.nodes[node_id].kind == AUXILIARY and node_id in assignment:
            values[node_id] = np.asarray(assignment[node_id], dtype=np.float64)
    return values


def eps_from_z(model, plan, assignment, theta) -> dict:
    """Invert :func:`z_from_eps`: recover noise values from latent values.

    ``assignment`` supplies a value for every latent node.  Returns ``eps``
    for planned nodes (keyed by ``aux_id``) and passes unplanned latent
    values through unchanged.  The planned nodes' link values come from one
    pass through the tape.
    """
    env = model.layout.unpack(np.asarray(theta, dtype=np.float64))
    for node_id in model.topo_order:
        if model.nodes[node_id].kind == LATENT and node_id not in assignment:
            raise UnboundInput(f"no value for latent node '{node_id}'")
    ids = tuple(i for i in model.topo_order if i in plan)
    root = _program(model, ("links", ids), _given, (), ids)
    locs = dict(zip(ids, _run(root, env, assignment)))
    out = {}
    for node_id in model.topo_order:
        node = model.nodes[node_id]
        if node.kind != LATENT:
            continue
        z = np.asarray(assignment[node_id], dtype=np.float64)
        if node_id in plan:
            out[plan[node_id].aux_id] = _inverse(node, locs[node_id], z, env)
        else:
            out[node_id] = z
    return out
