"""Local posterior geometry of centered versus non-centered coordinates.

For one latent node z with a parent y, the local log-joint is summarized by
four numbers: the curvature ``alpha`` of everything but z's factor with
respect to y, the curvature ``beta`` of z's children's factors with respect
to z, the link weight ``w`` from y to z, and z's conditional scale
``sigma``.  Under a second-order (Gaussian) approximation at the point,
each parameterization has a 2x2 Hessian in the (y, z) or (y, eps)
coordinates, and the squared posterior correlation between the pair is
read off the Hessian elements.

The centered/non-centered choice flips which regimes are hard: as sigma
goes to zero the centered pair becomes perfectly correlated while the
non-centered pair decorrelates, and as the children's curvature grows the
roles swap.  The preference test reduces to comparing 1/sigma^2 with
-beta, independent of alpha and w.

Hessians of full models are obtained by central finite differences of the
gradient, which doubles as an independent check on the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    DomainError,
    NonFinite,
    NumericError,
    SignError,
    ZeroScale,
)
from .graph import LatentPosterior, _coeff_expr, _program, _run, pack_coords
from .modelzoo import build_lds_model
from .reparam import apply_plan, full_dncp_plan

_RHO_SLACK = 1e-12


@dataclass(frozen=True)
class LocalFactorSummary:
    """Curvatures and link data of one parent-child pair at a point.

    Concavity of both the surrounding factors (alpha) and the children's
    factors (beta) is required; the comparison theory assumes it.
    """

    alpha: float
    beta: float
    w: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ZeroScale("sigma must be positive")
        if self.alpha >= 0.0 or self.beta >= 0.0:
            raise SignError("alpha and beta must be negative")


def cp_squared_correlation(s: LocalFactorSummary) -> float:
    """Squared posterior correlation of (y, z) under the centered form."""
    den = (s.alpha - s.w ** 2 / s.sigma ** 2) * (s.beta - 1.0 / s.sigma ** 2)
    if den <= 0.0:
        raise DomainError("denominator not positive; curvature signs violated")
    return (s.w ** 2 / s.sigma ** 4) / den


def dncp_squared_correlation(s: LocalFactorSummary) -> float:
    """Squared posterior correlation of (y, eps) under the non-centered form."""
    den = (s.alpha + s.w ** 2 * s.beta) * (s.sigma ** 2 * s.beta - 1.0)
    if den <= 0.0:
        raise DomainError("denominator not positive; curvature signs violated")
    return (s.sigma ** 2 * s.w ** 2 * s.beta ** 2) / den


def prefer_dncp(sigma, beta) -> bool:
    """True when the non-centered form has strictly smaller correlation.

    The comparison depends only on the node's own noisiness and its
    influence on its children: the non-centered form wins exactly when
    1/sigma^2 exceeds -beta.  Ties (including beta == -1/sigma^2, where
    the two correlations coincide) report False.
    """
    if sigma <= 0.0:
        raise ZeroScale("sigma must be positive")
    if beta >= 0.0:
        raise SignError("beta must be negative")
    return sigma ** -2 > -beta


def correlation_limits(s: LocalFactorSummary, which) -> tuple:
    """Closed-form limits of the two squared correlations.

    ``which`` names the limit being taken with the other quantities held
    fixed: "sigma->0", "sigma->inf", "beta->0", "beta->-inf", "alpha->0",
    or "alpha->-inf".  Returns (centered, non-centered).
    """
    a, b, w, sig = s.alpha, s.beta, s.w, s.sigma
    if which == "sigma->0":
        return (1.0, 0.0)
    if which == "sigma->inf":
        return (0.0, b * w ** 2 / (b * w ** 2 + a))
    if which == "beta->0":
        return (w ** 2 / (w ** 2 - a * sig ** 2), 0.0)
    if which == "beta->-inf":
        return (0.0, 1.0)
    if which == "alpha->0":
        return (1.0 / (1.0 - b * sig ** 2), b * sig ** 2 / (b * sig ** 2 - 1.0))
    if which == "alpha->-inf":
        return (0.0, 0.0)
    raise ValueError(f"unknown limit '{which}'")


def _mean_rule(given):
    """Each node's prior mean given its parents, as an expression; nodes in
    ``given`` are bound and observed nodes are skipped."""
    def value_expr(node, link, param_exprs):
        family = node.factor.family
        if node.id in given:
            return ad.inp(node.id)
        if node.kind == "observed":
            return None
        if family == "std_normal_aux":
            return ad.constant(np.zeros(node.dim))
        if family == "uniform_aux":
            return ad.constant(np.full(node.dim, 0.5))
        if family == "exponential":
            return ad.reciprocal(link)
        if family == "lognormal":
            scale = _coeff_expr(node.factor.scale, param_exprs)
            return ad.exp(link + 0.5 * ad.square(scale))
        return link  # deterministic and Gaussian

    return value_expr


def prior_mean_point(model, theta, overrides=None) -> dict:
    """Forward pass through the graph replacing every noise draw by its mean.

    Entries of ``overrides`` are kept as supplied and condition everything
    downstream.  Observed nodes are skipped unless overridden.  The links
    run through the tape, in one program per model and set of overrides.
    """
    theta = np.asarray(theta, dtype=np.float64)
    values = dict(overrides or {})
    given = frozenset(values)
    ids = tuple(i for i in model.topo_order
                if i not in given and model.nodes[i].kind != "observed")
    root = _program(model, ("prior_mean", given), _mean_rule(given), ids)
    for node_id, value in zip(ids, _run(root, model.layout.unpack(theta),
                                        values)):
        dim = model.nodes[node_id].dim
        values[node_id] = np.broadcast_to(value, (dim,)).astype(np.float64)
    return values


def hessian_log_posterior(model, theta, point, coordinate_system="cp",
                          plan=None, step=1e-4) -> np.ndarray:
    """Dense Hessian of the log-joint in the free coordinates of a system.

    ``coordinate_system`` chooses between the model's own latent
    coordinates ("cp") and the noise coordinates of a plan ("dncp",
    defaulting to a full plan).  ``point`` must hold the observed values;
    missing free coordinates are filled by the prior-mean forward pass.
    Central differences of the gradient, symmetrized.
    """
    if coordinate_system == "dncp":
        model = apply_plan(model, plan if plan is not None
                           else full_dncp_plan(model))
    elif coordinate_system != "cp":
        raise ValueError(f"unknown coordinate system '{coordinate_system}'")
    theta = np.asarray(theta, dtype=np.float64)
    filled = prior_mean_point(model, theta, overrides=point)
    x0 = pack_coords(model, filled)
    target = LatentPosterior(model, theta, {
        i: filled[i] for i in model.observed_ids if i in filled})
    n = x0.size
    H = np.empty((n, n))
    for k in range(n):
        hi, lo = x0.copy(), x0.copy()
        hi[k] += step
        lo[k] -= step
        H[:, k] = (target.value_and_grad(hi)[1]
                   - target.value_and_grad(lo)[1]) / (2.0 * step)
    H = 0.5 * (H + H.T)
    if not np.all(np.isfinite(H)):
        raise NonFinite("Hessian has non-finite entries")
    return H


@dataclass(frozen=True)
class CorrelationReport:
    rho_sq_cp: float
    rho_sq_dncp: float
    prefer_dncp: bool
    hessian_cp: np.ndarray
    hessian_dncp: np.ndarray


def lds_correlations(sigma_x, sigma_z) -> CorrelationReport:
    """Both parameterizations' posterior correlation for the two-step chain.

    The closed-form Hessians (constant, since the log-joint is quadratic)
    are cross-checked against finite differences on the actual graphs; the
    non-centered form is preferred exactly when sigma_z < sigma_x.
    """
    if sigma_x <= 0.0 or sigma_z <= 0.0:
        raise ZeroScale("both scales must be positive")
    sx2, sz2 = sigma_x ** 2, sigma_z ** 2
    h_cp = np.array([
        [-1.0 - 1.0 / sx2 - 1.0 / sz2, 1.0 / sz2],
        [1.0 / sz2, -1.0 / sx2 - 1.0 / sz2],
    ])
    h_dncp = np.array([
        [-1.0 - 2.0 / sx2, -sigma_z / sx2],
        [-sigma_z / sx2, -1.0 - sz2 / sx2],
    ])
    rho_cp = (1.0 / sz2 ** 2) / ((1.0 + 1.0 / sx2 + 1.0 / sz2)
                                 * (1.0 / sx2 + 1.0 / sz2))
    rho_dncp = (sz2 / sx2 ** 2) / ((1.0 + 2.0 / sx2) * (1.0 + sz2 / sx2))

    model = build_lds_model(sigma_x, sigma_z)
    data = {"x1": np.zeros(1), "x2": np.zeros(1)}
    theta = np.zeros(0)
    for closed, system in ((h_cp, "cp"), (h_dncp, "dncp")):
        fd = hessian_log_posterior(model, theta, data, system)
        if not np.allclose(fd, closed, rtol=1e-6, atol=1e-6):
            raise NumericError(
                f"finite-difference Hessian disagrees with closed form "
                f"({system})"
            )
    for rho in (rho_cp, rho_dncp):
        if not (-_RHO_SLACK <= rho <= 1.0 + _RHO_SLACK):
            raise NumericError("squared correlation escaped [0, 1]")
    return CorrelationReport(rho_cp, rho_dncp, bool(sigma_z < sigma_x),
                             h_cp, h_dncp)
