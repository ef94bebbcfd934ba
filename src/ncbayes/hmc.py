"""Hybrid Monte Carlo over either coordinate system of a factor graph.

The chain targets the free coordinates of a model conditioned on observed
data with fixed parameters, through :class:`~ncbayes.graph.LatentPosterior`.
It can run in the model's own latent coordinates, in the auxiliary-noise
coordinates of a reparameterization plan, or as a mixture kernel that flips
a coin each iteration and performs the update in whichever system it
picked, translating the current point exactly between systems.  Draws are
always stored in latent (z) coordinates regardless of where the updates
happened.

Every update, here and in the Monte Carlo EM E-step, is one call of the
batched :func:`_transition`, and every step-size change one call of
:func:`_adapt`.  Step sizes adapt multiplicatively during burn-in and
freeze afterwards.  The mixture kernel keeps one adapted step size per
system: the two posteriors have very different curvature precisely in the
regimes where the mixture is interesting, and a shared step collapses to
the smaller of the two scales, immobilizing the other component.

Replicate chains with different seeds evolve as rows of one batched state,
so the gradient tape runs once per leapfrog step for all replicates.  Each
row draws its momenta and acceptance variables from its own generator; the
mixture coin is shared across rows (drawn from the first row's generator),
which keeps every row in the same coordinate system without affecting any
single row's transition law.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from . import graph
from .errors import ConfigurationError, NonFinite, StepUnderflow
from .graph import LatentPosterior, pack_coords, unpack_coords
from .reparam import apply_plan, eps_from_z, full_dncp_plan, z_from_eps

STEP_FLOOR = 1e-12
GROW = 1.02

_SYSTEM_OF = {"cp": "z", "dncp": "eps"}


@dataclass(frozen=True)
class HmcConfig:
    """Sampler settings.

    ``step_size`` is the initial integrator step; adaptation retunes it
    during the first ``burn_in`` iterations and freezes it afterwards.
    """

    step_size: float
    leapfrog_steps: int = 10
    target_accept: float = 0.9
    burn_in: int = 1000
    samples: int = 4000
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigurationError("step_size must be a positive real")
        if int(self.leapfrog_steps) < 1:
            raise ConfigurationError("leapfrog_steps must be at least 1")
        if not (0.0 < self.target_accept < 1.0):
            raise ConfigurationError("target_accept must lie in (0, 1)")
        if int(self.burn_in) < 0:
            raise ConfigurationError("burn_in cannot be negative")
        if int(self.samples) < 1:
            raise ConfigurationError("samples must be at least 1")


@dataclass(frozen=True)
class ChainResult:
    """Stored draws plus per-iteration traces.

    ``draws`` has one row per retained sample, always in z-coordinates.
    The traces cover every iteration including burn-in, so the realized
    acceptance rate after warmup is ``accept_trace[burn_in:].mean()``.
    ``system_trace`` records which parameterization each iteration used
    ("cp" or "dncp"); ``final_step_sizes`` maps those names to the frozen
    post-adaptation step sizes.
    """

    draws: np.ndarray
    accept_trace: np.ndarray
    step_trace: np.ndarray
    system_trace: np.ndarray
    final_step_sizes: dict


def _integrate(q, p, value_and_grad, step_size, n_steps, grad0=None):
    """Leapfrog trajectory returning the final log density and gradient.

    ``step_size`` may be a scalar or one step per batch row.  Reuses
    ``grad0`` for the first half-kick when supplied, so one call costs
    exactly ``n_steps`` density evaluations.
    """
    h = np.asarray(step_size, dtype=np.float64)
    if h.ndim:
        h = h[:, None]
    g = value_and_grad(q)[1] if grad0 is None else grad0
    p = p + (0.5 * h) * g
    logp = None
    for k in range(n_steps):
        q = q + h * p
        logp, g = value_and_grad(q)
        p = p + ((0.5 if k == n_steps - 1 else 1.0) * h) * g
    return q, p, logp, g


def _propose(q0, logp0, g0, p0, target, step_size, n_steps):
    """Integrate one trajectory and compute the energy change."""
    q1, p1, logp1, g1 = _integrate(
        q0, p0, target.value_and_grad, step_size, n_steps, grad0=g0
    )
    with np.errstate(invalid="ignore"):
        dh = (logp1 - 0.5 * np.sum(p1 * p1, axis=-1)) - (
            logp0 - 0.5 * np.sum(p0 * p0, axis=-1)
        )
    return q1, logp1, g1, dh


def _transition(q, logp, grad, target, step_size, n_steps, p0, u):
    """One Metropolis-adjusted leapfrog update of every batch row.

    ``p0`` holds the rows' standard-normal momenta and ``u`` their uniform
    acceptance draws; a row accepts when ``log(u) < dH``.  Divergent
    trajectories (non-finite energy change) count as rejections and never
    raise.  Returns ``(q, logp, grad, accepted)``; rejected rows keep their
    current values.
    """
    q1, logp1, g1, dh = _propose(q, logp, grad, p0, target, step_size,
                                 n_steps)
    with np.errstate(invalid="ignore"):
        acc = np.log(u) < dh  # NaN compares False
    if np.any(acc):
        keep = acc[:, None]
        q = np.where(keep, q1, q)
        logp = np.where(acc, logp1, logp)
        grad = np.where(keep, g1, grad)
    return q, logp, grad, acc


def _adapt(step_sizes, accepted, target_accept):
    """Multiplicative step-size update, one step per row.

    Grows by 1.02 on accept and shrinks by 1.02^(-target/(1-target)) on
    reject, so the zero-drift point sits at the target acceptance rate.
    """
    shrink = GROW ** (-target_accept / (1.0 - target_accept))
    new = step_sizes * np.where(accepted, GROW, shrink)
    if np.any(new < STEP_FLOOR):
        raise StepUnderflow(
            f"step size collapsed below {STEP_FLOOR:g}; the target geometry "
            f"is likely degenerate in these coordinates"
        )
    return new


def _check_mix_rho(mix_rho):
    """Reject a mixture weight on "cp" outside [0, 1], NaN included."""
    if not (isinstance(mix_rho, numbers.Real) and 0.0 <= mix_rho <= 1.0):
        raise ConfigurationError(
            f"mix_rho must be a finite number in [0, 1], got {mix_rho!r}")


def run_chains(model, theta, data, config, parameterization="cp", plan=None,
               mix_rho=0.5, seeds=None):
    """Run replicate chains as rows of one batched state.

    ``seeds`` (default: ``(config.seed,)``) gives one independent chain per
    entry; every gradient evaluation covers all rows at once.  Rows draw
    momenta and acceptance variables from their own generators.  Under
    "mix" the per-iteration coin comes from the first row's generator and
    is shared, so all rows move in the same system each iteration; the
    first row's trajectory is identical to a single-seed run.  Returns one
    :class:`ChainResult` per seed.
    """
    par = str(parameterization).lower()
    if par not in ("cp", "dncp", "mix"):
        raise ConfigurationError(
            f"parameterization must be 'cp', 'dncp', or 'mix', got "
            f"{parameterization!r}"
        )
    _check_mix_rho(mix_rho)
    if seeds is None:
        seeds = (config.seed,)
    gens = [np.random.default_rng(s) for s in seeds]
    rows = len(gens)
    if not rows:
        raise ConfigurationError("seeds must name at least one chain")

    dncp_target = None
    if par != "cp":
        if plan is None:
            plan = full_dncp_plan(model)
        dncp_target = LatentPosterior(apply_plan(model, plan), theta, data)
    cp_target = None
    if par != "dncp":
        cp_target = LatentPosterior(model, theta, data)

    prior_rows = [graph.ancestral_sample(model, theta, g) for g in gens]
    q = np.stack([pack_coords(model, d) for d in prior_rows])
    if par == "dncp":
        evals = eps_from_z(model, plan, unpack_coords(model, q), theta)
        q = pack_coords(dncp_target.model, evals)
        system = "eps"
    else:
        system = "z"
    target = dncp_target if par == "dncp" else cp_target
    logp, grad = target.value_and_grad(q)
    if not np.all(np.isfinite(logp)):
        raise NonFinite("initial point has zero posterior density")

    total = config.burn_in + config.samples
    dim = q.shape[-1]
    n_steps = config.leapfrog_steps
    draws = np.empty((rows, config.samples, dim))
    stored_in_eps = np.zeros(config.samples, dtype=bool)
    accept_trace = np.zeros((rows, total), dtype=bool)
    system_trace = np.empty(total, dtype="<U4")
    step_trace = np.empty((rows, total))
    steps = {
        "cp": np.full(rows, float(config.step_size)),
        "dncp": np.full(rows, float(config.step_size)),
    }

    for it in range(total):
        if par != "mix":
            name = par
        elif 0.0 < mix_rho < 1.0:
            name = "cp" if gens[0].random() < mix_rho else "dncp"
        else:  # rho 0 or 1 draws no coin: the pure chain, bit for bit
            name = "cp" if mix_rho else "dncp"
        want = _SYSTEM_OF[name]
        if want != system:
            if want == "eps":
                evals = eps_from_z(model, plan, unpack_coords(model, q), theta)
                q = pack_coords(dncp_target.model, evals)
                target = dncp_target
            else:
                zvals = z_from_eps(
                    model, plan, unpack_coords(dncp_target.model, q), theta
                )
                q = pack_coords(model, zvals)
                target = cp_target
            system = want
            logp, grad = target.value_and_grad(q)

        p0 = np.stack([g.standard_normal(dim) for g in gens])
        u = np.array([g.random() for g in gens])
        q, logp, grad, acc = _transition(q, logp, grad, target, steps[name],
                                         n_steps, p0, u)

        accept_trace[:, it] = acc
        system_trace[it] = name
        step_trace[:, it] = steps[name]
        if it < config.burn_in:
            steps[name] = _adapt(steps[name], acc, config.target_accept)
        else:
            k = it - config.burn_in
            draws[:, k, :] = q
            stored_in_eps[k] = system == "eps"

    if np.any(stored_in_eps):
        sel = stored_in_eps
        flat = draws[:, sel, :].reshape(-1, dim)
        zvals = z_from_eps(
            model, plan, unpack_coords(dncp_target.model, flat), theta
        )
        draws[:, sel, :] = pack_coords(model, zvals).reshape(rows, -1, dim)

    results = []
    for i in range(rows):
        if par == "mix":
            final = {n: float(steps[n][i]) for n in ("cp", "dncp")}
        else:
            final = {par: float(steps[par][i])}
        results.append(ChainResult(
            draws=draws[i],
            accept_trace=accept_trace[i],
            step_trace=step_trace[i],
            system_trace=system_trace.copy(),
            final_step_sizes=final,
        ))
    return results


def run_chain(model, theta, data, config, parameterization="cp", plan=None,
              mix_rho=0.5):
    """Run one adaptive HMC chain and return its draws and traces.

    ``parameterization`` picks where updates happen: "cp" uses the model's
    own latent coordinates, "dncp" the auxiliary coordinates of ``plan``
    (a full plan is built when none is given), and "mix" the coin-flip
    combination of both with weight ``mix_rho`` on "cp".  The first
    ``config.burn_in`` iterations adapt step sizes and are discarded; the
    next ``config.samples`` points are stored, always in z-coordinates.
    """
    return run_chains(model, theta, data, config, parameterization, plan,
                      mix_rho, seeds=(config.seed,))[0]
