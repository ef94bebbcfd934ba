"""Parameter learning by Monte Carlo likelihood ascent.

Two routes to a maximum-likelihood estimate when latents are present.  The
first treats the marginal likelihood itself as the objective: with every
latent rewritten as parameter-free auxiliary noise, an L-sample average of
the conditional likelihood is a differentiable function of the parameters,
and its exact gradient (noise held fixed) drives stochastic ascent.  The
second is Monte Carlo EM: posterior samples of the latents at fixed
parameters stand in for the E-step expectation, and the M-step ascends
the average complete-data log-density.  Both use Adagrad steps.

The L-sample average is computed in log space with log-sum-exp; the plain
average of likelihoods underflows already at modest data dimension.

A dataset maps each observed node id to an ``(n, dim)`` matrix or a
``(dim,)`` vector by the rule that posterior data and full assignments
share (:func:`.graph._node_values`); vectors alone are one datapoint.
Each entry point checks its dataset and θ once, then hands both to the
tape as they are.

Learning traces evaluate that average on each split under a fixed seed.
:func:`train` draws each split's noise once and evaluates it at every
traced parameter vector, so it holds n * L * (sum of the free nodes'
dims) floats per split while it runs.  On the two-layer network with 2 +
3 latents that is 3.2 MB for 400 points at L = 200, and 20 MB for the
default ``mmcl-vs-mcem`` train split (1,000 points at L = 500).  The
evaluation runs in chunks of whole points of about ``EVAL_CHUNK_ROWS``
rows, small enough to keep a forward program's intermediates in cache;
the program is row-independent, so the chunks do not change the bits.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import graph
from . import hmc
from . import reparam
from .errors import (
    ConfigurationError,
    EmptyESample,
    NonFinite,
    ShapeError,
)
from .graph import _check_int

_AUX_FAMILIES = ("std_normal_aux", "uniform_aux")

# rows per forward evaluation of a fixed sample (whole points of L rows)
EVAL_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class AdagradState:
    """Per-coordinate step-size state of the Adagrad rule.

    ``accumulators`` collects squared gradients and never decreases, so
    coordinates that have seen large gradients take smaller steps.
    """

    learning_rate: float
    accumulators: np.ndarray
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigurationError("learning_rate must be non-negative")
        if not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive")
        if np.any(np.asarray(self.accumulators) < 0):
            raise ConfigurationError("accumulators cannot be negative")


def adagrad_init(dim, learning_rate, epsilon=1e-8):
    """Fresh optimizer state with zero accumulators; ``dim`` must be a
    non-negative integer."""
    _check_int("dim", dim, 0)
    return AdagradState(float(learning_rate), np.zeros(dim), float(epsilon))


def adagrad_update(theta, grad, state):
    """One ascent step; returns the new parameters and state."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if theta.shape != grad.shape or theta.shape != state.accumulators.shape:
        raise ShapeError(
            f"parameter, gradient, and accumulator shapes must agree, got "
            f"{theta.shape}, {grad.shape}, {state.accumulators.shape}"
        )
    acc = state.accumulators + grad * grad
    step = state.learning_rate * grad / (np.sqrt(acc) + state.epsilon)
    return theta + step, replace(state, accumulators=acc)


@dataclass(frozen=True)
class MmclConfig:
    """Monte Carlo likelihood settings: draws per estimate and batching."""

    L: int
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_int("L", self.L, 1)
        _check_int("batch_size", self.batch_size, 1)
        _check_int("seed", self.seed, 0)


def _require_fully_noncentered(model):
    for node_id in model.free_ids:
        family = model.nodes[node_id].factor.family
        if family not in _AUX_FAMILIES:
            raise ConfigurationError(
                f"free node '{node_id}' has family '{family}'; marginal "
                f"likelihood estimation needs every latent rewritten as "
                f"auxiliary noise (apply a full reparameterization plan)"
            )


def _draw_noise(model, rows, rng, out=None):
    """One auxiliary draw per free node, shaped (rows, dim); written into
    the arrays of ``out`` by node id when given."""
    eps = {}
    for node_id in model.free_ids:
        node = model.nodes[node_id]
        draw = (rng.standard_normal
                if node.factor.family == "std_normal_aux" else rng.random)
        eps[node_id] = draw((rows, node.dim),
                            out=None if out is None else out[node_id])
    return eps


def _check_dataset(model, data):
    """A dataset's values by :func:`graph._node_values` as ``(n, dim)``
    matrices, and ``n``: vectors alone are one point, and a vector next
    to matrices of several rows, or ``n = 0``, raises :class:`ShapeError`."""
    values, n = graph._node_values(model, data, model.observed_ids)
    if n is None:
        n = 1
    elif n != 1 and any(v.ndim == 1 for v in values.values()):
        raise ShapeError("dataset entries disagree on the number of rows")
    if n == 0:
        raise ShapeError("dataset has no points")
    return {i: np.atleast_2d(v) for i, v in values.items()}, n


def _mmcl_rows(model, theta, x_block, L, rng, want_grad):
    """Estimates (and optionally the summed gradient) for a block of points.

    ``x_block`` maps observed ids to (b, dim) rows.  Draws b*L auxiliary
    rows and hands them to :func:`_block_estimates`.
    """
    b = next(iter(x_block.values())).shape[0] if x_block else 1
    return _block_estimates(model, theta, x_block,
                            _draw_noise(model, b * L, rng), L, want_grad)


def _block_estimates(model, theta, x_block, eps, L, want_grad):
    """Estimates of b points at their b*L auxiliary rows ``eps`` (point
    i's at rows i*L to i*L + L - 1), and optionally the gradient.

    Evaluates the conditional log-likelihood once for all rows and reduces
    each length-L stretch with log-sum-exp.  The gradient is of the mean
    estimate over the block, obtained by seeding the backward pass with
    the per-stretch softmax weights.
    """
    compiled = graph._compile(model, observed_only=True)
    b = next(iter(x_block.values())).shape[0] if x_block else 1
    values = {i: np.repeat(v, L, axis=0) for i, v in x_block.items()}
    values.update(eps)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if want_grad:
            w, grad = graph._param_gradient(model, compiled, theta, values,
                                            _SoftmaxSeed(b, L))
        else:
            w, grad = ad.evaluate(compiled.root, values,
                                  packed=(model.layout.packed, theta)), None
        w = np.atleast_1d(w).reshape(b, L)
        estimates = _logsumexp_rows(w) - np.log(L)
    if not np.all(np.isfinite(estimates)):
        raise NonFinite("marginal likelihood estimate is not finite")
    if grad is not None and not np.all(np.isfinite(grad)):
        raise NonFinite("marginal likelihood gradient is not finite")
    return estimates, grad


class _SoftmaxSeed:
    """Backward seed of the mean block estimate, made from the root value.

    Each length-L stretch of row values gets its softmax weights, divided
    by the number of points b, so the tape runs forward only once.  Like
    an array seed, it has one entry per row it weights.
    """

    def __init__(self, b, L):
        self.b, self.L = b, L

    def __len__(self):
        return self.b * self.L

    def __call__(self, w):
        # scipy.special.softmax(w, axis=1) by its algorithm, bit for bit
        w = np.atleast_1d(w).reshape(self.b, self.L)
        shifted = np.exp(w - w.max(axis=1, keepdims=True))
        weights = shifted / shifted.sum(axis=1, keepdims=True)
        return weights.reshape(-1) / self.b


def _logsumexp_rows(w):
    """``scipy.special.logsumexp(w, axis=1)`` of a real matrix, bit for bit,
    by scipy's algorithm without its array-API dispatch.

    The row maximum and the count of entries equal to it come apart from
    the rest, whose shifted exponentials sum to ``s``; the result is
    ``log1p(s / count) + log(count) + max``.  Rows where that is not finite
    (an infinite or NaN maximum) take ``log(sum(exp(w)))``, as scipy does.
    Call it with overflow, invalid and divide warnings silenced.
    """
    top = w.max(axis=1, keepdims=True)
    at_top = w == top
    count = at_top.sum(axis=1, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(at_top, -np.inf, w) - top).sum(axis=1,
                                                         keepdims=True)
    rest = np.where(rest == 0, rest, rest / count)
    out = (np.log1p(rest) + np.log(count) + top)[:, 0]
    finite = np.isfinite(out)
    if not finite.all():
        out = np.where(finite, out, np.log(np.exp(w).sum(axis=1)))
    return out


def _one_point(model, theta, data, L, rng, want_grad):
    """:func:`_mmcl_rows` at the one datapoint of ``data``, all checked."""
    theta = graph._check_theta(model, theta)
    _check_int("L", L, 1)
    _require_fully_noncentered(model)
    data, n = _check_dataset(model, data)
    if n != 1:
        raise ShapeError(f"expected one datapoint, got {n}")
    return _mmcl_rows(model, theta, data, L, rng, want_grad)


def mmcl_estimate(model, theta, data, L, rng):
    """Log of an L-sample Monte Carlo average of the likelihood.

    ``model`` must be fully non-centered: every free node an auxiliary
    root.  ``data`` maps the observed node ids of one datapoint to value
    vectors.  The estimate is log (1/L) sum_l p(x | eps_l, theta) with
    eps_l drawn from the auxiliary priors; it is a lower-bias estimate of
    the true log-marginal as L grows and never exceeds it in expectation.
    """
    return float(_one_point(model, theta, data, L, rng, False)[0][0])


def mmcl_gradient(model, theta, data, L, rng):
    """Exact parameter gradient of the L-sample estimate at fixed noise.

    The auxiliary draws are held constant while differentiating, so this
    is the true gradient of what :func:`mmcl_estimate` computes for the
    same generator state, and finite differences under a reused seed
    reproduce it to first order.
    """
    return _one_point(model, theta, data, L, rng, True)[1]


def marginal_log_likelihood(model, theta, data, L, seed, block=None):
    """Mean per-datapoint estimate over a dataset, with a fixed seed.

    Evaluation helper for learning traces: the seed pins the auxiliary
    draws, so values at different parameters are directly comparable.
    The draws come in blocks of ``block`` points (by default about 20000
    rows), one draw per free node and block, and the estimates of a block
    are summed together; the evaluation runs in chunks of about
    ``EVAL_CHUNK_ROWS`` rows whatever the block.
    """
    theta = graph._check_theta(model, theta)
    return _sample_log_likelihood(model, theta,
                                  _draw_sample(model, data, L, seed, block))


@dataclass(frozen=True)
class _Sample:
    """A checked dataset of ``n`` points and its fixed auxiliary draws:
    ``eps`` maps each free node to (n*L, dim) rows, point i's L rows from
    i*L on, and ``block`` points make one summed block of estimates."""

    data: dict
    eps: dict
    n: int
    L: int
    block: int


def _draw_sample(model, data, L, seed, block=None):
    """The draws of :func:`marginal_log_likelihood` under ``seed``."""
    _check_int("L", L, 1)
    if block is not None:
        _check_int("block", block, 1)
    _require_fully_noncentered(model)
    data, n = _check_dataset(model, data)
    rng = np.random.default_rng(seed)
    block = max(1, 20_000 // L) if block is None else block
    eps = {i: np.empty((n * L, model.nodes[i].dim)) for i in model.free_ids}
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        _draw_noise(model, (hi - lo) * L, rng,
                    {i: v[lo * L:hi * L] for i, v in eps.items()})
    return _Sample(data, eps, n, L, block)


def _sample_log_likelihood(model, theta, sample):
    """Mean per-datapoint estimate at ``theta`` over a fixed sample, in
    chunks of whole points of about ``EVAL_CHUNK_ROWS`` rows."""
    n, L = sample.n, sample.L
    per = max(1, EVAL_CHUNK_ROWS // L)
    estimates = np.empty(n)
    for lo in range(0, n, per):
        hi = min(lo + per, n)
        estimates[lo:hi], _ = _block_estimates(
            model, theta, {i: v[lo:hi] for i, v in sample.data.items()},
            {i: v[lo * L:hi * L] for i, v in sample.eps.items()}, L,
            want_grad=False)
    total = 0.0
    for lo in range(0, n, sample.block):
        total += float(estimates[lo:lo + sample.block].sum())
    return total / n


# the E-step evaluator: one chain per datapoint, given (n, dim) data
_DatasetPosterior = graph.LatentPosterior


@dataclass(frozen=True)
class McemChains:
    """Warm-start state of the per-datapoint E-step chains."""

    coords: np.ndarray
    step_sizes: np.ndarray


def _init_chains(model, sample_model, theta, n, step_size, plan, rng):
    """Prior draws for every datapoint's chain, in ``sample_model``'s
    coordinates: the noise of ``plan`` unless it is ``model`` itself."""
    draw = graph.ancestral_sample(model, theta, rng, size=n)
    if sample_model is not model:
        draw = reparam.eps_from_z(model, plan, draw, theta)
    coords = graph.pack_coords(sample_model, draw)
    return McemChains(coords, np.full(n, float(step_size)))


def _estep(target, chains, config, e_step_samples, thin, rng):
    """Advance every datapoint's chain and collect coordinate snapshots.

    The step sizes keep adapting across EM iterations: the posterior moves
    with the parameters, so there is no point at which freezing them is
    correct.  Returns samples shaped (S, n, dim) plus the updated chains.
    """
    q = chains.coords
    steps = chains.step_sizes
    logp, grad = target.value_and_grad(q)
    n, dim = q.shape
    samples = np.empty((e_step_samples, n, dim))
    for s in range(e_step_samples):
        for _ in range(thin):
            p0 = rng.standard_normal((n, dim))
            u = rng.random(n)
            q, logp, grad, acc = hmc._transition(
                q, logp, grad, target, steps, config.leapfrog_steps, p0, u
            )
            steps = hmc._adapt(steps, acc, config.target_accept)
        samples[s] = q
    return samples, McemChains(q, steps)


def complete_data_gradient(model, theta, data, samples):
    """Parameter gradient of the mean complete-data log-density.

    ``samples`` is (S, n, dim): S posterior coordinate snapshots for each
    of the n datapoints.  Returns the gradient of
    (1/n) sum_i (1/S) sum_s log p(x_i, z_i^(s); theta).
    """
    theta = graph._check_theta(model, theta)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 3:
        raise ShapeError("samples must be (S, n, dim)")
    S, n, dim = samples.shape
    if S < 1:
        raise EmptyESample("need at least one posterior sample per point")
    data, n_data = _check_dataset(model, data)
    if n_data != n:
        raise ShapeError("samples and dataset disagree on the number of rows")
    values = graph.unpack_coords(model, samples.reshape(S * n, dim))
    values.update((i, np.tile(v, (S, 1))) for i, v in data.items())
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, grad = graph._param_gradient(model, graph._compile(model), theta,
                                        values, np.full(S * n, 1.0 / (S * n)))
    if not np.all(np.isfinite(grad)):
        raise NonFinite("complete-data gradient is not finite")
    return grad


def mcem_iteration(model, theta, data, hmc_config, e_step_samples, opt_state,
                   rng, chains=None, parameterization="cp", plan=None,
                   thin=2):
    """One Monte Carlo EM round: sample latents, ascend the parameters.

    The E-step advances a persistent chain per datapoint (warm-started
    from ``chains`` when given) and keeps ``e_step_samples`` thinned
    snapshots; the M-step takes one Adagrad step on the mean
    complete-data log-density gradient.  With ``parameterization="dncp"``
    both phases run in the auxiliary coordinates of ``plan``.  Returns
    ``(theta', opt_state', chains')``.
    """
    _check_int("e_step_samples", e_step_samples, 0)
    _check_int("thin", thin, 1)
    if e_step_samples < 1:
        raise EmptyESample("e_step_samples must be at least 1")
    theta = graph._check_theta(model, theta)
    sample_model = model
    if parameterization == "dncp":
        if plan is None:
            plan = reparam.full_dncp_plan(model)
        sample_model = reparam.apply_plan(model, plan)
    elif parameterization != "cp":
        raise ConfigurationError(
            f"parameterization must be 'cp' or 'dncp', got "
            f"{parameterization!r}"
        )
    data, n = _check_dataset(model, data)
    if chains is None:
        chains = _init_chains(model, sample_model, theta, n,
                              hmc_config.step_size, plan, rng)
    target = _DatasetPosterior(sample_model, theta, data)
    samples, chains = _estep(target, chains, hmc_config, e_step_samples,
                             thin, rng)
    grad = complete_data_gradient(sample_model, theta, data, samples)
    theta, opt_state = adagrad_update(theta, grad, opt_state)
    return theta, opt_state, chains


@dataclass(frozen=True)
class TrainConfig:
    """Schedule for :func:`train`.

    ``iterations`` counts epochs for MMCL (one pass over the training
    set) and EM rounds for MCEM.  Evaluation uses ``l_eval`` auxiliary
    draws under a fixed seed on both splits every ``eval_every``
    iterations, independent of the training ``mmcl.L``.
    """

    iterations: int
    learning_rate: float
    mmcl: MmclConfig
    hmc: object = None
    e_step_samples: int = 10
    thin: int = 2
    parameterization: str = "cp"
    l_eval: int = 1000
    eval_every: int = 1
    eval_seed: int = 1234
    theta0: object = None

    def __post_init__(self):
        for name in ("iterations", "eval_every", "l_eval", "e_step_samples",
                     "thin"):
            _check_int(name, getattr(self, name), 1)


@dataclass(frozen=True)
class TraceRow:
    """One evaluation point of a learning run (log-liks are per datapoint)."""

    iteration: int
    train_log_lik: float
    test_log_lik: float
    theta: np.ndarray


def train(method, model, train_data, test_data, schedule, plan=None):
    """Fit parameters by MMCL or MCEM and trace held-out performance.

    ``model`` is the centered model; the non-centered form used by the
    MMCL objective and by evaluation is built from ``plan`` (full plan by
    default).  Returns a list of :class:`TraceRow`, one per evaluation,
    including the starting point.
    """
    method = str(method).lower()
    if method not in ("mmcl", "mcem"):
        raise ConfigurationError(
            f"method must be 'mmcl' or 'mcem', got {method!r}"
        )
    if plan is None:
        plan = reparam.full_dncp_plan(model)
    nc_model = reparam.apply_plan(model, plan)
    train_checked, n = _check_dataset(model, train_data)
    rng = np.random.default_rng(schedule.mmcl.seed)
    if schedule.theta0 is None:
        theta = graph.random_params(model, rng)
    else:
        theta = graph._check_theta(model, schedule.theta0).copy()
    opt = adagrad_init(model.layout.size, schedule.learning_rate)
    chains = None

    # each split's draws once, under the seeds marginal_log_likelihood takes
    fixed = [_draw_sample(nc_model, data, schedule.l_eval, seed)
             for data, seed in ((train_data, schedule.eval_seed),
                                (test_data, schedule.eval_seed + 1))]

    def evaluate(it, theta):
        tr, te = (_sample_log_likelihood(nc_model, theta, sample)
                  for sample in fixed)
        return TraceRow(it, tr, te, theta.copy())

    trace = [evaluate(0, theta)]
    for it in range(1, schedule.iterations + 1):
        if method == "mmcl":
            order = rng.permutation(n)
            bs = schedule.mmcl.batch_size
            for lo in range(0, n, bs):
                idx = order[lo:lo + bs]
                x_block = {i: v[idx] for i, v in train_checked.items()}
                _, grad = _mmcl_rows(nc_model, theta, x_block,
                                     schedule.mmcl.L, rng, want_grad=True)
                theta, opt = adagrad_update(theta, grad, opt)
        else:
            theta, opt, chains = mcem_iteration(
                model, theta, train_checked, schedule.hmc,
                schedule.e_step_samples, opt, rng, chains=chains,
                parameterization=schedule.parameterization, plan=plan,
                thin=schedule.thin,
            )
        if it % schedule.eval_every == 0 or it == schedule.iterations:
            trace.append(evaluate(it, theta))
    return trace
