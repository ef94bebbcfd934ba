"""Per-layer figures from direct calls into each module.

Every timing warms its caches first (the first call compiles the tape),
then reports the median over batches of calls.  The traced workload
rounds add self times; ``from_round`` adds the sampler and learner figures
those rounds produce.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import GridLds, LearnMlp, SampleDbn

clock = time.perf_counter

DBN_ROWS = (1, 3, 16)
BATCHES = 9


def _reps(fn, budget):
    start = clock()
    fn()
    once = max(clock() - start, 1e-7)
    return max(1, int(budget / BATCHES / once))


def _batch(fn, reps):
    start = clock()
    for _ in range(reps):
        fn()
    return (clock() - start) / reps


def per_call(fn, budget=0.2):
    """Median seconds per call over BATCHES batches, after one warm call."""
    reps = _reps(fn, budget)
    return statistics.median(_batch(fn, reps) for _ in range(BATCHES))


def paired(outer, inner, budget=0.4):
    """Seconds per call of ``outer``, and the median of its difference from
    ``inner``, from batches that alternate between the two."""
    reps = _reps(outer, budget / 2)
    pairs = [(_batch(outer, reps), _batch(inner, reps))
             for _ in range(BATCHES)]
    return (statistics.median(a for a, _ in pairs),
            statistics.median(a - b for a, b in pairs))


def expr_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


class TapeCase:
    """One compiled density with bindings for a batch of rows."""

    def __init__(self, nc, model, theta, assignment, rows, wrt,
                 observed_only=False):
        graph = nc.graph
        self.ad = nc.autodiff
        self.compiled = graph._compile(model, observed_only=observed_only)
        self.bindings = graph._bindings(model, self.compiled, theta,
                                        assignment)
        self.seed = np.ones(rows)
        self.wrt = wrt

    def forward(self):
        return self.ad.evaluate(self.compiled.root, self.bindings)

    def gradient(self):
        return self.ad.evaluate_with_gradient(
            self.compiled.root, self.bindings, seed_adjoint=self.seed,
            wrt=self.wrt)


def _free_rows(model, rows, rng):
    return {i: rng.standard_normal((rows, model.nodes[i].dim))
            for i in model.free_ids}


def _tape(out, label, case_of, rows):
    case = case_of(rows)
    out[f"autodiff.fwd_us.{label}.r{rows}"] = (per_call(case.forward) * 1e6,
                                               "us")
    out[f"autodiff.grad_us.{label}.r{rows}"] = (per_call(case.gradient)
                                                * 1e6, "us")
    return case


def _compile_cost(out, label, fresh_case, repeats=5):
    """Expression build plus tape build: a fresh model's first
    density+gradient call, less the median of the calls after it."""
    times = []
    for _ in range(repeats):
        make = fresh_case()
        start = clock()
        case = make()
        case.gradient()
        first = clock() - start
        times.append(first - statistics.median(
            _batch(case.gradient, 1) for _ in range(BATCHES)))
    out[f"autodiff.compile_ms.{label}"] = (statistics.median(times) * 1e3,
                                           "ms")
    out[f"autodiff.expr_nodes.{label}"] = (expr_nodes(case.compiled.root),
                                           "count")


def _dbn(out, nc, rng):
    graph, reparam, hmc = nc.graph, nc.reparam, nc.hmc
    model, theta = SampleDbn.build(nc, -1.0)
    plan = reparam.full_dncp_plan(model)
    draw = graph.ancestral_sample(model, theta, rng)
    data = {i: draw[i] for i in model.observed_ids}

    def build(system):
        m, _ = SampleDbn.build(nc, -1.0)
        return m if system == "cp" else reparam.apply_plan(
            m, reparam.full_dncp_plan(m))

    for system in ("cp", "dncp"):
        m = build(system)
        wrt = frozenset(m.free_ids)

        def case_of(rows, m=m, wrt=wrt):
            return TapeCase(nc, m, theta,
                            {**data, **_free_rows(m, rows, rng)}, rows, wrt)

        post = hmc.LatentPosterior(m, theta, data)
        for rows in DBN_ROWS:
            case = _tape(out, f"dbn.{system}", case_of, rows)
            q = rng.standard_normal((rows, post.dim))
            vg, glue = paired(lambda: post.value_and_grad(q),
                                 case.gradient)
            out[f"hmc.value_and_grad_us.dbn.{system}.r{rows}"] = (vg * 1e6,
                                                                 "us")
            out[f"hmc.glue_us.dbn.{system}.r{rows}"] = (glue * 1e6, "us")

        def fresh(system=system):
            fm = build(system)
            assignment = {**data, **_free_rows(fm, 1, rng)}
            return lambda: TapeCase(nc, fm, theta, assignment, 1,
                                    frozenset(fm.free_ids))

        _compile_cost(out, f"dbn.{system}", fresh)

    for rows in DBN_ROWS:
        z = graph.unpack_coords(model, rng.standard_normal(
            (rows, model.free_dim())))
        eps = reparam.eps_from_z(model, plan, z, theta)
        out[f"reparam.eps_from_z_us.dbn.r{rows}"] = (per_call(
            lambda: reparam.eps_from_z(model, plan, z, theta)) * 1e6, "us")
        out[f"reparam.z_from_eps_us.dbn.r{rows}"] = (per_call(
            lambda: reparam.z_from_eps(model, plan, eps, theta)) * 1e6, "us")
    out["graph.ancestral_sample_us.dbn"] = (per_call(
        lambda: graph.ancestral_sample(model, theta, rng)) * 1e6, "us")
    series = _ar1(rng, SampleDbn.samples, model.free_dim())
    out["diagnostics.ess_report_ms"] = (per_call(
        lambda: nc.diagnostics.ess_report(series), budget=0.3) * 1e3, "ms")


def _ar1(rng, n, d, phi=0.9):
    x = np.empty((n, d))
    x[0] = rng.standard_normal(d)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.standard_normal(d)
    return x


def _mlp(out, nc, rng):
    graph, reparam, learning = nc.graph, nc.reparam, nc.learning
    two_layer = nc.experiments.two_layer_model
    n, L = LearnMlp.n_train, LearnMlp.train_l
    block = 20_000 // LearnMlp.l_eval
    obs = LearnMlp.obs_dim

    def build():
        m = two_layer(LearnMlp.gen_dims, obs)
        return m, reparam.apply_plan(m, reparam.full_dncp_plan(m))

    model, nc_model = build()
    theta = graph.random_params(model, rng)
    x = (rng.random((n, obs)) < 0.5).astype(float)
    params = frozenset(f"theta:{name}" for name in model.layout)

    def joint(rows, m=model):
        return TapeCase(nc, m, theta, {"x": x[:rows], **_free_rows(
            m, rows, rng)}, rows, frozenset(m.free_ids))

    def noise(rows, m=nc_model):
        xs = np.repeat(x[:1], rows, axis=0)
        return TapeCase(nc, m, theta, {"x": xs, **_free_rows(m, rows, rng)},
                        rows, params, observed_only=True)

    def fresh(case_of, which):
        m = build()[which]
        return lambda: case_of(1, m)

    _tape(out, "mlp.joint", joint, n)
    _compile_cost(out, "mlp.joint", lambda: fresh(joint, 0))
    _tape(out, "mlp.obs", noise, L)
    _tape(out, "mlp.obs", noise, block * LearnMlp.l_eval)
    _compile_cost(out, "mlp.obs", lambda: fresh(noise, 1))

    point = {"x": x[0]}
    out[f"learning.mmcl_estimate_us.r{L}"] = (per_call(
        lambda: learning.mmcl_estimate(nc_model, theta, point, L, rng)) * 1e6,
        "us")
    out[f"learning.mmcl_gradient_us.r{L}"] = (per_call(
        lambda: learning.mmcl_gradient(nc_model, theta, point, L, rng)) * 1e6,
        "us")
    out["learning.mll_ms"] = (per_call(
        lambda: learning.marginal_log_likelihood(
            nc_model, theta, {"x": x[:block]}, LearnMlp.l_eval,
            LearnMlp.eval_seed), budget=0.3) * 1e3, "ms")

    cfg = nc.hmc.HmcConfig(step_size=LearnMlp.mcem_step_size,
                           leapfrog_steps=LearnMlp.mcem_leapfrog)
    opt = learning.adagrad_init(theta.size, LearnMlp.learning_rate)
    state = {"chains": None}

    def em_round():
        _, _, state["chains"] = learning.mcem_iteration(
            model, theta, {"x": x}, cfg, LearnMlp.e_step_samples, opt, rng,
            chains=state["chains"], thin=LearnMlp.thin)

    out["learning.mcem_iteration_ms"] = (per_call(em_round, budget=0.5)
                                         * 1e3, "ms")
    samples = np.stack([state["chains"].coords] * LearnMlp.e_step_samples)
    out["learning.complete_data_gradient_ms"] = (per_call(
        lambda: learning.complete_data_gradient(model, theta, {"x": x},
                                                samples)) * 1e3, "ms")
    g = rng.standard_normal(theta.size)
    out["learning.adagrad_update_us"] = (per_call(
        lambda: learning.adagrad_update(theta, g, opt)) * 1e6, "us")


def _lds(out, nc, rng):
    reparam = nc.reparam
    config = nc.experiments.ExperimentConfig("lds")
    rows = config.grid_resolution ** 2
    data = {"x1": np.array([0.3]), "x2": np.array([-0.2])}

    def build(system):
        m = nc.modelzoo.build_lds_model(config.sigma_x, 0.5)
        return m if system == "cp" else reparam.apply_plan(
            m, reparam.full_dncp_plan(m))

    for system in ("cp", "dncp"):
        m = build(system)

        def case_of(r, m=m):
            return TapeCase(nc, m, np.zeros(0), {**data, **_free_rows(
                m, r, rng)}, r, frozenset(m.free_ids))

        _tape(out, f"lds.{system}", case_of, rows)

        def fresh(system=system):
            fm = build(system)
            return lambda: TapeCase(nc, fm, np.zeros(0), {**data, **_free_rows(
                fm, 1, rng)}, 1, frozenset(fm.free_ids))

        _compile_cost(out, f"lds.{system}", fresh)

    analysis = nc.analysis

    def correlation():
        s = analysis.LocalFactorSummary(alpha=-1.0, beta=-0.5, w=0.8,
                                        sigma=0.4)
        analysis.cp_squared_correlation(s)
        analysis.dncp_squared_correlation(s)
        analysis.prefer_dncp(s.sigma, s.beta)

    out["analysis.correlation_us"] = (per_call(correlation) * 1e6, "us")


def measure(nc, seed):
    """Every direct-call figure, keyed by metric name: (value, unit)."""
    out = {}
    rng = np.random.default_rng([seed, 5])
    _dbn(out, nc, rng)
    _mlp(out, nc, rng)
    _lds(out, nc, rng)
    return out


def from_round(wl, rnd):
    """Sampler and learner figures of one (traced) workload round."""
    out = {}
    if isinstance(wl, SampleDbn):
        iterations = wl.burn_in + wl.samples
        for par in wl.systems:
            cells = [rnd.detail[(ls, par)] for ls in wl.log_sigma_z]
            out[f"hmc.iter_ms.{par}"] = (
                sum(c["chain_s"] for c in cells) / (len(cells) * iterations)
                * 1e3, "ms")
            out[f"hmc.accept_rate.{par}"] = (
                statistics.mean(c["accept"] for c in cells), "ratio")
        out["hmc.switches.mix"] = (sum(rnd.detail[(ls, "mix")]["switches"]
                                       for ls in wl.log_sigma_z), "count")
        for par, value in wl.ess_per_s(rnd.detail).items():
            out[f"hmc.ess_per_s.{par}"] = (value, "1/s")
    elif isinstance(wl, LearnMlp):
        for m in wl.methods:
            out[f"learning.fit_s.{m}"] = (rnd.detail[m]["fit_s"], "s")
    elif isinstance(wl, GridLds):
        for name in wl.experiments:
            out[f"experiments.run_s.{name}"] = (rnd.detail[name]["seconds"],
                                                "s")
    return out
