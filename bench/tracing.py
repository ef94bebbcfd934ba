"""In-memory spans recorded by wrappers around the package's functions.

The wrappers replace module attributes (and a few methods) at the names
the package calls them through, so ``hmc.eps_from_z`` is the reparam
function as the sampler reaches it.  Each span is (name, start, end,
parent); a layer's self time is the time its spans cover minus the time
their child spans cover.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

# (module alias, attribute path, layer the callee belongs to)
TARGETS = (
    ("autodiff", "evaluate_with_gradient", "autodiff"),
    ("autodiff", "evaluate", "autodiff"),
    ("graph", "_compile", "graph"),
    ("graph", "_bindings", "graph"),
    ("graph", "ancestral_sample", "graph"),
    ("graph", "random_params", "graph"),
    ("graph", "build_model", "graph"),
    ("modelzoo", "build_model", "graph"),
    ("datasets", "ancestral_sample", "graph"),
    ("hmc", "pack_coords", "graph"),
    ("hmc", "unpack_coords", "graph"),
    ("hmc", "eps_from_z", "reparam"),
    ("hmc", "z_from_eps", "reparam"),
    ("hmc", "apply_plan", "reparam"),
    ("hmc", "full_dncp_plan", "reparam"),
    ("reparam", "apply_plan", "reparam"),
    ("reparam", "full_dncp_plan", "reparam"),
    ("experiments", "apply_plan", "reparam"),
    ("experiments", "full_dncp_plan", "reparam"),
    ("analysis", "apply_plan", "reparam"),
    ("analysis", "full_dncp_plan", "reparam"),
    ("hmc", "run_chains", "hmc"),
    ("hmc", "_propose", "hmc"),
    ("hmc", "LatentPosterior.__init__", "hmc"),
    ("hmc", "LatentPosterior.value_and_grad", "hmc"),
    ("learning", "train", "learning"),
    ("learning", "mcem_iteration", "learning"),
    ("learning", "marginal_log_likelihood", "learning"),
    ("learning", "complete_data_gradient", "learning"),
    ("learning", "adagrad_update", "learning"),
    ("learning", "_mmcl_rows", "learning"),
    ("learning", "_estep", "learning"),
    ("learning", "_DatasetPosterior.value_and_grad", "learning"),
    ("diagnostics", "ess_report", "diagnostics"),
    ("experiments", "ess_report", "diagnostics"),
    ("experiments", "lds_correlations", "analysis"),
    ("experiments", "cp_squared_correlation", "analysis"),
    ("experiments", "dncp_squared_correlation", "analysis"),
    ("experiments", "prefer_dncp", "analysis"),
    ("analysis", "hessian_log_posterior", "analysis"),
    ("experiments", "run_experiment", "experiments"),
    ("experiments", "_write_outputs", "experiments"),
)

# layers whose self time each workload reports: the ones it calls
TRACED_LAYERS = {
    "sample-dbn": ("autodiff", "graph", "reparam", "hmc", "diagnostics"),
    "learn-mlp": ("autodiff", "graph", "reparam", "hmc", "learning"),
    "grid-lds": ("autodiff", "graph", "reparam", "hmc", "analysis",
                 "experiments"),
}


class Tracer:
    """Collects spans while installed; restores every attribute on exit."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self.layers = []
        self.spans = []
        self.grad_calls = 0
        self.rows_evaluated = 0
        self._stack = []

    def _wrap(self, fn, name_id, count_rows):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_rows:
                seed = kwargs.get("seed_adjoint")
                self.grad_calls += 1
                self.rows_evaluated += 1 if seed is None else len(seed)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for alias, path, layer in TARGETS:
                owner = getattr(self.package, alias)
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[parts[-1]]
                self.names.append(f"{alias}.{path}")
                self.layers.append(layer)
                wrapped = self._wrap(original, len(self.names) - 1,
                                     path == "evaluate_with_gradient")
                saved.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Seconds of self time per layer over every recorded span."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name_id, start, end, _), covered in zip(self.spans, child):
            layer = self.layers[name_id]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}"
                         f"\t{parent}\n")


def span_cost(repeats=20000):
    """Seconds one wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    wrapped = Tracer(None)._wrap(noop, 0, False)
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        start = clock()
        for _ in range(repeats):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(repeats):
            wrapped()
        costs.append((clock() - start - plain) / repeats)
    return statistics.median(costs)
