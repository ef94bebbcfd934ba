"""The names the benchmark under ``bench/`` reaches into the package by.

The benchmark wraps package functions by attribute path and builds the
evaluators directly, so a refactor that drops or renames one of them would
only show when the benchmark crashes.  These tests only read ``bench/``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import ncbayes

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("alias,path", [(a, p) for a, p, _ in tracing.TARGETS])
def test_traced_name_resolves(alias, path):
    owner = getattr(ncbayes, alias)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[parts[-1]])


def test_tracer_installs_records_and_restores():
    before = ncbayes.hmc.LatentPosterior.__dict__["value_and_grad"]
    tracer = tracing.Tracer(ncbayes)
    with tracer.installed():
        for workload in workloads.WORKLOADS.values():
            workload.setup(ncbayes)
    assert tracer.spans and tracer.grad_calls > 0
    assert tracer.rows_evaluated > tracer.grad_calls
    assert ncbayes.hmc.LatentPosterior.__dict__["value_and_grad"] is before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs(name):
    workloads.WORKLOADS[name].setup(ncbayes)


def test_evaluators_built_as_the_benchmark_builds_them():
    model, theta = workloads.SampleDbn.build(ncbayes, -1.0)
    draw = ncbayes.graph.ancestral_sample(model, theta,
                                          np.random.default_rng(0))
    data = {i: draw[i] for i in model.observed_ids}
    post = ncbayes.hmc.LatentPosterior(model, theta, data)
    value, grad = post.value_and_grad(np.zeros((3, post.dim)))
    assert value.shape == (3,) and grad.shape == (3, post.dim)

    mlp = ncbayes.experiments.two_layer_model(workloads.LearnMlp.gen_dims,
                                              workloads.LearnMlp.obs_dim)
    theta = ncbayes.graph.random_params(mlp, np.random.default_rng(0))
    x = np.zeros((4, workloads.LearnMlp.obs_dim))
    post = ncbayes.learning._DatasetPosterior(mlp, theta, {"x": x})
    value, grad = post.value_and_grad(np.zeros((4, post.dim)))
    assert value.shape == (4,) and grad.shape == (4, post.dim)
    assert np.all(np.isfinite(value))
