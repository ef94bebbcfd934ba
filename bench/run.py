"""Benchmark for ncbayes: one workload per run, metrics as JSON.

    python3 bench/run.py --workload sample-dbn --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's rounds untraced for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` reports the per-layer
metrics: direct calls into each module, then one traced round of every
workload (the per-layer names carry the workload).  Human-readable lines
come first; the last line of standard output is the JSON result.  Run
outputs go to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# single-threaded BLAS keeps timings steady on a shared two-core machine;
# it must be set before numpy is imported
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3

sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_package():
    """Import ncbayes from this checkout's source tree, and nothing else."""
    if not (SRC / "ncbayes" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'ncbayes'}")
    sys.path.insert(0, str(SRC))
    import ncbayes
    if Path(ncbayes.__file__).resolve().parent != SRC / "ncbayes":
        raise SystemExit(f"error: imported ncbayes from {ncbayes.__file__}")
    return ncbayes


def setup_probe(workload):
    """Body of one set-up child: import, build, first calls, then exit."""
    workloads.WORKLOADS[workload].setup(load_package())


def setup_seconds(workload):
    """Wall times of fresh processes that each import the package and
    build the workload's models, plans and evaluators."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-probe", workload], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(wl, seconds):
    """Whole rounds until the next one would end past ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.round())
        elapsed = time.perf_counter() - start
        if len(rounds) >= wl.min_rounds and \
                elapsed + rounds[-1].seconds > seconds:
            return rounds


def untraced(args, nc):
    probes = setup_seconds(args.workload)
    wl = workloads.WORKLOADS[args.workload](nc, args.seed,
                                            OUT / args.workload)
    rounds = run_rounds(wl, args.seconds)
    rss = peak_rss_mb()
    failures = wl.check(rounds)
    walls = [r.seconds for r in rounds]
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (rss, "MB"),
        "grad_evals_per_s": (statistics.median(
            r.grad_evals / r.seconds for r in rounds), "1/s"),
    }
    # the workload's own figures (ESS/s, fit times), medians over rounds,
    # printed for the reader; the traced run reports them per layer
    figures = [layers.from_round(wl, r) for r in rounds]
    info = {"rounds": len(rounds), "setup_probes_s": probes,
            "round_s": walls}
    for key, (_, unit) in figures[0].items():
        info[key] = f"{statistics.median(f[key][0] for f in figures)} {unit}"
    return metrics, info, sum(r.ops for r in rounds), failures


def traced(args, nc):
    metrics = layers.measure(nc, args.seed)
    cost = tracing.span_cost()
    ops = 0
    failures = []
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(nc, args.seed, OUT / "traced" / name)
        rounds = []
        if wl.min_rounds > 1:
            rounds.append(wl.round())
        tracer = tracing.Tracer(nc)
        with tracer.installed():
            rnd = wl.round()
        rounds.append(rnd)
        ops += sum(r.ops for r in rounds)
        failures += wl.check(rounds)
        tracer.write(OUT / f"spans-{name}.tsv")
        for layer, seconds in tracer.self_times().items():
            if layer in tracing.TRACED_LAYERS[name]:
                metrics[f"{layer}.self_s.{name}"] = (seconds, "s")
        metrics[f"autodiff.grad_calls.{name}"] = (tracer.grad_calls, "count")
        metrics[f"autodiff.rows_evaluated.{name}"] = (tracer.rows_evaluated,
                                                      "count")
        metrics[f"trace.overhead_s.{name}"] = (len(tracer.spans) * cost, "s")
        metrics.update(layers.from_round(wl, rnd))
    return metrics, {"span_cost_us": cost * 1e6}, ops, failures


def machine():
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    nc = load_package()
    OUT.mkdir(exist_ok=True)
    body = traced if args.trace else untraced
    metrics, info, ops, failures = body(args, nc)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    for key, value in info.items():
        print(f"{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for failure in failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    print(f"operations attempted {ops} failed 0")
    result = {
        "correct": not failures,
        "attempted": ops,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
