"""Experiment drivers: schemas, determinism, and output hygiene."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncbayes.analysis import LocalFactorSummary, cp_squared_correlation
from ncbayes.errors import ConfigurationError
from ncbayes.experiments import (
    ExperimentConfig,
    LearningSpec,
    run_experiment,
)
from ncbayes.hmc import HmcConfig

TINY_SAMPLER = HmcConfig(step_size=0.05, burn_in=30, samples=120)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def file_hashes(paths):
    return {k: hashlib.sha1(Path(v).read_bytes()).hexdigest()
            for k, v in paths.items()}


# sha256 of results.csv, summary.json and manifest.json written by each
# experiment at its default config and seed 0
DEFAULT_SHA256 = {
    "correlation-scan": (
        "b963125aa29ae043dd92630bb7341b21ea4a806b6eddb1f17a1584c22d0427a1",
        "f4ea33ae5e27963f84ea066afe45bff1911a27b117f06066e0a33012d0b49f51",
        "7eb0000c5680deccf010f7f10d7419f591c3958ce524de40c5cb0d90ded6582b"),
    "lds": (
        "74a3f373b914f2f74b266bd4cb090704af707b6c120ddb9798d0b09ed7ccec08",
        "c1f8b85e3c078d74fb89548ee4b0da2b66288c96b97a3a6e5d013783aa1ef4a9",
        "251fd0ddc3573a8bc645c8a619b6257e4ff95c0c545a83e3c9b2e04c0be3e640"),
    "dbn-ess": (
        "cfac9f61f676b8194ca8ac4f61875e3fae0d46503bfcfddf6b6897a95b9c4f6c",
        "1be056ebfa36d0848451e66f8ff01a8164aca22f69990d755788be25534119ed",
        "e54dd406bf08895f5c760bada9c29c9834319ca1218619d461bd10bd3f6bc069"),
    "mmcl-vs-mcem": (
        "1e5116fe3cff4aff791104dfb02ad592dd4aa0ae72e57f14a6babe2137351f12",
        "a7730f9724bcbee9d23f171a44ff2c4c73f78d81283f868bf7c34dd5d1f50642",
        "b6c7b8442cf1ac7896f05cdbd0632e6e8d5f3901fbdc7db8631690be1cab70f4"),
}


def assert_default_bytes(experiment, paths):
    """The outputs of a default-config, seed-0 run keep their bytes."""
    got = tuple(hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
                for name in ("results.csv", "summary.json", "manifest.json"))
    assert got == DEFAULT_SHA256[experiment]


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig("bogus")

    def test_empty_grid(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig("dbn-ess", log_sigma_z_grid=())

    def test_bad_resolution(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig("lds", grid_resolution=1)

    @pytest.mark.parametrize("rho", [float("nan"), 1.5, -0.1])
    def test_bad_mix_rho(self, rho):
        with pytest.raises(ConfigurationError):
            ExperimentConfig("dbn-ess", mix_rho=rho)

    def test_bad_learning_method(self):
        with pytest.raises(ConfigurationError):
            LearningSpec(method="sgd")

    @pytest.mark.parametrize("dims", [(2, 3, 4), (), (0, 3), (2.5, 3),
                                      (True, 3)])
    def test_gen_dims_must_be_two_positive_integers(self, dims):
        with pytest.raises(ConfigurationError, match="gen_dims"):
            ExperimentConfig("mmcl-vs-mcem", gen_dims=dims)


class TestCorrelationScan:
    def test_schema_and_agreement_with_closed_forms(self, tmp_path):
        cfg = ExperimentConfig("correlation-scan", out_dir=str(tmp_path),
                               n_points=25)
        paths = run_experiment(cfg)
        header, rows = read_csv(paths["results.csv"])
        assert header == ["alpha", "beta", "w", "sigma", "rho2_cp",
                          "rho2_dncp", "prefer_dncp"]
        assert len(rows) == 25
        for row in rows:
            alpha, beta, w, sigma = (float(v) for v in row[:4])
            s = LocalFactorSummary(alpha=alpha, beta=beta, w=w, sigma=sigma)
            # 17-digit output round-trips the float64 exactly
            assert float(row[4]) == cp_squared_correlation(s)
            assert row[6] == ("1" if sigma ** -2 > -beta else "0")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig("correlation-scan", out_dir=str(tmp_path),
                               n_points=10)
        first = file_hashes(run_experiment(cfg))
        second = file_hashes(run_experiment(cfg))
        assert first == second

    def test_default_run_keeps_its_bytes(self, tmp_path):
        cfg = ExperimentConfig("correlation-scan", out_dir=str(tmp_path),
                               seed=0)
        assert_default_bytes("correlation-scan", run_experiment(cfg))

    def test_crlf_line_endings(self, tmp_path):
        cfg = ExperimentConfig("correlation-scan", out_dir=str(tmp_path),
                               n_points=3)
        paths = run_experiment(cfg)
        raw = Path(paths["results.csv"]).read_bytes()
        assert raw.count(b"\r\n") == 4


class TestLdsGrids:
    def test_grid_shape_and_density_peak(self, tmp_path):
        cfg = ExperimentConfig("lds", out_dir=str(tmp_path),
                               sigma_z_grid=(2.0, 0.5), grid_resolution=11)
        paths = run_experiment(cfg)
        header, rows = read_csv(paths["results.csv"])
        assert header == ["sigma_z", "system", "i", "j", "coord_1",
                          "coord_2", "log_density", "rho_sq"]
        assert len(rows) == 2 * 2 * 11 * 11
        blocks = {}
        for row in rows:
            key = (row[0], row[1])
            blocks.setdefault(key, []).append(
                (int(row[2]), int(row[3]), float(row[6])))
        for cells in blocks.values():
            dens = np.full((11, 11), -np.inf)
            for i, j, v in cells:
                dens[i, j] = v
            assert np.all(np.isfinite(dens))
            # grids are centered on the posterior mean
            assert np.unravel_index(dens.argmax(), dens.shape) == (5, 5)
        summary = json.load(open(paths["summary.json"]))
        for cell in summary["cells"]:
            assert cell["prefer_dncp"] == (cell["sigma_z"] < cfg.sigma_x)

    def test_default_run_keeps_its_bytes(self, tmp_path):
        cfg = ExperimentConfig("lds", out_dir=str(tmp_path), seed=0)
        assert_default_bytes("lds", run_experiment(cfg))

    def test_rho_column_constant_within_block(self, tmp_path):
        cfg = ExperimentConfig("lds", out_dir=str(tmp_path),
                               sigma_z_grid=(0.5,), grid_resolution=5)
        paths = run_experiment(cfg)
        _, rows = read_csv(paths["results.csv"])
        by_system = {}
        for row in rows:
            by_system.setdefault(row[1], set()).add(row[7])
        assert all(len(v) == 1 for v in by_system.values())
        assert by_system["cp"] != by_system["dncp"]


class TestDbnEss:
    def make_config(self, tmp_path):
        return ExperimentConfig("dbn-ess", out_dir=str(tmp_path), T=2,
                                obs_dim=2, log_sigma_z_grid=(-2.0, -1.0),
                                replicate_seeds=(1, 2),
                                sampler=TINY_SAMPLER)

    def test_schema_and_summary(self, tmp_path):
        paths = run_experiment(self.make_config(tmp_path))
        header, rows = read_csv(paths["results.csv"])
        assert header == ["log_sigma_z", "ess_cp", "ess_dncp", "ess_mix"]
        assert [float(r[0]) for r in rows] == [-2.0, -1.0]
        for row in rows:
            assert all(float(v) > 0 for v in row[1:])
        summary = json.load(open(paths["summary.json"]))
        assert "spearman_cp_vs_grid" in summary
        assert summary["replicate_seeds"] == [1, 2]
        assert summary["seed"] == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self.make_config(tmp_path)
        assert file_hashes(run_experiment(cfg)) == \
            file_hashes(run_experiment(cfg))


class TestLearningComparison:
    def test_trace_schema_and_truth_fields(self, tmp_path):
        cfg = ExperimentConfig(
            "mmcl-vs-mcem", out_dir=str(tmp_path), n_data=30, holdout=10,
            obs_dim=3, gen_dims=(2, 2),
            learning=LearningSpec(mmcl_epochs=1, mcem_iterations=2,
                                  l_eval=40, eval_every=2))
        paths = run_experiment(cfg)
        header, rows = read_csv(paths["results.csv"])
        assert header == ["method", "iteration", "train_log_lik",
                          "test_log_lik"]
        methods = {row[0] for row in rows}
        assert methods == {"mmcl", "mcem"}
        summary = json.load(open(paths["summary.json"]))
        for key in ("truth_train_log_lik", "mmcl_final_train_log_lik",
                    "mcem_final_train_log_lik", "mmcl_train_gap"):
            assert key in summary
        assert summary["n_train"] == 30
        assert summary["n_test"] == 10

    def test_single_method_run(self, tmp_path):
        cfg = ExperimentConfig(
            "mmcl-vs-mcem", out_dir=str(tmp_path), n_data=20, holdout=5,
            obs_dim=3, gen_dims=(2, 2),
            learning=LearningSpec(method="mmcl", mmcl_epochs=1, l_eval=30))
        paths = run_experiment(cfg)
        _, rows = read_csv(paths["results.csv"])
        assert {row[0] for row in rows} == {"mmcl"}


class TestOutputHygiene:
    def test_failure_leaves_no_partial_outputs(self, tmp_path):
        cfg = ExperimentConfig("mmcl-vs-mcem", out_dir=str(tmp_path),
                               idx_path=str(tmp_path / "missing.idx"))
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)
        leftovers = list(Path(tmp_path).glob("*"))
        assert leftovers == []

    def test_manifest_contents(self, tmp_path):
        cfg = ExperimentConfig("correlation-scan", out_dir=str(tmp_path),
                               n_points=4, seed=9)
        paths = run_experiment(cfg)
        manifest = json.load(open(paths["manifest.json"]))
        assert manifest["experiment"] == "correlation-scan"
        assert manifest["seed"] == 9
        assert manifest["config"]["n_points"] == 4
        assert len(manifest["content_hash"]) == 40
        assert manifest["outputs"] == ["results.csv", "summary.json"]


def test_import_leaves_scipy_stats_unloaded():
    """``scipy.stats`` takes most of a second to import; only the dbn-ess
    experiment needs it, so importing the package must not load it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", "import sys, ncbayes; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-3000:]
    assert result.stdout.strip() == "False"
