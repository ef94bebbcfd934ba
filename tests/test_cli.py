"""Command line surface: subcommands, overrides, exit codes."""

import csv
import hashlib
import json

import pytest

from ncbayes.cli import main


def run(args):
    return main(args)


class TestAnalyze:
    def test_default_report(self, tmp_path, capsys):
        assert run(["analyze", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results.csv" in out
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "lds"
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["lds"]["prefer_dncp"] is True

    def test_local_factor_block(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("alpha: -1.0\nbeta: -2.0\nw: 0.7\nsigma: 0.4\n")
        assert run(["analyze", "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 0
        summary = json.load(open(tmp_path / "r" / "summary.json"))
        assert "local_factor" in summary

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("alpha: 1.0\nbeta: -2.0\nw: 0.7\nsigma: 0.4\n")
        assert run(["analyze", "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 3
        assert "numeric failure" in capsys.readouterr().err


class TestSample:
    def test_defaults_keep_their_bytes(self, tmp_path):
        """``ncbayes sample`` at its defaults: a cp chain on the lds."""
        assert run(["sample", "--out", str(tmp_path)]) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in ("results.csv", "summary.json",
                                         "manifest.json")}
        assert got == {
            "results.csv": "d9503f3b0ebb8cdda09d0425c7715da022f50c227034"
                           "ace1447c715624270f55",
            "summary.json": "8cc9b5562d7c60f7dbf2318fe14f4e11e88dab93a4a5"
                            "29fc1864425026fb9084",
            "manifest.json": "3ea00707b5d8c4e0cf7ac839fa3684bc45e7aad95d69"
                             "509cb39d02cc430ce483",
        }

    def test_lds_mixture_chain(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("""
model: lds
parameterization: mix
sigma_z: 0.1
sampler:
  step_size: 0.2
  burn_in: 40
  samples: 120
""")
        assert run(["sample", "--config", str(cfg), "--seed", "3",
                    "--out", str(tmp_path / "r")]) == 0
        with open(tmp_path / "r" / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["draw", "z1_0", "z2_0"]
        assert len(rows) == 121
        summary = json.load(open(tmp_path / "r" / "summary.json"))
        assert 0.0 <= summary["acceptance_rate"] <= 1.0
        assert set(summary["system_counts"]) <= {"cp", "dncp"}
        assert summary["min_ess"] > 0

    def test_manifest_records_command(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("sampler: {burn_in: 20, samples: 30}\n")
        assert run(["sample", "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 0
        manifest = json.load(open(tmp_path / "r" / "manifest.json"))
        assert manifest["command"] == "sample"
        assert manifest["config"]["sampler"]["samples"] == 30


class TestLearnAndExperiment:
    def test_learn_single_method(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("""
n_data: 20
holdout: 5
obs_dim: 3
gen_dims: [2, 2]
learning:
  method: mcem
  mcem_iterations: 2
  l_eval: 30
  eval_every: 2
""")
        assert run(["learn", "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 0
        with open(tmp_path / "r" / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {row[0] for row in rows[1:]} == {"mcem"}

    def test_experiment_subcommand(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("n_points: 5\n")
        assert run(["experiment", "correlation-scan", "--config", str(cfg),
                    "--out", str(tmp_path / "r")]) == 0
        manifest = json.load(open(tmp_path / "r" / "manifest.json"))
        assert manifest["experiment"] == "correlation-scan"
        assert manifest["config"]["n_points"] == 5

    def test_unknown_experiment_name_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run(["experiment", "nope"])
        assert excinfo.value.code == 2


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("bogus: 1\n")
        assert run(["experiment", "lds", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("sampler: {step_size: abc}\n", "step_size"),
        ("sampler: {leapfrog_steps: many}\n", "leapfrog_steps"),
        ("sampler: {burn_in: [1]}\n", "burn_in"),
        ("model: dbn\nT: ten\n", "T"),
    ], ids=["step_size", "leapfrog_steps", "burn_in", "T"])
    def test_value_of_wrong_type(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert run(["sample", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"key {key} " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dims", ["[2, 3, 4]", "[]", "[0, 3]",
                                      "[2.5, 3]", "[true, 3]"])
    def test_learn_rejects_bad_gen_dims(self, tmp_path, capsys, dims):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"gen_dims: {dims}\n")
        assert run(["learn", "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "gen_dims" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["sample"], ["experiment", "lds"],
                                      ["analyze"]])
    def test_negative_seed(self, tmp_path, capsys, args):
        assert run([*args, "--seed", "-13",
                    "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "seed" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, capsys):
        assert run(["analyze", "--config", "/no/such.yaml"]) == 2
        assert "config error" in capsys.readouterr().err
