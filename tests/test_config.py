"""Config file schema: merging, overrides, rejection of unknown keys."""

import pytest

from ncbayes.config import (
    analyze_config,
    experiment_config,
    load_config,
    sample_config,
)
from ncbayes.errors import ConfigurationError


def write(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/no/such/file.yaml")

    def test_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(write(tmp_path, "a: [1, 2\n"))

    def test_non_mapping_top_level(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(write(tmp_path, "- 1\n- 2\n"))

    def test_empty_file_is_empty_config(self, tmp_path):
        assert load_config(write(tmp_path, "")) == {}


class TestExperimentConfig:
    def test_sections_merge_with_defaults(self, tmp_path):
        raw = load_config(write(tmp_path, """
experiment: dbn-ess
T: 4
sampler:
  step_size: 0.2
learning:
  train_l: 33
"""))
        cfg = experiment_config(raw)
        assert cfg.T == 4
        assert cfg.sampler.step_size == 0.2
        assert cfg.sampler.burn_in == 1000
        assert cfg.learning.train_l == 33
        assert cfg.learning.mmcl_epochs == 4

    def test_lists_become_tuples(self, tmp_path):
        raw = load_config(write(tmp_path, """
experiment: dbn-ess
log_sigma_z_grid: [-3, -1]
replicate_seeds: [5, 6, 7]
"""))
        cfg = experiment_config(raw)
        assert cfg.log_sigma_z_grid == (-3, -1)
        assert cfg.replicate_seeds == (5, 6, 7)

    def test_cli_overrides_win(self, tmp_path):
        raw = load_config(write(tmp_path, "experiment: lds\nseed: 4\n"))
        cfg = experiment_config(raw, experiment="dbn-ess", seed=11,
                                out_dir="elsewhere")
        assert cfg.experiment == "dbn-ess"
        assert cfg.seed == 11
        assert cfg.out_dir == "elsewhere"

    def test_experiment_required_somewhere(self):
        with pytest.raises(ConfigurationError):
            experiment_config({})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment_config({"experiment": "lds", "bogus": 1})
        with pytest.raises(ConfigurationError):
            experiment_config({"experiment": "lds",
                               "sampler": {"bogus": 1}})
        with pytest.raises(ConfigurationError):
            experiment_config({"experiment": "lds",
                               "learning": {"bogus": 1}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigurationError):
            experiment_config({"experiment": "lds", "sampler": [1, 2]})


class TestAnalyzeAndSample:
    def test_analyze_rejects_sections(self):
        with pytest.raises(ConfigurationError):
            analyze_config({"sampler": {"step_size": 0.1}})

    def test_analyze_partial_local_factor_rejected(self):
        cfg = analyze_config({"alpha": -1.0})
        with pytest.raises(ConfigurationError):
            cfg.local_factor_given()

    def test_analyze_complete_local_factor(self):
        cfg = analyze_config({"alpha": -1.0, "beta": -2.0, "w": 0.5,
                              "sigma": 0.3})
        assert cfg.local_factor_given()

    def test_sample_validation(self):
        with pytest.raises(ConfigurationError):
            sample_config({"model": "hmm"})
        with pytest.raises(ConfigurationError):
            sample_config({"parameterization": "vi"})
        for rho in (7.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                sample_config({"parameterization": "mix", "mix_rho": rho})
        assert sample_config({"mix_rho": 1}).mix_rho == 1

    def test_sample_sampler_section(self):
        cfg = sample_config({"model": "dbn",
                             "sampler": {"samples": 150}}, seed=2)
        assert cfg.sampler.samples == 150
        assert cfg.sampler.step_size == 0.05
        assert cfg.seed == 2
