"""Config file loading for the command line tools.

The file format is YAML restricted to a flat key/value mapping, with two
optional nested sections: ``sampler`` (chain settings) and ``learning``
(training schedule).  Keys are validated against the target schema and
unknown keys are rejected, so typos fail loudly instead of silently
running defaults.
"""

from __future__ import annotations

import dataclasses
import numbers
import typing
from dataclasses import dataclass

import yaml

from .errors import ConfigurationError
from .experiments import ExperimentConfig, LearningSpec
from .hmc import HmcConfig, _check_mix_rho

_TUPLE_KEYS = ("sigma_z_grid", "log_sigma_z_grid", "replicate_seeds",
               "gen_dims")

# the value types a file may give a field annotated with each type
_ACCEPTS = {int: numbers.Integral, float: numbers.Real}


@dataclass(frozen=True)
class AnalyzeConfig:
    """Inputs for the closed-form correlation report.

    Always reports the two-step chain comparison at (sigma_x, sigma_z);
    when all four local-factor values are set, reports that pair too.
    """

    sigma_x: float = 1.0
    sigma_z: float = 0.5
    alpha: float | None = None
    beta: float | None = None
    w: float | None = None
    sigma: float | None = None
    out_dir: str = "results"
    seed: int = 0

    def local_factor_given(self):
        values = (self.alpha, self.beta, self.w, self.sigma)
        if all(v is None for v in values):
            return False
        if any(v is None for v in values):
            raise ConfigurationError(
                "alpha, beta, w, sigma must be given together")
        return True


@dataclass(frozen=True)
class SampleConfig:
    """Inputs for running chains on a ready-made model."""

    model: str = "lds"
    parameterization: str = "cp"
    sigma_x: float = 1.0
    sigma_z: float = 0.5
    T: int = 10
    latent_dim: int = 2
    obs_dim: int = 5
    mix_rho: float = 0.5
    out_dir: str = "results"
    seed: int = 0
    sampler: HmcConfig = HmcConfig(step_size=0.05)

    def __post_init__(self):
        if self.model not in ("lds", "dbn"):
            raise ConfigurationError("model must be 'lds' or 'dbn'")
        if self.parameterization not in ("cp", "dncp", "mix"):
            raise ConfigurationError(
                "parameterization must be cp, dncp, or mix")
        _check_mix_rho(self.mix_rho)


def load_config(path):
    """Read a YAML mapping; an empty file is an empty config."""
    try:
        with open(path) as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigurationError(
                    f"could not parse {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError("config top level must be a mapping")
    return raw


def _build(cls, given, defaults, label):
    if not isinstance(given, dict):
        raise ConfigurationError(f"{label} section must be a mapping")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {label} key(s): {', '.join(unknown)}")
    merged = {**defaults, **given}
    for key in _TUPLE_KEYS:
        if key in merged and isinstance(merged[key], list):
            merged[key] = tuple(merged[key])
    _check_types(cls, merged, label)
    return cls(**merged)


def _is(value, kinds):
    """``isinstance``, save that a YAML true or false is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_types(cls, merged, label):
    """Reject a value whose type does not fit its field, naming the key."""
    hints = typing.get_type_hints(cls)
    for key, value in merged.items():
        hint = hints[key]
        kinds = tuple(_ACCEPTS.get(t, t)
                      for t in typing.get_args(hint) or (hint,))
        if not _is(value, kinds) or (key in _TUPLE_KEYS and not all(
                _is(v, numbers.Real) for v in value)):
            expected = ("a list of numbers" if key in _TUPLE_KEYS
                        else getattr(hint, "__name__", hint))
            raise ConfigurationError(
                f"{label} key {key} must be {expected}, got {value!r}")


def _split_sections(raw):
    flat = dict(raw)
    sampler = flat.pop("sampler", {})
    learning = flat.pop("learning", {})
    return flat, sampler, learning


def experiment_config(raw, experiment=None, seed=None, out_dir=None):
    """Build an ExperimentConfig from a parsed file plus CLI overrides."""
    flat, sampler_raw, learning_raw = _split_sections(raw)
    if experiment is not None:
        flat["experiment"] = experiment
    if "experiment" not in flat:
        raise ConfigurationError("no experiment named (config or argument)")
    if seed is not None:
        flat["seed"] = int(seed)
    if out_dir is not None:
        flat["out_dir"] = str(out_dir)
    default = ExperimentConfig(experiment=flat["experiment"])
    flat["sampler"] = _build(HmcConfig, sampler_raw,
                             dataclasses.asdict(default.sampler), "sampler")
    flat["learning"] = _build(LearningSpec, learning_raw,
                              dataclasses.asdict(default.learning),
                              "learning")
    return _build(ExperimentConfig, flat, {}, "experiment")


def analyze_config(raw, seed=None, out_dir=None):
    flat, sampler_raw, learning_raw = _split_sections(raw)
    if sampler_raw or learning_raw:
        raise ConfigurationError("analyze takes no sampler/learning section")
    if seed is not None:
        flat["seed"] = int(seed)
    if out_dir is not None:
        flat["out_dir"] = str(out_dir)
    return _build(AnalyzeConfig, flat, {}, "analyze")


def sample_config(raw, seed=None, out_dir=None):
    flat, sampler_raw, learning_raw = _split_sections(raw)
    if learning_raw:
        raise ConfigurationError("sample takes no learning section")
    if seed is not None:
        flat["seed"] = int(seed)
    if out_dir is not None:
        flat["out_dir"] = str(out_dir)
    flat["sampler"] = _build(
        HmcConfig, sampler_raw,
        dataclasses.asdict(SampleConfig.__dataclass_fields__[
            "sampler"].default), "sampler")
    return _build(SampleConfig, flat, {}, "sample")
