"""Experiment configuration: an INI document with generator/model/coteach/run sections.

Every key has a default, so an empty file (or no overrides) runs the standard
recipe: tau=0.2, t_k=10, subject-wise batch size 8, Adam at lr 0.01 with
single-cycle cosine annealing to 0. Model input dimensions and class count
derive from the generator section (classes = imagery classes + 1 for rest).
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field

from .coteaching import METHODS, CoteachConfig
from .data import GeneratorConfig
from .errors import ValidationError
from .models import ModelConfig


@dataclass(frozen=True)
class RunConfig:
    method: str = "coteach"
    master_seed: int = 1
    val_ratio: float = 0.9
    cohort_file: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"run.method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.val_ratio < 1.0:
            raise ValidationError(f"run.val_ratio must be in (0, 1), got {self.val_ratio}")


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    model_width_base: int = 8
    model_n_blocks: int = 1
    coteach: CoteachConfig = field(default_factory=CoteachConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def model_config(self) -> ModelConfig:
        """The network's shape; each network's init seed is set when training builds it."""
        return ModelConfig(
            n_electrodes=self.generator.n_electrodes,
            n_timesteps=self.generator.n_timesteps,
            n_classes=self.generator.n_imagery_classes + 1,
            width_base=self.model_width_base,
            n_blocks=self.model_n_blocks,
        )

    def to_dict(self) -> dict:
        """Every INI key, section by section, with the value it has here."""
        sections = {
            "generator": asdict(self.generator),
            "model": {"width_base": self.model_width_base, "n_blocks": self.model_n_blocks},
            "coteach": asdict(self.coteach),
            "run": asdict(self.run),
        }
        return {name: {key: sections[name][key] for key in keys} for name, keys in _PARSERS.items()}


_PARSERS = {
    "generator": {
        "n_subjects": int, "n_imagery_classes": int, "trials_per_class": int,
        "n_electrodes": int, "n_timesteps": int, "snr": float,
        "subject_shift_scale": float, "noisy_subject_ids": "int_list", "seed": int,
    },
    "model": {"width_base": int, "n_blocks": int},
    # not CoteachConfig's optimizer and seed: sgd is for single-step checks, and run_fold seeds each fold
    "coteach": {"tau": float, "t_k": int, "t_max": int, "b": int, "lr": float},
    # not where to write or how many workers: those change no result, so only the command line sets them
    "run": {"method": str, "master_seed": int, "val_ratio": float, "cohort_file": str},
}


def _parse_section(parser: configparser.ConfigParser, section: str) -> dict:
    spec = _PARSERS[section]
    if not parser.has_section(section):
        return {}
    values = {}
    for key, raw in parser.items(section):
        if key not in spec:
            raise ValidationError(f"unknown config key {section}.{key}")
        kind = spec[key]
        try:
            if kind == "int_list":
                values[key] = tuple(int(tok) for tok in raw.replace(",", " ").split())
            elif kind is str:
                values[key] = raw.strip()
            else:
                values[key] = kind(raw)
        except ValueError:
            raise ValidationError(f"config key {section}.{key} has invalid value {raw!r}") from None
    return values


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ValidationError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _PARSERS:
                raise ValidationError(f"unknown config section [{section}]")
        gen_kwargs = _parse_section(parser, "generator")
        model_kwargs = _parse_section(parser, "model")
        coteach_kwargs = _parse_section(parser, "coteach")
        run_kwargs = _parse_section(parser, "run")
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # some configparser messages span lines
        raise ValidationError(f"malformed config file {path}: {detail}") from None

    try:
        generator = GeneratorConfig(**gen_kwargs)
        coteach = CoteachConfig(**coteach_kwargs)
        run = RunConfig(**run_kwargs)
        model = {f"model_{key}": value for key, value in model_kwargs.items()}
        cfg = ExperimentConfig(generator=generator, coteach=coteach, run=run, **model)
        cfg.model_config()  # validates derived model dimensions eagerly
    except ValidationError:
        raise
    except TypeError as exc:
        raise ValidationError(f"invalid config: {exc}") from None
    return cfg
