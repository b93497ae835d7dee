"""Experiment configuration: an INI document with generator/model/coteach/run sections.

Every settings dataclass is defined here, on the standard library alone: the CLI
imports this module at start-up, and numpy only in the commands that compute.
A section's keys are its dataclass's fields, each read as the type of its
default, so an empty file (or no overrides) runs the standard recipe: tau=0.2,
t_k=10, subject-wise batch size 8, Adam at lr 0.01 with single-cycle cosine
annealing to 0. Model input dimensions and class count derive from the
generator section (classes = imagery classes + 1 for rest).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ValidationError

METHODS = ("coteach", "baseline")


@dataclass(frozen=True)
class GeneratorConfig:
    n_subjects: int = 10
    n_imagery_classes: int = 2
    trials_per_class: int = 24
    n_electrodes: int = 4
    n_timesteps: int = 750
    snr: float = 2.0
    subject_shift_scale: float = 0.5
    noisy_subject_ids: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "n_imagery_classes", "trials_per_class", "n_electrodes", "n_timesteps"):
            if getattr(self, name) < 1:
                raise ValidationError(f"generator.{name} must be positive, got {getattr(self, name)}")
        if not (self.snr > 0 and 1.0 / self.snr < math.inf):  # 1/snr is the noise sigma
            raise ValidationError(f"generator.snr must be > 0 with a finite 1/snr, got {self.snr}")
        if not 0 <= self.subject_shift_scale < math.inf:
            raise ValidationError(f"generator.subject_shift_scale must be in [0, inf), got {self.subject_shift_scale}")
        bad = [i for i in self.noisy_subject_ids if not 0 <= i < self.n_subjects]
        if bad:
            raise ValidationError(f"generator.noisy_subject_ids {bad} outside 0..{self.n_subjects - 1}")
        object.__setattr__(self, "noisy_subject_ids", tuple(sorted(set(self.noisy_subject_ids))))


@dataclass(frozen=True)
class ModelConfig:
    n_electrodes: int
    n_timesteps: int
    n_classes: int
    width_base: int
    n_blocks: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n_electrodes", "n_timesteps", "n_classes", "width_base"):
            if getattr(self, name) < 1:
                raise ValidationError(f"model.{name} must be positive, got {getattr(self, name)}")
        if not 1 <= self.n_blocks <= 4:
            raise ValidationError(f"model.n_blocks must be in 1..4, got {self.n_blocks}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError(f"model.seed must be a 64-bit unsigned int, got {self.seed}")


@dataclass(frozen=True)
class CoteachConfig:
    tau: float = 0.2
    t_k: int = 10
    t_max: int = 30
    b: int = 8
    lr: float = 0.01
    optimizer: str = "adam"  # "sgd" exists for closed-form single-step checks
    seed: int = 0  # run_fold sets each fold's own

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValidationError(f"coteach.tau must be in [0, 1), got {self.tau}")
        for name in ("t_k", "t_max", "b"):
            if getattr(self, name) < 1:
                raise ValidationError(f"coteach.{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.lr < math.inf:
            raise ValidationError(f"coteach.lr must be in (0, inf), got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"coteach.optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


@dataclass(frozen=True)
class BackboneConfig:  # [model]: width and depth; the generator section sets the input and output sizes
    width_base: int = 8
    n_blocks: int = 1


@dataclass(frozen=True)
class RunConfig:
    # not where to write or how many workers: those change no result, so only the command line sets them
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
    model: BackboneConfig = field(default_factory=BackboneConfig)
    coteach: CoteachConfig = field(default_factory=CoteachConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def model_config(self) -> ModelConfig:
        """The network's shape; each network's init seed is set when training builds it."""
        return ModelConfig(n_electrodes=self.generator.n_electrodes, n_timesteps=self.generator.n_timesteps,
                           n_classes=self.generator.n_imagery_classes + 1, **asdict(self.model))

    def to_dict(self) -> dict:
        """Every INI key, section by section, with the value it has here."""
        echo = {}
        for section, keys in _KEYS.items():
            values = getattr(self, section)
            echo[section] = {key: getattr(values, key) for key in keys}
        return echo


_DEFAULTS = ExperimentConfig()
# not CoteachConfig's optimizer and seed: sgd is for single-step checks, and run_fold seeds each fold
_NOT_IN_INI = {"coteach.optimizer", "coteach.seed"}
# each section's INI keys: the fields of its dataclass, in declaration order
_KEYS = {section.name: [key.name for key in fields(section.default_factory)
                        if f"{section.name}.{key.name}" not in _NOT_IN_INI]
         for section in fields(ExperimentConfig)}


def _parse_section(parser: configparser.ConfigParser, section: str) -> dict:
    values = {}
    for key, raw in parser.items(section):
        if key not in _KEYS[section]:
            raise ValidationError(f"unknown config key {section}.{key}")
        default = getattr(getattr(_DEFAULTS, section), key)
        try:
            if isinstance(default, tuple):  # noisy_subject_ids: ints separated by commas or spaces
                values[key] = tuple(int(tok) for tok in raw.replace(",", " ").split())
            elif isinstance(default, str):
                values[key] = raw.strip()
            else:
                values[key] = type(default)(raw)
        except ValueError:
            raise ValidationError(f"config key {section}.{key} has invalid value {raw!r}") from None
    return values


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    # a default section no header can name (none holds a line break): [DEFAULT] is then an unknown section
    parser = configparser.ConfigParser(default_section="\n")
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ValidationError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _KEYS:
                raise ValidationError(f"unknown config section [{section}]")
        overrides = {section: _parse_section(parser, section) for section in _KEYS if parser.has_section(section)}
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # some configparser messages span lines
        raise ValidationError(f"malformed config file {path}: {detail}") from None

    # replace() runs each section's own validation, in section order
    cfg = ExperimentConfig(**{section: replace(getattr(_DEFAULTS, section), **overrides.get(section, {}))
                              for section in _KEYS})
    cfg.model_config()  # validates derived model dimensions eagerly
    return cfg
