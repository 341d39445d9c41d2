"""Run configuration: one dataclass per config-file section, the flat
`key = value` config-file format and the shipped presets.

`ModelSettings` (the `model.*` section) is the one description of the model:
every module takes it and reads the fields it needs.  `RunConfig` derives the
two widths that depend on more than one section: `input_dim`, the stacked
feature width that the global encoder and the fusion output keep, and
`local_dim`, the local encoder's output width.  Each section checks its own
values when it is made, and `RunConfig` the ones that cross sections, so a
bad value, numeric or not, raises `ConfigError` at load.  A checkpoint
stores no config: it fits any config that builds its records, which
`Trainer.load` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from importlib import resources

from .audio import FeatureConfig, SpecAugConfig
from .errors import ConfigError, read_text


@dataclass
class ModelSettings:
    # Both frontends off is the paper's LSTM-only RNN-T baseline.
    local_enabled: bool = True
    global_enabled: bool = True
    local_channels: tuple = (100, 100, 64, 64)
    kernel_t: int = 5
    kernel_f: int = 5
    global_blocks: int = 6
    expansion: int = 2
    dw_kernel: int = 3
    se_divisor: int = 8
    se_min: int = 8
    enc_layers: int = 7
    enc_hidden: int = 640
    proj_dim: int = 512
    label_layers: int = 1
    label_hidden: int = 640
    label_embed: int = 256
    label_proj: int = 512
    joint_dim: int = 512
    vocab_size: int = 0  # real tokens, blank (id 0) extra; 0 = infer from the vocab file
    dropout_p: float = 0.1
    # The dtype `TransducerModel(cfg)` holds its weights in and computes in;
    # `Trainer` builds float64.
    inference_dtype: str = "float64"

    def __post_init__(self):
        self.local_channels = tuple(int(c) for c in self.local_channels)
        if not self.local_channels or min(self.local_channels) < 1:
            raise ConfigError(f"model.local_channels must be positive, got {self.local_channels}")
        for name in (
            "kernel_t", "kernel_f", "global_blocks", "expansion", "dw_kernel", "se_divisor",
            "se_min", "enc_layers", "enc_hidden", "proj_dim", "label_layers", "label_hidden",
            "label_embed", "label_proj", "joint_dim",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be positive, got {getattr(self, name)}")
        if self.kernel_f % 2 != 1:
            raise ConfigError(f"frequency kernel must be odd for same-padding, got {self.kernel_f}")
        if self.vocab_size < 0:
            raise ConfigError(f"model.vocab_size must be >= 0, got {self.vocab_size}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"model.dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.inference_dtype not in ("float64", "float32"):
            raise ConfigError(
                f"model.inference_dtype must be float64 or float32, got {self.inference_dtype!r}"
            )


@dataclass
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-9
    peak_lr: float = 0.002
    warmup_steps: int = 10000
    l2: float = 1e-6

    def __post_init__(self):
        # Written so that NaN fails every bound.
        for name, ok in (
            ("beta1", 0.0 <= self.beta1 < 1.0),
            ("beta2", 0.0 <= self.beta2 < 1.0),
            ("epsilon", 0.0 < self.epsilon < math.inf),
            ("peak_lr", 0.0 < self.peak_lr < math.inf),
            ("l2", 0.0 <= self.l2 < math.inf),
            ("warmup_steps", self.warmup_steps >= 1),
        ):
            if not ok:
                raise ConfigError(f"optimizer.{name} is out of range, got {getattr(self, name)}")


@dataclass
class TrainingConfig:
    batch_size: int = 10
    max_steps: int = 2000
    eval_interval: int = 100
    seed: int = 1234

    def __post_init__(self):
        for name in ("batch_size", "max_steps", "eval_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"training.{name} must be positive, got {getattr(self, name)}")
        # A Philox key is below 2**128, and the trainer's generator is keyed seed + 1.
        if not 0 <= self.seed <= 2**128 - 2:
            raise ConfigError(f"training.seed must be in [0, 2**128 - 2], got {self.seed}")


@dataclass
class DataConfig:
    train_manifest: str = ""
    eval_manifest: str = ""
    vocab: str = ""
    use_toy: bool = False
    toy_dir: str = ""


@dataclass
class RunConfig:
    feature: FeatureConfig = field(default_factory=FeatureConfig)
    specaug: SpecAugConfig = field(default_factory=SpecAugConfig)
    model: ModelSettings = field(default_factory=ModelSettings)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        if self.model.local_enabled and self.feature.n_bands < self.model.kernel_f:
            raise ConfigError(f"feature.n_bands ({self.feature.n_bands}) is smaller than "
                              f"model.kernel_f ({self.model.kernel_f})")

    # -- derived widths -------------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.feature.input_dim

    @property
    def local_dim(self) -> int:
        """Width of the local encoder's output; 0 when it is off."""
        if not self.model.local_enabled:
            return 0
        return self.model.local_channels[-1] * self.feature.n_bands

    def transducer_config(self) -> ModelSettings:
        """The model settings, once the vocab size is resolved."""
        if self.model.vocab_size < 1:
            raise ConfigError("vocab_size is unresolved; load a vocab first")
        return self.model


_SECTIONS = {
    "feature": FeatureConfig,
    "specaug": SpecAugConfig,
    "model": ModelSettings,
    "optimizer": OptimizerConfig,
    "training": TrainingConfig,
    "data": DataConfig,
}


def _parse_value(raw: str, like):
    """`raw` read as the type of `like`; `ValueError` when it is not one."""
    raw = raw.strip()
    if isinstance(like, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(raw)
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    if isinstance(like, tuple):
        return tuple(int(v) for v in raw.split(",") if v.strip())
    return raw


def parse_config_text(text: str) -> dict:
    """Flat `section.key = value` lines; '#' starts a comment.  A key set on
    two lines raises `ConfigError`."""
    flat, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{key} is set on line {seen[key]} and again on line {lineno}")
        seen[key] = lineno
        flat[key] = value
    return flat


def config_from_flat(flat: dict) -> RunConfig:
    defaults = {name: cls() for name, cls in _SECTIONS.items()}
    field_names = {name: {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()}
    kwargs = {name: {} for name in _SECTIONS}
    for key, raw in flat.items():
        if "." not in key:
            raise ConfigError(f"config key {key!r} is missing its section prefix")
        section, _, field_name = key.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if field_name not in field_names[section]:
            raise ConfigError(f"unknown config key {key!r}")
        like = getattr(defaults[section], field_name)
        try:
            kwargs[section][field_name] = _parse_value(raw, like)
        except ValueError:
            raise ConfigError(f"{key}: expected {type(like).__name__}, got {raw!r}") from None
    return RunConfig(**{name: cls(**kwargs[name]) for name, cls in _SECTIONS.items()})


def load_config(path, overrides=()) -> RunConfig:
    return apply_overrides(parse_config_text(read_text(path, ConfigError)), overrides)


def load_preset(name: str, overrides=()) -> RunConfig:
    """Load one of the shipped presets ('desk' or 'paper')."""
    try:
        text = resources.files("convrnnt.configs").joinpath(f"{name}.cfg").read_text()
    except FileNotFoundError:
        raise ConfigError(f"no preset named {name!r}")
    return apply_overrides(parse_config_text(text), overrides)


def resolve_config(source: str, overrides=()) -> RunConfig:
    """Accept either a preset name or a path to a config file."""
    if source in ("desk", "paper"):
        return load_preset(source, overrides)
    return load_config(source, overrides)


def apply_overrides(flat: dict, overrides) -> RunConfig:
    flat = dict(flat)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        flat[key.strip()] = value.strip()
    return config_from_flat(flat)

