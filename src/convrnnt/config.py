"""Run configuration: dataclasses, the flat `key = value` config-file format,
shipped presets, and the architecture hash used to guard checkpoints.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from importlib import resources

from .audio import FeatureConfig, SpecAugConfig
from .errors import ConfigError
from .global_encoder import GlobalEncoderConfig
from .local_encoder import LocalEncoderConfig
from .transducer import TransducerConfig


@dataclass
class ModelSettings:
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
    se_enabled: bool = True
    enc_layers: int = 7
    enc_hidden: int = 640
    proj_dim: int = 512
    label_layers: int = 1
    label_hidden: int = 640
    label_embed: int = 256
    label_proj: int = 512
    joint_dim: int = 512
    vocab_size: int = 0  # 0 = infer from the vocab file
    dropout_p: float = 0.1

    def __post_init__(self):
        if not (self.local_enabled or self.global_enabled):
            raise ConfigError("at least one of the local/global frontends must be enabled")


@dataclass
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.98
    epsilon: float = 1e-9
    peak_lr: float = 0.002
    warmup_steps: int = 10000
    l2: float = 1e-6


@dataclass
class TrainingConfig:
    batch_size: int = 10
    max_steps: int = 2000
    eval_interval: int = 100
    seed: int = 1234


@dataclass
class DataConfig:
    train_manifest: str = ""
    eval_manifest: str = ""
    vocab: str = ""
    stats: str = ""
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

    # -- derived wiring -----------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.feature.input_dim

    def local_config(self) -> LocalEncoderConfig | None:
        if not self.model.local_enabled:
            return None
        return LocalEncoderConfig(
            channels=self.model.local_channels,
            kernel_t=self.model.kernel_t,
            kernel_f=self.model.kernel_f,
            in_channels=self.feature.stack,
            n_freq=self.feature.n_bands,
        )

    def global_config(self) -> GlobalEncoderConfig | None:
        if not self.model.global_enabled:
            return None
        local = self.local_config()
        d_model = local.output_dim if local is not None else self.input_dim
        return GlobalEncoderConfig(
            d_model=d_model,
            n_blocks=self.model.global_blocks,
            expansion=self.model.expansion,
            dw_kernel=self.model.dw_kernel,
            se_divisor=self.model.se_divisor,
            se_min=self.model.se_min,
            dropout_p=self.model.dropout_p,
            se_enabled=self.model.se_enabled,
        )

    def fuse_input_dim(self) -> int:
        local = self.local_config()
        dim = 0
        if local is not None:
            dim += local.output_dim
        g = self.global_config()
        if g is not None:
            dim += g.d_model
        return dim

    def transducer_config(self) -> TransducerConfig:
        if self.model.vocab_size < 1:
            raise ConfigError("vocab_size is unresolved; load a vocab first")
        return TransducerConfig(
            input_dim=self.input_dim,
            enc_layers=self.model.enc_layers,
            enc_hidden=self.model.enc_hidden,
            proj_dim=self.model.proj_dim,
            label_layers=self.model.label_layers,
            label_hidden=self.model.label_hidden,
            label_embed=self.model.label_embed,
            label_proj=self.model.label_proj,
            joint_dim=self.model.joint_dim,
            vocab_size=self.model.vocab_size,
            dropout_p=self.model.dropout_p,
        )


_SECTIONS = {
    "feature": FeatureConfig,
    "specaug": SpecAugConfig,
    "model": ModelSettings,
    "optimizer": OptimizerConfig,
    "training": TrainingConfig,
    "data": DataConfig,
}


def _parse_value(raw: str, like):
    raw = raw.strip()
    if isinstance(like, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    if isinstance(like, tuple):
        return tuple(int(v) for v in raw.split(",") if v.strip())
    return raw


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_config_text(text: str) -> dict:
    """Flat `section.key = value` lines; '#' starts a comment."""
    flat = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        flat[key.strip()] = value.strip()
    return flat


def config_from_flat(flat: dict) -> RunConfig:
    defaults = {name: cls() for name, cls in _SECTIONS.items()}
    kwargs = {name: {} for name in _SECTIONS}
    for key, raw in flat.items():
        if "." not in key:
            raise ConfigError(f"config key {key!r} is missing its section prefix")
        section, _, field_name = key.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        default_obj = defaults[section]
        if not hasattr(default_obj, field_name):
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[section][field_name] = _parse_value(raw, getattr(default_obj, field_name))
    return RunConfig(**{name: cls(**kwargs[name]) for name, cls in _SECTIONS.items()})


def load_config(path, overrides=()) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        flat = parse_config_text(f.read())
    return apply_overrides(flat, overrides)


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


def canonical_lines(cfg: RunConfig, sections=("feature", "model")) -> list:
    """Deterministic `key = value` rendering of the given sections."""
    lines = []
    for name in sections:
        obj = getattr(cfg, name)
        for f in fields(obj):
            lines.append(f"{name}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return sorted(lines)


def architecture_hash(cfg: RunConfig) -> bytes:
    """32-byte digest of everything that determines parameter shapes."""
    text = "\n".join(canonical_lines(cfg, sections=("feature", "model")))
    return hashlib.sha256(text.encode("utf-8")).digest()
