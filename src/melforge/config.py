"""Run configuration: merged defaults <- config file <- MELFORGE_SEED <- flags.

The resolved configuration is serialized into every output's metadata; the
feature-relevant subset is hashed so checkpoints and caches can refuse
incompatible inputs.  MELFORGE_SEED overrides the seeds of the config file,
and a ``--seed`` flag overrides MELFORGE_SEED.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace

from .dsp import FeatureConfig
from .errors import CompatibilityError, CorpusError, FormatError
from .model import DISC_VARIANTS, ModelConfig


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    n_critic: int = 5
    gp_weight: float = 10.0
    alpha: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.9
    adam_eps: float = 1e-8
    max_iters: int = 10000
    seed: int = 0
    checkpoint_every: int = 1000
    log_every: int = 50
    gan_start_step: int = 0  # GAN terms active from this step on
    disc_channels: int = 64
    disc_variant: str = "base"  # critic stack variant, one of model.DISC_VARIANTS


@dataclass(frozen=True)
class ProtocolConfig:
    n_enroll: int = 3
    n_target: int = 20
    n_synth: int = 20
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    dsp: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        """Missing or null sections take their defaults.

        Raises FormatError when ``d`` or a section is not a JSON object, a
        value has the wrong type (an int is accepted for a float, null only
        for an optional int, a bool never for a number), a name outside its
        choices (``train.disc_variant``) or a ``train.batch_size``,
        ``checkpoint_every`` or ``log_every`` below 1, and CompatibilityError
        naming an unknown section or key (say, one written by a newer
        version).
        """
        if not isinstance(d, dict):
            raise FormatError(f"config must be a JSON object, got {type(d).__name__}")
        sections = {f.name: f.default_factory for f in fields(cls)}  # name -> config class
        unknown = sorted(d.keys() - sections.keys())
        if unknown:
            raise CompatibilityError(f"unknown config section {unknown[0]!r}")
        built = {}
        for name, section_cls in sections.items():
            values = d.get(name)
            if values is None:
                values = {}
            if not isinstance(values, dict):
                raise FormatError(
                    f"config section {name!r} must be a JSON object, got {type(values).__name__}"
                )
            unknown = sorted(values.keys() - {f.name for f in fields(section_cls)})
            if unknown:
                raise CompatibilityError(f"unknown key {unknown[0]!r} in config section {name!r}")
            for f in fields(section_cls):
                if f.name in values and not _FIELD_TYPES[f.type](values[f.name]):
                    raise FormatError(
                        f"config key {name}.{f.name} must be {f.type},"
                        f" got {values[f.name]!r}"
                    )
            if name == "train" and values.get("disc_variant", "base") not in DISC_VARIANTS:
                raise FormatError(
                    "config key train.disc_variant must be one of"
                    f" {', '.join(DISC_VARIANTS)}, got {values['disc_variant']!r}"
                )
            if name == "train":  # a batch stride and two step moduli
                for key in ("batch_size", "checkpoint_every", "log_every"):
                    if values.get(key, 1) < 1:
                        raise FormatError(f"config key train.{key} must be >= 1, got {values[key]}")
            built[name] = section_cls(**values)
        return cls(**built)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# annotation (a string under postponed evaluation) -> accepted values; an
# int is a valid float, a bool is neither
_FIELD_TYPES = {
    "int": _is_int,
    "int | None": lambda v: v is None or _is_int(v),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def feature_hash(cfg: FeatureConfig) -> str:
    """Stable short hash of the feature-relevant configuration."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Precedence: overrides (flags) > MELFORGE_SEED (both seeds) > config
    file > built-in defaults.

    A config file that cannot be read raises CorpusError, one that is not
    JSON raises FormatError; `RunConfig.from_dict` checks its shape.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except OSError as e:
            raise CorpusError(f"cannot read config file {path}: {e}") from e
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise FormatError(f"{path}: config file is not JSON ({e})") from e
    cfg = RunConfig.from_dict(data)
    env_seed = os.environ.get("MELFORGE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise FormatError(f"MELFORGE_SEED must be an integer, got {env_seed!r}") from None
        cfg = replace(
            cfg,
            train=replace(cfg.train, seed=seed),
            protocol=replace(cfg.protocol, seed=seed),
        )
    for section, values in (overrides or {}).items():
        given = {k: v for k, v in values.items() if v is not None}
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **given)})
    return cfg
