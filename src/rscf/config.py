"""Flat `section.key = value` run configuration.

Grammar: UTF-8 text, one assignment per line, `#` starts a comment, blank
lines ignored. Unknown keys are rejected. A `model.*`, `filter.*`, `loss.*` or
`train.*` key sets the field of that name of ModelSpec, FilterSpec, LossConfig
or TrainConfig (`filter.rt` sets `rt_enabled`), and a key the file leaves out
takes the dataclass default. The other keys have their defaults in DEFAULTS.
The README documents every key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import ModelSpec
from .objectives import LossConfig
from .trainer import TrainConfig
from .transforms import FilterSpec


class ConfigError(ValueError):
    """Bad key, bad value, or missing required setting."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return raw
    return parse


# key -> value parser
SCHEMA = {
    "data.train": str,
    "data.valid": str,
    "data.test": str,
    "data.format": _choice("tsv", "whitespace"),
    "model.kind": str,
    "model.dim": int,
    "model.distance_p": int,
    "model.gamma": float,
    "filter.kind": str,
    "filter.p": int,
    "filter.apply_to": str,
    "filter.rt": _parse_bool,
    "filter.linear2_add_one": str,
    "loss.rp_weight": float,
    "loss.dura_weight": float,
    "loss.negatives": int,
    "loss.adv_temperature": float,
    "train.epochs": int,
    "train.lr": float,
    "train.batch_size": int,
    "train.seed": int,
    "train.plugin_epoch": int,
    "train.optimizer": str,
    "train.validate": _parse_bool,
    "train.validate_every": int,
    "train.scale_telemetry": _parse_bool,
    "train.telemetry_sample": int,
    "train.init_scheme": str,
    "train.init_scale": float,
    "train.precision": str,
    "eval.split": _choice("train", "valid", "test"),
    "eval.directions": _choice("tail", "head", "both"),
    "eval.buckets": _positive_int,
    "groups.file": str,
    "analysis.sample": _positive_int,
}

# defaults of the keys no spec dataclass holds; any other key left out reads None
DEFAULTS = {
    "data.format": "tsv",
    "eval.split": "test",
    "eval.directions": "both",
    "eval.buckets": 10,
    "analysis.sample": 512,
}

REQUIRED = ("model.kind", "model.dim", "train.epochs")

# the one key whose dataclass field has another name
FIELD_NAMES = {"filter.rt": "rt_enabled"}


def parse_config_text(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


@dataclass
class RunConfig:
    """Typed view over the flat key-value run description."""

    values: dict  # the parsed values of the keys the file sets

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values: dict = {}
        for key, raw in parse_config_text(text).items():
            try:
                values[key] = SCHEMA[key](raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bad value for {key}: {err}") from None
        return cls(values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise KeyError(key)
        return self.values.get(key, DEFAULTS.get(key))

    def require(self, key: str):
        value = self[key]
        if value is None:
            raise ConfigError(f"missing required setting {key}")
        return value

    def _fields(self, section: str) -> dict:
        """Keyword arguments for a section's dataclass: the section's keys that
        the file sets, under their field names."""
        prefix = section + "."
        return {FIELD_NAMES.get(key, key[len(prefix):]): value
                for key, value in self.values.items() if key.startswith(prefix)}

    def train_config(self) -> TrainConfig:
        for key in REQUIRED:
            self.require(key)
        try:
            model = ModelSpec(**self._fields("model"))
            filt = self._fields("filter")
            if filt.get("apply_to", "auto") == "auto":
                filt["apply_to"] = "head_only" if model.is_tdm else "head_and_tail"
            return TrainConfig(model=model, filter=FilterSpec(**filt),
                               loss=LossConfig(**self._fields("loss")),
                               **self._fields("train"))
        except ValueError as err:
            raise ConfigError(str(err)) from None
