"""Flat `section.key = value` run configuration.

Grammar: UTF-8 text, one assignment per line, `#` starts a comment, blank
lines ignored. Unknown keys are rejected. Defaults are listed in the schema
below and documented in the README.
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


def _parse_optional_float(raw: str):
    return None if raw.strip().lower() == "none" else float(raw)


def _choice(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return raw
    return parse


# key -> (parser, default); required keys use the REQUIRED sentinel
REQUIRED = object()

SCHEMA: dict[str, tuple] = {
    "data.train": (str, None),
    "data.valid": (str, None),
    "data.test": (str, None),
    "data.format": (_choice("tsv", "whitespace"), "tsv"),
    "model.kind": (str, REQUIRED),
    "model.dim": (int, REQUIRED),
    "model.distance_p": (int, 2),
    "model.gamma": (float, 9.0),
    "filter.kind": (str, "none"),
    "filter.p": (int, 2),
    "filter.apply_to": (str, "auto"),
    "filter.rt": (_parse_bool, False),
    "filter.zero_change_epsilon": (float, 1e-12),
    "filter.linear2_add_one": (str, "diag"),
    "loss.task": (str, "auto"),
    "loss.rp_weight": (float, 0.0),
    "loss.dura_weight": (float, 0.0),
    "loss.negatives": (int, 256),
    "loss.adv_temperature": (float, 1.0),
    "loss.margin": (_parse_optional_float, None),
    "train.epochs": (int, REQUIRED),
    "train.lr": (float, 0.1),
    "train.batch_size": (int, 512),
    "train.seed": (int, 0),
    "train.plugin_epoch": (int, 0),
    "train.optimizer": (str, "adagrad"),
    "train.validate": (_parse_bool, False),
    "train.validate_every": (int, 5),
    "train.scale_telemetry": (_parse_bool, True),
    "train.telemetry_sample": (int, 512),
    "train.init_scheme": (str, "gaussian"),
    "train.init_scale": (float, 1e-3),
    "train.precision": (str, "f64"),
    "eval.split": (_choice("train", "valid", "test"), "test"),
    "eval.directions": (_choice("tail", "head", "both"), "both"),
    "eval.buckets": (int, 10),
    "groups.file": (str, None),
    "analysis.sample": (int, 512),
}


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

    values: dict

    @classmethod
    def from_text(cls, text: str, overrides: dict | None = None) -> "RunConfig":
        raw = parse_config_text(text)
        values: dict = {}
        for key, (parser, default) in SCHEMA.items():
            if key in raw:
                try:
                    values[key] = parser(raw[key])
                except ConfigError:
                    raise
                except (TypeError, ValueError) as err:
                    raise ConfigError(f"bad value for {key}: {err}") from None
            else:
                values[key] = default
        if overrides:
            for key, val in overrides.items():
                if key not in SCHEMA:
                    raise ConfigError(f"unknown override {key!r}")
                values[key] = val
        return cls(values)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), overrides)

    def __getitem__(self, key: str):
        return self.values[key]

    def require(self, key: str):
        value = self.values[key]
        if value is REQUIRED or value is None:
            raise ConfigError(f"missing required setting {key}")
        return value

    # -- assembled objects ---------------------------------------------------

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            kind=self.require("model.kind"),
            dim=self.require("model.dim"),
            distance_p=self["model.distance_p"],
            gamma=self["model.gamma"],
        )

    def filter_spec(self, model: ModelSpec) -> FilterSpec:
        apply_to = self["filter.apply_to"]
        if apply_to == "auto":
            apply_to = "head_only" if model.is_tdm else "head_and_tail"
        return FilterSpec(
            kind=self["filter.kind"],
            p=self["filter.p"],
            apply_to=apply_to,
            rt_enabled=self["filter.rt"],
            zero_change_epsilon=self["filter.zero_change_epsilon"],
            linear2_add_one=self["filter.linear2_add_one"],
        )

    def loss_config(self, model: ModelSpec) -> LossConfig:
        task = self["loss.task"]
        if task == "auto":
            task = "cross_entropy" if model.is_tdm else "self_adversarial"
        return LossConfig(
            task=task,
            rp_weight=self["loss.rp_weight"],
            dura_weight=self["loss.dura_weight"],
            negatives=self["loss.negatives"],
            adv_temperature=self["loss.adv_temperature"],
            margin=self["loss.margin"],
        )

    def train_config(self) -> TrainConfig:
        try:
            model = self.model_spec()
            return TrainConfig(
                model=model,
                filter=self.filter_spec(model),
                loss=self.loss_config(model),
                epochs=self.require("train.epochs"),
                lr=self["train.lr"],
                batch_size=self["train.batch_size"],
                seed=self["train.seed"],
                plugin_epoch=self["train.plugin_epoch"],
                optimizer=self["train.optimizer"],
                validate=self["train.validate"],
                validate_every=self["train.validate_every"],
                scale_telemetry=self["train.scale_telemetry"],
                telemetry_sample=self["train.telemetry_sample"],
                init_scheme=self["train.init_scheme"],
                init_scale=self["train.init_scale"],
                precision=self["train.precision"],
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None
