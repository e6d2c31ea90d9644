import dataclasses
import re
from pathlib import Path

import pytest

from rscf.config import REQUIRED, SCHEMA, ConfigError, RunConfig, parse_config_text
from rscf.models import ModelSpec
from rscf.objectives import LossConfig
from rscf.trainer import TrainConfig
from rscf.transforms import FilterSpec

MINIMAL = """
model.kind = cp
model.dim = 4
train.epochs = 2
"""


class TestParsing:
    def test_comments_and_blanks(self):
        raw = parse_config_text("# top\nmodel.kind = cp  # tail\n\nmodel.dim = 8\n"
                                "train.epochs = 1\n")
        assert raw == {"model.kind": "cp", "model.dim": "8", "train.epochs": "1"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.kinds = cp\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.dim = 4\nmodel.dim = 8\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.kind cp\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text(MINIMAL + "train.lr = fast\n")

    def test_bool_values(self):
        cfg = RunConfig.from_text(MINIMAL + "filter.rt = true\ntrain.validate = 0\n")
        assert cfg["filter.rt"] is True
        assert cfg["train.validate"] is False


class TestAssembly:
    def test_defaults_applied(self):
        cfg = RunConfig.from_text(MINIMAL)
        train_cfg = cfg.train_config()
        assert train_cfg.lr == 0.1
        assert train_cfg.batch_size == 512
        assert train_cfg.optimizer == "adagrad"
        assert train_cfg.filter.apply_to == "head_only"

    def test_auto_task_for_distance_model(self):
        cfg = RunConfig.from_text(
            "model.kind = transe\nmodel.dim = 4\ntrain.epochs = 1\n")
        train_cfg = cfg.train_config()
        assert train_cfg.filter.apply_to == "head_and_tail"

    def test_missing_required(self):
        cfg = RunConfig.from_text("model.kind = cp\nmodel.dim = 4\n")
        with pytest.raises(ConfigError):
            cfg.train_config()

    def test_presets_parse(self):
        from importlib import resources

        for entry in resources.files("rscf.presets").iterdir():
            if entry.name.endswith(".cfg"):
                cfg = RunConfig.from_text(entry.read_text(encoding="utf-8"))
                assert cfg.train_config().epochs >= 1


def test_defaults_come_from_the_spec_dataclasses():
    assert RunConfig.from_text(MINIMAL).train_config() == TrainConfig(
        model=ModelSpec("cp", 4), filter=FilterSpec(apply_to="head_only"),
        loss=LossConfig(), epochs=2)


# a value other than the dataclass default for every model/filter/loss/train
# key, as written in the file and as the field holds it
NON_DEFAULT = {
    "model.kind": ("complex", "complex"),
    "model.dim": ("6", 6),
    "model.distance_p": ("1", 1),
    "model.gamma": ("3.5", 3.5),
    "filter.kind": ("rscf", "rscf"),
    "filter.p": ("1", 1),
    "filter.apply_to": ("head_only", "head_only"),
    "filter.rt": ("true", True),
    "filter.linear2_add_one": ("full", "full"),
    "loss.rp_weight": ("0.5", 0.5),
    "loss.dura_weight": ("0.05", 0.05),
    "loss.negatives": ("8", 8),
    "loss.adv_temperature": ("0.5", 0.5),
    "train.epochs": ("3", 3),
    "train.lr": ("0.25", 0.25),
    "train.batch_size": ("64", 64),
    "train.seed": ("4", 4),
    "train.plugin_epoch": ("1", 1),
    "train.optimizer": ("sgd", "sgd"),
    "train.validate": ("true", True),
    "train.validate_every": ("2", 2),
    "train.scale_telemetry": ("false", False),
    "train.telemetry_sample": ("16", 16),
    "train.init_scheme": ("uniform", "uniform"),
    "train.init_scale": ("0.01", 0.01),
    "train.precision": ("f32", "f32"),
}
SPEC_SECTIONS = ("model", "filter", "loss", "train")


def _minimal_without(key: str) -> str:
    return "".join(line + "\n" for line in MINIMAL.strip().splitlines()
                   if not line.startswith(key + " "))


@pytest.mark.parametrize("key", [k for k in SCHEMA if k.split(".")[0] in SPEC_SECTIONS])
def test_each_spec_key_reaches_its_field(key):
    raw, value = NON_DEFAULT[key]
    # auto already picks head_only for MINIMAL's tensor model
    base = MINIMAL.replace("cp", "transe") if key == "filter.apply_to" else _minimal_without(key)
    text = base + f"{key} = {raw}\n"
    train_cfg = RunConfig.from_text(text).train_config()
    section, name = key.split(".")
    name = "rt_enabled" if key == "filter.rt" else name
    spec = train_cfg if section == "train" else getattr(train_cfg, section)
    assert getattr(spec, name) == value
    default = {f.name: f.default for f in dataclasses.fields(spec)}[name]
    assert default is dataclasses.MISSING or default != value


@pytest.mark.parametrize("key", REQUIRED)
def test_missing_required_setting_named(key):
    with pytest.raises(ConfigError, match=f"missing required setting {key}"):
        RunConfig.from_text(_minimal_without(key)).train_config()


@pytest.mark.parametrize("key", ["loss.task", "loss.margin",
                                 "filter.zero_change_epsilon"])
def test_retired_keys_are_unknown(key):
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_text(MINIMAL + f"{key} = 1\n")


def test_readme_configuration_table_matches_schema():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented |= set(re.findall(r"`([a-z_0-9]+\.[a-z_0-9]+)`",
                                         line.split("|")[1]))
    assert documented == set(SCHEMA)
