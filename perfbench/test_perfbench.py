"""Tests of the benchmark itself: its declaration, result schema and output checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import fb15k_shape  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY = bench.Workload(
    name="tiny-complex",
    why="test only",
    graph="synthetic",
    preset="synthetic-complex-dura-rscf.cfg",
    overrides={"model.dim": "8", "train.epochs": "2", "train.batch_size": "1024",
               "train.seed": "{seed}", "train.validate_every": "1"},
)


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declaration_matches_contract(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["command"][:2] == ["python3", "perfbench/run.py"]
    assert declared["paths"] == ["perfbench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in declared[group]]
    assert len(names) == len(set(names))
    for w in declared["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in declared["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in declared["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    assert 1 <= len(declared["per_layer"]) <= 128
    for m in declared["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])


def test_declared_per_layer_metrics_are_the_tracer_names(declared):
    expected = set()
    for label in tracer.LABELS:
        expected |= {f"{label}.calls", f"{label}.total_s", f"{label}.self_s"}
    expected |= set(tracer.COUNTERS)
    expected |= {"objectives.cand_unique_frac", "evaluation.score_gflop",
                 "evaluation.test_mrr", "trace.untraced_wall_s", "trace.traced_wall_s",
                 "trace.overhead_frac"}
    assert {m["name"] for m in declared["per_layer"]} == expected


def test_end_to_end_result_schema(declared, tmp_path):
    info, result = bench.run_workload(TINY, 3, 0.0, False, tmp_path, tmp_path / "traces")
    assert checks.validate_result(result, declared["end_to_end"]) == []
    assert result["correct"] and result["failed"] == 0
    assert info["shapes"]["dim"] == 8 and info["environment"]["nproc"] >= 1
    # one set-up and preset run, then min_rounds rounds, each with a set-up
    assert info["rounds"] == 3 and len(info["samples"]["setup_s"]) == 4
    assert len(info["samples"]["train_triples_per_s"]) == 1
    json.dumps(result, allow_nan=False)


def test_traced_result_schema(declared, tmp_path):
    info, result = bench.run_workload(TINY, 3, 0.0, True, tmp_path, tmp_path / "traces")
    assert checks.validate_result(result, declared["per_layer"]) == []
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trainer.train.calls"] == 1 and m["trainer.train_epoch.calls"] == 2
    assert m["trainer.fnv1a.calls"] == 2  # one save, one load; Rng.derive not counted
    assert m["objectives.cand_unique_frac"] == 1.0
    assert len(info["traced_over_untraced"]) == len(bench.TRACE_ORDER)
    # warm-up plus one untraced and one traced pass per pair; each pass is two
    # set-ups, the preset run, an evaluation, a save and a load
    assert result["attempted"] == 6 * (1 + 2 * len(bench.TRACE_ORDER))
    for label in tracer.LABELS:
        assert 0 <= m[f"{label}.self_s"] <= m[f"{label}.total_s"] + 1e-9
    lines = Path(info["spans_file"]).read_text().splitlines()
    assert len(lines) == info["spans"] and json.loads(lines[0])["name"]


def test_run_config_is_the_preset_with_overrides(tmp_path):
    w = bench.WORKLOADS["fb15k-transe-rscf-rt"]
    text = bench.run_config(w, 7, tmp_path)
    preset = (bench.PRESETS / w.preset).read_text(encoding="utf-8")
    keys = [line.split("=", 1)[0].strip() for line in text.splitlines() if "=" in line
            and not line.startswith("#")]
    assert len(keys) == len(set(keys))
    assert "train.seed = 7" in text and "train.batch_size = 128" in text
    assert f"data.test = {tmp_path / 'test.txt'}" in text
    assert "loss.negatives = 256" in text and "loss.negatives = 256" in preset


def test_tracer_restores_every_patched_name():
    from rscf import evaluation, trainer
    from rscf.data import Dataset
    before = (trainer.fnv1a, evaluation.filtered_rank, Dataset.__dict__["load"])
    with tracer.Tracer():
        assert trainer.fnv1a is not before[0]
    assert (trainer.fnv1a, evaluation.filtered_rank, Dataset.__dict__["load"]) == before


def _report(mrr, hits, queries):
    return SimpleNamespace(mrr=mrr, hits=hits, query_count=queries)


def test_nan_scores_fail_the_rank_check():
    from rscf import evaluation
    with checks.RankProbe(evaluation) as probe:
        rank = evaluation.filtered_rank(1, np.full(5, np.nan), {1})
    assert probe.ranks == [rank]
    problems = checks.check_report(_report(1.0 / rank, {1: 1.0, 3: 1.0, 10: 1.0}, 1),
                                   probe.ranks, 5, 1)
    assert any("ranks outside" in p for p in problems)
    assert any("MRR" in p for p in problems)


def test_report_check_accepts_valid_and_rejects_bad_hits():
    good = _report(0.5, {1: 0.0, 3: 1.0, 10: 1.0}, 2)
    assert checks.check_report(good, [1.0, 3.0], 10, 2) == []
    assert checks.check_report(_report(0.5, {1: 0.5, 3: 0.2, 10: 1.0}, 2), [], 10, 2)
    assert checks.check_report(_report(math.nan, {1: 0.5}, 2), [], 10, 2)
    assert checks.check_report(good, [1.0], 10, 2)  # a query went unranked


def test_checkpoint_check_catches_a_flipped_bit(tmp_path):
    from rscf import objectives, trainer
    from rscf.data import Vocabulary
    from rscf.models import ModelSpec
    from rscf.tensor import Rng
    from rscf.transforms import FilterSpec
    config = trainer.TrainConfig(ModelSpec("complex", 4), FilterSpec("rscf", apply_to="head_only"),
                                 objectives.LossConfig(), epochs=1)
    store = objectives.build_store(config.model, config.filter, 3, 1, Rng(0))
    vocab = Vocabulary(["a", "b", "c"], ["r"])
    saved = trainer.Checkpoint(trainer.CHECKPOINT_VERSION, config, vocab, store, 1)
    trainer.save_checkpoint(tmp_path / "c.ckp", saved)
    loaded = trainer.load_checkpoint(tmp_path / "c.ckp")
    assert checks.check_checkpoint(saved, loaded) is None
    bits = loaded.store.tables["entity"].view(np.uint64)
    bits[0, 0] ^= np.uint64(1)
    assert "entity" in checks.check_checkpoint(saved, loaded)


def test_validate_result_rejects_malformed_lines():
    declared = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    ok = {"correct": True, "attempted": 3, "failed": 0,
          "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    assert checks.validate_result(ok, declared) == []
    assert checks.validate_result({**ok, "extra": 1}, declared)
    assert checks.validate_result({**ok, "attempted": 0}, declared)
    assert checks.validate_result({**ok, "metrics": {}}, declared)
    assert checks.validate_result(
        {**ok, "metrics": {"setup_s": {"value": None, "unit": "s"}}}, declared)
    assert checks.validate_result(
        {**ok, "metrics": {"setup_s": {"value": 0.5, "unit": "ms"}}}, declared)


def test_fb15k_shape_generator_counts_and_determinism():
    a = fb15k_shape.generate_triples(5, 300)
    b = fb15k_shape.generate_triples(5, 300)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert [a[k].shape[0] for k in ("train", "valid", "test")] == [
        fb15k_shape.NUM_TRAIN, fb15k_shape.NUM_VALID, 300]
    train = a["train"]
    assert np.unique(np.concatenate([train[:, 0], train[:, 2]])).size == fb15k_shape.NUM_ENTITIES
    assert np.unique(train[:, 1]).size == fb15k_shape.NUM_RELATIONS
    rows = np.concatenate(list(a.values()))
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]
    c = fb15k_shape.generate_triples(6, 300)
    assert not np.array_equal(a["test"], c["test"])
