import json

import numpy as np
import pytest

from rscf import evaluation
from rscf.cli import main
from rscf.data import Dataset
from rscf.models import ModelSpec
from rscf.objectives import LossConfig, build_store
from rscf.synthetic import write_dataset
from rscf.tensor import Rng
from rscf.trainer import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint
from rscf.transforms import FilterSpec

CONFIG_TEMPLATE = """
data.train = {d}/train.txt
data.valid = {d}/valid.txt
data.test = {d}/test.txt
model.kind = complex
model.dim = 8
filter.kind = rscf
filter.rt = true
loss.rp_weight = 0.1
loss.dura_weight = 0.01
train.epochs = 3
train.lr = 0.3
train.batch_size = 64
train.seed = 5
train.init_scale = 0.1
"""


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    gen = np.random.default_rng(0)
    ents, rels = 12, 11
    raw = [(f"e{i}", f"r{i % rels}", f"e{(i + 1) % ents}") for i in range(ents)]
    raw += [(f"e{gen.integers(ents)}", f"r{gen.integers(rels)}",
             f"e{gen.integers(ents)}") for _ in range(60)]
    ds = Dataset.from_raw(raw[:56], raw[56:64], raw[64:])
    write_dataset(ds, root)
    return root


@pytest.fixture(scope="module")
def run_dir(tiny_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "run.cfg"
    cfg.write_text(CONFIG_TEMPLATE.format(d=tiny_data), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--out", str(out),
                 "--deterministic"])
    assert code == 0
    return out, cfg


class TestTrainCommand:
    def test_artifacts_exist(self, run_dir):
        out, _ = run_dir
        assert (out / "checkpoint.rscfckp").exists()
        assert (out / "train_report.csv").exists()
        report = json.loads((out / "train_report.json").read_text())
        assert len(report["epochs"]) == 3

    def test_malformed_triple_file_exit_code(self, tiny_data, tmp_path, capsys):
        train = tmp_path / "train.txt"
        train.write_text((tiny_data / "train.txt").read_text(encoding="utf-8")
                         + "\n e1\tr1\n", encoding="utf-8")
        bad_line = len(train.read_text(encoding="utf-8").splitlines())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(d=tiny_data).replace(
            f"{tiny_data}/train.txt", str(train)), encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--deterministic"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error: {train}:{bad_line}: ")
        assert not (tmp_path / "o" / "checkpoint.rscfckp").exists()

    def test_usage_error_exit_code(self):
        assert main(["train", "--out", "/tmp/x"]) == 1

    def test_workers_flag_rejected(self, run_dir, tmp_path):
        _, cfg = run_dir
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path),
                     "--workers", "2"]) == 1

    def test_unknown_config_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.kin = cp\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command,settings", [
        ("train", {"model.kind": "foo"}),
        ("train", {"train.lr": "-1"}),
        ("train", {"model.kind": "transe", "loss.dura_weight": "0.1"}),
        ("train", {"train.optimizer": "adam"}),
        ("train", {"train.init_scheme": "xavier"}),
        ("train", {"data.format": "csv"}),
        ("evaluate", {"data.format": "csv"}),
        ("evaluate", {"eval.split": "dev"}),
        ("evaluate", {"eval.directions": "sideways"}),
        ("train", {"loss.rp_weight": "nan"}),
        ("train", {"loss.dura_weight": "nan"}),
        ("train", {"loss.adv_temperature": "inf"}),
        ("train", {"model.gamma": "nan"}),
        ("train", {"train.lr": "nan"}),
        ("train", {"train.lr": "inf"}),
        ("train", {"train.init_scale": "inf"}),
        ("train", {"train.init_scale": "nan"}),
        ("train", {"train.init_scale": "0"}),
        ("train", {"train.init_scale": "-0.1"}),
        ("evaluate", {"eval.buckets": "0"}),
        ("evaluate", {"eval.buckets": "-1"}),
        ("evaluate", {"analysis.sample": "0"}),
        ("evaluate", {"analysis.sample": "-1"}),
    ])
    def test_bad_config_values_are_config_errors(self, tmp_path, command, settings,
                                                 capsys):
        # neither the data nor the checkpoint exists: reading one would exit 2
        values = {"data.train": str(tmp_path / "missing.txt"), "model.kind": "cp",
                  "model.dim": "4", "train.epochs": "1", **settings}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                       encoding="utf-8")
        extra = (["--checkpoint", str(tmp_path / "missing.rscfckp")]
                 if command == "evaluate" else [])
        assert main([command, "--config", str(cfg), *extra,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    def test_missing_data_exit_code(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.train = /nonexistent/t.txt\nmodel.kind = cp\n"
                       "model.dim = 4\ntrain.epochs = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_diverged_loss_exit_code(self, tiny_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data.train = {tiny_data}/train.txt\nmodel.kind = rescal\n"
            "model.dim = 6\ntrain.epochs = 30\ntrain.optimizer = sgd\n"
            "train.lr = 1e7\ntrain.scale_telemetry = false\n",
            encoding="utf-8")
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(cfg), "--out", str(tmp_path),
                         "--deterministic"])
        assert code == 3
        assert (tmp_path / "train_report.json").exists()

    def test_init_overflow_is_numerical_failure(self, tiny_data, tmp_path, capsys):
        # 1e39 is finite in f64 but overflows f32 when the tables are cast
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(d=tiny_data).replace(
            "train.init_scale = 0.1", "train.init_scale = 1e39\ntrain.precision = f32"),
            encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--deterministic"])
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not (tmp_path / "o" / "checkpoint.rscfckp").exists()


class TestEvaluateCommand:
    def test_eval_report(self, run_dir, tmp_path):
        out, cfg = run_dir
        dest = tmp_path / "eval"
        code = main(["evaluate", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--split", "test",
                     "--out", str(dest), "--deterministic"])
        assert code == 0
        payload = json.loads((dest / "eval.json").read_text())
        assert 0.0 < payload["mrr"] <= 1.0
        assert (dest / "eval_per_relation.csv").exists()

    def test_non_finite_scores_exit_code(self, run_dir, tmp_path):
        out, cfg = run_dir
        ckpt = load_checkpoint(out / "checkpoint.rscfckp")
        ckpt.store.tables["entity"][:] = np.nan
        bad = tmp_path / "nan.rscfckp"
        save_checkpoint(bad, ckpt)
        code = main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad),
                     "--split", "test", "--out", str(tmp_path / "eval")])
        assert code == 3
        assert not (tmp_path / "eval" / "eval.json").exists()

    def test_out_of_range_rank_exit_code(self, run_dir, tmp_path, monkeypatch):
        out, cfg = run_dir
        monkeypatch.setattr(evaluation, "rank_block",
                            lambda scores, *args: np.full(scores.shape[0], 0.5))
        code = main(["evaluate", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--split", "test",
                     "--out", str(tmp_path / "eval")])
        assert code == 3
        assert not (tmp_path / "eval" / "eval.json").exists()

    def test_group_by_frequency_yields_buckets(self, run_dir, tmp_path, monkeypatch):
        out, cfg = run_dir
        dest = tmp_path / "evalg"
        calls = []
        real_collect_ranks = evaluation.collect_ranks

        def counting_collect_ranks(*args, **kwargs):
            calls.append(args[2])
            return real_collect_ranks(*args, **kwargs)

        monkeypatch.setattr(evaluation, "collect_ranks", counting_collect_ranks)
        code = main(["evaluate", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--split", "test",
                     "--group-by", "frequency", "--out", str(dest),
                     "--deterministic"])
        assert code == 0
        assert calls == ["test"]  # the split is ranked once for both reports
        payload = json.loads((dest / "eval.json").read_text())
        assert len(payload["groups"]) == 10
        total = sum(g["query_count"] for g in payload["groups"].values())
        assert total == payload["query_count"]


class TestAnalysisCommands:
    def test_simulate_consistency(self, tmp_path):
        code = main(["simulate-consistency", "--samples", "500", "--dim", "8",
                     "--seed", "7", "--out", str(tmp_path), "--deterministic"])
        assert code == 0
        payload = json.loads((tmp_path / "consistency.json").read_text())
        assert set(payload["rates"]) == {"transformation", "normalization", "add_one"}
        assert len(payload["columns"]) == 4

    def test_check_dura_sign(self, tmp_path):
        code = main(["check-dura-sign", "--trials", "200", "--seed", "3",
                     "--out", str(tmp_path), "--deterministic"])
        assert code == 0
        assert json.loads((tmp_path / "dura_sign.json").read_text())["passed"]

    def test_analyze_scales(self, run_dir, tmp_path):
        out, cfg = run_dir
        dest = tmp_path / "scales"
        code = main(["analyze-scales", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--out", str(dest),
                     "--deterministic"])
        assert code == 0
        payload = json.loads((dest / "scales.json").read_text())
        assert payload["transformation_scale"] is not None

    def test_analyze_clusters_from_vectors(self, tmp_path):
        vectors = tmp_path / "vecs.csv"
        vectors.write_text("g1,1,0\ng1,3,0\ng2,0,2\ng2,0,4\n", encoding="utf-8")
        code = main(["analyze-clusters", "--vectors", str(vectors),
                     "--out", str(tmp_path), "--deterministic"])
        assert code == 0
        payload = json.loads((tmp_path / "clusters.json").read_text())
        assert payload["clusters"] == ["g1", "g2"]
        assert abs(payload["intra_per_cluster"][0] - 0.5) < 1e-9

    @pytest.mark.parametrize("text,line", [
        ("g1,1,0\na,1,x\n", 2),  # a non-numeric cell
        ("g1,1,0\n\na\n", 3),  # a label with no values
        ("a,1,2\na,1\n", 2),  # rows of different lengths
        ("g1,1,0\ng2,0,nan\n", 2),  # a value that is not finite
    ])
    def test_analyze_clusters_malformed_vectors(self, tmp_path, text, line, capsys):
        vectors = tmp_path / "vecs.csv"
        vectors.write_text(text, encoding="utf-8")
        code = main(["analyze-clusters", "--vectors", str(vectors),
                     "--out", str(tmp_path / "o"), "--deterministic"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error: {vectors}:{line}: ")
        assert not (tmp_path / "o" / "clusters.json").exists()

    def test_analyze_clusters_from_checkpoint(self, run_dir, tmp_path):
        out, _ = run_dir
        groups = tmp_path / "groups.tsv"
        groups.write_text("".join(f"g{j % 2}\tr{j}\n" for j in range(11)),
                          encoding="utf-8")
        dest = tmp_path / "cl"
        code = main(["analyze-clusters", "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--group-file", str(groups),
                     "--target", "et", "--out", str(dest), "--deterministic"])
        assert code == 0
        payload = json.loads((dest / "clusters.json").read_text())
        assert payload["clusters"] == ["g0", "g1"]

    def test_analyze_clusters_transformed_embeddings(self, run_dir, tmp_path):
        out, _ = run_dir
        groups = tmp_path / "groups.tsv"
        groups.write_text("".join(f"g{j % 2}\tr{j}\n" for j in range(11)),
                          encoding="utf-8")
        dest = tmp_path / "cl_ee"
        code = main(["analyze-clusters", "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--group-file", str(groups),
                     "--target", "ee", "--entity", "3", "--out", str(dest),
                     "--deterministic"])
        assert code == 0
        payload = json.loads((dest / "clusters.json").read_text())
        assert payload["sizes"] == [6, 5]

    @pytest.mark.parametrize("entity", ["-1", "12"])
    def test_analyze_clusters_entity_out_of_range(self, run_dir, tmp_path, entity, capsys):
        out, _ = run_dir
        groups = tmp_path / "groups.tsv"
        groups.write_text("".join(f"g{j % 2}\tr{j}\n" for j in range(11)),
                          encoding="utf-8")
        dest = tmp_path / "cl_bad"
        code = main(["analyze-clusters", "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--group-file", str(groups),
                     "--target", "ee", "--entity", entity, "--out", str(dest),
                     "--deterministic"])
        assert code == 2  # 12 entities: ids 0..11
        assert "outside [0, 12)" in capsys.readouterr().err
        assert not (dest / "clusters.json").exists()

    def test_analyze_scales_rejects_sample_below_one(self, run_dir, tmp_path, capsys):
        out, cfg = run_dir
        dest = tmp_path / "scales_bad"
        code = main(["analyze-scales", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--sample", "-3",
                     "--out", str(dest), "--deterministic"])
        assert code == 1
        assert "--sample" in capsys.readouterr().err
        assert not (dest / "scales.json").exists()

    @pytest.mark.parametrize("sample", ["0", "-3"])
    def test_analyze_scales_rejects_config_sample_below_one(self, run_dir, tmp_path,
                                                           sample, capsys):
        out, cfg = run_dir
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(cfg.read_text() + f"analysis.sample = {sample}\n",
                           encoding="utf-8")
        dest = tmp_path / "scales_cfg"
        code = main(["analyze-scales", "--config", str(bad_cfg), "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--out", str(dest),
                     "--deterministic"])
        assert code == 1
        assert "analysis.sample" in capsys.readouterr().err
        assert not (dest / "scales.json").exists()

    def test_export_scores(self, run_dir, tmp_path):
        out, _ = run_dir
        queries = tmp_path / "q.tsv"
        queries.write_text("e0\tr1\ne3\tr2\n", encoding="utf-8")
        dest = tmp_path / "scores"
        code = main(["export-scores", "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--queries", str(queries),
                     "--out", str(dest), "--deterministic"])
        assert code == 0
        lines = (dest / "scores.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 queries
        assert len(lines[0].split(",")) == 12

    @pytest.mark.parametrize("kind", ["complex", "transe"])
    def test_export_scores_non_finite_exit_code(self, run_dir, tmp_path, kind):
        out, _ = run_dir
        ckpt = load_checkpoint(out / "checkpoint.rscfckp")
        if ckpt.model.kind != kind:
            vocab = ckpt.vocabulary
            model = ModelSpec(kind, 8)
            filt = FilterSpec("rscf", apply_to="head_and_tail", rt_enabled=True)
            store = build_store(model, filt, vocab.num_entities, vocab.num_relations,
                                Rng(5), init_scale=0.1)
            cfg = TrainConfig(model=model, filter=filt, loss=LossConfig(), epochs=0)
            ckpt = Checkpoint(1, cfg, vocab, store, 0)
        ckpt.store.tables["entity"][3] = np.nan
        bad = tmp_path / "nan.rscfckp"
        save_checkpoint(bad, ckpt)
        queries = tmp_path / "q.tsv"
        queries.write_text("e0\tr1\ne5\tr2\n", encoding="utf-8")
        dest = tmp_path / "scores"
        code = main(["export-scores", "--checkpoint", str(bad), "--queries",
                     str(queries), "--out", str(dest), "--deterministic"])
        assert code == 3
        assert not (dest / "scores.csv").exists()

    def test_check_gradients_small(self, tmp_path):
        code = main(["check-gradients", "--dim", "4", "--triples", "3",
                     "--coords", "8", "--out", str(tmp_path), "--deterministic"])
        assert code == 0
        payload = json.loads((tmp_path / "gradient_check.json").read_text())
        assert payload["passed"] is True
        assert len(payload["combos"]) == 192

    @pytest.mark.parametrize("args", [["--coords", "0"], ["--triples", "0"],
                                      ["--dim", "0"], ["--dim", "-2"], ["--dim", "5"]])
    def test_check_gradients_rejects_empty_or_odd_grid(self, tmp_path, args, capsys):
        code = main(["check-gradients", *args, "--out", str(tmp_path / "gc")])
        assert code == 1
        assert args[0] in capsys.readouterr().err
        assert not (tmp_path / "gc" / "gradient_check.json").exists()

    def test_check_gradients_fails_on_nan_error(self, tmp_path, monkeypatch):
        from rscf import cli
        from rscf.gradcheck import ComboResult

        errors = [1e-9, float("nan"), 1e-9]
        monkeypatch.setattr(cli, "run_grid", lambda **kw: [
            ComboResult("cp", "none", False, 0.0, 0.0, e) for e in errors])
        assert main(["check-gradients", "--out", str(tmp_path)]) == 3
        assert json.loads((tmp_path / "gradient_check.json").read_text())["passed"] is False

    @pytest.mark.parametrize("args", [
        ["evaluate", "--config", "run.cfg", "--checkpoint", "c.rscfckp"],
        ["analyze-clusters", "--vectors", "v.csv"],
        ["analyze-scales", "--config", "run.cfg", "--checkpoint", "c.rscfckp"],
        ["export-scores", "--checkpoint", "c.rscfckp", "--queries", "q.tsv"],
    ])
    def test_seed_flag_rejected_where_it_changes_nothing(self, tmp_path, args, capsys):
        assert main([*args, "--seed", "1", "--out", str(tmp_path / "o")]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["simulate-consistency", "--samples", "0"],
        ["simulate-consistency", "--dim", "-1"],
        ["simulate-consistency", "--thresholds", "0.5"],
        ["simulate-consistency", "--thresholds", "abc"],
        ["check-dura-sign", "--trials", "0"],
    ])
    def test_bad_arguments_are_usage_errors(self, tmp_path, args, capsys):
        assert main([*args, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and args[1] in err
        assert not (tmp_path / "o").exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tiny_data, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(d=tiny_data), encoding="utf-8")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--out", str(out),
                         "--deterministic"]) == 0
            assert main(["evaluate", "--config", str(cfg), "--checkpoint",
                         str(out / "checkpoint.rscfckp"), "--out",
                         str(out / "eval"), "--deterministic"]) == 0
            blobs.append({
                "ckpt": (out / "checkpoint.rscfckp").read_bytes(),
                "report": (out / "train_report.json").read_bytes(),
                "csv": (out / "train_report.csv").read_bytes(),
                "eval": (out / "eval" / "eval.json").read_bytes(),
            })
        assert blobs[0] == blobs[1]
