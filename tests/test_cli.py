import json

import numpy as np
import pytest

from rscf.cli import main
from rscf.data import Dataset
from rscf.synthetic import write_dataset
from rscf.trainer import load_checkpoint, save_checkpoint

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

    def test_group_by_frequency_yields_buckets(self, run_dir, tmp_path):
        out, cfg = run_dir
        dest = tmp_path / "evalg"
        code = main(["evaluate", "--config", str(cfg), "--checkpoint",
                     str(out / "checkpoint.rscfckp"), "--split", "test",
                     "--group-by", "frequency", "--out", str(dest),
                     "--deterministic"])
        assert code == 0
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

    def test_check_gradients_small(self, tmp_path):
        code = main(["check-gradients", "--dim", "4", "--triples", "3",
                     "--coords", "8", "--out", str(tmp_path), "--deterministic"])
        assert code == 0
        payload = json.loads((tmp_path / "gradient_check.json").read_text())
        assert payload["passed"] is True
        assert len(payload["combos"]) == 192


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
