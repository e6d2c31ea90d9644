import json
import struct
from pathlib import Path

import numpy as np
import pytest

from rscf import evaluation as evaluation_module
from rscf import trainer as trainer_module
from rscf.cli import main as cli_main
from rscf.config import RunConfig
from rscf.data import Dataset
from rscf.errors import ChecksumMismatch, DivergedLoss, VersionMismatch
from rscf.evaluation import collect_ranks, evaluate_split
from rscf.models import ModelSpec
from rscf.objectives import (
    LossConfig,
    build_store,
    optimizer_step,
    total_objective,
)
from rscf.synthetic import write_dataset
from rscf.tensor import FNV_LOOP_BELOW, Rng, fnv1a
from rscf.trainer import (
    TrainConfig,
    TrainState,
    load_checkpoint,
    save_checkpoint,
    train,
    train_epoch,
)
from rscf.transforms import FilterSpec


def toy_dataset(num_entities=8, num_relations=2, n_train=20, seed=0):
    gen = np.random.default_rng(seed)
    raw = [(f"e{gen.integers(num_entities)}", f"r{gen.integers(num_relations)}",
            f"e{gen.integers(num_entities)}") for _ in range(n_train + 8)]
    # force full vocab coverage in train
    raw = ([(f"e{i}", "r0", f"e{(i + 1) % num_entities}") for i in range(num_entities)]
           + [(f"e0", f"r{j}", "e1") for j in range(num_relations)] + raw)
    return Dataset.from_raw(raw[: n_train + 10], raw[n_train + 10 : n_train + 14],
                            raw[n_train + 14 :])


def toy_config(kind="cp", filter_kind="rscf", epochs=3, plugin_epoch=0, seed=7,
               rt=False, **kwargs):
    model = ModelSpec(kind, 6, gamma=2.0)
    defaults = dict(
        epochs=epochs, lr=0.1, batch_size=8, seed=seed,
        plugin_epoch=plugin_epoch, validate=False, scale_telemetry=True,
        telemetry_sample=16, init_scale=0.2,
    )
    defaults.update(kwargs)
    return TrainConfig(
        model=model,
        filter=FilterSpec(filter_kind, rt_enabled=rt,
                          apply_to="head_only" if model.is_tdm else "head_and_tail"),
        loss=LossConfig(rp_weight=0.1, dura_weight=0.01 if model.is_tdm else 0.0,
                        negatives=4),
        **defaults,
    )


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=0)
        ckpt, report = train(ds, cfg)
        assert report.records == []
        fresh = build_store(cfg.model, cfg.filter, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(cfg.seed),
                            cfg.init_scheme, cfg.init_scale, cfg.dtype)
        for name in fresh.tables:
            assert np.array_equal(ckpt.store[name], fresh[name])

    def test_loss_decreases_on_toy_kg(self):
        ds = toy_dataset()
        cfg = toy_config(kind="transe", epochs=30, lr=0.05)
        _, report = train(ds, cfg)
        assert report.records[-1].loss < report.records[0].loss

    def test_same_seed_same_losses(self):
        ds = toy_dataset()
        losses = []
        for _ in range(2):
            _, report = train(ds, toy_config(epochs=4))
            losses.append([r.loss for r in report.records])
        assert losses[0] == losses[1]

    def test_single_batch_equals_one_objective_step(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=1, batch_size=10_000, filter_kind="none")
        store = build_store(cfg.model, cfg.filter, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(cfg.seed),
                            cfg.init_scheme, cfg.init_scale, cfg.dtype)
        manual = store.clone()
        state = TrainState(store, ds, cfg, 0, ds.split_array("train"))
        record = train_epoch(state)

        ep_rng = Rng(cfg.seed).derive("epoch").derive(0)
        perm = ep_rng.derive("shuffle").generator().permutation(len(ds.train))
        rows = ds.split_array("train")[perm]
        value, buf = total_objective(rows, manual, cfg.model, cfg.filter, cfg.loss)
        optimizer_step(manual, buf, cfg.optimizer, cfg.lr)
        assert record.loss == value
        for name in manual.tables:
            assert np.array_equal(store[name], manual[name])

    def test_loss_telemetry_replay_oracle(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=1, batch_size=8)
        store = build_store(cfg.model, cfg.filter, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(cfg.seed),
                            cfg.init_scheme, cfg.init_scale, cfg.dtype)
        replay = store.clone()
        state = TrainState(store, ds, cfg, 0, ds.split_array("train"))
        record = train_epoch(state)

        ep_rng = Rng(cfg.seed).derive("epoch").derive(0)
        perm = ep_rng.derive("shuffle").generator().permutation(len(ds.train))
        arr = ds.split_array("train")
        total = 0.0
        for bi, lo in enumerate(range(0, len(ds.train), cfg.batch_size)):
            rows = arr[perm[lo : lo + cfg.batch_size]]
            value, buf = total_objective(rows, replay, cfg.model, cfg.filter,
                                         cfg.loss)
            optimizer_step(replay, buf, cfg.optimizer, cfg.lr)
            total += value
        assert record.loss == total

    def test_inert_filter_equals_none_run(self):
        ds = toy_dataset()
        cfg_filtered = toy_config(filter_kind="rscf", rt=True, epochs=3,
                                  plugin_epoch=3)
        cfg_none = toy_config(filter_kind="none", epochs=3)
        ckpt_a, rep_a = train(ds, cfg_filtered)
        ckpt_b, rep_b = train(ds, cfg_none)
        assert [r.loss for r in rep_a.records] == [r.loss for r in rep_b.records]
        for name in ("entity", "relation"):
            assert np.array_equal(ckpt_a.store[name], ckpt_b.store[name])

    def test_inert_phase_scale_is_exactly_one(self):
        ds = toy_dataset()
        cfg = toy_config(filter_kind="sfbr_diag", epochs=4, plugin_epoch=2)
        _, report = train(ds, cfg)
        assert report.records[0].transformation_scale == 1.0
        assert report.records[1].transformation_scale == 1.0
        assert report.records[2].transformation_scale is not None

    def test_resume_matches_uninterrupted_run(self):
        ds = toy_dataset()
        cfg_full = toy_config(epochs=6, plugin_epoch=2, filter_kind="sfbr_diag")
        cfg_half = toy_config(epochs=3, plugin_epoch=2, filter_kind="sfbr_diag")
        ckpt_full, rep_full = train(ds, cfg_full)
        ckpt_half, _ = train(ds, cfg_half)
        ckpt_resumed, rep_tail = train(ds, cfg_full, initial=ckpt_half)
        for name in ckpt_full.store.tables:
            assert np.array_equal(ckpt_full.store[name], ckpt_resumed.store[name])
        assert [r.loss for r in rep_full.records[3:]] == [r.loss for r in rep_tail.records]

    def test_resume_rejects_changed_config(self):
        ds = toy_dataset()
        ckpt, _ = train(ds, toy_config(epochs=1))
        with pytest.raises(ValueError):
            train(ds, toy_config(epochs=2, lr=0.5), initial=ckpt)

    def test_diverged_loss_raises_with_partial_report(self):
        ds = toy_dataset()
        cfg = toy_config(kind="rescal", epochs=20, optimizer="sgd", lr=1e6,
                         scale_telemetry=False)
        with np.errstate(all="ignore"), pytest.raises(DivergedLoss) as err:
            train(ds, cfg)
        assert err.value.partial_report is not None

    def test_validation_cadence(self):
        ds = toy_dataset()
        cfg = toy_config(epochs=4, validate=True, validate_every=2)
        _, report = train(ds, cfg)
        flags = [r.valid_mrr is not None for r in report.records]
        assert flags == [False, True, False, True]

    def test_validations_share_one_filter_index(self, monkeypatch):
        ds = toy_dataset()
        cfg = toy_config(epochs=4, validate=True, validate_every=1)
        built = []
        build = evaluation_module.build_filter_index
        monkeypatch.setattr(evaluation_module, "build_filter_index",
                            lambda dataset: built.append(dataset) or build(dataset))
        ckpt, report = train(ds, cfg)
        assert len(built) == 1
        monkeypatch.undo()
        # an index built for the call gives the same ranks and MRR
        assert report.records[-1].valid_mrr == evaluate_split(ckpt, ds, "valid").mrr
        with_index = collect_ranks(ckpt, ds, "valid", index=build(ds))
        for got, want in zip(with_index, collect_ranks(ckpt, ds, "valid")):
            assert got.tobytes() == want.tobytes()

    def test_epochs_reuse_one_workspace(self):
        """Every batch draws its arrays from the state's workspace: after the
        first epoch, later ones neither replace nor add a buffer."""
        ds = toy_dataset(n_train=40)
        cfg = toy_config(kind="complex", rt=True, epochs=3, batch_size=16)
        store = build_store(cfg.model, cfg.filter, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(cfg.seed),
                            cfg.init_scheme, cfg.init_scale, cfg.dtype)
        state = TrainState(store, ds, cfg, 0, ds.split_array("train"))
        train_epoch(state)
        held = {name: id(buf) for name, buf in state.ws.items()}
        assert "tdm.q" in held and "scores" in held
        train_epoch(state)
        train_epoch(state)
        assert {name: id(buf) for name, buf in state.ws.items()} == held


class TestCheckpointIO:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = toy_dataset()
        ckpt, _ = train(ds, toy_config(epochs=2, filter_kind="rscf", rt=True))
        path = tmp_path / "run.rscfckp"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.epoch == ckpt.epoch
        assert loaded.vocabulary.entity_names == ckpt.vocabulary.entity_names
        assert loaded.config.to_dict() == ckpt.config.to_dict()
        for name in ckpt.store.tables:
            assert np.array_equal(loaded.store[name], ckpt.store[name])
            assert np.array_equal(loaded.store.acc[name], ckpt.store.acc[name])

    def test_truncated_file(self, tmp_path):
        ds = toy_dataset()
        ckpt, _ = train(ds, toy_config(epochs=1))
        path = tmp_path / "run.rscfckp"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_corrupted_byte(self, tmp_path):
        ds = toy_dataset()
        ckpt, _ = train(ds, toy_config(epochs=1))
        path = tmp_path / "run.rscfckp"
        save_checkpoint(path, ckpt)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "nope.rscfckp"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_load_then_evaluate_matches(self, tmp_path):
        ds = toy_dataset()
        ckpt, _ = train(ds, toy_config(epochs=3, filter_kind="sfbr_diag"))
        before = evaluate_split(ckpt, ds, "test")
        path = tmp_path / "run.rscfckp"
        save_checkpoint(path, ckpt)
        after = evaluate_split(load_checkpoint(path), ds, "test")
        assert before.mrr == after.mrr
        assert before.hits == after.hits


def v2_regions(blob: bytes) -> list[tuple[str, int, int]]:
    """(name, start, end) of every region of a v2 file, tables in manifest order."""
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    meta = json.loads(blob[16 : 16 + meta_len])
    regions = [("magic", 0, 8), ("meta_len", 8, 16), ("meta", 16, 16 + meta_len),
               ("header_fnv", 16 + meta_len, 24 + meta_len)]
    offset = 24 + meta_len
    for entry in meta["tables"]:
        nbytes = entry["rows"] * entry["cols"] * np.dtype(entry["dtype"]).itemsize
        regions.append((entry["name"], offset, offset + nbytes))
        offset += nbytes
    assert offset == len(blob)
    return regions


@pytest.fixture(scope="module")
def v2_blob(tmp_path_factory):
    ckpt, _ = train(toy_dataset(), toy_config(epochs=1, filter_kind="rscf", rt=True))
    path = tmp_path_factory.mktemp("v2") / "run.rscfckp"
    save_checkpoint(path, ckpt)
    return path.read_bytes()


@pytest.fixture
def allocations(monkeypatch):
    """Shapes passed to np.empty while the test runs."""
    shapes = []
    real_empty = np.empty

    def recording_empty(shape, *args, **kwargs):
        shapes.append(shape)
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recording_empty)
    return shapes


class TestCheckpointV2:
    def test_regions_and_single_header_checksum(self, v2_blob, tmp_path, monkeypatch):
        regions = v2_regions(v2_blob)
        assert v2_blob[:8] == b"RSCFCKP2"
        meta_end = regions[2][2]
        assert struct.unpack_from("<Q", v2_blob, meta_end)[0] == fnv1a(v2_blob[:meta_end])
        assert [name for name, *_ in regions[4:]] == [
            "a1", "a2", "a3", "entity", "relation",
            "acc:a1", "acc:a2", "acc:a3", "acc:entity", "acc:relation"]
        hashed = []

        def counting_fnv1a(data):
            hashed.append(len(data))
            return fnv1a(data)

        monkeypatch.setattr(trainer_module, "fnv1a", counting_fnv1a)
        path = tmp_path / "run.rscfckp"
        path.write_bytes(v2_blob)
        save_checkpoint(tmp_path / "again.rscfckp", load_checkpoint(path))
        assert hashed == [meta_end, meta_end]  # one load, one save, header only

    @pytest.mark.parametrize("region", range(14))
    def test_flipped_byte_in_each_region(self, v2_blob, region, tmp_path):
        name, start, end = v2_regions(v2_blob)[region]
        expected = VersionMismatch if name == "magic" else ChecksumMismatch
        path = tmp_path / "run.rscfckp"
        for pos in sorted({start, (start + end) // 2, end - 1}):
            blob = bytearray(v2_blob)
            blob[pos] ^= 0xFF
            path.write_bytes(bytes(blob))
            with pytest.raises(expected):
                load_checkpoint(path)

    def test_truncated_at_each_boundary(self, v2_blob, tmp_path):
        path = tmp_path / "run.rscfckp"
        cuts = {0, len(v2_blob) - 1}
        for _, start, end in v2_regions(v2_blob):
            cuts |= {start, (start + end) // 2}
        for cut in sorted(cuts):
            path.write_bytes(v2_blob[:cut])
            with pytest.raises(ChecksumMismatch):
                load_checkpoint(path)
        path.write_bytes(v2_blob + b"\0")
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_metadata_length_past_eof_allocates_nothing(self, v2_blob, tmp_path,
                                                        allocations):
        path = tmp_path / "run.rscfckp"
        for meta_len in (len(v2_blob) - 23, 2**63):
            path.write_bytes(v2_blob[:8] + struct.pack("<Q", meta_len) + v2_blob[16:])
            with pytest.raises(ChecksumMismatch):
                load_checkpoint(path)
        assert allocations == []

    @pytest.mark.parametrize("rows", [9, 10**12, -1])
    def test_manifest_past_eof_allocates_nothing(self, v2_blob, rows, tmp_path,
                                                 allocations):
        (meta_len,) = struct.unpack_from("<Q", v2_blob, 8)
        meta = json.loads(v2_blob[16 : 16 + meta_len])
        entity = next(e for e in meta["tables"] if e["name"] == "entity")
        assert entity["rows"] == 8
        entity["rows"] = rows
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        header = b"RSCFCKP2" + struct.pack("<Q", len(meta_bytes)) + meta_bytes
        path = tmp_path / "run.rscfckp"
        path.write_bytes(header + struct.pack("<Q", fnv1a(header))
                         + v2_blob[24 + meta_len :])
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)
        assert allocations == []

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_byte_stable(self, precision, tmp_path):
        ckpt, _ = train(toy_dataset(), toy_config(epochs=2, filter_kind="rscf", rt=True,
                                                  precision=precision))
        first, second, resaved = (tmp_path / n for n in ("a.rscfckp", "b", "c.ckp"))
        save_checkpoint(first, ckpt)
        save_checkpoint(second, ckpt)
        save_checkpoint(resaved, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes() == resaved.read_bytes()

    @pytest.mark.parametrize("writes_before_failure", [2, 5])
    def test_failed_save_keeps_previous_file(self, writes_before_failure, tmp_path,
                                             monkeypatch):
        ds = toy_dataset()
        old, _ = train(ds, toy_config(epochs=1))
        new, _ = train(ds, toy_config(epochs=2))
        path = tmp_path / "run.rscfckp"
        save_checkpoint(path, old)
        before = path.read_bytes()
        partial = []
        real_open = open

        class FailingFile:
            def __init__(self, fh):
                self.fh, self.left = fh, writes_before_failure

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                partial.append(self.fh.tell())
                self.fh.close()

            def write(self, data):
                if not self.left:
                    raise OSError(28, "No space left on device")
                self.left -= 1
                return self.fh.write(data)

        monkeypatch.setattr(trainer_module, "open",
                            lambda file, mode: FailingFile(real_open(file, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, new)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(tmp_path / "fresh.rscfckp", new)
        assert partial[0] > 0  # the save failed partway through the file
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["run.rscfckp"]


@pytest.mark.parametrize("section,key,value,loads", [
    ("loss", "margin", 5.0, False),
    ("loss", "margin", None, True),
    ("loss", "task", "self_adversarial", False),
    ("loss", "task", "cross_entropy", True),
    ("filter", "zero_change_epsilon", 1e-9, False),
    ("filter", "zero_change_epsilon", 1e-12, True),
])
def test_retired_setting_in_checkpoint_metadata(v2_blob, section, key, value, loads,
                                                tmp_path):
    """Checkpoints written before loss.task, loss.margin and
    filter.zero_change_epsilon were removed record them; only the values the
    code now uses load."""
    (meta_len,) = struct.unpack_from("<Q", v2_blob, 8)
    meta = json.loads(v2_blob[16 : 16 + meta_len])
    meta["config"][section][key] = value
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = b"RSCFCKP2" + struct.pack("<Q", len(meta_bytes)) + meta_bytes
    path = tmp_path / "old.rscfckp"
    path.write_bytes(header + struct.pack("<Q", fnv1a(header))
                     + v2_blob[24 + meta_len :])
    fresh = tmp_path / "fresh.rscfckp"
    fresh.write_bytes(v2_blob)
    if loads:
        assert load_checkpoint(path).config == load_checkpoint(fresh).config
        return
    with pytest.raises(VersionMismatch, match=f"{section}.{key}"):
        load_checkpoint(path)
    cfg = v1_run_config(tmp_path)
    assert cli_main(["evaluate", "--config", str(cfg), "--checkpoint", str(path),
                     "--out", str(tmp_path / "eval")]) == 2


DATA = Path(__file__).parent / "data"
V1_CONFIG = """
data.train = {d}/train.txt
data.valid = {d}/valid.txt
data.test = {d}/test.txt
model.kind = complex
model.dim = 8
filter.kind = rscf
filter.rt = true
loss.rp_weight = 0.1
loss.dura_weight = 0.01
train.epochs = {epochs}
train.lr = 0.3
train.batch_size = 64
train.seed = 5
train.init_scale = 0.1
"""


def v1_run_config(root: Path, epochs: int = 2) -> Path:
    """The dataset and config that tests/data/v1_checkpoint.rscfckp was trained on."""
    gen = np.random.default_rng(0)
    ents, rels = 12, 11
    raw = [(f"e{i}", f"r{i % rels}", f"e{(i + 1) % ents}") for i in range(ents)]
    raw += [(f"e{gen.integers(ents)}", f"r{gen.integers(rels)}",
             f"e{gen.integers(ents)}") for _ in range(60)]
    write_dataset(Dataset.from_raw(raw[:56], raw[56:64], raw[64:]), root / "data")
    cfg = root / "run.cfg"
    cfg.write_text(V1_CONFIG.format(d=root / "data", epochs=epochs), encoding="utf-8")
    return cfg


class TestCheckpointV1:
    def test_loads_bit_for_bit(self, tmp_path):
        loaded = load_checkpoint(DATA / "v1_checkpoint.rscfckp")
        cfg = RunConfig.from_file(v1_run_config(tmp_path))
        vocab = Dataset.load(cfg.require("data.train"), cfg["data.valid"],
                             cfg["data.test"]).vocabulary
        assert loaded.version == 1 and loaded.epoch == 2
        assert loaded.config.to_dict() == cfg.train_config().to_dict()
        assert loaded.vocabulary.to_dict() == vocab.to_dict()
        with np.load(DATA / "v1_tables.npz") as saved:
            assert sorted(saved.files) == sorted(
                list(loaded.store.tables) + ["acc:" + n for n in loaded.store.acc])
            for key in saved.files:
                got = (loaded.store.acc[key[4:]] if key.startswith("acc:")
                       else loaded.store[key])
                assert got.dtype == saved[key].dtype
                assert got.tobytes() == saved[key].tobytes()

    def test_flipped_byte_raises(self, tmp_path):
        blob = (DATA / "v1_checkpoint.rscfckp").read_bytes()
        path = tmp_path / "v1.rscfckp"
        for pos in (12, 100, len(blob) // 2, len(blob) - 100, len(blob) - 1):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(ChecksumMismatch):
                load_checkpoint(path)

    def test_resume_matches_resume_from_v2_resave(self, tmp_path):
        cfg = v1_run_config(tmp_path, epochs=3)
        resaved = tmp_path / "v2.rscfckp"
        save_checkpoint(resaved, load_checkpoint(DATA / "v1_checkpoint.rscfckp"))
        outs = []
        for name, start in (("from_v1", DATA / "v1_checkpoint.rscfckp"),
                            ("from_v2", resaved)):
            out = tmp_path / name
            assert cli_main(["train", "--config", str(cfg), "--out", str(out),
                             "--resume", str(start), "--deterministic"]) == 0
            outs.append(out / "checkpoint.rscfckp")
        a, b = (load_checkpoint(p) for p in outs)
        assert a.version == b.version == 2 and a.epoch == b.epoch == 3
        for name in a.store.tables:
            assert a.store[name].tobytes() == b.store[name].tobytes()
            assert a.store.acc[name].tobytes() == b.store.acc[name].tobytes()
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestCheckpointV2Fixture:
    def test_loads_and_resaves_to_identical_bytes(self, tmp_path):
        blob = (DATA / "v2_checkpoint.rscfckp").read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        assert blob[:8] == b"RSCFCKP2" and 16 + meta_len >= FNV_LOOP_BELOW
        loaded = load_checkpoint(DATA / "v2_checkpoint.rscfckp")
        assert loaded.version == 2 and loaded.epoch == 2
        with np.load(DATA / "v1_tables.npz") as saved:
            for key in saved.files:
                got = (loaded.store.acc[key[4:]] if key.startswith("acc:")
                       else loaded.store[key])
                assert got.tobytes() == saved[key].tobytes()
        save_checkpoint(tmp_path / "again.rscfckp", loaded)
        assert (tmp_path / "again.rscfckp").read_bytes() == blob
