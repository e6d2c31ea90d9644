import hashlib
import json
import struct
import weakref
from pathlib import Path
from types import SimpleNamespace

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

    @pytest.mark.parametrize("kind", ["transe", "complex"])
    def test_previous_gradient_buffer_is_freed(self, kind, monkeypatch):
        """Each batch's objective runs after the last batch's gradient
        buffer, with its dense tables, is freed."""
        ds = toy_dataset()
        cfg = toy_config(kind=kind, epochs=1, batch_size=8)
        store = build_store(cfg.model, cfg.filter, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(cfg.seed),
                            cfg.init_scheme, cfg.init_scale, cfg.dtype)
        raw_objective = trainer_module.total_objective
        bufs = []

        def tracking_objective(*args, **kwargs):
            assert all(ref() is None for ref in bufs)
            value, buf = raw_objective(*args, **kwargs)
            bufs.append(weakref.ref(buf))
            return value, buf

        monkeypatch.setattr(trainer_module, "total_objective", tracking_objective)
        train_epoch(TrainState(store, ds, cfg, 0, ds.split_array("train")))
        assert len(bufs) == 4

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


DATA = Path(__file__).parent / "data"
MAGICS = (b"RSCFCKP2", b"RSCFCKP3")


def header_check(header: bytes) -> bytes:
    """What a v2 or v3 file stores after its header: the FNV-1a of it."""
    return struct.pack("<Q", fnv1a(header))


def read_meta(blob: bytes) -> tuple[dict, int]:
    """The metadata of a v2/v3 file and the offset where its header ends."""
    (meta_len,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16 : 16 + meta_len]), 16 + meta_len


def with_meta(blob: bytes, meta) -> bytes:
    """`blob` with its metadata replaced by `meta` (JSON-encoded unless it is
    bytes) and its header check redone."""
    _, meta_end = read_meta(blob)
    meta_bytes = meta if isinstance(meta, bytes) else json.dumps(meta, sort_keys=True).encode()
    header = blob[:8] + struct.pack("<Q", len(meta_bytes)) + meta_bytes
    return header + header_check(header) + blob[meta_end + 8 :]


def ckpt_regions(blob: bytes) -> list[tuple[str, int, int]]:
    """(name, start, end) of every region of a v2/v3 file, tables in manifest order."""
    meta, meta_end = read_meta(blob)
    offset = meta_end + 8
    regions = [("magic", 0, 8), ("meta_len", 8, 16), ("meta", 16, meta_end),
               ("header_check", meta_end, offset)]
    for entry in meta["tables"]:
        nbytes = entry["rows"] * entry["cols"] * np.dtype(entry["dtype"]).itemsize
        regions.append((entry["name"], offset, offset + nbytes))
        offset += nbytes
    assert offset == len(blob)
    return regions


@pytest.fixture(scope="module")
def v3_blob(tmp_path_factory):
    ckpt, _ = train(toy_dataset(), toy_config(epochs=1, filter_kind="rscf", rt=True))
    path = tmp_path_factory.mktemp("v3") / "run.rscfckp"
    save_checkpoint(path, ckpt)
    return path.read_bytes()


@pytest.fixture(params=["v2", "v3"])
def ckpt_blob(request, v3_blob):
    """The committed v2 fixture, or a v3 file saved from a fresh toy run."""
    if request.param == "v2":
        return (DATA / "v2_checkpoint.rscfckp").read_bytes()
    return v3_blob


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


class TestCheckpointFormat:
    """The v2 and v3 layouts: header, header check, then the tables."""

    def test_regions_and_single_header_check(self, ckpt_blob):
        regions = ckpt_regions(ckpt_blob)
        assert ckpt_blob[:8] in MAGICS
        meta_end, check_end = regions[3][1:]
        assert ckpt_blob[meta_end:check_end] == header_check(ckpt_blob[:meta_end])
        assert [name for name, *_ in regions[4:]] == [
            "a1", "a2", "a3", "entity", "relation",
            "acc:a1", "acc:a2", "acc:a3", "acc:entity", "acc:relation"]

    def test_one_hash_per_header_and_table(self, ckpt_blob, tmp_path, monkeypatch):
        """Loading hashes the header once and each table once, and so does
        the save, which always writes v3 (FNV-1a header, sha256 tables)."""
        hashed = []

        def counting_fnv1a(data):
            hashed.append(("fnv1a", len(data)))
            return fnv1a(data)

        def counting_new(name, data):
            hashed.append((name, len(data)))
            return hashlib.new(name, data)

        monkeypatch.setattr(trainer_module, "fnv1a", counting_fnv1a)
        monkeypatch.setattr(trainer_module, "hashlib", SimpleNamespace(new=counting_new))
        path = tmp_path / "run.rscfckp"
        path.write_bytes(ckpt_blob)
        save_checkpoint(tmp_path / "again.rscfckp", load_checkpoint(path))
        old = ckpt_regions(ckpt_blob)
        new = ckpt_regions((tmp_path / "again.rscfckp").read_bytes())
        digest = "blake2b" if ckpt_blob[:8] == b"RSCFCKP2" else "sha256"
        assert hashed == ([("fnv1a", old[3][1])]
                          + [(digest, end - start) for _, start, end in old[4:]]
                          + [("sha256", end - start) for _, start, end in new[4:]]
                          + [("fnv1a", new[3][1])])

    @pytest.mark.parametrize("region", range(14))
    def test_flipped_byte_in_each_region(self, ckpt_blob, region, tmp_path):
        name, start, end = ckpt_regions(ckpt_blob)[region]
        expected = VersionMismatch if name == "magic" else ChecksumMismatch
        path = tmp_path / "run.rscfckp"
        for pos in sorted({start, (start + end) // 2, end - 1}):
            blob = bytearray(ckpt_blob)
            blob[pos] ^= 0xFF
            path.write_bytes(bytes(blob))
            with pytest.raises(expected):
                load_checkpoint(path)

    def test_truncated_at_each_boundary(self, ckpt_blob, tmp_path):
        path = tmp_path / "run.rscfckp"
        cuts = {0, len(ckpt_blob) - 1}
        for _, start, end in ckpt_regions(ckpt_blob):
            cuts |= {start, (start + end) // 2}
        for cut in sorted(cuts):
            path.write_bytes(ckpt_blob[:cut])
            with pytest.raises(ChecksumMismatch):
                load_checkpoint(path)
        path.write_bytes(ckpt_blob + b"\0")
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_metadata_length_past_eof_allocates_nothing(self, ckpt_blob, tmp_path,
                                                        allocations):
        path = tmp_path / "run.rscfckp"
        for meta_len in (len(ckpt_blob) - 23, 2**63):
            path.write_bytes(ckpt_blob[:8] + struct.pack("<Q", meta_len) + ckpt_blob[16:])
            with pytest.raises(ChecksumMismatch):
                load_checkpoint(path)
        assert allocations == []

    @pytest.mark.parametrize("rows", ["one more", 10**12, -1])
    def test_manifest_past_eof_allocates_nothing(self, ckpt_blob, rows, tmp_path,
                                                 allocations):
        meta, _ = read_meta(ckpt_blob)
        entity = next(e for e in meta["tables"] if e["name"] == "entity")
        entity["rows"] = entity["rows"] + 1 if rows == "one more" else rows
        path = tmp_path / "run.rscfckp"
        path.write_bytes(with_meta(ckpt_blob, meta))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)
        assert allocations == []

    @pytest.mark.parametrize("fault", [
        "rows", "cols", "dtype", "trainable", "name", "digest", "duplicate",
        "orphan acc", "acc of acc", "no store_meta", "tables not a list", "not an object",
        "not JSON"])
    def test_malformed_manifest_raises_checksum_mismatch(self, ckpt_blob, fault, tmp_path):
        """Metadata whose header check passes but that no save writes."""
        meta, _ = read_meta(ckpt_blob)
        digest = "blake2b" if ckpt_blob[:8] == b"RSCFCKP2" else "sha256"
        tables = {e["name"]: e for e in meta["tables"]}
        if fault in ("rows", "cols", "dtype", "trainable", "name"):
            del tables["a2"][fault]
        elif fault == "digest":
            del tables["a2"][digest]
        elif fault == "duplicate":  # a2 has a1's shape, so the byte total still fits
            tables["a2"]["name"], tables["acc:a2"]["name"] = "a1", "acc:a1"
        elif fault == "orphan acc":
            tables["acc:a2"]["name"] = "acc:zz"
        elif fault == "acc of acc":
            tables["acc:a2"]["name"] = "acc:acc:a1"
        elif fault == "no store_meta":
            del meta["store_meta"]
        elif fault == "tables not a list":
            meta["tables"] = tables
        elif fault == "not an object":
            meta = [meta]
        else:
            meta = b"\xff" + json.dumps(meta).encode()
        path = tmp_path / "bad.rscfckp"
        path.write_bytes(with_meta(ckpt_blob, meta))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_malformed_manifest_exits_2(self, ckpt_blob, tmp_path):
        meta, _ = read_meta(ckpt_blob)
        del meta["tables"][0]["rows"]
        path = tmp_path / "bad.rscfckp"
        path.write_bytes(with_meta(ckpt_blob, meta))
        cfg = v1_run_config(tmp_path)
        assert cli_main(["evaluate", "--config", str(cfg), "--checkpoint", str(path),
                         "--out", str(tmp_path / "eval")]) == 2

    def test_version_must_match_magic(self, ckpt_blob, tmp_path):
        meta, _ = read_meta(ckpt_blob)
        meta["version"] = 5 - meta["version"]
        path = tmp_path / "run.rscfckp"
        path.write_bytes(with_meta(ckpt_blob, meta))
        with pytest.raises(VersionMismatch, match="version"):
            load_checkpoint(path)

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
def test_retired_setting_in_checkpoint_metadata(ckpt_blob, section, key, value, loads,
                                                tmp_path):
    """Checkpoints written before loss.task, loss.margin and
    filter.zero_change_epsilon were removed record them; only the values the
    code now uses load."""
    meta, _ = read_meta(ckpt_blob)
    meta["config"][section][key] = value
    path = tmp_path / "old.rscfckp"
    path.write_bytes(with_meta(ckpt_blob, meta))
    fresh = tmp_path / "fresh.rscfckp"
    fresh.write_bytes(ckpt_blob)
    if loads:
        assert load_checkpoint(path).config == load_checkpoint(fresh).config
        return
    with pytest.raises(VersionMismatch, match=f"{section}.{key}"):
        load_checkpoint(path)
    cfg = v1_run_config(tmp_path)
    assert cli_main(["evaluate", "--config", str(cfg), "--checkpoint", str(path),
                     "--out", str(tmp_path / "eval")]) == 2


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

    @pytest.mark.parametrize("fixture", ["v2", "v3"])
    def test_resume_matches_resume_from_later_formats(self, fixture, tmp_path):
        """The v2 and v3 fixtures hold the v1 checkpoint; resuming from any of
        them writes the same v3 file."""
        cfg = v1_run_config(tmp_path, epochs=3)
        outs = []
        for name in ("v1", fixture):
            out = tmp_path / name
            assert cli_main(["train", "--config", str(cfg), "--out", str(out),
                             "--resume", str(DATA / f"{name}_checkpoint.rscfckp"),
                             "--deterministic"]) == 0
            outs.append(out / "checkpoint.rscfckp")
        a, b = (load_checkpoint(p) for p in outs)
        assert a.version == b.version == 3 and a.epoch == b.epoch == 3
        for name in a.store.tables:
            assert a.store[name].tobytes() == b.store[name].tobytes()
            assert a.store.acc[name].tobytes() == b.store.acc[name].tobytes()
        assert outs[0].read_bytes()[:8] == b"RSCFCKP3"
        assert outs[0].read_bytes() == outs[1].read_bytes()


def assert_v1_tables(loaded):
    with np.load(DATA / "v1_tables.npz") as saved:
        for key in saved.files:
            got = (loaded.store.acc[key[4:]] if key.startswith("acc:")
                   else loaded.store[key])
            assert got.tobytes() == saved[key].tobytes()


class TestCheckpointV2Fixture:
    def test_loads_and_resaves_to_the_v3_fixture(self, tmp_path):
        blob = (DATA / "v2_checkpoint.rscfckp").read_bytes()
        (meta_len,) = struct.unpack_from("<Q", blob, 8)
        assert blob[:8] == b"RSCFCKP2" and 16 + meta_len >= FNV_LOOP_BELOW
        loaded = load_checkpoint(DATA / "v2_checkpoint.rscfckp")
        assert loaded.version == 2 and loaded.epoch == 2
        assert_v1_tables(loaded)
        save_checkpoint(tmp_path / "again.rscfckp", loaded)
        assert ((tmp_path / "again.rscfckp").read_bytes()
                == (DATA / "v3_checkpoint.rscfckp").read_bytes())


class TestCheckpointV3Fixture:
    def test_loads_and_resaves_to_identical_bytes(self, tmp_path):
        blob = (DATA / "v3_checkpoint.rscfckp").read_bytes()
        _, meta_end = read_meta(blob)
        assert blob[:8] == b"RSCFCKP3"
        assert blob[meta_end : meta_end + 8] == header_check(blob[:meta_end])
        loaded = load_checkpoint(DATA / "v3_checkpoint.rscfckp")
        assert loaded.version == 3 and loaded.epoch == 2
        assert_v1_tables(loaded)
        save_checkpoint(tmp_path / "again.rscfckp", loaded)
        assert (tmp_path / "again.rscfckp").read_bytes() == blob
