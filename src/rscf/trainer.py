"""Training loop with plug-in filter scheduling, telemetry, and checkpoints.

The filter is inert (identity, parameters untouched) before plugin_epoch and
trains jointly from then on. All randomness is derived from (seed, purpose,
epoch), so a run resumed from a checkpoint continues bit-identically to an
uninterrupted one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import analysis
from . import evaluation
from .data import Dataset, Vocabulary
from .errors import ChecksumMismatch, DivergedLoss, VersionMismatch
from .models import ModelSpec, Workspace
from .objectives import (
    LossConfig,
    build_store,
    optimizer_step,
    sample_negatives,
    total_objective,
)
from .tensor import ParameterStore, Rng, fnv1a
from .transforms import DEFAULT_ZERO_EPS, FilterSpec

CHECKPOINT_MAGIC = b"RSCFCKP2"
CHECKPOINT_VERSION = 2


@dataclass
class TrainConfig:
    model: ModelSpec
    filter: FilterSpec
    loss: LossConfig
    epochs: int
    lr: float = 0.1
    batch_size: int = 512
    seed: int = 0
    plugin_epoch: int = 0
    optimizer: str = "adagrad"
    validate: bool = False
    validate_every: int = 5
    scale_telemetry: bool = True
    telemetry_sample: int = 512
    init_scheme: str = "gaussian"
    init_scale: float = 1e-3
    precision: str = "f64"

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 <= self.plugin_epoch:
            raise ValueError("plugin_epoch must be >= 0")
        if self.plugin_epoch > self.epochs:
            raise ValueError("plugin_epoch must be <= epochs")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be positive and finite")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError("init_scale must be positive and finite")
        if self.batch_size < 1 or self.validate_every < 1 or self.telemetry_sample < 1:
            raise ValueError("counts must be >= 1")
        if self.precision not in ("f64", "f32"):
            raise ValueError("precision must be f64 or f32")
        if self.optimizer not in ("adagrad", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.init_scheme not in ("gaussian", "uniform"):
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")
        if self.model.is_tdm and self.filter.apply_to != "head_only":
            raise ValueError("tensor models apply the filter to the head only")
        if self.model.is_dbm and self.loss.dura_weight > 0:
            raise ValueError("the duality regularizer is tensor-model only")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of to_dict. Older checkpoints also record settings that are
        now fixed; each is dropped when it holds the value used now, and any
        other value raises VersionMismatch, since that run cannot be redone."""
        model = ModelSpec(**d["model"])
        sections = {"filter": dict(d["filter"]), "loss": dict(d["loss"])}
        retired = {
            ("loss", "task"): "cross_entropy" if model.is_tdm else "self_adversarial",
            ("loss", "margin"): None,
            ("filter", "zero_change_epsilon"): DEFAULT_ZERO_EPS,
        }
        for (section, key), now in retired.items():
            value = sections[section].pop(key, now)
            if value != now:
                raise VersionMismatch(f"checkpoint sets {section}.{key} = {value!r}, "
                                      "which this version cannot reproduce")
        return cls(
            model=model,
            filter=FilterSpec(**sections["filter"]),
            loss=LossConfig(**sections["loss"]),
            **{k: v for k, v in d.items() if k not in ("model", "filter", "loss")},
        )


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    valid_mrr: float | None = None
    transformation_scale: float | None = None
    rt_scale: float | None = None
    embedding_scale: float | None = None


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"epochs": [asdict(r) for r in self.records]}

    def to_csv(self) -> str:
        def _fmt(v):
            if v is None:
                return ""
            return repr(v) if isinstance(v, float) else v

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        names = [f.name for f in fields(EpochRecord)]
        writer.writerow(names)
        for r in self.records:
            writer.writerow([_fmt(getattr(r, k)) for k in names])
        return out.getvalue()


@dataclass
class Checkpoint:
    version: int
    config: TrainConfig
    vocabulary: Vocabulary
    store: ParameterStore
    epoch: int

    @property
    def model(self) -> ModelSpec:
        return self.config.model

    @property
    def filter(self) -> FilterSpec:
        return self.config.filter


@dataclass
class TrainState:
    store: ParameterStore
    dataset: Dataset
    config: TrainConfig
    epoch: int
    train_arr: np.ndarray
    # the objective's batch-sized arrays, reused by every batch of the run
    ws: Workspace = field(default_factory=Workspace)

    @property
    def filter_active(self) -> bool:
        return self.epoch >= self.config.plugin_epoch


def train_epoch(state: TrainState) -> EpochRecord:
    """One pass over a seeded shuffle of the train split; the recorded loss is
    the objective at pre-step parameters, summed over batches."""
    cfg = state.config
    n = state.train_arr.shape[0]
    ep_rng = Rng(cfg.seed).derive("epoch").derive(state.epoch)
    perm = ep_rng.derive("shuffle").generator().permutation(n)
    active = state.filter_active
    num_entities = state.store.meta["num_entities"]
    total = 0.0
    for batch_index, lo in enumerate(range(0, n, cfg.batch_size)):
        rows = state.train_arr[perm[lo : lo + cfg.batch_size]]
        negatives = None
        if cfg.model.is_dbm:
            negatives = sample_negatives(
                rows, num_entities, cfg.loss.negatives,
                ep_rng.derive("negatives").derive(batch_index))
        value, buf = total_objective(rows, state.store, cfg.model, cfg.filter,
                                     cfg.loss, negatives=negatives,
                                     filter_active=active, ws=state.ws)
        if not np.isfinite(value):
            raise DivergedLoss(state.epoch)
        optimizer_step(state.store, buf, cfg.optimizer, cfg.lr)
        total += value
    record = EpochRecord(epoch=state.epoch, loss=total)
    state.epoch += 1
    return record


def train(dataset: Dataset, config: TrainConfig,
          initial: Checkpoint | None = None) -> tuple[Checkpoint, TrainReport]:
    """Run epochs [start, config.epochs); start is 0 or the checkpoint's epoch.

    Chained runs (pretrain, then plug in) use the same config with a larger
    epoch target; everything else must match the checkpoint.
    """
    if initial is not None:
        base = initial.config.to_dict()
        mine = config.to_dict()
        for key in ("model", "filter", "loss", "seed", "batch_size", "lr",
                    "optimizer", "init_scheme", "init_scale", "precision"):
            if base[key] != mine[key]:
                raise ValueError(f"resume config differs from checkpoint in {key!r}")
        store = initial.store.clone()
        start = initial.epoch
    else:
        store = build_store(config.model, config.filter,
                            dataset.vocabulary.num_entities,
                            dataset.vocabulary.num_relations,
                            Rng(config.seed), config.init_scheme,
                            config.init_scale, config.dtype)
        start = 0
    train_arr = dataset.split_array("train")
    state = TrainState(store, dataset, config, start, train_arr)
    sample = analysis.telemetry_sample(train_arr, config.seed, config.telemetry_sample)
    report = TrainReport()
    index = None  # the filter index of every validation, built at the first
    for _ in range(start, config.epochs):
        try:
            record = train_epoch(state)
        except DivergedLoss as err:
            err.partial_report = report
            raise
        if config.scale_telemetry and not config.filter.inert and sample.size:
            if state.epoch <= config.plugin_epoch:
                if config.filter.kind != "none":
                    record.transformation_scale = 1.0
                if config.filter.rt_enabled:
                    record.rt_scale = 1.0
                record.embedding_scale = analysis.embedding_scale(
                    state.store, config.filter.p, sample[:, 0])
            else:
                trace = analysis.scale_trace(state.store, config.model,
                                             config.filter, sample, ws=state.ws)
                record.transformation_scale = trace.transformation_scale
                record.rt_scale = trace.rt_scale
                record.embedding_scale = trace.embedding_scale
        if (config.validate and len(dataset.valid)
                and state.epoch % config.validate_every == 0):
            ckpt = Checkpoint(CHECKPOINT_VERSION, config, dataset.vocabulary,
                              state.store, state.epoch)
            if index is None:
                index = evaluation.build_filter_index(dataset)
            record.valid_mrr = evaluation.evaluate_split(
                ckpt, dataset, "valid", index=index).mrr
        report.records.append(record)
    checkpoint = Checkpoint(CHECKPOINT_VERSION, config, dataset.vocabulary,
                            state.store, state.epoch)
    return checkpoint, report


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# layout (v2): 8-byte magic, 8-byte little-endian metadata length, UTF-8 JSON
# metadata (version, config, vocab, epoch, rng, table manifest with a blake2b
# digest per table), 8-byte FNV-1a checksum of those header bytes, then the
# raw little-endian arrays in manifest order (parameters, then `acc:`
# accumulators). v1 files (read only) hold the same metadata without digests,
# the arrays right after it and an FNV-1a checksum of the whole file at the end.

_V1_MAGIC = b"RSCFCKP1"
_DTYPES = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}


def _dtype_tag(dtype) -> str:
    return {"float64": "<f8", "float32": "<f4"}[np.dtype(dtype).name]


def _byte_view(arr: np.ndarray) -> memoryview:
    """Flat byte view of a C-contiguous array, without a copy."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Write format v2 to `<path>.tmp` in the same directory, then rename it
    over `path`, so a failed or killed save leaves the previous file intact.
    Nothing is fsynced: this does not protect against power loss."""
    store = checkpoint.store
    entries = [(name, store.tables[name], store.trainable[name])
               for name in sorted(store.tables)]
    entries += [("acc:" + name, store.acc[name], False) for name in sorted(store.acc)]
    manifest = []
    views = []
    for name, arr, trainable in entries:
        tag = _dtype_tag(arr.dtype)
        view = _byte_view(np.ascontiguousarray(arr, dtype=_DTYPES[tag]))
        manifest.append({
            "name": name,
            "rows": int(arr.shape[0]),
            "cols": int(arr.shape[1]),
            "dtype": tag,
            "trainable": trainable,
            "blake2b": hashlib.blake2b(view).hexdigest(),
        })
        views.append(view)

    meta = {
        "version": CHECKPOINT_VERSION,
        "config": checkpoint.config.to_dict(),
        "vocab": checkpoint.vocabulary.to_dict(),
        "epoch": checkpoint.epoch,
        "rng": {"seed": checkpoint.config.seed, "next_epoch": checkpoint.epoch},
        "store_meta": store.meta,
        "tables": manifest,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = b"".join([CHECKPOINT_MAGIC, struct.pack("<Q", len(meta_bytes)), meta_bytes])
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(struct.pack("<Q", fnv1a(header)))
            for view in views:
                fh.write(view)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _table_nbytes(entry: dict) -> int:
    rows, cols = entry["rows"], entry["cols"]
    if not (type(rows) is int and type(cols) is int and rows >= 0 and cols >= 0
            and entry["dtype"] in _DTYPES):
        raise ChecksumMismatch(f"malformed manifest entry {entry.get('name')!r}")
    return rows * cols * _DTYPES[entry["dtype"]].itemsize


def load_checkpoint(path) -> Checkpoint:
    """Read a v2 (or v1) checkpoint; every checksum and digest is verified.

    v2 sizes are checked against the file size before anything is allocated,
    and each table is read straight into its own array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(CHECKPOINT_MAGIC) + 16:
            raise ChecksumMismatch("file too short to be a checkpoint")
        prefix = fh.read(len(CHECKPOINT_MAGIC) + 8)
        magic = prefix[:len(CHECKPOINT_MAGIC)]
        if magic == _V1_MAGIC:
            return _load_v1(prefix + fh.read())
        if magic != CHECKPOINT_MAGIC:
            raise VersionMismatch("bad magic; not a checkpoint file")
        (meta_len,) = struct.unpack_from("<Q", prefix, len(CHECKPOINT_MAGIC))
        if meta_len > size - len(prefix) - 8:
            raise ChecksumMismatch("metadata length points past the end of the file")
        header = prefix + fh.read(meta_len)
        (stored,) = struct.unpack("<Q", fh.read(8))
        if fnv1a(header) != stored:
            raise ChecksumMismatch("header checksum mismatch (corrupt or truncated file)")
        meta = json.loads(header[len(prefix):].decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise VersionMismatch(f"unsupported checkpoint version {meta.get('version')}")
        if sum(_table_nbytes(e) for e in meta["tables"]) != size - len(header) - 8:
            raise ChecksumMismatch("table sizes do not match the file size "
                                   "(truncated or trailing bytes)")
        arrays: dict[str, np.ndarray] = {}
        for entry in meta["tables"]:
            arr = np.empty((entry["rows"], entry["cols"]), dtype=_DTYPES[entry["dtype"]])
            view = _byte_view(arr)
            if fh.readinto(view) != view.nbytes:
                raise ChecksumMismatch("array data truncated")
            if hashlib.blake2b(view).hexdigest() != entry["blake2b"]:
                raise ChecksumMismatch(f"table {entry['name']!r} digest mismatch")
            arrays[entry["name"]] = arr
    return _checkpoint_from(meta, arrays)


def _load_v1(raw: bytes) -> Checkpoint:
    payload, trailer = raw[:-8], raw[-8:]
    if fnv1a(payload) != struct.unpack("<Q", trailer)[0]:
        raise ChecksumMismatch("checksum mismatch (corrupt or truncated file)")
    offset = len(_V1_MAGIC)
    (meta_len,) = struct.unpack_from("<Q", payload, offset)
    offset += 8
    meta = json.loads(payload[offset : offset + meta_len].decode("utf-8"))
    offset += meta_len
    if meta.get("version") != 1:
        raise VersionMismatch(f"unsupported checkpoint version {meta.get('version')}")
    arrays: dict[str, np.ndarray] = {}
    for entry in meta["tables"]:
        dtype = np.dtype(entry["dtype"])
        count = entry["rows"] * entry["cols"]
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ChecksumMismatch("array data truncated")
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(entry["rows"], entry["cols"]).copy()
        offset += nbytes
    if offset != len(payload):
        raise ChecksumMismatch("trailing bytes after arrays")
    return _checkpoint_from(meta, arrays)


def _checkpoint_from(meta: dict, arrays: dict[str, np.ndarray]) -> Checkpoint:
    config = TrainConfig.from_dict(meta["config"])
    store = ParameterStore(config.dtype)
    store.meta = dict(meta["store_meta"])
    for entry in meta["tables"]:
        name = entry["name"]
        if not name.startswith("acc:"):
            store.create(name, arrays[name], entry["trainable"],
                         acc=arrays.get("acc:" + name))
    return Checkpoint(meta["version"], config, Vocabulary.from_dict(meta["vocab"]),
                      store, meta["epoch"])
