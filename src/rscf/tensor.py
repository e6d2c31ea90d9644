"""Dense parameter storage, deterministic rng streams, and a gradient checker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidScheme, NonFiniteLoss, ShapeMismatch

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a(data, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over bytes (str is encoded as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class Rng:
    """Deterministic random stream: identical (seed, stream) -> identical sequence."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(self.stream & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def derive(self, label) -> "Rng":
        """Child stream named by a label (string) or indexed by an integer."""
        if isinstance(label, str):
            child = fnv1a(label, h=fnv1a(self.stream.to_bytes(8, "little")))
        else:
            child = fnv1a(int(label).to_bytes(8, "little", signed=False),
                          h=fnv1a(self.stream.to_bytes(8, "little")))
        return Rng(self.seed, child)


@dataclass
class EmbeddingTable:
    rows: int
    dim: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.shape != (self.rows, self.dim):
            raise ShapeMismatch(
                f"table data shape {self.data.shape} != ({self.rows}, {self.dim})"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("embedding table contains non-finite entries")


def init_embeddings(rows: int, dim: int, scheme: str, rng: Rng,
                    init_scale: float = 1.0, dtype=np.float64) -> EmbeddingTable:
    """Seeded initialization. gaussian: N(0, init_scale^2). uniform: U(-b, b) with
    b = init_scale * 6 / sqrt(dim)."""
    if rows < 1 or dim < 1:
        raise ValueError("rows and dim must be >= 1")
    gen = rng.generator()
    if scheme == "gaussian":
        data = gen.normal(0.0, 1.0, size=(rows, dim)) * init_scale
    elif scheme == "uniform":
        bound = init_scale * 6.0 / np.sqrt(dim)
        data = gen.uniform(-bound, bound, size=(rows, dim))
    else:
        raise InvalidScheme(f"unknown init scheme {scheme!r}")
    return EmbeddingTable(rows, dim, data.astype(dtype))


class ParameterStore:
    """Named 2-D parameter tables plus per-table Adagrad accumulators.

    Table shapes are fixed at construction; `trainable` marks which tables the
    optimizer may touch (frozen plug-in parameters stay listed but untouched).
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.tables: dict[str, np.ndarray] = {}
        self.acc: dict[str, np.ndarray] = {}
        self.trainable: dict[str, bool] = {}
        self.meta: dict = {}

    def create(self, name: str, data: np.ndarray, trainable: bool = True,
               acc: np.ndarray | None = None) -> None:
        """Add a table; its accumulator is `acc` (same shape) or zeros."""
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        arr = np.ascontiguousarray(np.asarray(data, dtype=self.dtype))
        if arr.ndim != 2:
            raise ShapeMismatch(f"table {name!r} must be 2-D, got shape {arr.shape}")
        if acc is None:
            acc = np.zeros_like(arr)
        else:
            acc = np.ascontiguousarray(np.asarray(acc, dtype=self.dtype))
            if acc.shape != arr.shape:
                raise ShapeMismatch(f"accumulator of {name!r} has shape {acc.shape}, "
                                    f"table {arr.shape}")
        self.tables[name] = arr
        self.acc[name] = acc
        self.trainable[name] = trainable

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tables[name]

    def names(self) -> list[str]:
        return list(self.tables)

    def clone(self) -> "ParameterStore":
        out = ParameterStore(self.dtype)
        for name, arr in self.tables.items():
            out.create(name, arr.copy(), self.trainable[name], self.acc[name].copy())
        out.meta = dict(self.meta)
        return out


@dataclass
class FdReport:
    max_rel_error: float
    per_table: dict[str, float] = field(default_factory=dict)
    checked_coords: int = 0


def finite_difference_check(loss_fn, store: ParameterStore, analytic: dict,
                            eps: float = 1e-5, rng: Rng | None = None,
                            coords_per_table: int = 64, full: bool = False) -> FdReport:
    """Compare analytic gradients against central differences.

    loss_fn is a zero-argument closure over `store`; tables are perturbed in
    place and restored. Per table, a random subsample of coordinates is checked
    (all of them under full=True). Relative error per coordinate is
    |fd - an| / max(1, |fd|, |an|); the max over all checked coordinates is
    returned.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    gen = (rng or Rng(0)).generator()
    report = FdReport(0.0)
    for name in analytic:
        table = store.tables[name]
        grad = np.asarray(analytic[name])
        if grad.shape != table.shape:
            raise ShapeMismatch(f"gradient shape {grad.shape} != table {table.shape}")
        flat = table.reshape(-1)
        gflat = grad.reshape(-1)
        n = flat.size
        if full or n <= coords_per_table:
            idx = np.arange(n)
        else:
            idx = gen.choice(n, size=coords_per_table, replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn())
            flat[i] = orig - eps
            down = float(loss_fn())
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NonFiniteLoss(f"loss non-finite while perturbing {name}[{i}]")
            fd = (up - down) / (2.0 * eps)
            err = abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i]))
            worst = max(worst, err)
        report.per_table[name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
        report.checked_coords += len(idx)
    return report
