"""Dense parameter storage, deterministic rng streams, and a gradient checker."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidScheme, NonFiniteLoss, NumericalError, ShapeMismatch

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Inputs shorter than this many bytes take the byte loop, which is faster
# there than the kernel's fixed per-block cost (rng labels are 8-30 bytes).
FNV_LOOP_BELOW = 1536
# Bytes per kernel block; the kernel's scratch memory is a fixed multiple of it.
FNV_BLOCK = 1 << 16


def fnv1a(data, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a over bytes (str is encoded as UTF-8): for each byte b,
    h = (h ^ b) * prime mod 2^64.

    Long inputs go through a NumPy kernel, in FNV_BLOCK slices that chain h,
    with the same result as the byte loop."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if len(data) < FNV_LOOP_BELOW:
        for byte in data:
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        return h
    buf = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, buf.size, FNV_BLOCK):
        h = _fnv1a_block(buf[start:start + FNV_BLOCK], h)
    return h


@functools.cache
def _fnv_powers() -> np.ndarray:
    """prime^j mod 2^64 for j = 0..FNV_BLOCK."""
    powers = np.full(FNV_BLOCK + 1, _FNV_PRIME, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)
    powers.flags.writeable = False  # shared by every call
    return powers


def _fnv1a_block(block: np.ndarray, h: int) -> int:
    """FNV-1a of a uint8 block from state h.

    XOR with b only changes the low byte L of the state, so it adds
    delta = (L ^ b) - L, and the result is
    h * prime^m + sum_i delta_i * prime^(m - i) mod 2^64 over the m bytes,
    exact in wrapping uint64. The low bytes L_i come from
    L_(i+1) = ((L_i ^ b_i) * 0xB3) mod 256 (0xB3 is the prime mod 256), one
    bit at a time: bit k of the product is bit k of x XOR bit k of
    (x mod 2^k) * 0xB3, so once bits < k are known, bit k of every L_i is a
    prefix XOR of its change at each step, starting from bit k of h."""
    m = block.size
    low = np.zeros(m + 1, dtype=np.uint8)  # L_0 .. L_m
    before = low[:m]  # the low byte each b_i meets
    flips = np.zeros(m + 1, dtype=np.uint8)
    for k in range(8):
        x = before ^ block
        x &= (1 << k) - 1
        x *= 0xB3
        x ^= block
        x >>= k
        x &= 1
        flips[0] = (h >> k) & 1
        flips[1:] = x
        bits = _prefix_xor(flips)
        bits <<= k
        low |= bits
    delta = np.subtract(before ^ block, before, dtype=np.int64).view(np.uint64)
    powers = _fnv_powers()
    delta *= powers[m:0:-1]
    return (h * int(powers[m]) + int(delta.sum(dtype=np.uint64))) & _MASK64


def _prefix_xor(bits: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of a 0/1 uint8 array, packed 64 bits per word."""
    n = bits.size
    words = np.zeros(-(-n // 64), dtype="<u8")
    packed = np.packbits(bits, bitorder="little")
    words.view(np.uint8)[:packed.size] = packed
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    parity = words >> 63  # XOR of all 64 bits of each word
    words ^= (np.bitwise_xor.accumulate(parity) ^ parity) * _MASK64
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


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


def init_embeddings(rows: int, dim: int, scheme: str, rng: Rng,
                    init_scale: float = 1.0, dtype=np.float64) -> np.ndarray:
    """Seeded (rows, dim) table. gaussian: N(0, init_scale^2). uniform: U(-b, b)
    with b = init_scale * 6 / sqrt(dim). An entry that is not finite in dtype
    raises NumericalError."""
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
    with np.errstate(over="ignore"):  # reported below
        data = data.astype(dtype)
    if not np.isfinite(data).all():
        raise NumericalError(f"initial embeddings overflow {data.dtype} "
                             f"(init_scale {init_scale!r})")
    return data


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
                            coords_per_table: int = 64) -> FdReport:
    """Compare analytic gradients against central differences.

    loss_fn is a zero-argument closure over `store`; tables are perturbed in
    place and restored. Per table, coords_per_table random coordinates are
    checked (all of them in a smaller table). Relative error per coordinate is
    |fd - an| / max(1, |fd|, |an|), and infinite where an is NaN or infinite;
    the max over all checked coordinates is returned.
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
        if n <= coords_per_table:
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
            an = gflat[i]
            err = abs(fd - an) / max(1.0, abs(fd), abs(an)) if np.isfinite(an) else np.inf
            worst = max(worst, err)
        report.per_table[name] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
        report.checked_coords += len(idx)
    return report
