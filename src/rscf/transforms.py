"""Plug-in entity/relation filters and their gradients.

Filter kinds:
  none          identity
  sfbr_diag     e_r = w_r * e + b_r           (per-relation diagonal weights)
  sfbr_linear2  e_r = W_r e, W_r the 2x2 block-diagonal operator built from
                four half-dim vectors stored per relation
  sfbr_n        e_r = (N_p(w_r) + 1) * e      (normalized, rooted variant)
  rscf          e_r = (N_p(r A1) + 1) * e     (shared affine, rooted, normalized)
  rscf_linear2  block operator built from N_p(r A1') + 1, A1': dr x 2n

Relation transformation (rt_enabled):
  r_ht = (N_p(h A2) + 1) * (N_p(t A3) + 1) * r   (distance models)
  r_h  = (N_p(h A2) + 1) * r                     (tensor models, head factor only)

All batched kernels pair a forward returning a cache with a backward (VJP)
consuming cotangents; gradients are validated by the finite-difference checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OddDimension, ShapeMismatch, UnknownRelation

FILTER_KINDS = ("none", "sfbr_diag", "sfbr_linear2", "sfbr_n", "rscf", "rscf_linear2")
RSCF_KINDS = ("rscf", "rscf_linear2")
SFBR_KINDS = ("sfbr_diag", "sfbr_linear2", "sfbr_n")
LINEAR2_KINDS = ("sfbr_linear2", "rscf_linear2")

DEFAULT_ZERO_EPS = 1e-12


class _ZeroChange:
    """Marker for a degenerate (near-zero) change vector; callers treat the
    change as the zero vector, leaving the embedding untouched."""

    __slots__ = ()

    def __repr__(self):
        return "ZeroChange"


ZERO_CHANGE = _ZeroChange()


@dataclass
class FilterSpec:
    kind: str = "none"
    p: int = 2
    apply_to: str = "head_and_tail"  # or "head_only" (mandatory for tensor models)
    rt_enabled: bool = False
    zero_change_epsilon: float = DEFAULT_ZERO_EPS
    linear2_add_one: str = "diag"  # "diag": ones on w1/w4 only; "full": on all blocks

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")
        if self.apply_to not in ("head_and_tail", "head_only"):
            raise ValueError(f"unknown apply_to {self.apply_to!r}")
        if self.linear2_add_one not in ("diag", "full"):
            raise ValueError(f"unknown linear2_add_one {self.linear2_add_one!r}")
        if self.zero_change_epsilon <= 0:
            raise ValueError("zero_change_epsilon must be positive")

    @property
    def inert(self) -> bool:
        return self.kind == "none" and not self.rt_enabled


INERT_FILTER = FilterSpec()


@dataclass
class RscfParams:
    a1: np.ndarray
    a2: np.ndarray | None = None
    a3: np.ndarray | None = None


def rscf_params(store) -> RscfParams:
    """Collect the shared affine matrices from a parameter store."""
    return RscfParams(
        a1=store["a1"],
        a2=store["a2"] if "a2" in store else None,
        a3=store["a3"] if "a3" in store else None,
    )


@dataclass
class SfbrParams:
    variant: str  # "diag", "linear2", "n"
    weights: np.ndarray  # (num_relations, dim) or (num_relations, 2*dim) for linear2
    bias: np.ndarray | None = None


# ---------------------------------------------------------------------------
# normalization


def p_norm(v: np.ndarray, p: int) -> np.ndarray:
    if p == 2:
        return np.sqrt(np.sum(v * v, axis=-1))
    if p == 1:
        return np.sum(np.abs(v), axis=-1)
    raise ValueError("p must be 1 or 2")


def p_normalize(v: np.ndarray, p: int = 2, eps: float = DEFAULT_ZERO_EPS):
    """v / ||v||_p, or the ZERO_CHANGE marker when ||v||_p < eps."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(p_norm(v, p))
    if norm < eps:
        return ZERO_CHANGE
    return v / norm


def normalize_rows(x: np.ndarray, p: int, eps: float):
    """Rowwise p-normalization with degenerate rows zeroed.

    Returns (unit, norms, live): unit rows have ||.||_p = 1 where live, and are
    exactly zero where the input norm fell below eps.
    """
    norms = p_norm(x, p)
    live = norms >= eps
    safe = np.where(live, norms, 1.0)
    unit = np.where(live[..., None], x / safe[..., None], 0.0)
    return unit, safe, live


def normalize_rows_vjp(x, unit, safe_norms, live, d_unit, p):
    """Cotangent of normalize_rows wrt x. Dead rows get zero gradient."""
    inner = np.sum(d_unit * unit, axis=-1, keepdims=True)
    if p == 2:
        dx = (d_unit - unit * inner) / safe_norms[..., None]
    else:
        dx = (d_unit - np.sign(x) * inner) / safe_norms[..., None]
    return np.where(live[..., None], dx, 0.0)


# ---------------------------------------------------------------------------
# reference (single-vector) transform operations


def rscf_entity_transform(e, r, a1, p: int = 2, eps: float = DEFAULT_ZERO_EPS):
    """e_r = (N_p(r A1) + 1) * e; identity when the change degenerates."""
    e = np.asarray(e, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    a1 = np.asarray(a1, dtype=np.float64)
    if a1.shape[0] != r.shape[-1] or a1.shape[1] != e.shape[-1]:
        raise ShapeMismatch(f"A1 {a1.shape} incompatible with r {r.shape}, e {e.shape}")
    change = p_normalize(r @ a1, p, eps)
    if change is ZERO_CHANGE:
        return e.copy()
    return (change + 1.0) * e


def rscf_relation_transform(r, h, t, a2, a3=None, p: int = 2,
                            eps: float = DEFAULT_ZERO_EPS, head_only: bool = False):
    """r_ht = (N_p(h A2) + 1) * (N_p(t A3) + 1) * r; tensor models drop the tail factor."""
    r = np.asarray(r, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if a2.shape[0] != h.shape[-1] or a2.shape[1] != r.shape[-1]:
        raise ShapeMismatch(f"A2 {np.shape(a2)} incompatible with h {h.shape}, r {r.shape}")
    fh = p_normalize(h @ a2, p, eps)
    out = r.copy() if fh is ZERO_CHANGE else (fh + 1.0) * r
    if head_only:
        return out
    if a3 is None or t is None:
        raise ShapeMismatch("tail factor requires t and A3")
    t = np.asarray(t, dtype=np.float64)
    if a3.shape[0] != t.shape[-1] or a3.shape[1] != r.shape[-1]:
        raise ShapeMismatch(f"A3 {np.shape(a3)} incompatible with t {t.shape}, r {r.shape}")
    ft = p_normalize(t @ a3, p, eps)
    return out if ft is ZERO_CHANGE else (ft + 1.0) * out


def linear2_blocks(change_vector: np.ndarray):
    """Split a length-2n block vector into (w1, w2, w3, w4), each length n/2."""
    v = np.asarray(change_vector, dtype=np.float64)
    if v.shape[-1] % 4 != 0:
        raise OddDimension(f"block vector length {v.shape[-1]} not divisible by 4")
    return np.split(v, 4, axis=-1)


class Linear2Operator:
    """Block-diagonal operator  [diag(w1) diag(w2); diag(w3) diag(w4)]."""

    def __init__(self, w1, w2, w3, w4):
        self.w1, self.w2, self.w3, self.w4 = w1, w2, w3, w4
        self.half = w1.shape[-1]

    def apply(self, e: np.ndarray) -> np.ndarray:
        e = np.asarray(e, dtype=np.float64)
        if e.shape[-1] != 2 * self.half:
            raise ShapeMismatch(f"operator built for dim {2 * self.half}, got {e.shape[-1]}")
        e1, e2 = e[..., : self.half], e[..., self.half :]
        return np.concatenate(
            [self.w1 * e1 + self.w2 * e2, self.w3 * e1 + self.w4 * e2], axis=-1
        )

    def as_matrix(self) -> np.ndarray:
        n = 2 * self.half
        m = np.zeros((n, n))
        idx = np.arange(self.half)
        m[idx, idx] = self.w1
        m[idx, idx + self.half] = self.w2
        m[idx + self.half, idx] = self.w3
        m[idx + self.half, idx + self.half] = self.w4
        return m


def build_linear2_matrix(change_vector: np.ndarray) -> Linear2Operator:
    """Block-diagonal operator from the final length-2n block vector."""
    w1, w2, w3, w4 = linear2_blocks(change_vector)
    return Linear2Operator(w1, w2, w3, w4)


def sfbr_transform(e, relation_id: int, params: SfbrParams, p: int = 2,
                   eps: float = DEFAULT_ZERO_EPS):
    """Per-relation semantic filter: diag, linear2, or normalized (n) variant."""
    e = np.asarray(e, dtype=np.float64)
    if not 0 <= relation_id < params.weights.shape[0]:
        raise UnknownRelation(f"relation id {relation_id} has no parameter block")
    w = params.weights[relation_id]
    if params.variant == "diag":
        if w.shape[-1] != e.shape[-1]:
            raise ShapeMismatch(f"weights dim {w.shape[-1]} != entity dim {e.shape[-1]}")
        out = w * e
        if params.bias is not None:
            out = out + params.bias[relation_id]
        return out
    if params.variant == "n":
        if w.shape[-1] != e.shape[-1]:
            raise ShapeMismatch(f"weights dim {w.shape[-1]} != entity dim {e.shape[-1]}")
        unit = p_normalize(w, p, eps)
        if unit is ZERO_CHANGE:
            return e.copy()
        return (unit + 1.0) * e
    if params.variant == "linear2":
        if w.shape[-1] != 2 * e.shape[-1]:
            raise ShapeMismatch(
                f"linear2 weights length {w.shape[-1]} != 2 * entity dim {e.shape[-1]}"
            )
        return build_linear2_matrix(w).apply(e)
    raise ValueError(f"unknown sfbr variant {params.variant!r}")


# ---------------------------------------------------------------------------
# batched entity-filter kernels (shared by training, evaluation, analysis)


@dataclass
class EtOp:
    """Entity transformation bound to a batch of relation rows.

    mult/bias describe elementwise filters; blocks describes linear2 operators.
    Caches keep everything the backward pass needs.
    """

    kind: str
    mult: np.ndarray | None = None  # (Q, de)
    bias: np.ndarray | None = None  # (Q, de)
    blocks: np.ndarray | None = None  # (Q, 2*de)
    cache: dict = field(default_factory=dict)

    def factor_vectors(self) -> np.ndarray:
        """The multiplicative filter vector per query (used by scale traces)."""
        if self.mult is not None:
            return self.mult
        if self.blocks is not None:
            return self.blocks
        raise ValueError("identity filter has no factor vector")

    def rows(self, sl: slice) -> "EtOp":
        """The operator of a slice of its queries, for et_apply/et_apply_vjp
        (parameter VJPs use the full operator and its cache)."""
        def take(arr):
            return None if arr is None else arr[sl]
        return EtOp(self.kind, take(self.mult), take(self.bias), take(self.blocks))


def _linear2_add_one(alpha: np.ndarray, mode: str) -> np.ndarray:
    blocks = alpha.copy()
    half = alpha.shape[-1] // 4
    blocks[..., :half] += 1.0
    blocks[..., 3 * half :] += 1.0
    if mode == "full":
        blocks[..., half : 3 * half] += 1.0
    return blocks


def et_build(spec: FilterSpec, store, rel: np.ndarray, rel_rows: np.ndarray,
             entity_dim: int) -> EtOp | None:
    """Build the per-query entity filter from relation embeddings / parameter rows."""
    kind = spec.kind
    if kind == "none":
        return None
    if kind == "rscf":
        c = rel @ store["a1"]
        unit, norms, live = normalize_rows(c, spec.p, spec.zero_change_epsilon)
        return EtOp(kind, mult=unit + 1.0,
                    cache={"c": c, "unit": unit, "norms": norms, "live": live, "rel": rel})
    if kind == "rscf_linear2":
        c = rel @ store["a1"]
        if c.shape[-1] != 2 * entity_dim:
            raise ShapeMismatch("rscf_linear2 requires A1 with 2*dim output columns")
        unit, norms, live = normalize_rows(c, spec.p, spec.zero_change_epsilon)
        blocks = _linear2_add_one(unit, spec.linear2_add_one)
        return EtOp(kind, blocks=blocks,
                    cache={"c": c, "unit": unit, "norms": norms, "live": live, "rel": rel})
    if kind == "sfbr_diag":
        w = store["sfbr_w"][rel_rows]
        b = store["sfbr_b"][rel_rows]
        return EtOp(kind, mult=w, bias=b, cache={"rows": rel_rows})
    if kind == "sfbr_n":
        w = store["sfbr_w"][rel_rows]
        unit, norms, live = normalize_rows(w, spec.p, spec.zero_change_epsilon)
        return EtOp(kind, mult=unit + 1.0,
                    cache={"rows": rel_rows, "w": w, "unit": unit, "norms": norms, "live": live})
    if kind == "sfbr_linear2":
        w = store["sfbr_w"][rel_rows]
        return EtOp(kind, blocks=w, cache={"rows": rel_rows})
    raise ValueError(f"unknown filter kind {kind!r}")


def _expand(op_arr: np.ndarray, target_ndim: int) -> np.ndarray:
    # (Q, d) broadcast against (Q, K, d) candidate batches
    while op_arr.ndim < target_ndim:
        op_arr = op_arr[:, None]
    return op_arr


def et_apply(op: EtOp | None, ent: np.ndarray) -> np.ndarray:
    if op is None:
        return ent
    if op.blocks is not None:
        w = _expand(op.blocks, ent.ndim)
        half = ent.shape[-1] // 2
        w1, w2, w3, w4 = np.split(w, 4, axis=-1)
        e1, e2 = ent[..., :half], ent[..., half:]
        return np.concatenate([w1 * e1 + w2 * e2, w3 * e1 + w4 * e2], axis=-1)
    out = ent * _expand(op.mult, ent.ndim)
    if op.bias is not None:
        out = out + _expand(op.bias, ent.ndim)
    return out


def et_apply_vjp(op: EtOp | None, ent: np.ndarray, d_out: np.ndarray):
    """Returns (d_ent, d_mult_or_blocks (Q,*), d_bias or None), reducing over
    any candidate axis."""
    if op is None:
        return d_out, None, None
    reduce_axes = tuple(range(1, ent.ndim - 1))  # candidate axes, if any

    def _reduce(x):
        return x.sum(axis=reduce_axes) if reduce_axes else x

    if op.blocks is not None:
        w = _expand(op.blocks, ent.ndim)
        half = ent.shape[-1] // 2
        w1, w2, w3, w4 = np.split(w, 4, axis=-1)
        e1, e2 = ent[..., :half], ent[..., half:]
        d1, d2 = d_out[..., :half], d_out[..., half:]
        d_ent = np.concatenate([d1 * w1 + d2 * w3, d1 * w2 + d2 * w4], axis=-1)
        d_blocks = np.concatenate(
            [_reduce(d1 * e1), _reduce(d1 * e2), _reduce(d2 * e1), _reduce(d2 * e2)],
            axis=-1,
        )
        return d_ent, d_blocks, None
    d_ent = d_out * _expand(op.mult, ent.ndim)
    d_mult = _reduce(d_out * ent)
    d_bias = _reduce(d_out) if op.bias is not None else None
    return d_ent, d_mult, d_bias


def et_param_vjp(spec: FilterSpec, op: EtOp, d_factor: np.ndarray,
                 d_bias: np.ndarray | None, buf) -> np.ndarray | None:
    """Push factor cotangents into filter parameters; returns d_rel for rscf kinds."""
    kind = op.kind
    cache = op.cache
    if kind in ("rscf", "rscf_linear2"):
        d_unit = d_factor  # +1 shift and block reshuffle are derivative-1 in alpha
        dc = normalize_rows_vjp(cache["c"], cache["unit"], cache["norms"],
                                cache["live"], d_unit, spec.p)
        a1 = buf.store["a1"]
        buf.add_full("a1", cache["rel"].T @ dc)
        return dc @ a1.T
    rows = cache["rows"]
    if kind == "sfbr_diag":
        buf.add_rows("sfbr_w", rows, d_factor)
        if d_bias is not None:
            buf.add_rows("sfbr_b", rows, d_bias)
        return None
    if kind == "sfbr_n":
        dw = normalize_rows_vjp(cache["w"], cache["unit"], cache["norms"],
                                cache["live"], d_factor, spec.p)
        buf.add_rows("sfbr_w", rows, dw)
        return None
    if kind == "sfbr_linear2":
        buf.add_rows("sfbr_w", rows, d_factor)
        return None
    raise ValueError(f"unknown filter kind {kind!r}")


# ---------------------------------------------------------------------------
# batched relation-transformation kernels


@dataclass
class RtFactor:
    factor: np.ndarray  # (..., dr) = N_p(x A) + 1
    cache: dict


def rt_factor(store, which: str, x: np.ndarray, p: int, eps: float) -> RtFactor:
    """(N_p(x A) + 1) for A in {a2, a3}; x is a batch of base entity embeddings."""
    a = store[which]
    c = x @ a
    unit, norms, live = normalize_rows(c, p, eps)
    return RtFactor(unit + 1.0,
                    {"which": which, "x": x, "c": c, "unit": unit,
                     "norms": norms, "live": live})


def rt_factor_vjp(rt: RtFactor, d_factor: np.ndarray, buf, p: int) -> np.ndarray:
    """Returns d_x; accumulates the affine-matrix gradient into the buffer."""
    cache = rt.cache
    dc = normalize_rows_vjp(cache["c"], cache["unit"], cache["norms"],
                            cache["live"], d_factor, p)
    x = cache["x"]
    a = buf.store[cache["which"]]
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dc = dc.reshape(-1, dc.shape[-1])
    buf.add_full(cache["which"], flat_x.T @ flat_dc)
    return dc @ a.T
