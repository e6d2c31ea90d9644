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
The scoring pipeline at the end (filter -> rt -> score) is the one composition
of these kernels that training and evaluation both call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models as M
from .errors import ShapeMismatch

FILTER_KINDS = ("none", "sfbr_diag", "sfbr_linear2", "sfbr_n", "rscf", "rscf_linear2")

# A change vector whose p-norm falls below this is degenerate: its unit change
# is zero, so the filter or rt factor built on it is the identity.
DEFAULT_ZERO_EPS = 1e-12


@dataclass
class FilterSpec:
    kind: str = "none"
    p: int = 2
    apply_to: str = "head_and_tail"  # or "head_only" (mandatory for tensor models)
    rt_enabled: bool = False
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

    @property
    def inert(self) -> bool:
        return self.kind == "none" and not self.rt_enabled


INERT_FILTER = FilterSpec()


# ---------------------------------------------------------------------------
# normalization, and the rooted change built on it


def normalize_rows(x: np.ndarray, p: int, *, out=None, ws=None):
    """Rowwise p-normalization with degenerate rows zeroed.

    Returns (unit, norms, live): unit rows have ||.||_p = 1 where live, and are
    exactly zero where the input norm fell below DEFAULT_ZERO_EPS. unit is
    written to out when given, which may be x itself.
    """
    norms = M.p_norm(x, p, ws=ws)
    live = norms >= DEFAULT_ZERO_EPS
    safe = np.where(live, norms, 1.0)
    unit = np.divide(x, safe[..., None], out=out)
    unit[~live] = 0.0  # in place: one (..., d) temporary, not two
    return unit, safe, live


def normalize_rows_vjp(x, unit, safe_norms, live, d_unit, p, *, out=None):
    """Cotangent of normalize_rows wrt x, written to out when given (which
    must not be one of the inputs). Dead rows get zero gradient."""
    dx = np.empty(d_unit.shape, np.result_type(d_unit, unit)) if out is None else out
    inner = np.sum(np.multiply(d_unit, unit, out=dx), axis=-1, keepdims=True)
    # dx = (d_unit - unit * inner) / norms, or sign(x) in place of unit for p = 1
    np.multiply(unit if p == 2 else np.sign(x, out=dx), inner, out=dx)
    np.subtract(d_unit, dx, out=dx)
    dx /= safe_norms[..., None]
    dx[~live] = 0.0
    return dx


def _rooted_change(store, which: str, x: np.ndarray, p: int, ws=None):
    """The unit change N_p(x A), A = store[which], that the RSCF filter (A1)
    and the relation transformation (A2, A3) shift by one. Returns (unit, cache).
    For p = 2 the unit rows replace c = x A, which the backward pass then
    does not read."""
    a = store[which]
    c = np.matmul(x, a, out=M.scratch(ws, which + ".c", x.shape[:-1] + a.shape[1:],
                                      np.result_type(x, a)))
    unit, norms, live = normalize_rows(
        c, p, out=c if p == 2 else M.scratch(ws, which + ".unit", c.shape, c.dtype), ws=ws)
    return unit, {"which": which, "x": x, "c": c, "unit": unit,
                  "norms": norms, "live": live}


def _rooted_change_vjp(cache: dict, d_unit: np.ndarray, buf, p: int, out=None,
                       ws=None) -> np.ndarray:
    """Returns d_x, written to out when given; accumulates the affine-matrix
    gradient into the buffer."""
    dc = normalize_rows_vjp(cache["c"], cache["unit"], cache["norms"], cache["live"],
                            d_unit, p, out=M.scratch(ws, "tmp", d_unit.shape, d_unit.dtype))
    x = cache["x"]
    a = buf.store[cache["which"]]
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dc = dc.reshape(-1, dc.shape[-1])
    buf.add_full(cache["which"], np.matmul(flat_x.T, flat_dc, out=M.scratch(
        ws, "rooted.da", a.shape, np.result_type(x, dc))))
    return np.matmul(dc, a.T, out=out)


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


def _linear2_add_one(alpha: np.ndarray, mode: str, blocks: np.ndarray) -> np.ndarray:
    np.copyto(blocks, alpha)
    half = alpha.shape[-1] // 4
    blocks[..., :half] += 1.0
    blocks[..., 3 * half :] += 1.0
    if mode == "full":
        blocks[..., half : 3 * half] += 1.0
    return blocks


def et_build(spec: FilterSpec, store, rel: np.ndarray, rel_rows: np.ndarray,
             entity_dim: int, *, ws=None) -> EtOp | None:
    """Build the per-query entity filter from relation embeddings / parameter rows."""
    kind = spec.kind
    if kind == "none":
        return None

    def factor(shape, dtype):
        return M.scratch(ws, "et.factor", shape, dtype)

    if kind in ("rscf", "rscf_linear2"):
        unit, cache = _rooted_change(store, "a1", rel, spec.p, ws)
        if kind == "rscf":
            return EtOp(kind, mult=np.add(unit, 1.0, out=factor(unit.shape, unit.dtype)),
                        cache=cache)
        if unit.shape[-1] != 2 * entity_dim:
            raise ShapeMismatch("rscf_linear2 requires A1 with 2*dim output columns")
        return EtOp(kind, blocks=_linear2_add_one(unit, spec.linear2_add_one,
                                                  factor(unit.shape, unit.dtype)),
                    cache=cache)
    if kind == "sfbr_diag":
        w = M.gather(ws, "et.factor", store["sfbr_w"], rel_rows)
        b = M.gather(ws, "et.bias", store["sfbr_b"], rel_rows)
        return EtOp(kind, mult=w, bias=b, cache={"rows": rel_rows})
    if kind == "sfbr_n":
        w = M.gather(ws, "sfbr.w", store["sfbr_w"], rel_rows)
        # p = 2 reads only the unit rows backward, so they may replace w
        unit, norms, live = normalize_rows(
            w, spec.p, out=w if spec.p == 2 else M.scratch(ws, "sfbr.unit", w.shape, w.dtype),
            ws=ws)
        return EtOp(kind, mult=np.add(unit, 1.0, out=factor(unit.shape, unit.dtype)),
                    cache={"rows": rel_rows, "w": w, "unit": unit, "norms": norms, "live": live})
    if kind == "sfbr_linear2":
        w = M.gather(ws, "et.factor", store["sfbr_w"], rel_rows)
        return EtOp(kind, blocks=w, cache={"rows": rel_rows})
    raise ValueError(f"unknown filter kind {kind!r}")


def _expand(op_arr: np.ndarray, target_ndim: int) -> np.ndarray:
    # (Q, d) broadcast against (Q, K, d) candidate batches
    while op_arr.ndim < target_ndim:
        op_arr = op_arr[:, None]
    return op_arr


def et_apply(op: EtOp | None, ent: np.ndarray, *, ws=None) -> np.ndarray:
    """The filtered entities; with a workspace, a view of its "et" buffer."""
    if op is None:
        return ent
    w = _expand(op.factor_vectors(), ent.ndim)
    shape = np.broadcast_shapes(w.shape[:-1], ent.shape[:-1]) + ent.shape[-1:]
    out = M.scratch(ws, "et", shape, np.result_type(w, ent))
    if op.blocks is not None:
        half = ent.shape[-1] // 2
        w1, w2, w3, w4 = np.split(w, 4, axis=-1)
        e1, e2 = ent[..., :half], ent[..., half:]
        o1, o2 = out[..., :half], out[..., half:]
        tmp = M.scratch(ws, "et.tmp", o1.shape, out.dtype)
        np.multiply(w1, e1, out=o1)  # [w1 e1 + w2 e2, w3 e1 + w4 e2]
        o1 += np.multiply(w2, e2, out=tmp)
        np.multiply(w3, e1, out=o2)
        o2 += np.multiply(w4, e2, out=tmp)
        return out
    np.multiply(ent, w, out=out)
    if op.bias is not None:
        out += _expand(op.bias, ent.ndim)
    return out


def et_apply_vjp(op: EtOp | None, ent: np.ndarray, d_out: np.ndarray, *, ws=None,
                 out=None):
    """Returns (d_ent, d_mult_or_blocks (Q,*), d_bias or None), reducing over
    any candidate axis. d_ent and the factor cotangent are written to out, a
    pair, when given; else, with a workspace, to its "et_vjp" and
    "et_vjp.factor" buffers."""
    if op is None:
        return d_out, None, None
    reduce_axes = tuple(range(1, ent.ndim - 1))  # candidate axes, if any

    def _reduce(x):
        return x.sum(axis=reduce_axes) if reduce_axes else x

    def _reduce_product(x, y, dst):
        if not reduce_axes:
            return np.multiply(x, y, out=dst)
        dst[...] = np.multiply(x, y, out=M.scratch(ws, "et_vjp.tmp", x.shape, x.dtype)
                               ).sum(axis=reduce_axes)
        return dst

    w = _expand(op.factor_vectors(), ent.ndim)
    if out is None:
        out = (M.scratch(ws, "et_vjp", d_out.shape, np.result_type(d_out, w)),
               M.scratch(ws, "et_vjp.factor", op.factor_vectors().shape,
                         np.result_type(d_out, ent)))
    d_ent, d_factor = out
    if op.blocks is not None:
        half = ent.shape[-1] // 2
        w1, w2, w3, w4 = np.split(w, 4, axis=-1)
        e1, e2 = ent[..., :half], ent[..., half:]
        d1, d2 = d_out[..., :half], d_out[..., half:]
        for dst, x, y in zip(np.split(d_factor, 4, axis=-1),
                             (d1, d1, d2, d2), (e1, e2, e1, e2)):
            _reduce_product(x, y, dst)
        o1, o2 = d_ent[..., :half], d_ent[..., half:]
        tmp = M.scratch(ws, "et_vjp.tmp", o1.shape, d_ent.dtype)
        np.multiply(d1, w1, out=o1)  # [d1 w1 + d2 w3, d1 w2 + d2 w4]
        o1 += np.multiply(d2, w3, out=tmp)
        np.multiply(d1, w2, out=o2)
        o2 += np.multiply(d2, w4, out=tmp)
        return d_ent, d_factor, None
    np.multiply(d_out, w, out=d_ent)
    d_mult = _reduce_product(d_out, ent, d_factor)
    d_bias = _reduce(d_out) if op.bias is not None else None
    return d_ent, d_mult, d_bias


def et_param_vjp(spec: FilterSpec, op: EtOp, d_factor: np.ndarray,
                 d_bias: np.ndarray | None, buf, *, out=None, ws=None) -> np.ndarray | None:
    """Push factor cotangents into filter parameters; returns d_rel for rscf
    kinds, written to out when given."""
    kind = op.kind
    cache = op.cache
    if kind in ("rscf", "rscf_linear2"):
        # the +1 shift and the block layout have derivative 1 in the unit change
        return _rooted_change_vjp(cache, d_factor, buf, spec.p, out, ws)
    if kind not in ("sfbr_diag", "sfbr_n", "sfbr_linear2"):
        raise ValueError(f"unknown filter kind {kind!r}")
    if kind == "sfbr_n":
        d_factor = normalize_rows_vjp(cache["w"], cache["unit"], cache["norms"],
                                      cache["live"], d_factor, spec.p,
                                      out=M.scratch(ws, "tmp", d_factor.shape, d_factor.dtype))
    buf.add_rows("sfbr_w", cache["rows"], d_factor)
    if d_bias is not None:
        buf.add_rows("sfbr_b", cache["rows"], d_bias)
    return None


# ---------------------------------------------------------------------------
# batched relation-transformation kernels


@dataclass
class RtFactor:
    factor: np.ndarray  # (..., dr) = N_p(x A) + 1
    cache: dict


def rt_factor(store, which: str, x: np.ndarray, p: int, *, out=None, ws=None) -> RtFactor:
    """(N_p(x A) + 1) for A in {a2, a3}; x is a batch of base entity embeddings.
    The factor is written into out when given, else into the workspace's
    "<which>.factor" buffer when there is one."""
    unit, cache = _rooted_change(store, which, x, p, ws)
    if out is None:
        out = M.scratch(ws, which + ".factor", unit.shape, unit.dtype)
    return RtFactor(np.add(unit, 1.0, out=out), cache)


def rt_factor_vjp(rt: RtFactor, d_factor: np.ndarray, buf, p: int, *, out=None,
                  ws=None) -> np.ndarray:
    """Returns d_x, written to out when given; accumulates the affine-matrix
    gradient into the buffer."""
    return _rooted_change_vjp(rt.cache, d_factor, buf, p, out, ws)


# ---------------------------------------------------------------------------
# the scoring pipeline: filter -> rt -> score, shared by training and evaluation


@dataclass
class TdmTape:
    """What tdm_backward needs from tdm_forward."""

    lhs: np.ndarray
    rel: np.ndarray
    lhs_f: np.ndarray
    rel_t: np.ndarray
    op: EtOp | None
    head_factor: RtFactor | None


def tdm_forward(spec: FilterSpec, store, model, lhs_ids: np.ndarray,
                rel_rows: np.ndarray, *, ws=None):
    """Tensor-model query vectors q (Q, d), score(candidate e) = q . e: the
    entity filter acts on the lhs entity, the head rt factor on the relation
    row. Returns (q, tape); with a workspace, q and the tape are views of
    its buffers, valid until the next call."""
    lhs = M.gather(ws, "tdm.lhs", store["entity"], lhs_ids)
    rel = M.gather(ws, "tdm.rel", store["relation"], rel_rows)
    op = et_build(spec, store, rel, rel_rows, model.dim, ws=ws)
    lhs_f = et_apply(op, lhs, ws=ws)
    head_factor = None
    rel_t = rel
    if spec.rt_enabled:
        head_factor = rt_factor(store, "a2", lhs, spec.p, ws=ws)
        rel_t = np.multiply(head_factor.factor, rel,
                            out=M.scratch(ws, "tdm.rel_t", rel.shape, rel.dtype))
    q = M.tdm_query(model.kind, lhs_f, rel_t, ws=ws, out=M.scratch(
        ws, "tdm.q", lhs_f.shape, np.result_type(lhs_f, rel_t)))
    return q, TdmTape(lhs, rel, lhs_f, rel_t, op, head_factor)


def tdm_backward(spec: FilterSpec, model, tape: TdmTape, d_q: np.ndarray,
                 d_lhs_f, d_rel: np.ndarray, buf, *, ws=None):
    """VJP of tdm_forward. d_lhs_f is a further cotangent of the filtered lhs
    (or None); d_rel, the cotangent of the base relation rows so far, is
    accumulated in place. Accumulates the filter and rt parameter gradients
    into buf; returns (d_lhs, d_rel) for the caller to scatter. Its own
    arrays are the workspace's phase buffers: phase.0 holds the filtered-lhs
    cotangent and then the filter's relation cotangent, phase.1 the rt'd
    relation cotangent and then d_lhs, phase.2 a product and then the rt
    factor's lhs cotangent, phase.3 the filter-factor cotangent."""
    def phase(k, like):
        return M.scratch(ws, f"phase.{k}", like.shape, like.dtype)

    d_lhs_fq, d_rel_t = M.tdm_query_vjp(model.kind, tape.lhs_f, tape.rel_t, d_q, ws=ws,
                                        out=(phase(0, tape.lhs_f), phase(1, tape.rel_t)))
    if d_lhs_f is not None:
        d_lhs_fq += d_lhs_f
    d_lhs_rt = None
    if tape.head_factor is not None:
        d_rel += np.multiply(d_rel_t, tape.head_factor.factor, out=phase(2, d_rel_t))
        d_lhs_rt = rt_factor_vjp(tape.head_factor,
                                 np.multiply(d_rel_t, tape.rel, out=d_rel_t), buf, spec.p,
                                 out=phase(2, tape.lhs), ws=ws)
    else:
        d_rel += d_rel_t
    d_lhs, d_mult, d_bias = et_apply_vjp(
        tape.op, tape.lhs, d_lhs_fq, ws=ws,
        out=None if tape.op is None else (phase(1, d_lhs_fq),
                                          phase(3, tape.op.factor_vectors())))
    if tape.op is not None:
        d_rel_et = et_param_vjp(spec, tape.op, d_mult, d_bias, buf, ws=ws,
                                out=phase(0, tape.rel))
        if d_rel_et is not None:
            d_rel += d_rel_et
    if d_lhs_rt is not None:
        d_lhs += d_lhs_rt
    return d_lhs, d_rel


def dbm_direction(spec: FilterSpec, fixed_is_head: bool):
    """One direction of a distance-model query: (fixed side filtered?,
    candidate side filtered?, fixed side's rt matrix, candidate side's rt
    matrix). The head side is filtered by any filter and conditions the
    relation through A2; the tail side is filtered only under head_and_tail
    and conditions it through A3."""
    head_on = spec.kind != "none"
    tail_on = head_on and spec.apply_to == "head_and_tail"
    if fixed_is_head:
        return head_on, tail_on, "a2", "a3"
    return tail_on, head_on, "a3", "a2"


def dbm_direction_scores(model, fixed_is_head: bool, fixed_f: np.ndarray,
                         fixed_rel: np.ndarray, cand_f: np.ndarray, cand_factor, *,
                         ws=None, out=None):
    """Distance scores (Q, K) of Q fixed entities against K candidates each.

    fixed_f (Q, d) and cand_f (Q, K, d) are the (possibly filtered) entities;
    fixed_rel (Q, d_r) is the relation times the fixed side's rt factor (the
    bare relation without rt); cand_factor (Q, K, d_r) holds the candidates' rt
    factors, or None without rt. The candidate arrays may instead have a
    leading axis of 1, one candidate table broadcast against every query.
    Returns models.dbm_scores' (scores, cache), with the head in its first
    argument slot; ws and out pass through to it.
    """
    rel_t = fixed_rel[:, None, :]
    if cand_factor is not None:
        shape = np.broadcast_shapes(rel_t.shape, cand_factor.shape)
        rel_t = np.multiply(rel_t, cand_factor,
                            out=M.scratch(ws, "rel_t", shape, np.result_type(rel_t, cand_factor)))
    fixed_f = fixed_f[:, None, :]
    if fixed_is_head:
        return M.dbm_scores(model.kind, fixed_f, rel_t, cand_f, model.distance_p,
                            ws=ws, out=out)
    return M.dbm_scores(model.kind, cand_f, rel_t, fixed_f, model.distance_p,
                        ws=ws, out=out)
