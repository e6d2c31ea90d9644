"""Score functions for distance-based and tensor-decomposition models.

Every kind exposes "higher is better" scores; distance models return negated
p-norm distances. Batched kernels (prefix tdm_/dbm_/relation_) carry explicit
VJPs so the training objective can assemble exact analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DBM_KINDS = ("transe", "rotate")
TDM_KINDS = ("cp", "complex", "rescal")
MODEL_KINDS = DBM_KINDS + TDM_KINDS

# Bytes per array of a workspace: the distance objective's triple slices, the
# scorer's candidate chunks and the optimizer's row blocks are sized so that one
# (rows, candidates, d) array of theirs fits it, which keeps a slice's working
# set near L2 and lets every slice reuse the same buffers.
WORKSPACE_BYTES = 1 << 18


class Workspace(dict):
    """Scratch arrays reused from one slice to the next. Each name keeps one
    flat buffer, replaced by a larger one when a slice needs more; a request
    returns a C-contiguous view of the asked shape, so it overwrites what the
    name held before."""

    def __call__(self, name: str, shape: tuple, dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def scratch(ws: Workspace | None, name: str, shape: tuple, dtype) -> np.ndarray:
    """The workspace's `name` buffer, or a new array without a workspace."""
    return np.empty(shape, dtype) if ws is None else ws(name, shape, dtype)


@dataclass
class ModelSpec:
    kind: str
    dim: int
    distance_p: int = 2
    gamma: float = 9.0  # margin of the distance models' self-adversarial loss

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind in ("rotate", "complex") and self.dim % 2 != 0:
            raise ValueError(f"{self.kind} requires an even dimension")
        if self.distance_p not in (1, 2):
            raise ValueError("distance_p must be 1 or 2")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

    @property
    def is_tdm(self) -> bool:
        return self.kind in TDM_KINDS

    @property
    def is_dbm(self) -> bool:
        return self.kind in DBM_KINDS

    @property
    def relation_dim(self) -> int:
        if self.kind == "rotate":
            return self.dim // 2
        if self.kind == "rescal":
            return self.dim * self.dim
        return self.dim


def _halves(v: np.ndarray):
    half = v.shape[-1] // 2
    return v[..., :half], v[..., half:]


def p_norm(v: np.ndarray, p: int) -> np.ndarray:
    if p == 2:
        return np.sqrt(np.sum(v * v, axis=-1))
    if p == 1:
        return np.sum(np.abs(v), axis=-1)
    raise ValueError("p must be 1 or 2")


# ---------------------------------------------------------------------------
# tensor-decomposition kernels: score(h, r, t) is one trilinear form, read as
# q(h, r) . t, q'(t, r) . h or m(h, t) . r. The VJP of each contraction is the
# other two, with the cotangent in place of the argument it replaces.


def _rescal_matrix(x: np.ndarray, rel: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    return rel.reshape(rel.shape[:-1] + (n, n))


def _contract_t(kind: str, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """q(h, r) = h R, with score = q . t."""
    if kind == "cp":
        return h * r
    if kind == "complex":
        h1, h2 = _halves(h)
        r1, r2 = _halves(r)
        return np.concatenate([h1 * r1 - h2 * r2, h1 * r2 + h2 * r1], axis=-1)
    if kind == "rescal":
        return np.einsum("...i,...ij->...j", h, _rescal_matrix(h, r))
    raise ValueError(f"not a tensor-decomposition kind: {kind}")


def _contract_h(kind: str, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """q'(t, r) = t R^T, with score = q' . h."""
    if kind == "cp":
        return t * r
    if kind == "complex":
        t1, t2 = _halves(t)
        r1, r2 = _halves(r)
        return np.concatenate([t1 * r1 + t2 * r2, t2 * r1 - t1 * r2], axis=-1)
    if kind == "rescal":
        return np.einsum("...j,...ij->...i", t, _rescal_matrix(t, r))
    raise ValueError(f"not a tensor-decomposition kind: {kind}")


def _contract_r(kind: str, h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """m(h, t), with score = m . r."""
    if kind == "cp":
        return h * t
    if kind == "complex":
        h1, h2 = _halves(h)
        t1, t2 = _halves(t)
        return np.concatenate([h1 * t1 + h2 * t2, h1 * t2 - h2 * t1], axis=-1)
    if kind == "rescal":
        return np.einsum("...i,...j->...ij", h, t).reshape(h.shape[:-1] + (-1,))
    raise ValueError(f"not a tensor-decomposition kind: {kind}")


def tdm_query(kind: str, lhs: np.ndarray, rel: np.ndarray):
    """Query vector q with score = q . t."""
    return _contract_t(kind, lhs, rel)


def tdm_query_vjp(kind: str, lhs, rel, dq):
    return _contract_h(kind, dq, rel), _contract_r(kind, lhs, dq)


def tdm_query_t(kind: str, rhs: np.ndarray, rel: np.ndarray):
    """Transposed query q' = rhs R^T (head-prediction dual used by the
    duality regularizer)."""
    return _contract_h(kind, rhs, rel)


def tdm_query_t_vjp(kind: str, rhs, rel, dq):
    return _contract_t(kind, dq, rel), _contract_r(kind, dq, rhs)


# ---------------------------------------------------------------------------
# distance-model kernels. Each takes a trailing workspace: with one, every
# (rows, candidates, d) array it makes is a workspace view, overwritten by the
# next call; without one, they are new arrays.


def _complex_rotate(h: np.ndarray, phases: np.ndarray, trig=None, ws=None):
    """h rotated by the phases, as complex numbers [re, im]; trig is the
    phases' (cos, sin) when the caller has them."""
    c, s = (np.cos(phases), np.sin(phases)) if trig is None else trig
    shape = np.broadcast_shapes(h.shape[:-1], phases.shape[:-1]) + h.shape[-1:]
    dtype = np.result_type(h, c)
    out = scratch(ws, "dbm.pred", shape, dtype)
    a, b = _halves(h)
    re, im = _halves(out)
    tmp = scratch(ws, "dbm.tmp", re.shape, dtype)
    np.multiply(a, c, out=re)  # re = a c - b s, im = a s + b c
    re -= np.multiply(b, s, out=tmp)
    np.multiply(a, s, out=im)
    im += np.multiply(b, c, out=tmp)
    return out


def _dbm_predict(kind: str, h: np.ndarray, rel: np.ndarray, trig=None, ws=None):
    if kind == "transe":
        shape = np.broadcast_shapes(h.shape, rel.shape)
        return np.add(h, rel, out=scratch(ws, "dbm.pred", shape, np.result_type(h, rel)))
    if kind == "rotate":
        return _complex_rotate(h, rel, trig, ws)
    raise ValueError(f"not a distance kind: {kind}")


def dbm_scores(kind: str, h, rel, t, p: int, *, ws=None, out=None):
    """score = -||predict(h, rel) - t||_p along the last axis, written to out
    when given. Returns (scores, cache)."""
    trig = None
    if kind == "rotate":
        trig = (np.cos(rel, out=scratch(ws, "dbm.cos", rel.shape, rel.dtype)),
                np.sin(rel, out=scratch(ws, "dbm.sin", rel.shape, rel.dtype)))
    pred = _dbm_predict(kind, h, rel, trig, ws)
    shape = np.broadcast_shapes(pred.shape, t.shape)
    diff = np.subtract(pred, t, out=scratch(ws, "dbm.diff", shape, pred.dtype))
    terms = scratch(ws, "dbm.terms", shape, pred.dtype)
    norms = scratch(ws, "dbm.norms", shape[:-1], pred.dtype)
    if p == 2:
        np.add.reduce(np.multiply(diff, diff, out=terms), axis=-1, out=norms)
        np.sqrt(norms, out=norms)
    elif p == 1:
        np.add.reduce(np.abs(diff, out=terms), axis=-1, out=norms)
    else:
        raise ValueError("p must be 1 or 2")
    scores = np.negative(norms, out=out)
    return scores, {"pred": pred, "diff": diff, "norms": norms, "trig": trig}


def dbm_scores_vjp(kind: str, cache, d_scores, p: int, *, ws=None):
    """Returns (d_h, d_rel, d_t). They are d_diff, d_diff and -d_diff for
    transe, where the first two are one array."""
    diff = cache["diff"]
    # d_diff lands in the d_h buffer for transe; rotate keeps it in d_t's
    d_diff = scratch(ws, "dbm_vjp.d_h" if kind == "transe" else "dbm_vjp.d_t",
                     diff.shape, diff.dtype)
    if p == 2:
        norms = cache["norms"]
        safe = np.where(norms > 0, norms, 1.0)
        np.multiply((-d_scores / safe)[..., None], diff, out=d_diff)
    else:
        np.multiply(-d_scores[..., None], np.sign(diff, out=d_diff), out=d_diff)
    if kind == "transe":
        d_t = np.negative(d_diff, out=scratch(ws, "dbm_vjp.d_t", diff.shape, diff.dtype))
        return d_diff, d_diff, d_t
    if kind != "rotate":
        raise ValueError(kind)
    c, s = cache["trig"]
    d_re, d_im = _halves(d_diff)
    d_h = scratch(ws, "dbm_vjp.d_h", diff.shape, diff.dtype)
    d_a, d_b = _halves(d_h)
    tmp = scratch(ws, "dbm_vjp.tmp", d_re.shape, diff.dtype)
    np.multiply(d_re, c, out=d_a)  # d_a = d_re c + d_im s
    d_a += np.multiply(d_im, s, out=tmp)
    np.multiply(np.negative(d_re, out=d_b), s, out=d_b)  # d_b = -d_re s + d_im c
    d_b += np.multiply(d_im, c, out=tmp)
    pre_re, pre_im = _halves(cache["pred"])
    # d_phase = -pre_im d_re + pre_re d_im; -(x y) is (-x) y exactly
    d_phase = np.multiply(pre_im, d_re, out=scratch(ws, "dbm_vjp.d_rel", d_re.shape,
                                                    diff.dtype))
    np.negative(d_phase, out=d_phase)
    d_phase += np.multiply(pre_re, d_im, out=tmp)
    return d_h, d_phase, np.negative(d_diff, out=d_diff)


# ---------------------------------------------------------------------------
# relation-candidate scores (relation prediction), on base embeddings


def relation_scores(model: ModelSpec, h: np.ndarray, t: np.ndarray,
                    relation_table: np.ndarray, *, ws=None):
    """Scores (Q, R) of every candidate relation for fixed (h, t) pairs."""
    kind = model.kind
    if kind in TDM_KINDS:
        m = _contract_r(kind, h, t)
        return m @ relation_table.T, {"m": m}
    if kind in DBM_KINDS:
        return dbm_scores(kind, h[:, None, :], relation_table[None, :, :],
                          t[:, None, :], model.distance_p, ws=ws)
    raise ValueError(kind)


def relation_scores_vjp(model: ModelSpec, h, t, relation_table, cache, d_scores, *,
                        ws=None, d_table=None):
    """Returns (d_h, d_t, d_relation_table). d_table, when given, is the
    relation-table cotangent of earlier rows: this call's rows are added to it
    in place, one at a time, so rows scored in slices sum exactly as one call
    over all of them does."""
    kind = model.kind
    if kind in TDM_KINDS:
        dm = d_scores @ relation_table
        d_rel = d_scores.T @ cache["m"]
        if d_table is not None:
            d_table += d_rel
        return (_contract_h(kind, t, dm), _contract_t(kind, h, dm),
                d_rel if d_table is None else d_table)
    d_h3, d_rel3, d_t3 = dbm_scores_vjp(kind, cache, d_scores, model.distance_p, ws=ws)
    if d_table is None:
        d_table = d_rel3.sum(axis=0)
    else:
        for row in d_rel3:
            d_table += row
    return d_h3.sum(axis=1), d_t3.sum(axis=1), d_table
