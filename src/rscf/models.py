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
# distance-model kernels


def _complex_rotate(h: np.ndarray, phases: np.ndarray) -> np.ndarray:
    a, b = _halves(h)
    c, s = np.cos(phases), np.sin(phases)
    return np.concatenate([a * c - b * s, a * s + b * c], axis=-1)


def _dbm_predict(kind: str, h: np.ndarray, rel: np.ndarray) -> np.ndarray:
    if kind == "transe":
        return h + rel
    if kind == "rotate":
        return _complex_rotate(h, rel)
    raise ValueError(f"not a distance kind: {kind}")


def dbm_scores(kind: str, h, rel, t, p: int):
    """score = -||predict(h, rel) - t||_p along the last axis. Returns
    (scores, cache)."""
    pred = _dbm_predict(kind, h, rel)
    diff = pred - t
    norms = p_norm(diff, p)
    return -norms, {"pred": pred, "diff": diff, "norms": norms, "h": h, "rel": rel}


def dbm_scores_vjp(kind: str, cache, d_scores, p: int):
    """Returns (d_h, d_rel, d_t)."""
    diff = cache["diff"]
    if p == 2:
        safe = np.where(cache["norms"] > 0, cache["norms"], 1.0)
        d_diff = (-d_scores / safe)[..., None] * diff
    else:
        d_diff = -d_scores[..., None] * np.sign(diff)
    d_t = -d_diff
    if kind == "transe":
        return d_diff, d_diff, d_t
    if kind == "rotate":
        a, b = _halves(cache["h"])
        c, s = np.cos(cache["rel"]), np.sin(cache["rel"])
        d_re, d_im = _halves(d_diff)
        d_a = d_re * c + d_im * s
        d_b = -d_re * s + d_im * c
        pre_re, pre_im = _halves(cache["pred"])
        d_phase = -pre_im * d_re + pre_re * d_im
        return np.concatenate([d_a, d_b], axis=-1), d_phase, d_t
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# relation-candidate scores (relation prediction), on base embeddings


def relation_scores(model: ModelSpec, h: np.ndarray, t: np.ndarray,
                    relation_table: np.ndarray):
    """Scores (Q, R) of every candidate relation for fixed (h, t) pairs."""
    kind = model.kind
    if kind in TDM_KINDS:
        m = _contract_r(kind, h, t)
        return m @ relation_table.T, {"m": m}
    if kind in DBM_KINDS:
        return dbm_scores(kind, h[:, None, :], relation_table[None, :, :],
                          t[:, None, :], model.distance_p)
    raise ValueError(kind)


def relation_scores_vjp(model: ModelSpec, h, t, relation_table, cache, d_scores):
    """Returns (d_h, d_t, d_relation_table)."""
    kind = model.kind
    if kind in TDM_KINDS:
        dm = d_scores @ relation_table
        return (_contract_h(kind, t, dm), _contract_t(kind, h, dm),
                d_scores.T @ cache["m"])
    d_h3, d_rel3, d_t3 = dbm_scores_vjp(kind, cache, d_scores, model.distance_p)
    return d_h3.sum(axis=1), d_t3.sum(axis=1), d_rel3.sum(axis=0)
