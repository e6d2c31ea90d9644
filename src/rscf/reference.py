"""Single-vector reference oracles: each states one equation of the method
(scores, filters, relation transformation, task loss, duality regularizer,
relation prediction, the optimizer update, the filter-index lookup, the FNV-1a
recurrence) for one vector, triple, table, key or byte, independently of the
batched kernels, plus the three-pass triple-file loader (read, number, encode)
that Dataset.load does in one. No production path imports this module; tests
compare against it."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import models as M
from .data import Vocabulary
from .errors import (DataError, MalformedLine, ShapeMismatch, TargetOutOfRange,
                     UnsupportedModel)
from .objectives import cross_entropy, self_adversarial
from .transforms import DEFAULT_ZERO_EPS


class OddDimension(ShapeMismatch):
    pass


class UnknownRelation(DataError):
    pass


def score(model: M.ModelSpec, h_vec, r_vec, t_vec) -> float:
    """Single-triple score; inputs are whatever embeddings the caller scores
    (post-transformation when filters are active)."""
    h = np.asarray(h_vec, dtype=np.float64)
    r = np.asarray(r_vec, dtype=np.float64)
    t = np.asarray(t_vec, dtype=np.float64)
    if h.shape[-1] != model.dim or t.shape[-1] != model.dim:
        raise ShapeMismatch(f"entity dim {h.shape[-1]}/{t.shape[-1]} != {model.dim}")
    if r.shape[-1] != model.relation_dim:
        raise ShapeMismatch(f"relation dim {r.shape[-1]} != {model.relation_dim}")
    kind = model.kind
    if kind == "transe":
        return -float(M.p_norm(h + r - t, model.distance_p))
    if kind == "rotate":
        hr = M._complex_rotate(h, r)
        return -float(M.p_norm(hr - t, model.distance_p))
    if kind == "cp":
        return float(np.sum(h * r * t))
    if kind == "complex":
        h1, h2 = M._halves(h)
        r1, r2 = M._halves(r)
        t1, t2 = M._halves(t)
        return float(np.sum((h1 * r1 - h2 * r2) * t1 + (h1 * r2 + h2 * r1) * t2))
    if kind == "rescal":
        m = r.reshape(model.dim, model.dim)
        return float(h @ m @ t)
    raise ValueError(kind)


def score_all_tails(model: M.ModelSpec, h_vec, r_vec, entity_table,
                    tails=None, relations=None) -> np.ndarray:
    """Scores of (h, r, e) for every candidate row e.

    tails: optional pre-transformed candidate matrix (defaults to the raw
    entity table — the identity transformation). relations: optional
    per-candidate relation matrix for entity-conditioned relation transforms.
    """
    h = np.asarray(h_vec, dtype=np.float64)
    cand = np.asarray(entity_table if tails is None else tails, dtype=np.float64)
    if cand.ndim != 2 or cand.shape[1] != model.dim:
        raise ShapeMismatch(f"candidate table shape {cand.shape} != (*, {model.dim})")
    if h.shape != (model.dim,):
        raise ShapeMismatch(f"head shape {h.shape} != ({model.dim},)")
    if relations is None:
        rel = np.asarray(r_vec, dtype=np.float64)
        if rel.shape != (model.relation_dim,):
            raise ShapeMismatch(f"relation shape {rel.shape} != ({model.relation_dim},)")
        rel = np.broadcast_to(rel, (cand.shape[0], model.relation_dim))
    else:
        rel = np.asarray(relations, dtype=np.float64)
        if rel.shape != (cand.shape[0], model.relation_dim):
            raise ShapeMismatch(f"relation matrix shape {rel.shape}")
    kind = model.kind
    if kind in M.DBM_KINDS:
        pred = M._dbm_predict(kind, np.broadcast_to(h, cand.shape), rel)
        return -M.p_norm(pred - cand, model.distance_p)
    if relations is None:
        q = M.tdm_query(kind, h[None, :], np.ascontiguousarray(rel[:1]))
        return cand @ q[0]
    qs = M.tdm_query(kind, np.broadcast_to(h, cand.shape), rel)
    return np.sum(qs * cand, axis=-1)


def score_all_relations(model: M.ModelSpec, h_vec, t_vec, relation_table) -> np.ndarray:
    """Scores of (h, r_j, t) over every relation row, on base embeddings."""
    h = np.asarray(h_vec, dtype=np.float64)
    t = np.asarray(t_vec, dtype=np.float64)
    rel = np.asarray(relation_table, dtype=np.float64)
    if rel.ndim != 2 or rel.shape[1] != model.relation_dim:
        raise ShapeMismatch(f"relation table shape {rel.shape} != (*, {model.relation_dim})")
    scores, _ = M.relation_scores(model, h[None, :], t[None, :], rel)
    return scores[0]


# ---------------------------------------------------------------------------
# filters and relation transformation


class _ZeroChange:
    """Marker for a degenerate (near-zero) change vector; callers treat the
    change as the zero vector, leaving the embedding untouched."""

    __slots__ = ()

    def __repr__(self):
        return "ZeroChange"


ZERO_CHANGE = _ZeroChange()


@dataclass
class SfbrParams:
    variant: str  # "diag", "linear2", "n"
    weights: np.ndarray  # (num_relations, dim) or (num_relations, 2*dim) for linear2
    bias: np.ndarray | None = None


def p_normalize(v: np.ndarray, p: int = 2, eps: float = DEFAULT_ZERO_EPS):
    """v / ||v||_p, or the ZERO_CHANGE marker when ||v||_p < eps."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(M.p_norm(v, p))
    if norm < eps:
        return ZERO_CHANGE
    return v / norm


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
# losses, duality regularizer and relation prediction


def task_loss(scores: np.ndarray, target: int, kind: str,
              margin: float = 9.0, adv_temperature: float = 1.0):
    """Single-query task loss over a score batch. For self_adversarial the
    target indexes the positive score; the rest are negatives."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target < scores.shape[-1]:
        raise TargetOutOfRange(f"target {target} outside [0, {scores.shape[-1]})")
    if kind == "cross_entropy":
        value, d = cross_entropy(scores[None, :], [target])
        return value, d[0]
    if kind == "self_adversarial":
        order = np.concatenate([[target], np.delete(np.arange(scores.shape[-1]), target)])
        value, d_ord = self_adversarial(scores[order][None, :], margin, adv_temperature)
        d = np.empty_like(scores)
        d[order] = d_ord[0]
        return value, d
    raise ValueError(f"unknown task loss {kind!r}")


def dura_penalty(h_hat, rel, t, kind: str):
    """Per-triple penalty  ||h R||^2 + ||h||^2 + ||t||^2 + ||t R^T||^2  with h
    the (possibly filtered) head. Accepts single vectors or batches; returns
    (value, (d_h_hat, d_rel, d_t))."""
    if kind not in M.TDM_KINDS:
        raise UnsupportedModel(f"duality regularizer needs a tensor model, got {kind!r}")
    h_hat = np.atleast_2d(np.asarray(h_hat, dtype=np.float64))
    rel = np.atleast_2d(np.asarray(rel, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q = M.tdm_query(kind, h_hat, rel)
    qt = M.tdm_query_t(kind, t, rel)
    value = float(np.sum(q * q) + np.sum(h_hat * h_hat) + np.sum(t * t) + np.sum(qt * qt))
    d_h1, d_r1 = M.tdm_query_vjp(kind, h_hat, rel, 2.0 * q)
    d_t2, d_r2 = M.tdm_query_t_vjp(kind, t, rel, 2.0 * qt)
    return value, (d_h1 + 2.0 * h_hat, d_r1 + d_r2, d_t2 + 2.0 * t)


def rp_term(model: M.ModelSpec, h_vec, t_vec, relation_table, true_relation: int):
    """Cross-entropy of the true relation under softmax over candidate
    relations, on base embeddings. Returns (value, (d_h, d_t, d_table))."""
    h = np.atleast_2d(np.asarray(h_vec, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t_vec, dtype=np.float64))
    table = np.asarray(relation_table, dtype=np.float64)
    scores, cache = M.relation_scores(model, h, t, table)
    value, d_scores = cross_entropy(scores, [true_relation])
    d_h, d_t, d_table = M.relation_scores_vjp(model, h, t, table, cache, d_scores)
    return value, (d_h[0], d_t[0], d_table)


def optimizer_step(table, acc, grad, touched, optimizer: str, lr: float):
    """One Adagrad or SGD update written as whole-table expressions over the
    touched rows; returns updated copies of (table, acc)."""
    table, acc = table.copy(), acc.copy()
    rows = slice(None) if touched.all() else np.nonzero(touched)[0]
    g = grad[rows]
    if optimizer == "adagrad":
        acc[rows] += g * g
        table[rows] -= lr * g / (np.sqrt(acc[rows]) + 1e-10)
    else:
        table[rows] -= lr * g
    return table, acc


def ids_of(table, a: int, b: int) -> np.ndarray:
    """Ascending ids a data.IdTable stores under the one key (a, b), found by a
    scalar binary search; empty when there are none."""
    if a < 0 or not 0 <= b < table.width:
        return table.ids[:0]
    code = a * table.width + b
    i = int(np.searchsorted(table.key_codes, code))
    if i == table.key_codes.size or table.key_codes[i] != code:
        return table.ids[:0]
    return table.ids[table.ptr[i]:table.ptr[i + 1]]


def fnv1a_bytewise(data, h: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a one byte at a time: h = (h ^ b) * 0x100000001B3 mod 2^64
    (str is encoded as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & ((1 << 64) - 1)
    return h


def load_triples(path, fmt: str = "tsv") -> list[tuple[str, str, str]]:
    """Read raw (head, relation, tail) string triples, one per line, in file order.

    fmt="tsv" splits on single tabs; fmt="whitespace" splits on any whitespace run
    (hand-written fixtures). Empty lines are skipped. No deduplication.
    """
    if fmt not in ("tsv", "whitespace"):
        raise ValueError(f"unknown triple format: {fmt!r}")
    triples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t") if fmt == "tsv" else line.split()
            if len(fields) != 3:
                raise MalformedLine(path, lineno, f"expected 3 fields, got {len(fields)}")
            triples.append((fields[0], fields[1], fields[2]))
    return triples


def build_vocabulary(*splits: list[tuple[str, str, str]]) -> Vocabulary:
    """Assign ids by first appearance across the splits in the order given."""
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    for split in splits:
        for h, r, t in split:
            if h not in entities:
                entities[h] = len(entities)
            if t not in entities:
                entities[t] = len(entities)
            if r not in relations:
                relations[r] = len(relations)
    return Vocabulary(list(entities), list(relations))


def encode(vocab: Vocabulary, raw) -> np.ndarray:
    """(n, 3) int64 (head, relation, tail) ids of name triples, in order, one
    np.fromiter per name column. An unknown name raises KeyError."""
    out = np.empty((len(raw), 3), dtype=np.int64)
    for col, ids in enumerate((vocab.entity_ids, vocab.relation_ids, vocab.entity_ids)):
        out[:, col] = np.fromiter(map(ids.__getitem__, map(itemgetter(col), raw)),
                                  dtype=np.int64, count=len(raw))
    return out
