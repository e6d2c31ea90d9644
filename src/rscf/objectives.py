"""Training losses and optimizer steps.

The full objective sums a tail-prediction term, a head-prediction term
(reciprocal relations for tensor models, head-candidate scoring for distance
models), an optional relation-prediction term weighted by rp_weight, and an
optional duality regularizer weighted by dura_weight (tensor models only).
All gradients are exact hand-derived VJPs, checked against central
differences by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as M
from . import transforms as T
from .errors import (
    NonFiniteGradient,
    ShapeMismatch,
    TargetOutOfRange,
    UnsupportedModel,
)
from .tensor import ParameterStore, Rng, init_embeddings

# Byte budget for one (b, K, d) candidate array of the distance objective, and
# for one (b, R, d) array of the distance models' relation-prediction term: a
# batch is processed in triple slices that fit it, so peak memory does not grow
# with the batch size.
OBJECTIVE_BLOCK_BYTES = 1 << 24

# Elements per np.add.at call in scatter_rows (1024 rows at d = 64); bounds
# its flat int64 index array to 512 KiB.
SCATTER_CHUNK_ELEMENTS = 1 << 16


@dataclass
class LossConfig:
    task: str = "cross_entropy"  # or "self_adversarial"
    rp_weight: float = 0.0
    dura_weight: float = 0.0
    negatives: int = 256
    adv_temperature: float = 1.0
    margin: float | None = None  # None: use the model gamma

    def __post_init__(self):
        if self.task not in ("cross_entropy", "self_adversarial"):
            raise ValueError(f"unknown task loss {self.task!r}")
        if self.rp_weight < 0 or self.dura_weight < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.negatives < 1:
            raise ValueError("need at least one negative sample")


def scatter_rows(out: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    """out[rows[i]] += vals[i] for every i in order, as np.add.at(out, rows, vals)
    does and with the same result bit for bit, through 1-D flat indices, which
    the ufunc handles several times faster. out is a C-contiguous (n, d) array;
    vals holds one length-d row per entry of rows, in any shape."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_rows needs a C-contiguous output array")
    d = out.shape[1]
    flat = out.reshape(-1)
    vals = vals.reshape(rows.shape[0], d)
    cols = np.arange(d, dtype=np.intp)
    step = max(1, SCATTER_CHUNK_ELEMENTS // d)
    for start in range(0, rows.shape[0], step):
        chunk = rows[start:start + step].astype(np.intp)
        np.add.at(flat, (chunk[:, None] * d + cols).reshape(-1),
                  vals[start:start + step].reshape(-1))


class GradientBuffer:
    """Per-table gradient accumulators with touched-row tracking."""

    def __init__(self, store: ParameterStore):
        self.store = store
        self._dense: dict[str, np.ndarray] = {}
        self._touched: dict[str, np.ndarray] = {}

    def _ensure(self, name: str):
        if name not in self._dense:
            table = self.store.tables[name]
            self._dense[name] = np.zeros_like(table)
            self._touched[name] = np.zeros(table.shape[0], dtype=bool)
        return self._dense[name]

    def add_rows(self, name: str, rows, grads) -> None:
        buf = self._ensure(name)
        rows = np.asarray(rows).reshape(-1)
        grads = np.asarray(grads).reshape(rows.shape[0], buf.shape[1])
        scatter_rows(buf, rows, grads)
        self._touched[name][rows] = True

    def add_full(self, name: str, arr) -> None:
        buf = self._ensure(name)
        if arr.shape != buf.shape:
            raise ShapeMismatch(f"gradient shape {arr.shape} != table {buf.shape}")
        buf += arr
        self._touched[name][:] = True

    def grad(self, name: str) -> np.ndarray:
        return self._ensure(name)

    def touched(self, name: str) -> np.ndarray:
        self._ensure(name)
        return self._touched[name]

    def items(self):
        return self._dense.items()

    def dense_grads(self, all_tables: bool = False) -> dict[str, np.ndarray]:
        """Dense gradient per table; optionally include untouched tables as zeros."""
        if all_tables:
            for name in self.store.tables:
                self._ensure(name)
        return dict(self._dense)


# ---------------------------------------------------------------------------
# elementary losses


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def cross_entropy(scores: np.ndarray, targets: np.ndarray):
    """Sum of -log softmax(scores)[target] over rows. Returns (value, d_scores)."""
    scores = np.atleast_2d(scores)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    q, c = scores.shape
    if targets.shape != (q,):
        raise ShapeMismatch(f"targets shape {targets.shape} != ({q},)")
    if targets.min() < 0 or targets.max() >= c:
        raise TargetOutOfRange(f"target outside [0, {c})")
    m = np.max(scores, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(scores - m), axis=1))
    picked = scores[np.arange(q), targets]
    value = float(np.sum(lse - picked))
    d = softmax(scores, axis=1)
    d[np.arange(q), targets] -= 1.0
    return value, d


def self_adversarial(scores: np.ndarray, margin: float, temperature: float):
    """RotatE-style negative-weighted loss over rows [positive, negatives...].

    L = -log sig(margin + s+) - sum_i p_i log sig(-margin - s_i),
    p = softmax(temperature * negatives). The softmax weights are part of the
    loss, so the returned gradient is the exact total derivative.
    """
    scores = np.atleast_2d(scores)
    if scores.shape[1] < 2:
        raise ShapeMismatch("need one positive and at least one negative score")
    s_pos = scores[:, 0]
    s_neg = scores[:, 1:]
    p = softmax(temperature * s_neg, axis=1)
    log_pos = _log_sigmoid(margin + s_pos)
    log_neg = _log_sigmoid(-margin - s_neg)
    value = float(np.sum(-log_pos) + np.sum(-(p * log_neg).sum(axis=1)))
    d = np.empty_like(scores)
    d[:, 0] = _sigmoid(margin + s_pos) - 1.0
    weighted_mean = (p * log_neg).sum(axis=1, keepdims=True)
    d[:, 1:] = -temperature * p * (log_neg - weighted_mean) - p * (
        _sigmoid(-margin - s_neg) - 1.0
    )
    return value, d


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


# ---------------------------------------------------------------------------
# duality regularizer and relation prediction


def dura_penalty(h_hat, rel, t, kind: str):
    """Per-triple penalty  ||h R||^2 + ||h||^2 + ||t||^2 + ||t R^T||^2  with h
    the (possibly filtered) head. Accepts single vectors or batches; returns
    (value, (d_h_hat, d_rel, d_t))."""
    if kind not in M.TDM_KINDS:
        raise UnsupportedModel(f"duality regularizer needs a tensor model, got {kind!r}")
    h_hat = np.atleast_2d(np.asarray(h_hat, dtype=np.float64))
    rel = np.atleast_2d(np.asarray(rel, dtype=np.float64))
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    q, qc = M.tdm_query(kind, h_hat, rel)
    qt, qtc = M.tdm_query_t(kind, t, rel)
    value = float(np.sum(q * q) + np.sum(h_hat * h_hat) + np.sum(t * t) + np.sum(qt * qt))
    d_h1, d_r1 = M.tdm_query_vjp(kind, h_hat, rel, qc, 2.0 * q)
    d_t2, d_r2 = M.tdm_query_t_vjp(kind, t, rel, qtc, 2.0 * qt)
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


# ---------------------------------------------------------------------------
# parameter-store construction


def build_store(model: M.ModelSpec, filt: T.FilterSpec, num_entities: int,
                num_relations: int, rng: Rng, init_scheme: str = "gaussian",
                init_scale: float = 1e-3, dtype=np.float64) -> ParameterStore:
    """Allocate and initialize every table a run needs. Tensor models get
    reciprocal relation rows (row j+R answers head queries for relation j)."""
    reciprocal = model.is_tdm
    rel_rows = num_relations * (2 if reciprocal else 1)
    de, dr = model.dim, model.relation_dim
    store = ParameterStore(dtype)
    store.meta = {
        "num_entities": num_entities,
        "num_relations": num_relations,
        "reciprocal": reciprocal,
    }
    store.create("entity", init_embeddings(
        num_entities, de, init_scheme, rng.derive("init:entity"), init_scale, dtype).data)
    store.create("relation", init_embeddings(
        rel_rows, dr, init_scheme, rng.derive("init:relation"), init_scale, dtype).data)

    def _affine(label: str, rows: int, cols: int) -> np.ndarray:
        gen = rng.derive(label).generator()
        return gen.normal(0.0, 1.0, size=(rows, cols)) / np.sqrt(rows)

    if filt.kind in ("rscf", "rscf_linear2"):
        cols = 2 * de if filt.kind == "rscf_linear2" else de
        store.create("a1", _affine("init:a1", dr, cols))
    elif filt.kind == "sfbr_diag":
        store.create("sfbr_w", np.ones((rel_rows, de)))
        store.create("sfbr_b", np.zeros((rel_rows, de)))
    elif filt.kind == "sfbr_n":
        store.create("sfbr_w", _affine("init:sfbr_w", rel_rows, de) * np.sqrt(rel_rows / de))
    elif filt.kind == "sfbr_linear2":
        half = de // 2
        if de % 2 != 0:
            raise ShapeMismatch("linear2 filters need an even entity dimension")
        row = np.concatenate([np.ones(half), np.zeros(de), np.ones(half)])
        store.create("sfbr_w", np.tile(row, (rel_rows, 1)))
    if filt.rt_enabled:
        store.create("a2", _affine("init:a2", de, dr))
        store.create("a3", _affine("init:a3", de, dr))
    return store


# ---------------------------------------------------------------------------
# the full objective


def sample_negatives(batch: np.ndarray, num_entities: int, k: int, rng: Rng):
    """Uniform corruption candidates: (tail_negatives, head_negatives), (B, k) each."""
    gen = rng.generator()
    b = batch.shape[0]
    return (gen.integers(0, num_entities, size=(b, k)),
            gen.integers(0, num_entities, size=(b, k)))


def total_objective(batch, store: ParameterStore, model: M.ModelSpec,
                    filt: T.FilterSpec, loss: LossConfig, negatives=None,
                    filter_active: bool = True):
    """Objective value and gradients for a batch of (head, relation, tail) rows.

    negatives: (tail_negs, head_negs) index arrays, required for distance
    models (sampled by the caller so the objective itself is deterministic).
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    buf = GradientBuffer(store)
    if batch.shape[0] == 0:
        return 0.0, buf
    eff = filt if filter_active else T.INERT_FILTER
    if model.is_tdm:
        if loss.task != "cross_entropy":
            raise ValueError("tensor models train with cross_entropy")
        if loss.dura_weight > 0 and model.kind not in M.TDM_KINDS:
            raise UnsupportedModel(model.kind)
        value = _tdm_objective(batch, store, model, eff, loss, buf)
    else:
        if loss.task != "self_adversarial":
            raise ValueError("distance models train with self_adversarial")
        if loss.dura_weight > 0:
            raise UnsupportedModel("duality regularizer is tensor-model only")
        if negatives is None:
            raise ValueError("distance models need pre-sampled negatives")
        value = _dbm_objective(batch, store, model, eff, loss, negatives, buf)
    if loss.rp_weight > 0:
        value += _rp_objective(batch, store, model, loss, buf)
    return value, buf


def _margin(model: M.ModelSpec, loss: LossConfig) -> float:
    return model.gamma if loss.margin is None else loss.margin


def _tdm_objective(batch, store, model, eff, loss, buf) -> float:
    kind = model.kind
    ent = store["entity"]
    num_rel = store.meta["num_relations"]

    lhs_ids = np.concatenate([batch[:, 0], batch[:, 2]])
    rel_rows = np.concatenate([batch[:, 1], batch[:, 1] + num_rel])
    tgt_ids = np.concatenate([batch[:, 2], batch[:, 0]])

    q, tape = T.tdm_forward(eff, store, model, lhs_ids, rel_rows)
    scores = q @ ent.T
    value, d_scores = cross_entropy(scores, tgt_ids)

    d_q = d_scores @ ent
    buf.add_full("entity", d_scores.T @ q)
    d_lhs_f, d_rel = None, np.zeros_like(tape.rel)
    if loss.dura_weight > 0:
        w = loss.dura_weight
        lhs_f, rel = tape.lhs_f, tape.rel
        tgt = ent[tgt_ids]
        qd, qd_cache = M.tdm_query(kind, lhs_f, rel)
        qt, qt_cache = M.tdm_query_t(kind, tgt, rel)
        value += w * float(np.sum(qd * qd) + np.sum(lhs_f * lhs_f)
                           + np.sum(tgt * tgt) + np.sum(qt * qt))
        d_h1, d_r1 = M.tdm_query_vjp(kind, lhs_f, rel, qd_cache, 2.0 * w * qd)
        d_t2, d_r2 = M.tdm_query_t_vjp(kind, tgt, rel, qt_cache, 2.0 * w * qt)
        d_lhs_f = d_h1 + 2.0 * w * lhs_f
        d_rel += d_r1 + d_r2
        buf.add_rows("entity", tgt_ids, d_t2 + 2.0 * w * tgt)

    d_lhs, d_rel = T.tdm_backward(eff, model, tape, d_q, d_lhs_f, d_rel, buf)
    buf.add_rows("entity", lhs_ids, d_lhs)
    buf.add_rows("relation", rel_rows, d_rel)
    return value


def _triple_slices(b: int, bytes_per_triple: int) -> list[slice]:
    """Consecutive slices of a batch of b triples, each holding as many triples
    as fit OBJECTIVE_BLOCK_BYTES (at least one)."""
    step = max(1, OBJECTIVE_BLOCK_BYTES // bytes_per_triple)
    return [slice(s, min(s + step, b)) for s in range(0, b, step)]


def _dbm_objective(batch, store, model, eff, loss, negatives, buf) -> float:
    """Self-adversarial loss of both directions of a distance model.

    A candidate's rt factor depends only on its entity, so each direction
    computes it once per distinct candidate id of the batch, sums the candidate
    cotangents per distinct id, and makes one rt VJP and one entity scatter.
    The (b, K, d) candidate work runs in triple slices under
    OBJECTIVE_BLOCK_BYTES; the per-id tables span the whole batch.
    """
    rt = eff.rt_enabled
    ent = store["entity"]
    margin = _margin(model, loss)
    neg_tails, neg_heads = negatives
    b = batch.shape[0]
    neg_tails = np.asarray(neg_tails, dtype=np.int64).reshape(b, -1)
    neg_heads = np.asarray(neg_heads, dtype=np.int64).reshape(b, -1)

    r_ids = batch[:, 1]
    rel = store["relation"][r_ids]
    op = T.et_build(eff, store, rel, r_ids, model.dim)

    value = 0.0
    d_rel = np.zeros_like(rel)
    d_op = d_op_bias = None
    if op is not None:
        d_op = np.zeros_like(op.factor_vectors())
        if op.bias is not None:
            d_op_bias = np.zeros_like(op.bias)

    def _accumulate_op(sl, d_mult, d_bias):
        d_op[sl] += d_mult
        if d_bias is not None:
            d_op_bias[sl] += d_bias

    directions = ((True, batch[:, 0], batch[:, 2], neg_tails),
                  (False, batch[:, 2], batch[:, 0], neg_heads))
    for fixed_is_head, fixed_ids, gold_ids, negs in directions:
        fixed_side_on, cand_side_on, fixed_which, cand_which = T.dbm_direction(
            eff, fixed_is_head)
        cand_ids = np.concatenate([gold_ids[:, None], negs], axis=1)
        uniq, inv = np.unique(cand_ids, return_inverse=True)
        inv = inv.reshape(cand_ids.shape)

        fixed = ent[fixed_ids]
        fixed_f = T.et_apply(op, fixed) if fixed_side_on else fixed
        d_fixed_f = np.zeros_like(fixed)
        d_cand_u = np.zeros((uniq.size, model.dim), dtype=ent.dtype)
        fixed_rel, cand_factor = rel, None
        if rt:
            fixed_rt = T.rt_factor(store, fixed_which, fixed, eff.p, eff.zero_change_epsilon)
            cand_rt = T.rt_factor(store, cand_which, ent[uniq], eff.p, eff.zero_change_epsilon)
            fixed_rel = fixed_rt.factor * rel
            d_fixed_factor = np.zeros_like(fixed_rel)
            d_cand_factor_u = np.zeros_like(cand_rt.factor)

        for sl in _triple_slices(b, cand_ids.shape[1] * model.dim * ent.itemsize):
            op_sl = op.rows(sl) if cand_side_on else None
            cand = ent[cand_ids[sl]]
            cand_f = T.et_apply(op_sl, cand) if cand_side_on else cand
            if rt:
                cand_factor = cand_rt.factor[inv[sl]]
            sc, sc_cache = T.dbm_direction_scores(model, fixed_is_head, fixed_f[sl],
                                                  fixed_rel[sl], cand_f, cand_factor)
            part, d_sc = self_adversarial(sc, margin, loss.adv_temperature)
            value += part

            d_a, d_r3, d_b = M.dbm_scores_vjp(model.kind, sc_cache, d_sc,
                                               model.distance_p)
            d_fixed_fk, d_cand_f = (d_a, d_b) if fixed_is_head else (d_b, d_a)
            d_fixed_f[sl] = d_fixed_fk.sum(axis=1)
            inv_sl = inv[sl].reshape(-1)
            if rt:
                d_fixed_rel = np.einsum("bkd,bkd->bd", d_r3, cand_factor)
                d_rel[sl] += d_fixed_rel * fixed_rt.factor[sl]
                d_fixed_factor[sl] = d_fixed_rel * rel[sl]
                scatter_rows(d_cand_factor_u, inv_sl, d_r3 * fixed_rel[sl, None, :])
            else:
                d_rel[sl] += d_r3.sum(axis=1)

            if cand_side_on:
                d_cand, d_mult, d_bias = T.et_apply_vjp(op_sl, cand, d_cand_f)
                _accumulate_op(sl, d_mult, d_bias)
            else:
                d_cand = d_cand_f
            scatter_rows(d_cand_u, inv_sl, d_cand)

        if fixed_side_on:
            d_fixed, d_mult, d_bias = T.et_apply_vjp(op, fixed, d_fixed_f)
            _accumulate_op(slice(None), d_mult, d_bias)
        else:
            d_fixed = d_fixed_f
        if rt:
            d_fixed = d_fixed + T.rt_factor_vjp(fixed_rt, d_fixed_factor, buf, eff.p)
            d_cand_u += T.rt_factor_vjp(cand_rt, d_cand_factor_u, buf, eff.p)
        buf.add_rows("entity", fixed_ids, d_fixed)
        buf.add_rows("entity", uniq, d_cand_u)

    if op is not None:
        d_rel_et = T.et_param_vjp(eff, op, d_op, d_op_bias, buf)
        if d_rel_et is not None:
            d_rel += d_rel_et
    buf.add_rows("relation", r_ids, d_rel)
    return value


def _rp_objective(batch, store, model, loss, buf) -> float:
    """Relation prediction, once per triple, on base embeddings over the base
    relation rows. Distance models build (b, R, d) arrays, so they run in
    triple slices under OBJECTIVE_BLOCK_BYTES."""
    lam = loss.rp_weight
    ent = store["entity"]
    num_rel = store.meta["num_relations"]
    base_rows = store["relation"][:num_rel]
    if model.is_dbm:
        slices = _triple_slices(batch.shape[0], num_rel * model.dim * ent.itemsize)
    else:
        slices = [slice(None)]
    value = 0.0
    for sl in slices:
        h = ent[batch[sl, 0]]
        t = ent[batch[sl, 2]]
        scores, cache = M.relation_scores(model, h, t, base_rows)
        part, d_scores = cross_entropy(scores, batch[sl, 1])
        value += part
        d_scores *= lam
        d_h, d_t, d_table = M.relation_scores_vjp(model, h, t, base_rows, cache, d_scores)
        buf.add_rows("entity", batch[sl, 0], d_h)
        buf.add_rows("entity", batch[sl, 2], d_t)
        buf.add_rows("relation", np.arange(num_rel), d_table)
    return lam * value


# ---------------------------------------------------------------------------
# optimizer


def optimizer_step(store: ParameterStore, buf: GradientBuffer,
                   optimizer: str = "adagrad", lr: float = 0.1,
                   adagrad_eps: float = 1e-10) -> None:
    """Apply one update to every touched, trainable row. Adagrad keeps
    per-element squared-gradient accumulators in the store."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if optimizer not in ("adagrad", "sgd"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    for name, grad in buf.items():
        if not store.trainable.get(name, False):
            continue
        mask = buf.touched(name)
        if not mask.any():
            continue
        table = store.tables[name]
        acc = store.acc[name]
        if mask.all():
            g = grad
            if not np.isfinite(g).all():
                raise NonFiniteGradient(name)
            if optimizer == "adagrad":
                acc += g * g
                table -= lr * g / (np.sqrt(acc) + adagrad_eps)
            else:
                table -= lr * g
        else:
            rows = np.nonzero(mask)[0]
            g = grad[rows]
            if not np.isfinite(g).all():
                raise NonFiniteGradient(name)
            if optimizer == "adagrad":
                acc[rows] += g * g
                table[rows] -= lr * g / (np.sqrt(acc[rows]) + adagrad_eps)
            else:
                table[rows] -= lr * g
