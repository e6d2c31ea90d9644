"""Training losses and optimizer steps.

The full objective sums a tail-prediction term, a head-prediction term
(reciprocal relations for tensor models, head-candidate scoring for distance
models), an optional relation-prediction term weighted by rp_weight, and an
optional duality regularizer weighted by dura_weight (tensor models only).
All gradients are exact hand-derived VJPs, checked against central
differences by the test suite.
"""

from __future__ import annotations

import math
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

# Byte budget for one (rows, N) all-entity score block of the tensor objective:
# a batch is scored in row slices that fit it, so peak memory does not grow with
# the batch size. The distance objective's (b, K, d) and (b, R, d) slices fit
# models.WORKSPACE_BYTES instead.
OBJECTIVE_BLOCK_BYTES = 1 << 24

# Elements per np.add.at call in scatter_rows (1024 rows at d = 64); bounds
# its flat int64 index array to 512 KiB.
SCATTER_CHUNK_ELEMENTS = 1 << 16


@dataclass
class LossConfig:
    """Tensor models train with the 1-vs-all cross-entropy, distance models
    with the self-adversarial loss at margin model.gamma."""

    rp_weight: float = 0.0
    dura_weight: float = 0.0
    negatives: int = 256
    adv_temperature: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rp_weight, self.dura_weight,
                                       self.adv_temperature))):
            raise ValueError("loss weights and adv_temperature must be finite")
        if self.rp_weight < 0 or self.dura_weight < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.negatives < 1:
            raise ValueError("need at least one negative sample")


def scatter_rows(out: np.ndarray, rows: np.ndarray, vals: np.ndarray, *, ws=None) -> None:
    """out[rows[i]] += vals[i] for every i in order, as np.add.at(out, rows, vals)
    does and with the same result bit for bit, through 1-D flat indices, which
    the ufunc handles several times faster. out is a C-contiguous (n, d) array;
    vals holds one length-d row per entry of rows, in any shape. The flat
    indices of each chunk go to one index buffer, the workspace's
    "scatter.idx" when there is one."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_rows needs a C-contiguous output array")
    d = out.shape[1]
    flat = out.reshape(-1)
    vals = vals.reshape(rows.shape[0], d)
    cols = np.arange(d, dtype=np.intp)
    step = max(1, SCATTER_CHUNK_ELEMENTS // d)
    idx = M.scratch(ws, "scatter.idx", (min(step, rows.shape[0]), d), np.intp)
    for start in range(0, rows.shape[0], step):
        chunk = rows[start:start + step].astype(np.intp)
        flat_idx = np.add((chunk * d)[:, None], cols, out=idx[:chunk.shape[0]])
        np.add.at(flat, flat_idx.reshape(-1), vals[start:start + step].reshape(-1))


class GradientBuffer:
    """Per-table gradient accumulators with touched-row tracking; add_rows
    scatters through the workspace, when given, for its index buffer."""

    def __init__(self, store: ParameterStore, ws: M.Workspace | None = None):
        self.store = store
        self.ws = ws
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
        scatter_rows(buf, rows, grads, ws=self.ws)
        self._touched[name][rows] = True

    def add_full(self, name: str, arr) -> None:
        buf = self._ensure(name)
        if arr.shape != buf.shape:
            raise ShapeMismatch(f"gradient shape {arr.shape} != table {buf.shape}")
        buf += arr
        self._touched[name][:] = True

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


def cross_entropy(scores: np.ndarray, targets: np.ndarray, *, terms=None, out=None):
    """Sum of -log softmax(scores)[target] over rows. Returns (value, d_scores);
    terms, a (rows,) array when given, receives each row's term. d_scores is
    written into out when given, which may be scores itself (then overwritten);
    otherwise it is a new array and scores is left as it was."""
    scores = np.atleast_2d(scores)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    q, c = scores.shape
    if targets.shape != (q,):
        raise ShapeMismatch(f"targets shape {targets.shape} != ({q},)")
    if q == 0:
        return 0.0, np.empty_like(scores) if out is None else out
    if targets.min() < 0 or targets.max() >= c:
        raise TargetOutOfRange(f"target outside [0, {c})")
    rows = np.arange(q)
    picked = scores[rows, targets]
    # one pass: the shifted scores become exp(s - m), then the softmax in place
    m = np.max(scores, axis=1, keepdims=True)
    d = np.subtract(scores, m, out=out)
    np.exp(d, out=d)
    total = d.sum(axis=1, keepdims=True)
    row = m[:, 0] + np.log(total[:, 0]) - picked
    if terms is not None:
        terms[...] = row
    value = float(np.sum(row))
    d /= total
    d[rows, targets] -= 1.0
    return value, d


def self_adversarial(scores: np.ndarray, margin: float, temperature: float, *,
                     terms=None):
    """RotatE-style negative-weighted loss over rows [positive, negatives...].

    L = -log sig(margin + s+) - sum_i p_i log sig(-margin - s_i),
    p = softmax(temperature * negatives). The softmax weights are part of the
    loss, so the returned gradient is the exact total derivative. terms, a
    (2, rows) array when given, receives each row's positive and negative term;
    the value is the sum of the first plus the sum of the second.
    """
    scores = np.atleast_2d(scores)
    if scores.shape[1] < 2:
        raise ShapeMismatch("need one positive and at least one negative score")
    s_pos = scores[:, 0]
    s_neg = scores[:, 1:]
    p = softmax(temperature * s_neg, axis=1)
    log_pos = _log_sigmoid(margin + s_pos)
    log_neg = _log_sigmoid(-margin - s_neg)
    pos, neg = -log_pos, -(p * log_neg).sum(axis=1)
    if terms is not None:
        terms[0], terms[1] = pos, neg
    value = float(np.sum(pos) + np.sum(neg))
    d = np.empty_like(scores)
    d[:, 0] = _sigmoid(margin + s_pos) - 1.0
    weighted_mean = (p * log_neg).sum(axis=1, keepdims=True)
    d[:, 1:] = -temperature * p * (log_neg - weighted_mean) - p * (
        _sigmoid(-margin - s_neg) - 1.0
    )
    return value, d


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
        num_entities, de, init_scheme, rng.derive("init:entity"), init_scale, dtype))
    store.create("relation", init_embeddings(
        rel_rows, dr, init_scheme, rng.derive("init:relation"), init_scale, dtype))

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
                    filter_active: bool = True, grad: bool = True, ws=None):
    """Objective value and gradients for a batch of (head, relation, tail) rows.

    negatives: (tail_negs, head_negs) index arrays, required for distance
    models (sampled by the caller so the objective itself is deterministic).
    grad=False stops each term after its value and returns (value, None); the
    value is the same, bit for bit. ws, a models.Workspace, holds every
    batch-sized array of the call; a training run passes the same one to
    every batch so that none is allocated again. Without it the call makes a
    fresh one. Nothing returned is a view of it.
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    ws = M.Workspace() if ws is None else ws
    buf = GradientBuffer(store, ws) if grad else None
    if batch.shape[0] == 0:
        return 0.0, buf
    eff = filt if filter_active else T.INERT_FILTER
    if model.is_tdm:
        value = _tdm_objective(batch, store, model, eff, loss, buf, ws)
    else:
        if loss.dura_weight > 0:
            raise UnsupportedModel("duality regularizer is tensor-model only")
        if negatives is None:
            raise ValueError("distance models need pre-sampled negatives")
        value = _dbm_objective(batch, store, model, eff, loss, negatives, buf, ws)
    if loss.rp_weight > 0:
        value += _rp_objective(batch, store, model, loss, buf, ws)
    return value, buf


def _tdm_objective(batch, store, model, eff, loss, buf, ws) -> float:
    """1-vs-all cross-entropy over every entity for the B tail queries and the
    B reciprocal head queries, plus DURA.

    Every batch-sized array of the call is a workspace view. The 2B query
    rows are scored in row slices under OBJECTIVE_BLOCK_BYTES into one
    (rows, N) score block, which the softmax gradient then overwrites; each
    slice adds its entity-gradient term through one (N, d) scratch and
    writes d_q over its rows of q, which nothing reads again. DURA and the
    backward pass then reuse the "phase" buffers one after the other."""
    kind = model.kind
    ent = store["entity"]
    num_rel = store.meta["num_relations"]

    lhs_ids = np.concatenate([batch[:, 0], batch[:, 2]])
    rel_rows = np.concatenate([batch[:, 1], batch[:, 1] + num_rel])
    tgt_ids = np.concatenate([batch[:, 2], batch[:, 0]])

    q, tape = T.tdm_forward(eff, store, model, lhs_ids, rel_rows, ws=ws)
    value = 0.0
    slices = _triple_slices(q.shape[0], ent.shape[0] * ent.itemsize,
                            OBJECTIVE_BLOCK_BYTES)
    dtype = np.result_type(q, ent)
    score_buf = ws("scores", (slices[0].stop, ent.shape[0]), dtype)
    for sl in slices:
        q_blk = q[sl]
        scores = np.matmul(q_blk, ent.T, out=score_buf[:sl.stop - sl.start])
        part, d_scores = cross_entropy(scores, tgt_ids[sl], out=scores)
        value += part
        if buf is not None:
            buf.add_full("entity", np.matmul(d_scores.T, q_blk, out=ws(
                "tdm.ent_grad", ent.shape, dtype)))
            np.matmul(d_scores, ent, out=q_blk)  # d_q of these rows
    d_q = q

    d_lhs_f, d_rel = None, ws("tdm.d_rel", tape.rel.shape, tape.rel.dtype)
    if loss.dura_weight > 0:
        w = loss.dura_weight
        lhs_f, rel = tape.lhs_f, tape.rel

        def phase(k, like):
            return ws(f"phase.{k}", like.shape, like.dtype)

        tgt = M.gather(ws, "phase.0", ent, tgt_ids)
        qd = M.tdm_query(kind, lhs_f, rel, out=phase(1, lhs_f), ws=ws)
        qt = M.tdm_query_t(kind, tgt, rel, out=phase(2, tgt), ws=ws)
        sq = phase(3, qd)
        value += w * float(np.sum(np.multiply(qd, qd, out=sq))
                           + np.sum(np.multiply(lhs_f, lhs_f, out=sq))
                           + np.sum(np.multiply(tgt, tgt, out=sq))
                           + np.sum(np.multiply(qt, qt, out=sq)))
        if buf is None:
            return value
        # d_rel starts as d_r1 (the zeros it would be added to change no
        # sum); d_t2 and d_r2 take the buffers of qd and sq once those are read
        d_lhs_f, _ = M.tdm_query_vjp(kind, lhs_f, rel, np.multiply(qd, 2.0 * w, out=qd),
                                     out=(ws("tdm.d_lhs_f", lhs_f.shape, lhs_f.dtype), d_rel),
                                     ws=ws)
        d_t2, d_r2 = M.tdm_query_t_vjp(kind, tgt, rel, np.multiply(qt, 2.0 * w, out=qt),
                                       out=(qd, phase(3, rel)), ws=ws)
        d_rel += d_r2
        d_lhs_f += np.multiply(lhs_f, 2.0 * w, out=phase(3, lhs_f))
        d_t2 += np.multiply(tgt, 2.0 * w, out=phase(3, tgt))
        buf.add_rows("entity", tgt_ids, d_t2)
    else:
        d_rel.fill(0.0)
    if buf is None:
        return value

    d_lhs, d_rel = T.tdm_backward(eff, model, tape, d_q, d_lhs_f, d_rel, buf, ws=ws)
    buf.add_rows("entity", lhs_ids, d_lhs)
    buf.add_rows("relation", rel_rows, d_rel)
    return value


def _triple_slices(b: int, bytes_per_row: int, budget: int | None = None) -> list[slice]:
    """Consecutive slices of b rows (triples, or the tensor objective's query
    rows), each holding as many rows as fit the budget (at least one); the
    budget is models.WORKSPACE_BYTES unless given."""
    budget = M.WORKSPACE_BYTES if budget is None else budget
    step = max(1, budget // bytes_per_row)
    return [slice(s, min(s + step, b)) for s in range(0, b, step)]


def _dbm_objective(batch, store, model, eff, loss, negatives, buf, ws) -> float:
    """Self-adversarial loss of both directions of a distance model.

    A candidate's rt factor depends only on its entity, so each direction
    computes it once per distinct candidate id of the batch, sums the candidate
    cotangents per distinct id, and makes one rt VJP and one entity scatter.
    The (b, K, d) candidate work runs in triple slices that fit the
    workspace's models.WORKSPACE_BYTES and reuse its buffers; the per-id tables
    span the whole batch. Each direction keeps its per-row loss terms and sums
    them once, so the value does not depend on the slicing.
    """
    rt = eff.rt_enabled
    ent = store["entity"]
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
        if uniq[0] < 0 or uniq[-1] >= ent.shape[0]:
            raise IndexError(f"candidate ids outside [0, {ent.shape[0]})")

        fixed = ent[fixed_ids]
        fixed_f = T.et_apply(op, fixed) if fixed_side_on else fixed
        d_fixed_f = np.zeros_like(fixed)
        d_cand_u = np.zeros((uniq.size, model.dim), dtype=ent.dtype)
        fixed_rel, cand_factor = rel, None
        if rt:
            fixed_rt = T.rt_factor(store, fixed_which, fixed, eff.p)
            cand_rt = T.rt_factor(store, cand_which, ent[uniq], eff.p)
            fixed_rel = fixed_rt.factor * rel
            d_fixed_factor = np.zeros_like(fixed_rel)
            d_cand_factor_u = np.zeros_like(cand_rt.factor)

        k = cand_ids.shape[1]
        terms = np.empty((2, b), dtype=ent.dtype)
        for sl in _triple_slices(b, k * model.dim * ent.itemsize):
            n = sl.stop - sl.start
            op_sl = op.rows(sl) if cand_side_on else None
            cand = np.take(ent, cand_ids[sl], axis=0, mode="clip",
                           out=ws("cand", (n, k, model.dim), ent.dtype))
            cand_f = T.et_apply(op_sl, cand, ws=ws) if cand_side_on else cand
            if rt:
                cand_factor = np.take(cand_rt.factor, inv[sl], axis=0, mode="clip",
                                      out=ws("cand_factor", (n, k, rel.shape[1]),
                                             rel.dtype))
            sc, sc_cache = T.dbm_direction_scores(model, fixed_is_head, fixed_f[sl],
                                                  fixed_rel[sl], cand_f, cand_factor,
                                                  ws=ws)
            _, d_sc = self_adversarial(sc, model.gamma, loss.adv_temperature,
                                       terms=terms[:, sl])
            if buf is None:
                continue

            d_a, d_r3, d_b = M.dbm_scores_vjp(model.kind, sc_cache, d_sc,
                                               model.distance_p, ws=ws)
            d_fixed_fk, d_cand_f = (d_a, d_b) if fixed_is_head else (d_b, d_a)
            d_fixed_f[sl] = d_fixed_fk.sum(axis=1)
            inv_sl = inv[sl].reshape(-1)
            if rt:
                d_fixed_rel = np.einsum("bkd,bkd->bd", d_r3, cand_factor)
                d_rel[sl] += d_fixed_rel * fixed_rt.factor[sl]
                d_fixed_factor[sl] = d_fixed_rel * rel[sl]
                scatter_rows(d_cand_factor_u, inv_sl,
                             np.multiply(d_r3, fixed_rel[sl, None, :],
                                         out=ws("d_cand_factor", d_r3.shape, d_r3.dtype)),
                             ws=ws)
            else:
                d_rel[sl] += d_r3.sum(axis=1)

            if cand_side_on:
                d_cand, d_mult, d_bias = T.et_apply_vjp(op_sl, cand, d_cand_f, ws=ws)
                _accumulate_op(sl, d_mult, d_bias)
            else:
                d_cand = d_cand_f
            scatter_rows(d_cand_u, inv_sl, d_cand, ws=ws)
        value += float(np.sum(terms[0]) + np.sum(terms[1]))

        if buf is None:
            continue
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

    if buf is None:
        return value
    if op is not None:
        d_rel_et = T.et_param_vjp(eff, op, d_op, d_op_bias, buf)
        if d_rel_et is not None:
            d_rel += d_rel_et
    buf.add_rows("relation", r_ids, d_rel)
    return value


def _rp_objective(batch, store, model, loss, buf, ws) -> float:
    """Relation prediction, once per triple, on base embeddings over the base
    relation rows. Distance models build (b, R, d) arrays, so they run in
    workspace-sized triple slices. The per-row terms are summed once and the
    gradients reach the buffer after the last slice, in one batch-wide order,
    so the slicing changes no bit. The heads and tails, the scores and their
    cotangents are the workspace's "phase.0", "scores" and "phase.3"."""
    lam = loss.rp_weight
    ent = store["entity"]
    num_rel = store.meta["num_relations"]
    base_rows = store["relation"][:num_rel]
    b = batch.shape[0]
    if model.is_dbm:
        slices = _triple_slices(b, num_rel * model.dim * ent.itemsize)
    else:
        slices = [slice(None)]
    terms = np.empty(b, dtype=ent.dtype)
    d_heads, d_tails = ws("phase.3", (2, b, model.dim), ent.dtype)
    d_table = None
    for sl in slices:
        h, t = M.gather(ws, "phase.0", ent, batch[sl][:, [0, 2]].T)
        scores, cache = M.relation_scores(model, h, t, base_rows, ws=ws, out=ws(
            "scores", (h.shape[0], num_rel), np.result_type(h, base_rows)))
        _, d_scores = cross_entropy(scores, batch[sl, 1], terms=terms[sl], out=scores)
        if buf is None:
            continue
        d_scores *= lam
        _, _, d_table = M.relation_scores_vjp(model, h, t, base_rows, cache, d_scores,
                                              ws=ws, d_table=d_table,
                                              out=(d_heads[sl], d_tails[sl]))
    if buf is not None:
        buf.add_rows("entity", batch[:, 0], d_heads)
        buf.add_rows("entity", batch[:, 2], d_tails)
        buf.add_rows("relation", np.arange(num_rel), d_table)
    return lam * float(np.sum(terms))


# ---------------------------------------------------------------------------
# optimizer


def optimizer_step(store: ParameterStore, buf: GradientBuffer,
                   optimizer: str = "adagrad", lr: float = 0.1) -> None:
    """Apply one update to every touched, trainable row. Adagrad keeps
    per-element squared-gradient accumulators in the store and adds 1e-10 to
    their square roots.

    Rows are updated in place in blocks that fit models.WORKSPACE_BYTES, through
    one reused scratch, with the operations of the whole-table formula
    (reference.optimizer_step) in its order, so the result is the same bits. A
    table with a non-finite gradient in any touched row is left unchanged."""
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
        rows = None if mask.all() else np.nonzero(mask)[0]
        count = table.shape[0] if rows is None else rows.size
        step = max(1, M.WORKSPACE_BYTES // (table.shape[1] * table.itemsize))
        scratch = np.empty((3, min(step, count), table.shape[1]), table.dtype)
        finite = np.empty(scratch.shape[1:], dtype=bool)

        def block(lo, hi, src, k):
            """Rows lo..hi of the update's selection in src: a view when every
            row is selected, else gathered into scratch[k]."""
            if rows is None:
                return src[lo:hi]
            return np.take(src, rows[lo:hi], axis=0, mode="clip", out=scratch[k, :hi - lo])

        blocks = [(lo, min(lo + step, count)) for lo in range(0, count, step)]
        for lo, hi in blocks:
            if not np.isfinite(block(lo, hi, grad, 0), out=finite[:hi - lo]).all():
                raise NonFiniteGradient(name)
        for lo, hi in blocks:
            g = block(lo, hi, grad, 0)
            upd = np.multiply(lr, g, out=scratch[2, :hi - lo])  # lr * g
            if optimizer == "adagrad":
                a = block(lo, hi, acc, 1)
                a += np.multiply(g, g, out=scratch[0, :hi - lo])  # g is not read again
                if rows is not None:
                    acc[rows[lo:hi]] = a
                a_root = np.sqrt(a, out=scratch[0, :hi - lo])
                a_root += 1e-10
                upd /= a_root
            t = block(lo, hi, table, 0)
            t -= upd
            if rows is not None:
                table[rows[lo:hi]] = t
