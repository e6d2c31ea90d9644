import itertools
import tracemalloc

import numpy as np
import pytest

from rscf import models as M
from rscf import objectives, reference
from rscf import transforms as T
from rscf.errors import NonFiniteGradient, TargetOutOfRange, UnsupportedModel
from rscf.gradcheck import check_combo
from rscf.models import ModelSpec
from rscf.objectives import (
    GradientBuffer,
    LossConfig,
    build_store,
    cross_entropy,
    optimizer_step,
    sample_negatives,
    self_adversarial,
    total_objective,
)
from rscf.reference import dura_penalty, rp_term, task_loss
from rscf.tensor import ParameterStore, Rng
from rscf.transforms import FilterSpec


class TestDuraPenalty:
    def test_cp_dim1_substitution(self):
        value, _ = dura_penalty([1.0], [2.0], [3.0], "cp")
        assert value == 50.0  # 1*4 + 1 + 9 + 9*4

    def test_zero_embeddings(self):
        value, _ = dura_penalty([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], "cp")
        assert value == 0.0

    def test_distance_models_rejected(self):
        with pytest.raises(UnsupportedModel):
            dura_penalty([1.0], [1.0], [1.0], "transe")

    def test_gradient_sign_follows_weight(self):
        # diagonal filter weight w scales the head: penalty terms in w are
        # w^2 (h r)^2 + w^2 h^2, so d/dw carries the sign of w
        gen = np.random.default_rng(0)
        for _ in range(1000):
            w, h, r = gen.normal(size=3)
            if min(abs(w), abs(h), abs(r)) < 1e-6:
                continue
            value, (d_h_hat, _, _) = dura_penalty([w * h], [r], [0.0], "cp")
            d_w = float(d_h_hat[0, 0]) * h  # chain rule through h_hat = w h
            assert np.sign(d_w) == np.sign(w)


class TestTaskLoss:
    def test_uniform_softmax(self):
        value, _ = task_loss(np.array([0.0, 0.0]), 0, "cross_entropy")
        assert abs(value - np.log(2.0)) < 1e-12

    def test_saturated(self):
        value, _ = task_loss(np.array([1000.0, 0.0]), 0, "cross_entropy")
        assert value < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            task_loss(np.array([0.0, 0.0]), 5, "cross_entropy")

    def test_cross_entropy_gradient(self):
        gen = np.random.default_rng(1)
        scores = gen.normal(size=(3, 7))
        targets = np.array([2, 0, 6])
        value, grad = cross_entropy(scores, targets)
        eps = 1e-6
        for i in range(3):
            for j in range(7):
                scores[i, j] += eps
                up = cross_entropy(scores, targets)[0]
                scores[i, j] -= 2 * eps
                down = cross_entropy(scores, targets)[0]
                scores[i, j] += eps
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad[i, j]) < 1e-6

    def test_self_adversarial_gradient_includes_weight_path(self):
        gen = np.random.default_rng(2)
        scores = gen.normal(size=(4, 6))
        value, grad = self_adversarial(scores, margin=2.0, temperature=0.7)
        eps = 1e-6
        for i in range(4):
            for j in range(6):
                scores[i, j] += eps
                up = self_adversarial(scores, 2.0, 0.7)[0]
                scores[i, j] -= 2 * eps
                down = self_adversarial(scores, 2.0, 0.7)[0]
                scores[i, j] += eps
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad[i, j]) < 1e-6

    def test_self_adversarial_positive_index_reorder(self):
        scores = np.array([0.3, 1.2, -0.5])
        v0, g0 = task_loss(scores, 0, "self_adversarial", margin=1.0)
        rolled = np.array([1.2, 0.3, -0.5])
        v1, g1 = task_loss(rolled, 1, "self_adversarial", margin=1.0)
        assert abs(v0 - v1) < 1e-12
        assert np.allclose(g0, g1[[1, 0, 2]])


class TestRpTerm:
    def test_two_equal_relations(self):
        model = ModelSpec("cp", 2)
        table = np.array([[1.0, 1.0], [1.0, 1.0]])
        value, _ = rp_term(model, [1.0, 2.0], [0.5, 0.5], table, 0)
        assert abs(value - np.log(2.0)) < 1e-12

    def test_gradients_match_fd(self):
        gen = np.random.default_rng(3)
        model = ModelSpec("complex", 6)
        h = gen.normal(size=6)
        t = gen.normal(size=6)
        table = gen.normal(size=(4, 6))
        value, (d_h, d_t, d_table) = rp_term(model, h, t, table, 2)
        eps = 1e-6
        for arr, grad in ((h, d_h), (t, d_t)):
            for idx in range(arr.size):
                arr[idx] += eps
                up = rp_term(model, h, t, table, 2)[0]
                arr[idx] -= 2 * eps
                down = rp_term(model, h, t, table, 2)[0]
                arr[idx] += eps
                fd = (up - down) / (2 * eps)
                assert abs(fd - np.ravel(grad)[idx]) < 1e-6


def _toy_setup(kind="cp", filter_kind="none", rt=False, rp=0.0, dura=0.0,
               seed=5, dim=4):
    model = ModelSpec(kind, dim, gamma=2.0)
    filt = FilterSpec(filter_kind, rt_enabled=rt,
                      apply_to="head_only" if model.is_tdm else "head_and_tail")
    loss = LossConfig(rp_weight=rp, dura_weight=dura, negatives=3)
    rng = Rng(seed)
    store = build_store(model, filt, 5, 2, rng, "gaussian", 0.4)
    gen = rng.derive("batch").generator()
    batch = np.stack([gen.integers(0, 5, 5), gen.integers(0, 2, 5),
                      gen.integers(0, 5, 5)], axis=1)
    negs = sample_negatives(batch, 5, 3, rng.derive("negs")) if model.is_dbm else None
    return model, filt, loss, store, batch, negs


class TestTotalObjective:
    def test_lambda_zero_equals_base(self):
        model, filt, loss, store, batch, negs = _toy_setup(rp=0.0, dura=0.0)
        base, _ = total_objective(batch, store, model, filt, loss, negatives=negs)
        loss_off = LossConfig(rp_weight=0.0, dura_weight=0.0,
                              negatives=loss.negatives)
        again, _ = total_objective(batch, store, model, filt, loss_off, negatives=negs)
        assert base == again

    def test_decomposition_identity(self):
        """objective(rp, dura) == objective(0, 0) + rp*RP + dura*DURA."""
        from rscf import transforms as T

        model, filt, _, store, batch, _ = _toy_setup(
            kind="complex", filter_kind="rscf", rt=True, dim=6, seed=9)
        lam, dw = 0.3, 0.07
        loss_full = LossConfig(rp_weight=lam, dura_weight=dw)
        loss_base = LossConfig()
        full, _ = total_objective(batch, store, model, filt, loss_full)
        base, _ = total_objective(batch, store, model, filt, loss_base)
        num_rel = store.meta["num_relations"]
        rp_sum = 0.0
        for h, r, t in batch:
            rp_sum += rp_term(model, store["entity"][h], store["entity"][t],
                              store["relation"][:num_rel], int(r))[0]
        dura_sum = 0.0
        for h, r, t in batch:
            for lhs_id, row, tgt_id in ((h, r, t), (t, r + num_rel, h)):
                rel = store["relation"][np.asarray([row])]
                op = T.et_build(filt, store, rel, np.asarray([row]), model.dim)
                h_hat = T.et_apply(op, store["entity"][np.asarray([lhs_id])])
                dura_sum += dura_penalty(h_hat, rel,
                                         store["entity"][np.asarray([tgt_id])],
                                         model.kind)[0]
        assert abs(full - (base + lam * rp_sum + dw * dura_sum)) < 1e-9

    def test_objective_decreases_over_50_steps(self):
        model, filt, loss, store, batch, negs = _toy_setup(
            kind="cp", filter_kind="rscf", rp=0.1, dura=0.01)
        first, _ = total_objective(batch, store, model, filt, loss, negatives=negs)
        value = first
        for _ in range(50):
            value, buf = total_objective(batch, store, model, filt, loss,
                                         negatives=negs)
            optimizer_step(store, buf, "adagrad", lr=0.1)
        final, _ = total_objective(batch, store, model, filt, loss, negatives=negs)
        assert final < first

    def test_dbm_descends_too(self):
        model, filt, loss, store, batch, negs = _toy_setup(
            kind="transe", filter_kind="rscf", rt=True, rp=0.1)
        first, _ = total_objective(batch, store, model, filt, loss, negatives=negs)
        for _ in range(50):
            _, buf = total_objective(batch, store, model, filt, loss, negatives=negs)
            optimizer_step(store, buf, "adagrad", lr=0.05)
        final, _ = total_objective(batch, store, model, filt, loss, negatives=negs)
        assert final < first

    def test_dura_rejected_for_dbm(self):
        model, filt, _, store, batch, negs = _toy_setup(kind="transe")
        loss = LossConfig(dura_weight=0.1, negatives=3)
        with pytest.raises(UnsupportedModel):
            total_objective(batch, store, model, filt, loss, negatives=negs)

    def test_inert_filter_matches_none(self):
        model, filt, loss, store, batch, negs = _toy_setup(
            kind="cp", filter_kind="rscf", rt=True)
        none_spec = FilterSpec("none", apply_to="head_only")
        inert, _ = total_objective(batch, store, model, filt, loss,
                                   negatives=negs, filter_active=False)
        plain, _ = total_objective(batch, store, model, none_spec, loss,
                                   negatives=negs)
        assert inert == plain

    @pytest.mark.parametrize("kind,filter_kind,rt,rp,dura", [
        ("complex", "rscf", True, 0.1, 0.05),
        ("rescal", "sfbr_linear2", False, 0.0, 0.05),
        ("cp", "none", False, 0.1, 0.0),
        ("transe", "rscf", True, 0.1, 0.0),
        ("rotate", "sfbr_n", False, 0.0, 0.0),
    ])
    def test_value_only_matches_full_pass(self, kind, filter_kind, rt, rp, dura,
                                          monkeypatch):
        model, filt, loss, store, batch, negs = _toy_setup(
            kind, filter_kind, rt=rt, rp=rp, dura=dura, dim=6, seed=7)
        full, _ = total_objective(batch, store, model, filt, loss, negatives=negs)

        def no_scatter(*args):
            raise AssertionError("value-only pass touched a gradient")

        monkeypatch.setattr(objectives, "scatter_rows", no_scatter)
        monkeypatch.setattr(objectives.GradientBuffer, "add_full", no_scatter)
        value, buf = total_objective(batch, store, model, filt, loss,
                                     negatives=negs, grad=False)
        assert buf is None
        assert value == full


class TestOptimizerStep:
    def test_sgd_example(self):
        store = ParameterStore()
        store.create("w", np.zeros((1, 1)))
        buf = GradientBuffer(store)
        buf.add_rows("w", [0], np.array([[2.0]]))
        optimizer_step(store, buf, "sgd", lr=1.0)
        assert store["w"][0, 0] == -2.0

    def test_adagrad_first_step_magnitude(self):
        for g in (0.001, 1.0, 500.0):
            store = ParameterStore()
            store.create("w", np.zeros((1, 1)))
            buf = GradientBuffer(store)
            buf.add_rows("w", [0], np.array([[g]]))
            optimizer_step(store, buf, "adagrad", lr=0.25)
            assert abs(store["w"][0, 0] + 0.25) < 1e-6

    def test_untouched_rows_not_updated(self):
        store = ParameterStore()
        store.create("w", np.ones((3, 2)))
        buf = GradientBuffer(store)
        buf.add_rows("w", [1], np.array([[1.0, 1.0]]))
        optimizer_step(store, buf, "sgd", lr=0.5)
        assert np.array_equal(store["w"][0], [1.0, 1.0])
        assert np.array_equal(store["w"][2], [1.0, 1.0])
        assert np.array_equal(store["w"][1], [0.5, 0.5])

    def test_converges_on_quadratic(self):
        store = ParameterStore()
        store.create("x", np.full((1, 4), 5.0))
        for _ in range(400):
            buf = GradientBuffer(store)
            buf.add_rows("x", [0], 2.0 * store["x"])
            optimizer_step(store, buf, "adagrad", lr=0.5)
        assert np.max(np.abs(store["x"])) < 1e-2

    def test_non_finite_gradient(self):
        store = ParameterStore()
        store.create("w", np.zeros((1, 1)))
        buf = GradientBuffer(store)
        buf.add_rows("w", [0], np.array([[np.inf]]))
        with pytest.raises(NonFiniteGradient):
            optimizer_step(store, buf, "adagrad", lr=0.1)

    @staticmethod
    def _step_setup(dtype, subset, rows=100, dim=5, seed=0):
        gen = np.random.default_rng(seed)
        store = ParameterStore(dtype)
        store.create("w", gen.normal(size=(rows, dim)), acc=gen.random((rows, dim)))
        buf = GradientBuffer(store)
        if subset:
            picked = gen.choice(rows, rows // 3, replace=False)
            buf.add_rows("w", picked, gen.normal(size=(picked.size, dim)).astype(dtype))
        else:
            buf.add_full("w", gen.normal(size=(rows, dim)).astype(dtype))
        return store, buf

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("optimizer", ["adagrad", "sgd"])
    def test_row_blocks_match_whole_table_formula(self, dtype, subset, optimizer,
                                                  monkeypatch):
        # blocks of 7 rows: the update runs in several blocks, the last one short
        monkeypatch.setattr(M, "WORKSPACE_BYTES", 7 * 5 * np.dtype(dtype).itemsize)
        store, buf = self._step_setup(dtype, subset)
        want_table, want_acc = reference.optimizer_step(
            store["w"], store.acc["w"], buf.dense_grads()["w"], buf.touched("w"),
            optimizer, 0.05)
        optimizer_step(store, buf, optimizer, lr=0.05)
        assert store["w"].tobytes() == want_table.tobytes()
        assert store.acc["w"].tobytes() == want_acc.tobytes()

    @pytest.mark.parametrize("subset", [False, True])
    def test_non_finite_in_a_later_block_leaves_table_unchanged(self, subset, monkeypatch):
        monkeypatch.setattr(M, "WORKSPACE_BYTES", 7 * 5 * 8)
        store, buf = self._step_setup(np.float64, subset)
        grad = buf.dense_grads()["w"]
        grad[np.nonzero(buf.touched("w"))[0][-1], 2] = np.nan
        before = store["w"].copy(), store.acc["w"].copy()
        with pytest.raises(NonFiniteGradient):
            optimizer_step(store, buf, "adagrad", lr=0.05)
        assert store["w"].tobytes() == before[0].tobytes()
        assert store.acc["w"].tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("subset", [False, True])
    def test_step_memory_is_a_few_row_blocks(self, subset):
        # 40,000 x 16 f64: the whole-table formula's temporaries are 5 MB each
        store, buf = self._step_setup(np.float64, subset, rows=40_000, dim=16)
        touched = int(np.count_nonzero(buf.touched("w")))
        tracemalloc.start()
        try:
            optimizer_step(store, buf, "adagrad", lr=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three scratch blocks and a finiteness mask, plus the touched-row ids
        assert peak < 4 * M.WORKSPACE_BYTES + 8 * touched


class TestGradCheckSpot:
    """A slice of the full grid (the acceptance suite runs all of it)."""

    @pytest.mark.parametrize("kind", ["cp", "complex", "rescal", "transe", "rotate"])
    def test_rscf_rt_rp(self, kind):
        dura = 0.05 if kind in ("cp", "complex", "rescal") else 0.0
        err = check_combo(kind, "rscf", rt=True, rp_weight=0.1, dura_weight=dura)
        assert err < 1e-4

    def test_sfbr_variants_complex(self):
        for fk in ("sfbr_diag", "sfbr_n", "sfbr_linear2", "rscf_linear2"):
            assert check_combo("complex", fk, False, 0.1, 0.05) < 1e-4


# ---------------------------------------------------------------------------
# the distance objective over distinct candidates


def _per_row_dbm_objective(batch, store, model, eff, loss, negatives, buf):
    """Reference distance objective: every (b, k) candidate row gets its own
    rt factor, rt VJP and scatter, with no slicing."""
    kind, p = model.kind, model.distance_p
    ent, rel_table = store["entity"], store["relation"]
    margin = model.gamma
    b = batch.shape[0]
    neg_tails = np.asarray(negatives[0]).reshape(b, -1)
    neg_heads = np.asarray(negatives[1]).reshape(b, -1)
    r_ids = batch[:, 1]
    rel = rel_table[r_ids]
    op = T.et_build(eff, store, rel, r_ids, model.dim)
    apply_head = op is not None
    apply_tail = op is not None and eff.apply_to == "head_and_tail"
    value = 0.0
    d_rel = np.zeros_like(rel)
    d_mults, d_biases = [], []
    for fixed_is_head in (True, False):
        if fixed_is_head:
            fixed_ids = batch[:, 0]
            cand_ids = np.concatenate([batch[:, 2:3], neg_tails], axis=1)
            fixed_on, cand_on = apply_head, apply_tail
        else:
            fixed_ids = batch[:, 2]
            cand_ids = np.concatenate([batch[:, 0:1], neg_heads], axis=1)
            fixed_on, cand_on = apply_tail, apply_head
        fixed, cand = ent[fixed_ids], ent[cand_ids]
        fixed_f = T.et_apply(op, fixed) if fixed_on else fixed
        cand_f = T.et_apply(op, cand) if cand_on else cand
        if eff.rt_enabled:
            fixed_rt = T.rt_factor(store, "a2" if fixed_is_head else "a3", fixed, eff.p)
            cand_rt = T.rt_factor(store, "a3" if fixed_is_head else "a2", cand, eff.p)
            rel_t = fixed_rt.factor[:, None, :] * cand_rt.factor * rel[:, None, :]
        else:
            rel_t = np.broadcast_to(rel[:, None, :], cand.shape[:2] + (rel.shape[1],))
        if fixed_is_head:
            sc, cache = M.dbm_scores(kind, fixed_f[:, None, :], rel_t, cand_f, p)
        else:
            sc, cache = M.dbm_scores(kind, cand_f, rel_t, fixed_f[:, None, :], p)
        part, d_sc = self_adversarial(sc, margin, loss.adv_temperature)
        value += part
        d_a, d_r3, d_b = M.dbm_scores_vjp(kind, cache, d_sc, p)
        d_fixed_f, d_cand_f = (d_a.sum(axis=1), d_b) if fixed_is_head else (d_b.sum(axis=1), d_a)
        d_fixed_rt = d_cand_rt = 0.0
        if eff.rt_enabled:
            d_rel += (d_r3 * fixed_rt.factor[:, None, :] * cand_rt.factor).sum(axis=1)
            d_fixed_factor = (d_r3 * cand_rt.factor * rel[:, None, :]).sum(axis=1)
            d_cand_factor = d_r3 * fixed_rt.factor[:, None, :] * rel[:, None, :]
            d_fixed_rt = T.rt_factor_vjp(fixed_rt, d_fixed_factor, buf, eff.p)
            d_cand_rt = T.rt_factor_vjp(cand_rt, d_cand_factor, buf, eff.p)
        else:
            d_rel += d_r3.sum(axis=1)
        d_fixed, d_cand = d_fixed_f, d_cand_f
        if fixed_on:
            d_fixed, d_mult, d_bias = T.et_apply_vjp(op, fixed, d_fixed_f)
            d_mults.append(d_mult)
            d_biases.append(d_bias)
        if cand_on:
            d_cand, d_mult, d_bias = T.et_apply_vjp(op, cand, d_cand_f)
            d_mults.append(d_mult)
            d_biases.append(d_bias)
        for i in range(b):
            buf.add_rows("entity", [fixed_ids[i]], (d_fixed + d_fixed_rt)[i])
        for i, j in np.ndindex(*cand_ids.shape):
            buf.add_rows("entity", [cand_ids[i, j]], (d_cand + d_cand_rt)[i, j])
    if op is not None:
        d_bias_total = None if d_biases[0] is None else sum(d_biases)
        d_rel_et = T.et_param_vjp(eff, op, sum(d_mults), d_bias_total, buf)
        if d_rel_et is not None:
            d_rel += d_rel_et
    buf.add_rows("relation", r_ids, d_rel)
    return value


def _per_row_objective(batch, store, model, filt, loss, negs):
    """Reference total objective of a distance model: the per-row distance
    objective plus the per-triple relation-prediction oracle rp_term."""
    buf = GradientBuffer(store)
    value = _per_row_dbm_objective(batch, store, model, filt, loss, negs, buf)
    num_rel = store.meta["num_relations"]
    for h, r, t in batch:
        part, (d_h, d_t, d_table) = rp_term(model, store["entity"][h], store["entity"][t],
                                            store["relation"][:num_rel], int(r))
        value += loss.rp_weight * part
        buf.add_rows("entity", [h], loss.rp_weight * d_h)
        buf.add_rows("entity", [t], loss.rp_weight * d_t)
        buf.add_rows("relation", np.arange(num_rel), loss.rp_weight * d_table)
    return value, buf


def _duplicate_heavy_setup(kind, filter_kind, rt, p, triples=6, negatives=4,
                           num_relations=3, seed=21, apply_to="head_and_tail"):
    """Every id of the batch and of its negatives comes from a 5-id range, so
    positives recur among the negatives and across rows."""
    model = ModelSpec(kind, 4, distance_p=p, gamma=2.0)
    filt = FilterSpec(filter_kind, p=p, rt_enabled=rt, apply_to=apply_to)
    loss = LossConfig(rp_weight=0.1, negatives=negatives)
    rng = Rng(seed)
    store = build_store(model, filt, 7, num_relations, rng, "gaussian", 0.4)
    gen = rng.derive("batch").generator()
    batch = np.stack([gen.integers(0, 5, triples), gen.integers(0, num_relations, triples),
                      gen.integers(0, 5, triples)], axis=1)
    negs = sample_negatives(batch, 5, negatives, rng.derive("negs"))
    return model, filt, loss, store, batch, negs


def _assert_objectives_close(got, want, rel=1e-12):
    (v_got, buf_got), (v_want, buf_want) = got, want
    assert abs(v_got - v_want) <= rel * abs(v_want)
    g_got, g_want = buf_got.dense_grads(True), buf_want.dense_grads(True)
    assert g_got.keys() == g_want.keys()
    for name, want_grad in g_want.items():
        err = np.max(np.abs(g_got[name] - want_grad))
        assert err <= rel * np.max(np.abs(want_grad)), name


class TestDistinctCandidateObjective:
    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    @pytest.mark.parametrize("filter_kind", ["none", "sfbr_diag", "sfbr_linear2",
                                             "sfbr_n", "rscf", "rscf_linear2"])
    @pytest.mark.parametrize("rt", [False, True])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("apply_to", ["head_and_tail", "head_only"])
    def test_matches_per_row_reference(self, kind, filter_kind, rt, p, apply_to, monkeypatch):
        model, filt, loss, store, batch, negs = _duplicate_heavy_setup(
            kind, filter_kind, rt, p, apply_to=apply_to)
        want = _per_row_objective(batch, store, model, filt, loss, negs)

        # candidate rows scatter in several chunks
        monkeypatch.setattr(objectives, "SCATTER_CHUNK_ELEMENTS", 4 * model.dim)

        rt_rows = []
        raw_rt_factor = T.rt_factor

        def counting_rt_factor(store_, which, x, p_):
            rt_rows.append(x.shape[0])
            return raw_rt_factor(store_, which, x, p_)

        monkeypatch.setattr(T, "rt_factor", counting_rt_factor)
        got = total_objective(batch, store, model, filt, loss, negatives=negs)
        _assert_objectives_close(got, want)
        if rt:
            b = batch.shape[0]
            distinct_tails = np.unique(np.concatenate([batch[:, 2:3], negs[0]], axis=1)).size
            distinct_heads = np.unique(np.concatenate([batch[:, 0:1], negs[1]], axis=1)).size
            # one call per side and direction: the B fixed rows, then the distinct candidates
            assert rt_rows == [b, distinct_tails, b, distinct_heads]
            assert distinct_tails < b * (loss.negatives + 1)
        else:
            assert rt_rows == []

    @pytest.mark.parametrize("kind,filter_kind,rt", [
        ("transe", "rscf", True), ("rotate", "rscf_linear2", True),
        ("transe", "sfbr_diag", False), ("rotate", "sfbr_n", True),
    ])
    def test_triple_slices_match_one_slice(self, kind, filter_kind, rt, monkeypatch):
        # K = negatives + 1 = R, so both the candidate and the relation-prediction
        # arrays split into slices of 3 triples
        model, filt, loss, store, batch, negs = _duplicate_heavy_setup(
            kind, filter_kind, rt, 2, triples=7, negatives=3, num_relations=4)
        whole = total_objective(batch, store, model, filt, loss, negatives=negs)
        per_triple = 4 * model.dim * store["entity"].itemsize
        monkeypatch.setattr(M, "WORKSPACE_BYTES", 3 * per_triple)
        assert [s.stop - s.start for s in objectives._triple_slices(7, per_triple)] == [3, 3, 1]
        sliced = total_objective(batch, store, model, filt, loss, negatives=negs)
        _assert_objectives_close(sliced, whole)


class TestSliceBudget:
    """The distance objective's triple slices fit models.WORKSPACE_BYTES; each
    direction sums its per-row self-adversarial terms once, the relation
    prediction its per-row terms, and every gradient reaches the buffer in
    batch order, so the slicing changes no bit."""

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_budgets_of_one_three_and_all_triples_agree(self, kind, monkeypatch):
        seen = []
        raw_self_adversarial = objectives.self_adversarial

        def counting(scores, *args, **kwargs):
            seen.append(scores.shape[0])
            return raw_self_adversarial(scores, *args, **kwargs)

        monkeypatch.setattr(objectives, "self_adversarial", counting)
        checked = 0
        for filter_kind, rt in itertools.product(T.FILTER_KINDS, (False, True)):
            # K + 1 = R = 4 candidates, so both terms slice alike
            model, filt, loss, store, batch, negs = _duplicate_heavy_setup(
                kind, filter_kind, rt, 2, triples=7, negatives=3, num_relations=4)
            per_triple = 4 * model.dim * store["entity"].itemsize
            results = []
            for triples, slices in ((1, [1] * 7), (3, [3, 3, 1]), (7, [7])):
                monkeypatch.setattr(M, "WORKSPACE_BYTES", triples * per_triple)
                seen.clear()
                value, buf = total_objective(batch, store, model, filt, loss, negatives=negs)
                assert seen == slices * 2  # tail, then head direction
                value_only, _ = total_objective(batch, store, model, filt, loss,
                                                negatives=negs, grad=False)
                assert value_only == value
                grads = buf.dense_grads(True)
                results.append((float.hex(value),
                                {name: g.tobytes() for name, g in grads.items()}))
            assert results[0] == results[1] == results[2], (filter_kind, rt)
            checked += 1
        assert checked == 2 * len(T.FILTER_KINDS)

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_peak_grows_less_than_one_candidate_array_with_the_batch(self, kind):
        # 200 entities: the per-id tables of both batches hold nearly all of them
        model = ModelSpec(kind, 32, gamma=2.0)
        filt = FilterSpec("rscf", rt_enabled=True)
        loss = LossConfig(rp_weight=0.1, negatives=64)
        store = build_store(model, filt, 200, 3, Rng(4), init_scale=0.3)
        gen = np.random.default_rng(4)
        peaks = []
        for b in (32, 64):
            batch = np.stack([gen.integers(0, 200, b), gen.integers(0, 3, b),
                              gen.integers(0, 200, b)], axis=1)
            negs = sample_negatives(batch, 200, loss.negatives, Rng(b))
            tracemalloc.start()
            try:
                total_objective(batch, store, model, filt, loss, negatives=negs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added = 32 * (loss.negatives + 1) * model.dim * store["entity"].itemsize
        assert peaks[1] - peaks[0] < added


# ---------------------------------------------------------------------------
# the tensor objective: fused cross-entropy, scored in row blocks


def _two_pass_cross_entropy(scores, targets):
    """The cross-entropy as written before fusion: one max and exp for the
    log-sum-exp, and another max and exp inside softmax for the gradient."""
    scores = np.atleast_2d(scores)
    targets = np.asarray(targets, dtype=np.int64)
    q = scores.shape[0]
    m = np.max(scores, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(scores - m), axis=1))
    picked = scores[np.arange(q), targets]
    value = float(np.sum(lse - picked))
    shifted = scores - np.max(scores, axis=1, keepdims=True)
    e = np.exp(shifted)
    d = e / np.sum(e, axis=1, keepdims=True)
    d[np.arange(q), targets] -= 1.0
    return value, d


class TestFusedCrossEntropy:
    @staticmethod
    def _cases(dtype):
        gen = np.random.default_rng(17)
        yield gen.normal(size=(300, 237)).astype(dtype), gen.integers(0, 237, 300)
        yield (gen.normal(size=(7, 5)) * 30).astype(dtype), gen.integers(0, 5, 7)
        ties = np.zeros((4, 6), dtype)
        ties[1, [0, 3, 5]] = 2.5  # three-way tie at the maximum
        ties[2] = 1.0
        yield ties, np.array([0, 3, 5, 2])
        huge = gen.choice([-1000.0, 1000.0], size=(5, 8)).astype(dtype)
        huge[:, 0] = 1000.0
        yield huge, np.array([0, 1, 7, 3, 0])
        yield gen.normal(size=(6, 1)).astype(dtype), np.zeros(6, dtype=np.int64)
        yield gen.normal(size=(1, 9)).astype(dtype), np.array([4])
        yield np.array([[0.5]], dtype), np.array([0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_two_pass_formula(self, dtype):
        for scores, targets in self._cases(dtype):
            before = scores.copy()
            value, grad = cross_entropy(scores, targets)
            assert scores.tobytes() == before.tobytes()
            want_value, want_grad = _two_pass_cross_entropy(scores, targets)
            assert value == want_value
            assert grad.dtype == want_grad.dtype
            assert grad.tobytes() == want_grad.tobytes()

            # in place: the gradient overwrites the scores it was computed from
            value, grad = cross_entropy(scores, targets, out=scores)
            assert grad is scores
            assert value == want_value
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_rows(self, dtype):
        for out in (None, np.zeros((0, 7), dtype)):
            value, grad = cross_entropy(np.zeros((0, 7), dtype),
                                        np.zeros(0, dtype=np.int64), out=out)
            assert value == 0.0
            assert grad.shape == (0, 7) and grad.dtype == dtype
            assert out is None or grad is out


class TestTensorRowBlocks:
    @pytest.mark.parametrize("kind", ["cp", "complex", "rescal"])
    @pytest.mark.parametrize("filter_kind", ["none", "sfbr_diag", "sfbr_linear2",
                                             "sfbr_n", "rscf", "rscf_linear2"])
    @pytest.mark.parametrize("rt", [False, True])
    @pytest.mark.parametrize("rp", [0.0, 0.1])
    @pytest.mark.parametrize("dura", [0.0, 0.05])
    def test_blocks_of_three_rows_match_one_block(self, kind, filter_kind, rt, rp, dura,
                                                  monkeypatch):
        model, filt, loss, store, batch, _ = _toy_setup(
            kind, filter_kind, rt=rt, rp=rp, dura=dura, seed=11)
        assert store["entity"].dtype == np.float64
        whole = total_objective(batch, store, model, filt, loss)

        ent = store["entity"]
        monkeypatch.setattr(objectives, "OBJECTIVE_BLOCK_BYTES",
                            3 * ent.shape[0] * ent.itemsize)
        rows_seen = []
        raw_cross_entropy = objectives.cross_entropy

        def counting_cross_entropy(scores, targets, **kwargs):
            rows_seen.append(scores.shape[0])
            return raw_cross_entropy(scores, targets, **kwargs)

        monkeypatch.setattr(objectives, "cross_entropy", counting_cross_entropy)
        blocked = total_objective(batch, store, model, filt, loss)
        _assert_objectives_close(blocked, whole)
        b = batch.shape[0]  # 2b = 10 query rows
        assert rows_seen == [3, 3, 3, 1] + ([b] if rp > 0 else [])

    def test_blocks_reuse_one_score_buffer_and_one_entity_scratch(self, monkeypatch):
        """192 query rows in three 64-row blocks of 2 MB at N = 4,000, d = 8:
        the call holds one score block and one (N, d) entity-gradient scratch
        at a time, plus the gradient buffer's dense tables and per-row arrays
        (the slack), where a fresh score, softmax and scratch array per block
        would hold about three blocks."""
        model = ModelSpec("complex", 8)
        filt = FilterSpec("rscf", rt_enabled=True, apply_to="head_only")
        loss = LossConfig(rp_weight=0.1, dura_weight=0.05)
        store = build_store(model, filt, 4000, 3, Rng(2), init_scale=0.3)
        ent = store["entity"]
        gen = np.random.default_rng(2)
        b = 96
        batch = np.stack([gen.integers(0, 4000, b), gen.integers(0, 3, b),
                          gen.integers(0, 4000, b)], axis=1)
        block = 64 * ent.shape[0] * ent.itemsize
        monkeypatch.setattr(objectives, "OBJECTIVE_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            total_objective(batch, store, model, filt, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch, slack = ent.nbytes, 4 * ent.nbytes
        assert peak < block + scratch + slack, peak


class TestAddRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_rows", [0, 7, 1000])
    def test_bit_identical_to_add_at(self, dtype, n_rows, monkeypatch):
        # chunks of 8 rows: 1000 rows take 125 np.add.at calls
        monkeypatch.setattr(objectives, "SCATTER_CHUNK_ELEMENTS", 8 * 5)
        gen = np.random.default_rng(n_rows)
        store = ParameterStore(dtype)
        store.create("w", np.zeros((6, 5)))
        rows = gen.integers(0, 6, n_rows)  # repeats every row many times
        grads = gen.normal(size=(n_rows, 5)).astype(dtype)
        buf = GradientBuffer(store)
        buf.add_rows("w", rows, grads)
        want = np.zeros((6, 5), dtype)
        np.add.at(want, rows, grads)
        assert buf.dense_grads()["w"].tobytes() == want.tobytes()
        assert np.array_equal(buf.touched("w"), np.isin(np.arange(6), rows))

    def test_wrong_gradient_shape_raises(self):
        store = ParameterStore()
        store.create("w", np.zeros((4, 3)))
        buf = GradientBuffer(store)
        with pytest.raises(ValueError):
            buf.add_rows("w", [0, 1], np.ones((2, 2)))


class _UnsharedWorkspace(M.Workspace):
    """A workspace that hands out a new array for every request, so no two
    arrays of a call can share memory."""

    def __call__(self, name, shape, dtype):
        return np.empty(shape, dtype)


def _two_batches(kind, filter_kind, rt, rp, dura, dtype, p=2):
    """A toy store and two batches, the second larger, so a shared workspace
    grows its buffers between them."""
    model = ModelSpec(kind, 4, gamma=2.0)
    filt = FilterSpec(filter_kind, p=p, rt_enabled=rt,
                      apply_to="head_only" if model.is_tdm else "head_and_tail")
    loss = LossConfig(rp_weight=rp, dura_weight=dura, negatives=3)
    rng = Rng(13)
    store = build_store(model, filt, 7, 3, rng, "gaussian", 0.4, dtype)
    gen = rng.derive("batches").generator()
    batches = []
    for i, b in enumerate((5, 8)):
        batch = np.stack([gen.integers(0, 7, b), gen.integers(0, 3, b),
                          gen.integers(0, 7, b)], axis=1)
        negs = (sample_negatives(batch, 7, 3, rng.derive("negs").derive(i))
                if model.is_dbm else None)
        batches.append((batch, negs))
    return model, filt, loss, store, batches


def _bits(value, buf):
    return value, {name: (grad.tobytes(), buf.touched(name).tobytes())
                   for name, grad in buf.dense_grads(all_tables=True).items()}


def _assert_shared_workspace_matches_unshared(model, filt, loss, store, batches):
    ws = M.Workspace()
    a, b = batches
    for batch, negs in (a, b, a):
        want = total_objective(batch, store, model, filt, loss, negatives=negs,
                               ws=_UnsharedWorkspace())
        got = total_objective(batch, store, model, filt, loss, negatives=negs, ws=ws)
        assert _bits(*got) == _bits(*want)
        assert _bits(*total_objective(batch, store, model, filt, loss,
                                      negatives=negs)) == _bits(*want)


class TestRunLongWorkspace:
    """Batches A, B, A through one workspace give the bits of calls in which
    every array is new: no buffer name backs two live arrays within a call,
    and nothing a call reads is left over from the one before."""

    @pytest.mark.parametrize("kind", ["cp", "complex", "rescal"])
    @pytest.mark.parametrize("filter_kind", ["none", "sfbr_diag", "sfbr_linear2",
                                             "sfbr_n", "rscf", "rscf_linear2"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensor_models(self, kind, filter_kind, dtype):
        ps = (1, 2) if filter_kind in ("sfbr_n", "rscf", "rscf_linear2") else (2,)
        for rt, rp, dura, p in itertools.product([False, True], [0.0, 0.1], [0.0, 0.05], ps):
            _assert_shared_workspace_matches_unshared(
                *_two_batches(kind, filter_kind, rt, rp, dura, dtype, p))

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    @pytest.mark.parametrize("rt", [False, True])
    def test_distance_models(self, kind, rt):
        for dtype, rp in itertools.product([np.float32, np.float64], [0.0, 0.1]):
            _assert_shared_workspace_matches_unshared(
                *_two_batches(kind, "rscf", rt, rp, 0.0, dtype))

    def test_steady_state_batch_allocates_under_one_mib(self):
        """The synthetic preset's shape (B 512, d 64, f64, N 200, rscf p 2, rt,
        rp, DURA): once a first call has sized the workspace, a second call
        peaks less than 1 MiB above where it started, the gradient buffer's
        dense tables included; allocating per call, it peaked at 14.9 MB. The
        workspace holds less than that peak."""
        model = ModelSpec("complex", 64)
        filt = FilterSpec("rscf", 2, "head_only", rt_enabled=True)
        loss = LossConfig(rp_weight=0.1, dura_weight=0.05)
        store = build_store(model, filt, 200, 12, Rng(1), init_scale=0.05)
        gen = np.random.default_rng(0)
        batch = np.stack([gen.integers(0, 200, 512), gen.integers(0, 12, 512),
                          gen.integers(0, 200, 512)], axis=1)
        ws = M.Workspace()
        total_objective(batch, store, model, filt, loss, ws=ws)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value, buf = total_objective(batch, store, model, filt, loss, ws=ws)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert sum(arr.nbytes for arr in ws.values()) < 14.9e6
