import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rscf.errors import ShapeMismatch
from rscf.models import ModelSpec, p_norm
from rscf.objectives import build_store
from rscf.reference import (
    ZERO_CHANGE,
    OddDimension,
    SfbrParams,
    UnknownRelation,
    build_linear2_matrix,
    p_normalize,
    rscf_entity_transform,
    rscf_relation_transform,
    score,
    sfbr_transform,
)
from rscf.tensor import ParameterStore, Rng
from rscf.transforms import (
    FILTER_KINDS,
    FilterSpec,
    et_apply,
    et_build,
    normalize_rows,
    normalize_rows_vjp,
    query_side,
    rt_factor,
    tdm_forward,
)


class TestPNormalize:
    def test_three_four_five(self):
        assert np.allclose(p_normalize([3.0, 4.0], p=2), [0.6, 0.8])

    def test_l1(self):
        assert np.allclose(p_normalize([1.0, 1.0], p=1), [0.5, 0.5])

    def test_zero_vector_marker(self):
        assert p_normalize([0.0, 0.0], p=2) is ZERO_CHANGE
        assert p_normalize([0.0, 0.0], p=1) is ZERO_CHANGE

    @given(arrays(np.float64, st.integers(1, 12),
                  elements=st.floats(-10, 10, allow_nan=False)),
           st.sampled_from([1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_unit_norm_or_marker(self, v, p):
        result = p_normalize(v, p=p)
        if result is ZERO_CHANGE:
            assert p_norm(np.asarray(v), p) < 1e-12
        else:
            assert abs(p_norm(result, p) - 1.0) < 1e-9
            assert np.isfinite(result).all()


class TestRscfEntityTransform:
    def test_substitution(self):
        # normalized change [0.6, 0.8]: A1 = I, r = [3, 4]
        out = rscf_entity_transform([2.0, -1.0], [3.0, 4.0], np.eye(2), p=2)
        assert np.allclose(out, [3.2, -1.8])

    def test_zero_matrix_is_identity(self):
        e = np.array([1.5, -0.5, 2.0])
        out = rscf_entity_transform(e, [1.0, 2.0, 3.0], np.zeros((3, 3)))
        assert np.array_equal(out, e)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rscf_entity_transform([1.0, 2.0], [1.0], np.eye(2))

    def test_change_bounded_by_maximum_over_unit_factors(self):
        gen = np.random.default_rng(7)
        for p in (1, 2):
            for _ in range(20):
                dim = int(gen.integers(2, 7))
                e = gen.normal(size=dim)
                r = gen.normal(size=dim)
                a1 = gen.normal(size=(dim, dim))
                out = rscf_entity_transform(e, r, a1, p=p)
                change = p_norm(out - e, p)
                alphas = gen.normal(size=(10_000, dim))
                alphas /= p_norm(alphas, p)[:, None]
                bound = p_norm(alphas * e, p).max()
                assert change <= bound + 1e-9


class TestRscfRelationTransform:
    def test_zero_changes_identity(self):
        r = np.array([2.0, 2.0])
        out = rscf_relation_transform(r, [1.0, 1.0], [1.0, 1.0],
                                      np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.array_equal(out, r)

    def test_substitution(self):
        # head factor [1.5, 0.5] and tail factor [1, 1] on r = [2, 2]
        r = np.array([2.0, 2.0])
        h = np.array([1.0, 0.0])
        a2 = np.array([[0.5, -0.5], [0.0, 0.0]])  # h A2 = [0.5, -0.5] -> N2 + 1
        out_head_only = rscf_relation_transform(r, h, None, a2, None, head_only=True)
        expected_factor = np.array([0.5, -0.5]) / np.sqrt(0.5) + 1.0
        assert np.allclose(out_head_only, expected_factor * r)
        full = rscf_relation_transform(r, h, [0.0, 0.0], a2, np.eye(2))
        assert np.allclose(full, out_head_only)  # degenerate tail factor

    def test_composes_from_single_factor_applications(self):
        gen = np.random.default_rng(3)
        r = gen.normal(size=4)
        h = gen.normal(size=4)
        t = gen.normal(size=4)
        a2 = gen.normal(size=(4, 4))
        a3 = gen.normal(size=(4, 4))
        full = rscf_relation_transform(r, h, t, a2, a3)
        head_applied = rscf_relation_transform(r, h, None, a2, None, head_only=True)
        both = rscf_relation_transform(head_applied, t, None, a3, None, head_only=True)
        assert np.allclose(full, both, atol=1e-12)


class TestSfbr:
    def test_diag(self):
        params = SfbrParams("diag", np.array([[2.0, 3.0]]), np.array([[0.0, 0.0]]))
        assert np.allclose(sfbr_transform([1.0, 1.0], 0, params), [2.0, 3.0])

    def test_diag_bias(self):
        params = SfbrParams("diag", np.array([[1.0, 1.0]]), np.array([[0.5, -0.5]]))
        assert np.allclose(sfbr_transform([1.0, 2.0], 0, params), [1.5, 1.5])

    def test_normalized_variant(self):
        params = SfbrParams("n", np.array([[3.0, 4.0]]))
        assert np.allclose(sfbr_transform([1.0, 1.0], 0, params, p=2), [1.6, 1.8])

    def test_linear2_identity_blocks(self):
        w = np.concatenate([np.ones(1), np.zeros(1), np.zeros(1), np.ones(1)])
        params = SfbrParams("linear2", w[None, :])
        assert np.allclose(sfbr_transform([5.0, 7.0], 0, params), [5.0, 7.0])

    def test_unknown_relation(self):
        params = SfbrParams("diag", np.ones((2, 2)))
        with pytest.raises(UnknownRelation):
            sfbr_transform([1.0, 1.0], 5, params)


class TestLinear2Operator:
    def test_identity(self):
        op = build_linear2_matrix(np.array([1.0, 0.0, 0.0, 1.0]))
        e = np.array([5.0, 7.0])
        assert np.allclose(op.apply(e), e)

    def test_matches_dense_matrix(self):
        gen = np.random.default_rng(1)
        for n in (2, 4, 8):
            blocks = gen.normal(size=2 * n)
            op = build_linear2_matrix(blocks)
            e = gen.normal(size=n)
            assert np.allclose(op.apply(e), op.as_matrix() @ e, atol=1e-12)

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            build_linear2_matrix(np.ones(6))


class TestInvariants:
    def test_collinear_consistency_exact(self):
        gen = np.random.default_rng(4)
        for _ in range(200):
            dim = int(gen.integers(2, 10))
            a = gen.normal(size=dim)
            b = gen.normal(size=dim)
            s = gen.uniform(-3, 3)
            c = a + s * (b - a)
            m = gen.normal(size=(dim, dim))
            lhs = np.linalg.norm((c - a) @ m)
            rhs = abs(s) * np.linalg.norm((b - a) @ m)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

    def test_add_one_preserves_differences(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(1000, 6))
        y = gen.normal(size=(1000, 6))
        before = np.linalg.norm(x - y, axis=1)
        after = np.linalg.norm((x + 1.0) - (y + 1.0), axis=1)
        # exact up to the rounding of the two shifts
        assert np.max(np.abs(before - after)) < 1e-9

    def test_bounded_change_identity(self):
        gen = np.random.default_rng(6)
        for p in (1, 2):
            e = gen.normal(size=(500, 8))
            alpha = e / p_norm(e, p)[:, None]
            lhs = p_norm(alpha * e, p)
            rhs = p_norm(e * e, p) / p_norm(e, p)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def _store_with(name, arr):
    store = ParameterStore()
    store.create(name, arr)
    return store


class TestBatchedAgainstReference:
    """et_build/et_apply equal the single-vector public operations rowwise."""

    def test_rscf_rows(self):
        gen = np.random.default_rng(8)
        store = _store_with("a1", gen.normal(size=(4, 4)))
        spec = FilterSpec("rscf", p=2)
        rel = gen.normal(size=(6, 4))
        ents = gen.normal(size=(6, 4))
        op = et_build(spec, store, rel, np.arange(6) % 2, 4)
        batched = et_apply(op, ents)
        for i in range(6):
            ref = rscf_entity_transform(ents[i], rel[i], store["a1"], p=2)
            assert np.allclose(batched[i], ref, atol=1e-12)

    def test_sfbr_rows(self):
        gen = np.random.default_rng(9)
        weights = gen.normal(size=(3, 5))
        bias = gen.normal(size=(3, 5))
        store = ParameterStore()
        store.create("sfbr_w", weights)
        store.create("sfbr_b", bias)
        spec = FilterSpec("sfbr_diag")
        rows = np.array([0, 2, 1, 1])
        ents = gen.normal(size=(4, 5))
        op = et_build(spec, store, None, rows, 5)
        batched = et_apply(op, ents)
        params = SfbrParams("diag", weights, bias)
        for i, row in enumerate(rows):
            assert np.allclose(batched[i], sfbr_transform(ents[i], int(row), params))

    def test_sfbr_n_rows(self):
        gen = np.random.default_rng(10)
        weights = gen.normal(size=(3, 4))
        store = _store_with("sfbr_w", weights)
        spec = FilterSpec("sfbr_n", p=1)
        rows = np.array([2, 0, 1])
        ents = gen.normal(size=(3, 4))
        op = et_build(spec, store, None, rows, 4)
        batched = et_apply(op, ents)
        params = SfbrParams("n", weights)
        for i, row in enumerate(rows):
            assert np.allclose(batched[i],
                               sfbr_transform(ents[i], int(row), params, p=1))

    def test_candidate_axis_matches_loop(self):
        gen = np.random.default_rng(11)
        store = _store_with("a1", gen.normal(size=(4, 4)))
        spec = FilterSpec("rscf")
        rel = gen.normal(size=(2, 4))
        cands = gen.normal(size=(2, 7, 4))
        op = et_build(spec, store, rel, np.array([0, 1]), 4)
        batched = et_apply(op, cands)
        for q in range(2):
            for k in range(7):
                ref = rscf_entity_transform(cands[q, k], rel[q], store["a1"])
                assert np.allclose(batched[q, k], ref, atol=1e-12)


class TestNormalizeRowsVjp:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_finite_differences(self, p):
        gen = np.random.default_rng(12)
        x = gen.normal(size=(3, 5))
        x[np.abs(x) < 0.05] += 0.1  # stay off the l1 kink
        d_unit = gen.normal(size=(3, 5))
        unit, norms, live = normalize_rows(x, p)
        dx = normalize_rows_vjp(x, unit, norms, live, d_unit, p)
        eps = 1e-7
        for i in range(3):
            for j in range(5):
                bumped = x.copy()
                bumped[i, j] += eps
                up = normalize_rows(bumped, p)[0]
                bumped[i, j] -= 2 * eps
                down = normalize_rows(bumped, p)[0]
                fd = np.sum((up - down) * d_unit) / (2 * eps)
                assert abs(fd - dx[i, j]) < 1e-6

    @pytest.mark.parametrize("p", [1, 2])
    def test_dead_rows_are_positive_zero_and_live_rows_divided(self, p):
        gen = np.random.default_rng(14)
        x = gen.normal(size=(2, 4, 5))
        x[0, 1] = -1e-30  # below DEFAULT_ZERO_EPS: a dead row of negative values
        x[1, 3] = 0.0
        unit, norms, live = normalize_rows(x, p)
        assert live.tolist() == [[True, False, True, True], [True, True, True, False]]
        want = np.where(live[..., None], x / norms[..., None], 0.0)
        assert unit.tobytes() == want.tobytes()

    def test_dead_rows_zero_gradient(self):
        x = np.zeros((2, 3))
        unit, norms, live = normalize_rows(x, 2)
        dx = normalize_rows_vjp(x, unit, norms, live, np.ones((2, 3)), 2)
        assert np.array_equal(dx, np.zeros((2, 3)))


class TestLinear2AddOneModes:
    def test_diag_mode_zero_change_is_identity(self):
        gen = np.random.default_rng(13)
        store = _store_with("a1", np.zeros((4, 8)))
        spec = FilterSpec("rscf_linear2", linear2_add_one="diag")
        ents = gen.normal(size=(2, 4))
        op = et_build(spec, store, gen.normal(size=(2, 4)), np.array([0, 1]), 4)
        assert np.allclose(et_apply(op, ents), ents)

    def test_full_mode_zero_change_mixes_halves(self):
        store = _store_with("a1", np.zeros((4, 8)))
        spec = FilterSpec("rscf_linear2", linear2_add_one="full")
        ents = np.array([[1.0, 2.0, 10.0, 20.0]])
        op = et_build(spec, store, np.ones((1, 4)), np.array([0]), 4)
        out = et_apply(op, ents)
        # all-ones blocks: out halves are e1 + e2
        assert np.allclose(out, [[11.0, 22.0, 11.0, 22.0]])


def _reference_filter(spec, store, e, rel_row, rel_id):
    """The single-vector filter of one entity row under one relation."""
    if spec.kind == "none":
        return e
    if spec.kind == "rscf":
        return rscf_entity_transform(e, rel_row, store["a1"], p=spec.p)
    if spec.kind == "rscf_linear2":  # the "diag" mode: ones on w1 and w4
        blocks = p_normalize(rel_row @ store["a1"], spec.p)
        blocks = np.zeros(2 * e.size) if blocks is ZERO_CHANGE else blocks.copy()
        quarter = e.size // 2
        blocks[:quarter] += 1.0
        blocks[3 * quarter:] += 1.0
        return build_linear2_matrix(blocks).apply(e)
    variant = spec.kind.removeprefix("sfbr_")
    bias = store["sfbr_b"] if variant == "diag" else None
    return sfbr_transform(e, rel_id, SfbrParams(variant, store["sfbr_w"], bias), p=spec.p)


class TestQuerySide:
    """query_side is the one place that knows a query's direction: the head
    side is filtered by any filter and conditions the relation through A2,
    the tail side is filtered only under head_and_tail and conditions it
    through A3. Checked against the single-vector reference transforms."""

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_matches_single_vector_reference(self, kind):
        model = ModelSpec("transe", 4)
        checked = 0
        for fixed_is_head, apply_to, rt, p in itertools.product(
                (True, False), ("head_and_tail", "head_only"), (False, True), (1, 2)):
            spec = FilterSpec(kind, p=p, apply_to=apply_to, rt_enabled=rt)
            rng = Rng(checked)
            store = build_store(model, spec, 6, 3, rng, init_scale=0.4)
            for name, table in store.tables.items():
                table += rng.derive(f"jitter:{name}").generator().normal(0.0, 0.3,
                                                                         table.shape)
            ent, rel_ids = store["entity"], np.array([2, 0, 1, 2])
            fixed, cand = ent[[0, 3, 5, 1]], ent[[4, 4, 2, 0]]
            rel = store["relation"][rel_ids]
            op = et_build(spec, store, rel, rel_ids, model.dim)
            side = query_side(spec, store, fixed_is_head, fixed, rel, op)
            cand_f = et_apply(side.cand_op, cand)
            cand_rt = rt_factor(store, side.cand_which, cand, p).factor if rt else 1.0
            head_on = kind != "none"
            tail_on = head_on and apply_to == "head_and_tail"
            fixed_on, cand_on = (head_on, tail_on) if fixed_is_head else (tail_on, head_on)
            key = (fixed_is_head, apply_to, rt, p)
            assert side.fixed is fixed and side.rel is rel, key
            assert (side.rt is None) == (not rt), key
            if not rt:
                assert side.rel_t is rel, key
            for i, rel_id in enumerate(rel_ids.tolist()):
                want_fixed = _reference_filter(spec, store, fixed[i], rel[i], rel_id)
                want_cand = _reference_filter(spec, store, cand[i], rel[i], rel_id)
                assert np.allclose(side.fixed_f[i], want_fixed if fixed_on else fixed[i],
                                   rtol=0, atol=1e-12), key
                assert np.allclose(cand_f[i], want_cand if cand_on else cand[i],
                                   rtol=0, atol=1e-12), key
                if rt:
                    head, tail = (fixed[i], cand[i]) if fixed_is_head else (cand[i], fixed[i])
                    want = rscf_relation_transform(rel[i], head, tail, store["a2"],
                                                   store["a3"], p=p)
                    assert np.allclose(side.rel_t[i] * cand_rt[i], want,
                                       rtol=0, atol=1e-12), key
                    # the fixed side's own factor: A2 on a head, A3 on a tail
                    alone = rscf_relation_transform(
                        rel[i], fixed[i], None, store["a2" if fixed_is_head else "a3"],
                        p=p, head_only=True)
                    assert np.allclose(side.rel_t[i], alone, rtol=0, atol=1e-12), key
            checked += 1
        assert checked == 2 * 2 * 2 * 2

    @pytest.mark.parametrize("kind", ["cp", "complex", "rescal"])
    def test_tensor_query_is_the_head_side(self, kind):
        """A tensor model's query scores a candidate as the reference scores
        the filtered head, the relation conditioned through A2, and the
        candidate."""
        model = ModelSpec(kind, 4)
        spec = FilterSpec("rscf", apply_to="head_only", rt_enabled=True)
        store = build_store(model, spec, 6, 3, Rng(3), init_scale=0.4)
        ent, lhs_ids, rel_rows = store["entity"], np.array([0, 3, 5]), np.array([2, 0, 1])
        q, _ = tdm_forward(spec, store, model, lhs_ids, rel_rows)
        for i, (h, r) in enumerate(zip(lhs_ids, rel_rows)):
            rel = store["relation"][r]
            h_f = rscf_entity_transform(ent[h], rel, store["a1"], p=spec.p)
            rel_t = rscf_relation_transform(rel, ent[h], None, store["a2"], p=spec.p,
                                            head_only=True)
            want = [score(model, h_f, rel_t, e) for e in ent]
            assert np.allclose(ent @ q[i], want, rtol=0, atol=1e-12), (kind, i)
