import numpy as np
import pytest

from rscf.errors import ShapeMismatch
from rscf.models import (
    FRESH,
    ModelSpec,
    Workspace,
    dbm_scores,
    dbm_scores_vjp,
    gather,
    relation_scores,
    relation_scores_vjp,
    tdm_query,
    tdm_query_t,
    tdm_query_t_vjp,
    tdm_query_vjp,
)
from rscf.objectives import softmax
from rscf.reference import score, score_all_relations, score_all_tails


class TestModelSpec:
    def test_even_dim_required_for_pairs(self):
        with pytest.raises(ValueError):
            ModelSpec("rotate", 5)
        with pytest.raises(ValueError):
            ModelSpec("complex", 3)

    def test_relation_dims(self):
        assert ModelSpec("transe", 6).relation_dim == 6
        assert ModelSpec("rotate", 6).relation_dim == 3
        assert ModelSpec("rescal", 6).relation_dim == 36
        assert ModelSpec("cp", 6).relation_dim == 6


class TestScoreExamples:
    def test_transe_exact_translation(self):
        s = score(ModelSpec("transe", 2), [1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
        assert s == 0.0

    def test_cp_product(self):
        assert score(ModelSpec("cp", 1), [2.0], [3.0], [4.0]) == 24.0

    def test_rescal_dim1(self):
        assert score(ModelSpec("rescal", 1), [2.0], [3.0], [4.0]) == 24.0

    def test_rotate_half_rotation(self):
        s = score(ModelSpec("rotate", 2), [1.0, 0.0], [np.pi], [-1.0, 0.0])
        assert abs(s) < 1e-12

    def test_complex_unit(self):
        s = score(ModelSpec("complex", 2), [1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        assert s == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            score(ModelSpec("cp", 2), [1.0], [1.0, 2.0], [1.0, 2.0])


class TestScoreAllTails:
    def test_cp_dim1_values(self):
        scores = score_all_tails(ModelSpec("cp", 1), [1.0], [1.0],
                                 np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(scores, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("kind,dim", [("transe", 4), ("rotate", 4),
                                          ("cp", 4), ("complex", 4), ("rescal", 3)])
    def test_matches_scalar_loop(self, kind, dim):
        gen = np.random.default_rng(17)
        model = ModelSpec(kind, dim)
        h = gen.normal(size=dim)
        r = gen.normal(size=model.relation_dim)
        table = gen.normal(size=(10, dim))
        batched = score_all_tails(model, h, r, table)
        loop = [score(model, h, r, table[e]) for e in range(10)]
        assert np.allclose(batched, loop, atol=1e-12)

    def test_per_candidate_relations(self):
        gen = np.random.default_rng(18)
        model = ModelSpec("transe", 3)
        h = gen.normal(size=3)
        table = gen.normal(size=(5, 3))
        rels = gen.normal(size=(5, 3))
        batched = score_all_tails(model, h, None, table, relations=rels)
        loop = [score(model, h, rels[e], table[e]) for e in range(5)]
        assert np.allclose(batched, loop, atol=1e-12)


class TestTrilinearContractions:
    """The three batched readings of the tensor score agree with the scalar
    form: q(h, r) . t, q'(t, r) . h and m(h, t) . r all equal s(h, r, t)."""

    @pytest.mark.parametrize("kind,dim", [("cp", 6), ("complex", 6), ("rescal", 4)])
    def test_each_contraction_is_the_score(self, kind, dim):
        gen = np.random.default_rng(23)
        model = ModelSpec(kind, dim)
        h = gen.normal(size=(5, dim))
        t = gen.normal(size=(5, dim))
        table = gen.normal(size=(4, model.relation_dim))
        rel_scores = relation_scores(model, h, t, table)[0]
        for j, r in enumerate(table):
            rel = np.broadcast_to(r, (5, r.size))
            want = np.array([score(model, h[i], r, t[i]) for i in range(5)])
            got = (np.sum(tdm_query(kind, h, rel) * t, axis=-1),
                   np.sum(tdm_query_t(kind, t, rel) * h, axis=-1),
                   rel_scores[:, j])
            for values in got:
                np.testing.assert_allclose(values, want, rtol=1e-12, atol=0)


class TestScoreAllRelations:
    def test_cp_dim1_values(self):
        scores = score_all_relations(ModelSpec("cp", 1), [1.0], [2.0],
                                     np.array([[1.0], [3.0]]))
        assert np.allclose(scores, [2.0, 6.0])

    @pytest.mark.parametrize("kind,dim", [("transe", 4), ("rotate", 4),
                                          ("cp", 4), ("complex", 4), ("rescal", 3)])
    def test_matches_scalar_loop(self, kind, dim):
        gen = np.random.default_rng(19)
        model = ModelSpec(kind, dim)
        h = gen.normal(size=dim)
        t = gen.normal(size=dim)
        table = gen.normal(size=(7, model.relation_dim))
        batched = score_all_relations(model, h, t, table)
        loop = [score(model, h, table[j], t) for j in range(7)]
        assert np.allclose(batched, loop, atol=1e-12)

    def test_softmax_normalizes(self):
        scores = score_all_relations(ModelSpec("cp", 2), [1.0, 2.0], [0.5, -1.0],
                                     np.random.default_rng(0).normal(size=(6, 2)))
        assert abs(softmax(scores).sum() - 1.0) < 1e-12


class TestScoreGradients:
    """Analytic input-gradients of every kind vs central differences."""

    @pytest.mark.parametrize("kind,dim", [("cp", 6), ("complex", 6), ("rescal", 4)])
    def test_tdm_query_vjps(self, kind, dim):
        gen = np.random.default_rng(21)
        model = ModelSpec(kind, dim)
        lhs = gen.normal(size=(3, dim))
        rel = gen.normal(size=(3, model.relation_dim))
        cot = gen.normal(size=(3, dim))
        for fwd, vjp in ((tdm_query, tdm_query_vjp), (tdm_query_t, tdm_query_t_vjp)):
            d_lhs, d_rel = vjp(kind, lhs, rel, cot)
            eps = 1e-6
            for arr, grad in ((lhs, d_lhs), (rel, d_rel)):
                flat = arr.reshape(-1)
                for idx in np.random.default_rng(0).choice(flat.size, 10, replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = np.sum(fwd(kind, lhs, rel) * cot)
                    flat[idx] = orig - eps
                    down = np.sum(fwd(kind, lhs, rel) * cot)
                    flat[idx] = orig
                    fd = (up - down) / (2 * eps)
                    assert abs(fd - grad.reshape(-1)[idx]) < 1e-6 * max(1, abs(fd))

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_dbm_vjps(self, kind, p):
        gen = np.random.default_rng(22)
        dim = 6
        model = ModelSpec(kind, dim, distance_p=p)
        h = gen.normal(size=(2, 3, dim))
        rel = gen.normal(size=(2, 3, model.relation_dim))
        t = gen.normal(size=(2, 3, dim))
        cot = gen.normal(size=(2, 3))
        sc, cache = dbm_scores(kind, h, rel, t, p)
        d_h, d_rel, d_t = dbm_scores_vjp(kind, cache, cot, p)
        eps = 1e-7
        for arr, grad in ((h, d_h), (rel, d_rel), (t, d_t)):
            flat = arr.reshape(-1)
            for idx in np.random.default_rng(1).choice(flat.size, 12, replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = np.sum(dbm_scores(kind, h, rel, t, p)[0] * cot)
                flat[idx] = orig - eps
                down = np.sum(dbm_scores(kind, h, rel, t, p)[0] * cot)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad.reshape(-1)[idx]) < 2e-5 * max(1, abs(fd))

    @pytest.mark.parametrize("kind,dim", [("cp", 6), ("complex", 6), ("rescal", 3),
                                          ("transe", 6), ("rotate", 6)])
    def test_relation_scores_vjp(self, kind, dim):
        gen = np.random.default_rng(23)
        model = ModelSpec(kind, dim)
        h = gen.normal(size=(2, dim))
        t = gen.normal(size=(2, dim))
        table = gen.normal(size=(4, model.relation_dim))
        cot = gen.normal(size=(2, 4))
        sc, cache = relation_scores(model, h, t, table)
        d_h, d_t, d_table = relation_scores_vjp(model, h, t, table, cache, cot)
        eps = 1e-6
        for arr, grad in ((h, d_h), (t, d_t), (table, d_table)):
            flat = arr.reshape(-1)
            picks = np.random.default_rng(2).choice(flat.size, min(10, flat.size),
                                                    replace=False)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + eps
                up = np.sum(relation_scores(model, h, t, table)[0] * cot)
                flat[idx] = orig - eps
                down = np.sum(relation_scores(model, h, t, table)[0] * cot)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                assert abs(fd - grad.reshape(-1)[idx]) < 1e-5 * max(1, abs(fd))


class TestGather:
    """gather takes rows with np.take(mode="wrap"), so its range check is what
    makes ids outside [-n, n) raise IndexError as fancy indexing does."""

    @pytest.mark.parametrize("ws", [Workspace(), FRESH], ids=["workspace", "fresh"])
    def test_ids_behave_as_under_fancy_indexing(self, ws):
        table = np.arange(12.0).reshape(4, 3)
        for bad in (4, -5):
            with pytest.raises(IndexError):
                gather(ws, "rows", table, np.array([0, bad]))
        ids = np.array([[-1, 0], [3, -4]])
        assert np.array_equal(gather(ws, "rows", table, ids), table[ids])


class TestModelProperties:
    def test_transe_zero_iff_exact_translation(self):
        gen = np.random.default_rng(24)
        model = ModelSpec("transe", 5)
        h = gen.normal(size=5)
        r = gen.normal(size=5)
        assert score(model, h, r, h + r) == 0.0
        t = h + r + 0.01
        assert score(model, h, r, t) < 0.0

    def test_complex_conjugate_symmetry(self):
        # Re<h, r, conj(t)> = Re<t, conj(r), conj(h)>; score() conjugates its
        # third argument, so the right side is score(t, conj(r), h)
        gen = np.random.default_rng(25)
        model = ModelSpec("complex", 8)
        for _ in range(50):
            h = gen.normal(size=8)
            r = gen.normal(size=8)
            t = gen.normal(size=8)
            conj = lambda v: np.concatenate([v[:4], -v[4:]])
            lhs = score(model, h, r, t)
            rhs = score(model, t, conj(r), h)
            assert abs(lhs - rhs) < 1e-9

    def test_rotate_preserves_modulus(self):
        gen = np.random.default_rng(26)
        from rscf.models import _complex_rotate

        for _ in range(50):
            h = gen.normal(size=8)
            phases = gen.uniform(-np.pi, np.pi, size=4)
            rotated = _complex_rotate(h, phases)
            before = np.hypot(h[:4], h[4:])
            after = np.hypot(rotated[:4], rotated[4:])
            assert np.allclose(before, after, atol=1e-12)
