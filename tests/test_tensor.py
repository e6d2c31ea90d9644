import numpy as np
import pytest

from rscf.errors import InvalidScheme, NonFiniteLoss, ShapeMismatch
from rscf.tensor import (
    EmbeddingTable,
    ParameterStore,
    Rng,
    finite_difference_check,
    fnv1a,
    init_embeddings,
)


class TestFnv1a:
    def test_known_vectors(self):
        assert fnv1a(b"") == 0xCBF29CE484222325
        assert fnv1a("a") == 0xAF63DC4C8601EC8C
        assert fnv1a(b"foobar") == 0x85944171F73967E8


class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(7).generator().normal(size=100)
        b = Rng(7).generator().normal(size=100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(7, 0).generator().normal(size=100)
        b = Rng(7, 1).generator().normal(size=100)
        assert not np.array_equal(a, b)

    def test_derive_is_stable(self):
        assert Rng(3).derive("negatives").stream == Rng(3).derive("negatives").stream
        assert Rng(3).derive("negatives").stream != Rng(3).derive("shuffle").stream

    def test_derive_chain_depends_on_parent(self):
        assert Rng(3).derive("a").derive(1).stream != Rng(3).derive("b").derive(1).stream


class TestInitEmbeddings:
    def test_zero_sigma_gives_zeros(self):
        table = init_embeddings(2, 3, "gaussian", Rng(0), init_scale=0.0)
        assert np.array_equal(table.data, np.zeros((2, 3)))

    def test_bitwise_deterministic(self):
        a = init_embeddings(50, 8, "gaussian", Rng(11), 0.1)
        b = init_embeddings(50, 8, "gaussian", Rng(11), 0.1)
        assert np.array_equal(a.data, b.data)

    def test_sample_stddev_matches(self):
        table = init_embeddings(12_500, 8, "gaussian", Rng(2), init_scale=0.1)
        assert abs(table.data.std() - 0.1) < 0.005

    def test_uniform_bound(self):
        table = init_embeddings(100, 16, "uniform", Rng(4), init_scale=1.0)
        bound = 6.0 / np.sqrt(16)
        assert np.abs(table.data).max() <= bound

    def test_invalid_scheme(self):
        with pytest.raises(InvalidScheme):
            init_embeddings(2, 2, "xavier", Rng(0))

    def test_table_invariants(self):
        with pytest.raises(Exception):
            EmbeddingTable(2, 2, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            EmbeddingTable(1, 2, np.array([[np.nan, 1.0]]))


def _quadratic_store():
    store = ParameterStore()
    store.create("x", np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.5]]))
    return store


class TestParameterStore:
    def test_create_adopts_a_given_accumulator(self):
        store = ParameterStore(np.float32)
        acc = np.full((2, 3), 0.5, dtype=np.float32)
        store.create("x", np.ones((2, 3)), acc=acc)
        assert store.acc["x"] is acc
        store.create("y", np.ones((2, 3)))
        assert store.acc["y"].dtype == np.float32 and not store.acc["y"].any()
        clone = store.clone()
        assert np.array_equal(clone.acc["x"], acc) and clone.acc["x"] is not acc
        with pytest.raises(ShapeMismatch):
            store.create("z", np.ones((2, 3)), acc=np.ones((3, 2)))


class TestFiniteDifferenceCheck:
    def test_quadratic_is_exact(self):
        store = _quadratic_store()
        loss = lambda: float(np.sum(store["x"] ** 2))
        report = finite_difference_check(loss, store, {"x": 2.0 * store["x"]},
                                         eps=1e-5, rng=Rng(0))
        assert report.max_rel_error < 1e-9

    def test_detects_doubled_gradient(self):
        store = _quadratic_store()
        loss = lambda: float(np.sum(store["x"] ** 2))
        report = finite_difference_check(loss, store, {"x": 4.0 * store["x"]},
                                         eps=1e-5, rng=Rng(0))
        assert abs(report.max_rel_error - 0.5) < 1e-3

    def test_non_finite_loss(self):
        store = _quadratic_store()
        loss = lambda: float("nan")
        with pytest.raises(NonFiniteLoss):
            finite_difference_check(loss, store, {"x": np.zeros((2, 3))}, rng=Rng(0))

    def test_subsampling_cap(self):
        store = ParameterStore()
        store.create("big", np.zeros((100, 10)))
        calls = []
        loss = lambda: calls.append(1) or 0.0
        finite_difference_check(loss, store, {"big": np.zeros((100, 10))},
                                rng=Rng(0), coords_per_table=64)
        assert len(calls) == 128  # two evaluations per sampled coordinate


class TestNaiveReference:
    """numpy kernels agree with naive triple loops on small inputs."""

    def test_elementwise_and_matvec(self):
        gen = np.random.default_rng(3)
        for dim in (1, 5, 16):
            a = gen.normal(size=dim)
            b = gen.normal(size=dim)
            m = gen.normal(size=(dim, dim))
            ew = np.array([a[i] * b[i] for i in range(dim)])
            mv = np.array([sum(a[i] * m[i][j] for i in range(dim)) for j in range(dim)])
            assert np.max(np.abs(a * b - ew)) < 1e-12
            assert np.max(np.abs(a @ m - mv)) < 1e-12


class TestAccumulatorMonotonicity:
    def test_adagrad_accumulators_never_decrease(self):
        from rscf.objectives import GradientBuffer, optimizer_step

        store = ParameterStore()
        store.create("w", np.ones((4, 3)))
        gen = np.random.default_rng(0)
        prev = store.acc["w"].copy()
        for _ in range(20):
            buf = GradientBuffer(store)
            buf.add_rows("w", gen.integers(0, 4, size=2),
                         gen.normal(size=(2, 3)))
            optimizer_step(store, buf, "adagrad", lr=0.1)
            assert np.all(store.acc["w"] >= prev)
            prev = store.acc["w"].copy()
