import tracemalloc

import numpy as np
import pytest

import rscf.tensor as tensor_module
from rscf.errors import InvalidScheme, NonFiniteLoss, ShapeMismatch
from rscf.reference import fnv1a_bytewise
from rscf.tensor import (
    FNV_BLOCK,
    FNV_LOOP_BELOW,
    ParameterStore,
    Rng,
    finite_difference_check,
    fnv1a,
    init_embeddings,
)

FNV_LENGTHS = sorted({*range(301), 63, 64, 65, FNV_LOOP_BELOW - 1, FNV_LOOP_BELOW,
                      FNV_LOOP_BELOW + 1, FNV_BLOCK - 1, FNV_BLOCK, FNV_BLOCK + 1,
                      3 * FNV_BLOCK + 17})
FNV_STATES = [0xCBF29CE484222325, 0, (1 << 64) - 1,
              *(int(v) for v in np.random.default_rng(1).integers(
                  0, 1 << 64, size=3, dtype=np.uint64))]


class TestFnv1a:
    def test_known_vectors(self):
        assert fnv1a(b"") == 0xCBF29CE484222325
        assert fnv1a("a") == 0xAF63DC4C8601EC8C
        assert fnv1a(b"foobar") == 0x85944171F73967E8

    @pytest.mark.parametrize("loop_below", [FNV_LOOP_BELOW, 0])  # 0: kernel only
    @pytest.mark.parametrize("h", FNV_STATES, ids=hex)
    def test_matches_byte_loop_at_every_length(self, h, loop_below, monkeypatch):
        monkeypatch.setattr(tensor_module, "FNV_LOOP_BELOW", loop_below)
        data = np.random.default_rng(h % 997).integers(
            0, 256, size=max(FNV_LENGTHS), dtype=np.uint8).tobytes()
        for n in FNV_LENGTHS:
            assert fnv1a(data[:n], h) == fnv1a_bytewise(data[:n], h), n

    @pytest.mark.parametrize("byte", [b"\0", b"\xff", b"\xb3"])
    def test_repeated_byte(self, byte):
        for h in FNV_STATES:
            assert fnv1a(byte * 5000, h) == fnv1a_bytewise(byte * 5000, h)

    def test_buffer_types(self):
        data = np.random.default_rng(3).integers(
            0, 256, size=2 * FNV_BLOCK + 5, dtype=np.uint8).tobytes()
        want = fnv1a_bytewise(data)
        assert fnv1a(bytearray(data)) == want
        assert fnv1a(memoryview(data)) == want
        assert fnv1a(memoryview(np.frombuffer(data, dtype=np.uint8))) == want
        text = "Zürich → 東京 ✓ " * 400
        assert len(text.encode("utf-8")) > FNV_LOOP_BELOW
        assert fnv1a(text) == fnv1a_bytewise(text) == fnv1a(text.encode("utf-8"))

    def test_scratch_memory_is_bounded_by_the_block(self):
        data = np.random.default_rng(4).integers(
            0, 256, size=4 << 20, dtype=np.uint8).tobytes()
        tracemalloc.start()
        try:
            got = fnv1a(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a kernel sized by the input would need 8 bytes per input byte
        assert peak < 32 * FNV_BLOCK < len(data)
        assert got == fnv1a_bytewise(data)


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

    @pytest.mark.parametrize("rng,labels,stream", [
        (Rng(0), ("negatives",), 0xAE68C1A8D77C45CB),
        (Rng(0), ("shuffle",), 0x2CE0B1DFA0EF1ACE),
        (Rng(0), ("init:entity",), 0xA3F3C681EE8537D4),
        (Rng(0), ("",), 0xA8C7F832281A39C5),
        (Rng(0), ("épοch",), 0x7A3583626960632B),
        (Rng(0), (0,), 0x88201FB960FF6465),
        (Rng(0), (1,), 0x692558B056101A44),
        (Rng(0), (2**64 - 1,), 0x821E65573BEFF6DD),
        (Rng(2**63 + 5, 7), ("negatives",), 0x7B335A1062D9A702),
        (Rng(2**63 + 5, 7), (1,), 0xBA20A56A32AF65C3),
        (Rng(3), ("epoch", 4, "negatives"), 0x6A5DF64E5B9ECBD4),
        (Rng(5), (2, "shuffle", "x"), 0x2771D65915B1DF21),
        (Rng(11), ("epoch", 0, "shuffle"), 0x3B99534DE6C9CA66),
        (Rng(0), ("L" * 3000,), 0x0929ADB85802F945),
        (Rng(0, 9), ("ü" * 700,), 0x253DA47030BDCBBC),
        (Rng(0, 9), ("ü" * 800,), 0x5D98572E9954D22C),
    ])
    def test_derive_known_answers(self, rng, labels, stream):
        for label in labels:
            rng = rng.derive(label)
        assert rng.stream == stream

    def test_derived_generators_known_answers(self):
        shuffle = Rng(11).derive("epoch").derive(0).derive("shuffle").generator()
        assert shuffle.permutation(10).tolist() == [7, 2, 3, 4, 8, 1, 9, 6, 5, 0]
        negs = Rng(3).derive("epoch").derive(4).derive("negatives").generator()
        assert negs.integers(0, 1000, 5).tolist() == [866, 14, 246, 171, 789]
        init = Rng(7).derive("init:entity").generator().normal(size=3)
        assert init.tolist() == [-0.43398014704670956, -1.6695213046459052,
                                 -0.6439145012268946]


class TestInitEmbeddings:
    def test_zero_sigma_gives_zeros(self):
        table = init_embeddings(2, 3, "gaussian", Rng(0), init_scale=0.0)
        assert np.array_equal(table, np.zeros((2, 3)))

    def test_bitwise_deterministic(self):
        a = init_embeddings(50, 8, "gaussian", Rng(11), 0.1)
        b = init_embeddings(50, 8, "gaussian", Rng(11), 0.1)
        assert np.array_equal(a, b)

    def test_sample_stddev_matches(self):
        table = init_embeddings(12_500, 8, "gaussian", Rng(2), init_scale=0.1)
        assert abs(table.std() - 0.1) < 0.005

    def test_uniform_bound(self):
        table = init_embeddings(100, 16, "uniform", Rng(4), init_scale=1.0)
        bound = 6.0 / np.sqrt(16)
        assert np.abs(table).max() <= bound

    def test_invalid_scheme(self):
        with pytest.raises(InvalidScheme):
            init_embeddings(2, 2, "xavier", Rng(0))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_analytic_coordinate_fails(self, bad):
        store = ParameterStore()
        store.create("x", np.array([[1.0, -2.0, 3.0]]))
        loss = lambda: float(np.sum(store["x"] ** 2))
        grad = 2.0 * store["x"]
        assert finite_difference_check(loss, store, {"x": grad}).max_rel_error < 1e-9
        grad[0, 1] = bad
        report = finite_difference_check(loss, store, {"x": grad})
        assert report.max_rel_error == np.inf
        assert report.per_table["x"] == np.inf

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
