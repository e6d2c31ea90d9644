import numpy as np
import pytest

from rscf import evaluation
from rscf.analysis import (
    ConsistencySimConfig,
    cluster_report,
    dura_sign_check,
    dura_sign_gradient,
    embedding_scale,
    export_score_distribution,
    inter_cluster_distance,
    intra_cluster_distance,
    monte_carlo_consistency,
    scale_trace,
)
from rscf.data import Dataset
from rscf.errors import DegenerateCentroid, NoFilter, SingleCluster
from rscf.evaluation import CandidateScorer
from rscf.models import ModelSpec
from rscf.objectives import LossConfig, build_store
from rscf.tensor import Rng
from rscf.trainer import Checkpoint, TrainConfig
from rscf.transforms import FilterSpec

from test_evaluation import _per_query_scores


class TestIntraClusterDistance:
    def test_hand_fixture(self):
        per, mean = intra_cluster_distance([[(1.0, 0.0), (3.0, 0.0)]])
        assert abs(per[0] - 0.5) < 1e-9
        assert abs(mean - 0.5) < 1e-9

    def test_singleton_cluster_is_zero(self):
        per, mean = intra_cluster_distance([[(2.0, 2.0)]])
        assert per == [0.0] and mean == 0.0

    def test_origin_centroid_raises(self):
        with pytest.raises(DegenerateCentroid):
            intra_cluster_distance([[(1.0, 0.0), (-1.0, 0.0)]])

    def test_literal_count_variant(self):
        clusters = [[(1.0, 0.0), (3.0, 0.0)], [(0.0, 2.0), (0.0, 4.0)]]
        per, total = intra_cluster_distance(clusters, literal_n=True)
        # summed relative distances 1.0 and 2/3, each divided by n=2 clusters
        assert np.allclose(per, [0.5, 1.0 / 3.0])
        assert abs(total - 5.0 / 6.0) < 1e-9

    def test_element_order_invariance(self):
        a = [[(1.0, 2.0), (3.0, -1.0), (0.5, 0.5)], [(5.0, 5.0), (4.0, 6.0)]]
        b = [[(0.5, 0.5), (1.0, 2.0), (3.0, -1.0)], [(4.0, 6.0), (5.0, 5.0)]]
        assert intra_cluster_distance(a)[1] == intra_cluster_distance(b)[1]


class TestInterClusterDistance:
    def test_hand_fixture(self):
        per, _ = inter_cluster_distance([[(0.0, 0.0)], [(3.0, 4.0)]])
        assert per[0] is None  # zero norm sum: undefined, excluded
        assert abs(per[1] - 1.0) < 1e-9

    def test_duplicate_centroids_give_zero(self):
        per, mean = inter_cluster_distance([[(1.0, 1.0)], [(1.0, 1.0)]])
        assert per == [0.0, 0.0] and mean == 0.0

    def test_single_cluster_raises(self):
        with pytest.raises(SingleCluster):
            inter_cluster_distance([[(1.0, 0.0)]])

    def test_nearest_centroid_matches_exhaustive_scan(self):
        gen = np.random.default_rng(2)
        clusters = [gen.normal(size=(4, 3)) + off for off in (0.0, 3.0, -2.0, 7.0)]
        per, _ = inter_cluster_distance(clusters)
        centroids = [c.mean(axis=0) for c in clusters]
        for k, cluster in enumerate(clusters):
            manual = min(np.linalg.norm(centroids[k] - centroids[j])
                         for j in range(4) if j != k)
            denom = np.linalg.norm(cluster, axis=1).sum()
            assert abs(per[k] - manual / denom) < 1e-12

    def test_report_bundles_both(self):
        gen = np.random.default_rng(3)
        clusters = [gen.normal(size=(5, 4)) + 2.0, gen.normal(size=(3, 4)) - 2.0]
        report = cluster_report(clusters)
        assert report.sizes == [5, 3]
        assert report.intra_mean >= 0 and report.inter_mean >= 0


def _checkpoint(kind="cp", filter_kind="rscf", rt=False, dim=16, seed=0,
                entities=10, relations=3, init_scale=0.3):
    model = ModelSpec(kind, dim)
    filt = FilterSpec(filter_kind, rt_enabled=rt,
                      apply_to="head_only" if model.is_tdm else "head_and_tail")
    store = build_store(model, filt, entities, relations, Rng(seed),
                        init_scale=init_scale)
    names = [f"e{i}" for i in range(entities)]
    rels = [f"r{j}" for j in range(relations)]
    raw = [(names[i], rels[i % relations], names[(i + 1) % entities])
           for i in range(entities)]
    ds = Dataset.from_raw(raw, [], [])
    cfg = TrainConfig(model=model, filter=filt,
                      loss=LossConfig(), epochs=0)
    return Checkpoint(1, cfg, ds.vocabulary, store, 0), ds


class TestScaleTrace:
    def test_inert_rscf_reads_exactly_one(self):
        ckpt, ds = _checkpoint("cp", "rscf")
        ckpt.store.tables["a1"][:] = 0.0  # degenerate change -> ones factor
        record = scale_trace(ckpt.store, ckpt.model, ckpt.filter,
                             ds.split_array("train"))
        assert record.transformation_scale == 1.0

    def test_zero_sfbr_diag_reads_zero(self):
        ckpt, ds = _checkpoint("cp", "sfbr_diag")
        ckpt.store.tables["sfbr_w"][:] = 0.0
        ckpt.store.tables["sfbr_b"][:] = 0.0
        record = scale_trace(ckpt.store, ckpt.model, ckpt.filter,
                             ds.split_array("train"))
        assert record.transformation_scale == 0.0

    def test_rscf_scale_within_unit_band(self):
        # factor = N_2(rA) + 1 with a unit change: norm within sqrt(dim) +- 1
        ckpt, ds = _checkpoint("cp", "rscf", seed=5)
        record = scale_trace(ckpt.store, ckpt.model, ckpt.filter,
                             ds.split_array("train"))
        dim = ckpt.model.dim
        band = 1.0 / np.sqrt(dim)
        assert 1.0 - band <= record.transformation_scale <= 1.0 + band

    def test_rscf_factor_coordinates_stay_in_zero_two(self):
        from rscf.transforms import et_build

        ckpt, ds = _checkpoint("cp", "rscf", seed=8)
        rows = ds.split_array("train")[:, 1]
        op = et_build(ckpt.filter, ckpt.store, ckpt.store["relation"][rows],
                      rows, ckpt.model.dim)
        factors = op.factor_vectors()
        assert factors.min() >= 0.0 and factors.max() <= 2.0

    def test_no_filter_raises(self):
        ckpt, ds = _checkpoint("cp", "none")
        with pytest.raises(NoFilter):
            scale_trace(ckpt.store, ckpt.model, ckpt.filter,
                        ds.split_array("train"))

    def test_embedding_scale_matches_norm_mean(self):
        ckpt, ds = _checkpoint("cp", "none")
        heads = ds.split_array("train")[:, 0]
        expected = np.mean(np.linalg.norm(ckpt.store["entity"][heads], axis=1))
        assert abs(embedding_scale(ckpt.store, 2, heads) - expected) < 1e-12


class TestScoreDistributionExport:
    def test_shape_and_rows(self, tmp_path, monkeypatch):
        ckpt, _ = _checkpoint("complex", "rscf", entities=7)
        ent = ckpt.store["entity"]
        # one-row blocks: each exported row is the one-query scorer's
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", ent.shape[0] * ent.itemsize)
        queries = [(0, 0), (3, 2), (5, 1)]
        path = tmp_path / "scores.csv"
        matrix = export_score_distribution(ckpt, queries, path)
        assert matrix.shape == (3, 7)
        scorer = CandidateScorer(ckpt.store, ckpt.model, ckpt.filter)
        for row, (h, r) in zip(matrix, queries):
            assert np.array_equal(row, scorer.tail_scores(h, r))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(str(e) for e in range(7))
        assert len(lines) == 4

    @pytest.mark.parametrize("kind", ["complex", "transe"])
    def test_multi_row_blocks_match_per_query_oracle(self, tmp_path, kind):
        ckpt, _ = _checkpoint(kind, "rscf", rt=kind == "transe", entities=7)
        ent = ckpt.store["entity"]
        queries = [(0, 0), (3, 2), (5, 1)]
        assert evaluation.SCORE_BLOCK_BYTES >= len(queries) * ent.size * ent.itemsize
        matrix = export_score_distribution(ckpt, queries, tmp_path / "scores.csv")
        for row, (h, r) in zip(matrix, queries):
            want = _per_query_scores(ckpt.store, ckpt.model, ckpt.filter, "tail", h, r)
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["complex", "transe"])
    def test_every_block_lands_in_its_rows(self, tmp_path, monkeypatch, kind, rows):
        """Seven queries in blocks of `rows`, the last one shorter where 7 is
        not a multiple: a block is valid only until the next is drawn, so the
        matrix must hold a copy of each."""
        ckpt, _ = _checkpoint(kind, "rscf", rt=kind == "transe", entities=7)
        ent = ckpt.store["entity"]
        per_row = ent.shape[0] if ckpt.model.is_tdm else ent.size
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", rows * per_row * ent.itemsize)
        queries = [(0, 0), (3, 2), (5, 1), (6, 0), (1, 2), (2, 1), (4, 0)]
        matrix = export_score_distribution(ckpt, queries, tmp_path / "scores.csv")
        assert matrix.shape == (7, 7)
        scorer = CandidateScorer(ckpt.store, ckpt.model, ckpt.filter)
        for row, (h, r) in zip(matrix, queries):
            want = scorer.tail_scores(h, r)
            if rows == 1:
                assert np.array_equal(row, want)
            else:
                assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    def test_single_query_three_entities(self, tmp_path):
        ckpt, _ = _checkpoint("cp", "none", entities=3)
        matrix = export_score_distribution(ckpt, [(0, 0)], tmp_path / "s.csv")
        assert matrix.shape == (1, 3)


class TestMonteCarlo:
    def test_on_a_line_transformation_always_holds(self):
        cfg = ConsistencySimConfig(dim=8, samples=2000, seed=3)
        report = monte_carlo_consistency(cfg)
        assert report.rates["transformation"]["on_a_line"] == 1.0

    def test_add_one_row_is_exactly_one(self):
        cfg = ConsistencySimConfig(dim=8, samples=2000, seed=4)
        report = monte_carlo_consistency(cfg)
        for col in report.columns:
            assert report.rates["add_one"][col] == 1.0

    def test_rates_are_probabilities(self):
        report = monte_carlo_consistency(ConsistencySimConfig(dim=4, samples=500))
        for row in report.rates.values():
            for rate in row.values():
                assert 0.0 <= rate <= 1.0

    def test_seeded_reproducibility_and_worker_independence(self):
        a = monte_carlo_consistency(ConsistencySimConfig(dim=6, samples=800, seed=9))
        b = monte_carlo_consistency(ConsistencySimConfig(dim=6, samples=800, seed=9))
        assert a.rates == b.rates

    def test_table_shape(self):
        report = monte_carlo_consistency(ConsistencySimConfig(dim=4, samples=200))
        rates = report.rates
        assert len(rates) == 3 and all(len(row) == 4 for row in rates.values())

    @pytest.mark.parametrize("dim", [0, -2])
    def test_dim_below_one_rejected(self, dim):
        # dim 0 makes every sampled distance ratio NaN, so sampling would never end
        with pytest.raises(ValueError, match="dim"):
            ConsistencySimConfig(dim=dim, samples=10)


class TestDuraSignCheck:
    def test_positive_example(self):
        assert dura_sign_gradient(1.0, 1.0, 1.0) == 4.0

    def test_negative_example(self):
        assert dura_sign_gradient(-1.0, 1.0, 1.0) == -4.0

    def test_thousand_trials_no_failures(self):
        report = dura_sign_check(1000, Rng(12))
        assert report.trials == 1000
        assert report.passed
