import itertools
import tracemalloc

import numpy as np
import pytest

from rscf import evaluation, objectives
from rscf import models as M
from rscf import transforms as T
from rscf.data import Dataset, build_filter_index, load_relation_groups
from rscf.errors import EmptySplit, GoldOutOfRange, NumericalError
from rscf.data import Vocabulary
from rscf.evaluation import (
    CandidateScorer,
    aggregate,
    aggregate_groups,
    collect_ranks,
    evaluate_split,
    filtered_rank,
    rank_block,
)
from rscf.models import ModelSpec
from rscf.objectives import LossConfig, build_store, sample_negatives, total_objective
from rscf.reference import ids_of, rscf_entity_transform, rscf_relation_transform, score
from rscf.tensor import Rng
from rscf.trainer import Checkpoint, TrainConfig
from rscf.transforms import FILTER_KINDS, FilterSpec


def _loop_rank(gold, scores, known_true):
    """Reference mid-rank: mask the known-true ids one by one, then count."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    keep = np.ones(n, dtype=bool)
    for e in known_true:
        if e != gold and 0 <= e < n:
            keep[e] = False
    kept = scores[keep]
    better = int(np.sum(kept > scores[gold]))
    tied = int(np.sum(kept == scores[gold])) - 1
    return 1.0 + better + 0.5 * tied


def _per_query_scores(store, model, filt, direction, fixed_id, rel_id):
    """Oracle for CandidateScorer: the per-query scorer the blocked one
    replaced. Tensor models score one (1, d) @ (d, N) row; distance models
    filter and rt-condition one fixed entity and every candidate from scratch."""
    ent = store["entity"]
    if model.is_tdm:
        if direction == "head":
            rel_id += store.meta["num_relations"]
        q, _ = T.tdm_forward(filt, store, model, np.asarray([fixed_id]),
                             np.asarray([rel_id]))
        return (q @ ent.T)[0]
    fixed_is_head = direction == "tail"
    rel_rows = np.asarray([rel_id])
    rel = store["relation"][rel_rows]
    op = T.et_build(filt, store, rel, rel_rows, model.dim)
    # the head side takes any filter and A2; the tail side a filter only
    # under head_and_tail, and A3
    tail_op = op if filt.apply_to == "head_and_tail" else None
    fixed_op, cand_op = (op, tail_op) if fixed_is_head else (tail_op, op)
    fixed_which, cand_which = ("a2", "a3") if fixed_is_head else ("a3", "a2")
    fixed = ent[np.asarray([fixed_id])]
    cand = ent[None, :, :]
    fixed_rel, cand_factor = rel, None
    if filt.rt_enabled:
        fixed_rel = T.rt_factor(store, fixed_which, fixed, filt.p).factor * rel
        cand_factor = T.rt_factor(store, cand_which, cand, filt.p).factor
    sc, _ = T.dbm_direction_scores(model, fixed_is_head, T.et_apply(fixed_op, fixed),
                                   fixed_rel, cand_op, cand, cand_factor)
    return sc[0]


class TestFilteredRank:
    def test_filter_removes_better_candidate(self):
        rank = filtered_rank(2, np.array([0.9, 0.5, 0.7]), {0, 2})
        assert rank == 1.0

    def test_tie_rule(self):
        rank = filtered_rank(0, np.zeros(5), set())
        assert rank == 3.0  # 1 + 0 + 4/2

    def test_gold_out_of_range(self):
        with pytest.raises(GoldOutOfRange):
            filtered_rank(9, np.zeros(3), set())

    def test_gold_always_kept(self):
        rank = filtered_rank(1, np.array([1.0, 0.5]), {0, 1})
        assert rank == 1.0

    def test_filtered_never_worse_than_raw(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            n = int(gen.integers(2, 12))
            scores = gen.normal(size=n)
            gold = int(gen.integers(n))
            known = set(int(x) for x in gen.integers(0, n, size=3))
            raw = filtered_rank(gold, scores, set())
            filt = filtered_rank(gold, scores, known)
            assert filt <= raw

    def test_matches_loop_reference_for_any_id_container(self):
        gen = np.random.default_rng(1)
        for _ in range(300):
            n = int(gen.integers(1, 15))
            # a few distinct values, so ties are common
            scores = gen.integers(0, 4, size=n).astype(float)
            if gen.random() < 0.3:
                scores[gen.integers(n)] = np.nan
            gold = int(gen.integers(n))
            # repeats, the gold id and ids outside [0, n) are all ignored
            known = [int(x) for x in gen.integers(-2, n + 2, size=int(gen.integers(0, 8)))]
            expected = _loop_rank(gold, scores, known)
            for container in (known, set(known), np.asarray(known, dtype=np.int64),
                              iter(known)):
                assert filtered_rank(gold, scores, container) == expected

    def test_nan_gold_keeps_its_direct_result(self):
        assert filtered_rank(1, np.full(5, np.nan), {1}) == 0.5


class TestRankBlock:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_loop_reference_on_random_blocks(self, dtype):
        gen = np.random.default_rng(2)
        for _ in range(40):
            total, n = 20, int(gen.integers(1, 15))
            # a few distinct values, so ties are common
            scores = gen.integers(0, 4, size=(total, n)).astype(dtype)
            scores += gen.normal(size=(total, n)).astype(dtype) * (gen.random() < 0.5)
            gold = gen.integers(0, n, size=total)
            # per-row known lists with repeats, the gold id, ids outside [0, n)
            # and empty lists, laid out back to back in one id array
            lists = [gen.integers(-2, n + 2, size=int(gen.integers(0, 8))) for _ in range(total)]
            for row in gen.choice(total, size=5, replace=False):
                lists[row] = np.append(lists[row], [gold[row], gold[row]])
            stop = np.cumsum([len(k) for k in lists])
            start = stop - [len(k) for k in lists]
            ids = np.concatenate(lists).astype(np.int64)
            want = [_loop_rank(gold[q], scores[q], lists[q]) for q in range(total)]
            for rows in (1, 3, total):
                got = np.concatenate([
                    rank_block(scores[lo:lo + rows], gold[lo:lo + rows], ids,
                               start[lo:lo + rows], stop[lo:lo + rows])
                    for lo in range(0, total, rows)])
                assert got.tolist() == want, rows

    def test_reads_known_ids_through_index_slices(self):
        gen = np.random.default_rng(4)
        ds = _grid_dataset(gen)
        arr = ds.split_array("test")
        num_e = ds.vocabulary.num_entities
        table = build_filter_index(ds).tail_index
        # gold tails with the queried relation shifted past the index's keys
        # half the time, so absent keys give empty slices
        rels = arr[:, 1] + ds.vocabulary.num_relations * (np.arange(len(arr)) % 2)
        start, stop = table.slices(arr[:, 0], rels)
        assert (start == stop).any() and (start < stop).any()
        for dtype in (np.float32, np.float64):
            scores = gen.integers(0, 3, size=(len(arr), num_e)).astype(dtype)
            got = rank_block(scores, arr[:, 2], table.ids, start, stop)
            want = [_loop_rank(g, s, ids_of(table, h, r).tolist())
                    for g, s, h, r in zip(arr[:, 2], scores, arr[:, 0], rels)]
            assert got.tolist() == want

    def test_gold_out_of_range(self):
        ids = np.zeros(0, dtype=np.int64)
        with pytest.raises(GoldOutOfRange, match="gold 3 outside"):
            rank_block(np.zeros((2, 3)), np.asarray([0, 3]), ids, np.zeros(2, int),
                       np.zeros(2, int))


def _fake_checkpoint(store, model, filt, vocab):
    cfg = TrainConfig(model=model, filter=filt,
                      loss=LossConfig(),
                      epochs=0)
    return Checkpoint(1, cfg, vocab, store, 0)


def _random_dataset(gen, num_entities, num_relations, n):
    raw = [(f"e{i}", "r0", f"e{(i + 1) % num_entities}") for i in range(num_entities)]
    raw += [("e0", f"r{j}", "e1") for j in range(num_relations)]
    raw += [(f"e{gen.integers(num_entities)}", f"r{gen.integers(num_relations)}",
             f"e{gen.integers(num_entities)}") for _ in range(n)]
    k = len(raw)
    return Dataset.from_raw(raw[: k - 8], raw[k - 8 : k - 4], raw[k - 4 :])


class TestEvaluateSplit:
    def test_single_entity_is_perfect(self):
        ds = Dataset.from_raw([("a", "r", "a")], [], [("a", "r", "a")])
        model = ModelSpec("cp", 2)
        store = build_store(model, FilterSpec("none", apply_to="head_only"),
                            1, 1, Rng(0))
        ckpt = _fake_checkpoint(store, model, FilterSpec("none", apply_to="head_only"),
                                ds.vocabulary)
        report = evaluate_split(ckpt, ds, "test")
        assert report.mrr == 1.0
        assert all(v == 1.0 for v in report.hits.values())

    def test_perfect_permutation_model(self):
        # RESCAL with an exact permutation operator ranks every query first
        n = 6
        raw = [(f"e{i}", "shift", f"e{(i + 1) % n}") for i in range(n)]
        ds = Dataset.from_raw(raw[:n], [], raw[:n])
        model = ModelSpec("rescal", n)
        filt = FilterSpec("none", apply_to="head_only")
        store = build_store(model, filt, n, 1, Rng(0), init_scale=0.0)
        store.tables["entity"][:] = np.eye(n)
        perm = np.zeros((n, n))
        for i in range(n):
            perm[i, (i + 1) % n] = 1.0
        store.tables["relation"][0] = perm.reshape(-1)
        store.tables["relation"][1] = perm.T.reshape(-1)  # reciprocal row
        ckpt = _fake_checkpoint(store, model, filt, ds.vocabulary)
        report = evaluate_split(ckpt, ds, "test")
        assert report.mrr == 1.0

    def test_empty_split(self):
        ds = Dataset.from_raw([("a", "r", "b")], [], [])
        model = ModelSpec("cp", 2)
        filt = FilterSpec("none", apply_to="head_only")
        store = build_store(model, filt, 2, 1, Rng(0))
        ckpt = _fake_checkpoint(store, model, filt, ds.vocabulary)
        with pytest.raises(EmptySplit):
            evaluate_split(ckpt, ds, "test")

    @pytest.mark.parametrize("kind", ["cp", "complex", "transe", "rotate"])
    def test_matches_hand_loop(self, kind):
        gen = np.random.default_rng(31)
        ds = _random_dataset(gen, 7, 2, 20)
        model = ModelSpec(kind, 4, gamma=2.0)
        filt = FilterSpec("none",
                          apply_to="head_only" if model.is_tdm else "head_and_tail")
        store = build_store(model, filt, 7, 2, Rng(3), init_scale=0.3)
        ckpt = _fake_checkpoint(store, model, filt, ds.vocabulary)
        report = evaluate_split(ckpt, ds, "test")
        index = build_filter_index(ds)
        recips = []
        for h, r, t in ds.test:
            for gold, scores, known in (
                (t, _per_query_scores(store, model, filt, "tail", h, r),
                 set(ids_of(index.tail_index, h, r).tolist())),
                (h, _per_query_scores(store, model, filt, "head", t, r),
                 set(ids_of(index.head_index, r, t).tolist())),
            ):
                keep = [e for e in range(7) if e == gold or e not in known]
                s_gold = scores[gold]
                better = sum(1 for e in keep if scores[e] > s_gold)
                tied = sum(1 for e in keep if scores[e] == s_gold) - 1
                recips.append(1.0 / (1 + better + tied / 2))
        assert abs(report.mrr - np.mean(recips)) < 1e-12

    def test_dbm_scorer_applies_entity_filter_per_candidate(self):
        gen = np.random.default_rng(33)
        model = ModelSpec("transe", 4)
        filt = FilterSpec("rscf", apply_to="head_and_tail")
        store = build_store(model, filt, 6, 2, Rng(5), init_scale=0.4)
        scorer = CandidateScorer(store, model, filt)
        scores = scorer.tail_scores(2, 1)
        rel = store["relation"][1]
        h_f = rscf_entity_transform(store["entity"][2], rel, store["a1"])
        for e in range(6):
            t_f = rscf_entity_transform(store["entity"][e], rel, store["a1"])
            assert abs(scores[e] - score(model, h_f, rel, t_f)) < 1e-12

    def test_dbm_scorer_applies_rt_factors_on_both_sides(self):
        model = ModelSpec("transe", 4)
        filt = FilterSpec("none", apply_to="head_and_tail", rt_enabled=True)
        store = build_store(model, filt, 6, 2, Rng(6), init_scale=0.4)
        scorer = CandidateScorer(store, model, filt)
        ent, rel = store["entity"], store["relation"][1]
        for fixed in (2, 4):  # the second query reuses the scorer's candidate tables
            tails, heads = scorer.tail_scores(fixed, 1), scorer.head_scores(fixed, 1)
            for e in range(6):
                r_t = rscf_relation_transform(rel, ent[fixed], ent[e], store["a2"],
                                              store["a3"])
                assert abs(tails[e] - score(model, ent[fixed], r_t, ent[e])) < 1e-12
                r_h = rscf_relation_transform(rel, ent[e], ent[fixed], store["a2"],
                                              store["a3"])
                assert abs(heads[e] - score(model, ent[e], r_h, ent[fixed])) < 1e-12

    def test_entity_permutation_invariance(self):
        gen = np.random.default_rng(32)
        ds = _random_dataset(gen, 6, 2, 15)
        model = ModelSpec("cp", 4)
        filt = FilterSpec("none", apply_to="head_only")
        store = build_store(model, filt, 6, 2, Rng(4), init_scale=0.3)
        ckpt = _fake_checkpoint(store, model, filt, ds.vocabulary)
        base = evaluate_split(ckpt, ds, "test")

        perm = np.array([3, 0, 5, 1, 4, 2])

        def remap(triples):
            return [(f"E{perm[h]}", f"r{r}", f"E{perm[t]}") for h, r, t in triples]

        seedy = [(f"E{perm[i]}", "r0", f"E{perm[i]}") for i in range(6)]
        pds = Dataset.from_raw(seedy + remap(ds.train), remap(ds.valid),
                               remap(ds.test))
        # rebuild the store rows against the permuted vocabulary's id order
        qstore = store.clone()
        for old in range(6):
            new = pds.vocabulary.entity_ids[f"E{perm[old]}"]
            qstore.tables["entity"][new] = store.tables["entity"][old]
        pckpt = _fake_checkpoint(qstore, model, filt, pds.vocabulary)
        # drop the seed triples from train to keep the filter index identical
        pds.train = pds.train[len(seedy):]
        permuted = evaluate_split(pckpt, pds, "test")
        assert abs(base.mrr - permuted.mrr) < 1e-12
        assert base.hits == permuted.hits


class TestEvaluateGrouped:
    def _setup(self):
        gen = np.random.default_rng(41)
        ds = _random_dataset(gen, 8, 4, 30)
        model = ModelSpec("complex", 4)
        filt = FilterSpec("none", apply_to="head_only")
        store = build_store(model, filt, 8, 4, Rng(6), init_scale=0.3)
        return ds, _fake_checkpoint(store, model, filt, ds.vocabulary)

    def test_single_group_equals_split(self, tmp_path):
        ds, ckpt = self._setup()
        path = tmp_path / "g.tsv"
        path.write_text("".join(f"all\tr{j}\n" for j in range(4)), encoding="utf-8")
        groups = load_relation_groups(path)
        grouped = aggregate_groups(*collect_ranks(ckpt, ds, "test"), ds, groups)
        overall = evaluate_split(ckpt, ds, "test")
        assert set(grouped) == {"all"}
        assert grouped["all"].mrr == overall.mrr

    def test_query_weighted_average_identity(self):
        ds, ckpt = self._setup()
        grouped = aggregate_groups(*collect_ranks(ckpt, ds, "test"), ds, "frequency", num_buckets=4)
        overall = evaluate_split(ckpt, ds, "test")
        total = sum(rep.query_count for rep in grouped.values())
        weighted = sum(rep.mrr * rep.query_count for rep in grouped.values()) / total
        assert total == overall.query_count
        assert abs(weighted - overall.mrr) < 1e-12

    def test_ungrouped_relations_fall_into_other(self, tmp_path):
        ds, ckpt = self._setup()
        path = tmp_path / "g.tsv"
        path.write_text("g1\tr0\n", encoding="utf-8")
        grouped = aggregate_groups(*collect_ranks(ckpt, ds, "test"), ds, load_relation_groups(path))
        assert "_other" in grouped

    @pytest.mark.parametrize("rel_id", [-1, 4])
    def test_single_relation_id_out_of_range_raises(self, rel_id):
        ds, ckpt = self._setup()
        assert ds.vocabulary.num_relations == 4
        with pytest.raises(ValueError, match=rf"relation id {rel_id} outside \[0, 4\)"):
            aggregate_groups(*collect_ranks(ckpt, ds, "test"), ds, rel_id)

    def test_single_relation_mode_matches_report_filter(self):
        ds, ckpt = self._setup()
        overall = evaluate_split(ckpt, ds, "test")
        rel_id = int(ds.test[0, 1])
        name = ds.vocabulary.relation_names[rel_id]
        grouped = aggregate_groups(*collect_ranks(ckpt, ds, "test"), ds, rel_id)
        row = next(r for r in overall.per_relation if r["relation_id"] == rel_id)
        assert set(grouped) == {name}
        assert grouped[name].query_count == row["queries"]
        assert abs(grouped[name].mrr - row["mrr"]) < 1e-12


class TestGroupsMatchPerResultPartition:
    """aggregate_groups against a per-result partition: each group's results
    in query order, every named group reported, and a group that no name
    declares (the ungrouped relations' "_other") only when it holds queries."""

    def _data(self):
        vocab = Vocabulary(["e0"], [f"r{j}" for j in range(8)])
        # relation j appears 8 - j times, so bucket b of 4 holds r{2b}, r{2b+1}
        train = [(0, j, 0) for j in range(8) for _ in range(8 - j)]
        gen = np.random.default_rng(59)
        relations = gen.integers(0, 6, 2000)  # r6 and r7 have no queries
        ranks = gen.integers(2, 40, 2000) / 2  # mid-ranks included
        return Dataset(train, [], [], vocab), ranks, relations

    @staticmethod
    def _partition(ds, ranks, relations, group_of, names):
        partition = {name: [] for name in names}
        for rank, rel in zip(ranks.tolist(), relations.tolist()):
            name = group_of.get(rel)
            if name is not None:
                partition.setdefault(name, []).append((rank, rel))
        return [(name, aggregate(np.array([m[0] for m in members], dtype=np.float64),
                                 np.array([m[1] for m in members], dtype=np.int64),
                                 ds.vocabulary).to_dict())
                for name, members in sorted(partition.items())]

    def _check(self, grouping, group_of, names, num_buckets=10):
        ds, ranks, relations = self._data()
        grouped = aggregate_groups(ranks, relations, ds, grouping, num_buckets)
        got = [(name, rep.to_dict()) for name, rep in grouped.items()]
        assert got == self._partition(ds, ranks, relations, group_of, names)  # bit-identical
        return dict(got)

    def _groups(self, tmp_path, text):
        path = tmp_path / "g.tsv"
        path.write_text(text, encoding="utf-8")
        return load_relation_groups(path)

    def test_frequency_buckets(self):
        names = [f"bucket_{b}" for b in range(4)]
        got = self._check("frequency", {j: names[j // 2] for j in range(8)}, names,
                          num_buckets=4)
        assert got["bucket_3"]["query_count"] == 0  # r6 and r7: reported, empty
        assert got["bucket_3"]["mrr"] == 0.0

    def test_groups_with_empty_group_and_unknown_relation(self, tmp_path):
        groups = self._groups(tmp_path, "g1\tr0\ng1\tr1\nempty\tr7\ng2\tr2\ng1\tmissing\n")
        group_of = {**dict.fromkeys(range(8), "_other"), 0: "g1", 1: "g1", 7: "empty",
                    2: "g2"}
        got = self._check(groups, group_of, ["g1", "empty", "g2"])
        assert list(got) == ["_other", "empty", "g1", "g2"]
        assert got["empty"]["query_count"] == 0
        assert sum(rep["query_count"] for rep in got.values()) == 2000

    def test_other_only_when_it_holds_queries(self, tmp_path):
        groups = self._groups(tmp_path, "a\tr0\na\tr1\nb\tr2\nb\tr3\nb\tr4\nc\tr5\n")
        group_of = {**dict.fromkeys(range(8), "_other"), 0: "a", 1: "a", 2: "b",
                    3: "b", 4: "b", 5: "c"}
        got = self._check(groups, group_of, ["a", "b", "c"])
        assert list(got) == ["a", "b", "c"]  # r6 and r7 are ungrouped, without queries

    def test_user_group_named_other_merges_with_ungrouped(self, tmp_path):
        groups = self._groups(tmp_path, "_other\tr0\ng1\tr1\n")
        group_of = {**dict.fromkeys(range(8), "_other"), 1: "g1"}
        got = self._check(groups, group_of, ["_other", "g1"])
        relations = self._data()[2]
        assert got["_other"]["query_count"] == int(np.count_nonzero(relations != 1))

    def test_user_group_named_other_reports_when_empty(self, tmp_path):
        groups = self._groups(tmp_path, "".join(f"g\tr{j}\n" for j in range(7))
                              + "_other\tr7\n")
        got = self._check(groups, {**dict.fromkeys(range(7), "g"), 7: "_other"},
                          ["g", "_other"])
        assert got["_other"]["query_count"] == 0

    @pytest.mark.parametrize("rel_id", [3, 7])
    def test_single_relation(self, rel_id):
        got = self._check(rel_id, {rel_id: f"r{rel_id}"}, [f"r{rel_id}"])
        assert list(got) == [f"r{rel_id}"]


class TestReportInvariants:
    def test_hits_monotone_and_mrr_floor(self):
        gen = np.random.default_rng(55)
        for seed in range(5):
            ds = _random_dataset(gen, 9, 3, 25)
            model = ModelSpec("cp", 4)
            filt = FilterSpec("none", apply_to="head_only")
            store = build_store(model, filt, 9, 3, Rng(seed), init_scale=0.3)
            report = evaluate_split(
                _fake_checkpoint(store, model, filt, ds.vocabulary), ds, "test")
            assert report.hits[1] <= report.hits[3] <= report.hits[10]
            assert report.mrr >= report.hits[1]
            assert 0.0 < report.mrr <= 1.0

    def test_per_relation_matches_per_result_grouping(self):
        gen = np.random.default_rng(57)
        num_relations, n = 17, 3000
        vocab = Vocabulary(["e0"], [f"r{j}" for j in range(num_relations)])
        rels = gen.integers(0, num_relations - 1, n)  # the last relation has none
        ranks = gen.integers(2, 1000, n) / 2  # mid-ranks included
        # the per-result grouping: each relation's ranks in result order
        by_rel: dict[int, list[float]] = {}
        for rel, rank in zip(rels.tolist(), ranks.tolist()):
            by_rel.setdefault(rel, []).append(rank)
        want = []
        for rel_id in sorted(by_rel):
            rel_ranks = np.asarray(by_rel[rel_id])
            want.append({"relation": f"r{rel_id}", "relation_id": rel_id,
                         "queries": rel_ranks.size, "mrr": float(np.mean(1.0 / rel_ranks)),
                         **{f"hits{k}": float(np.mean(rel_ranks <= k)) for k in (1, 3, 10)}})
        got = aggregate(ranks, rels, vocab).per_relation
        assert got == want  # float equality: bit-identical
        assert [type(row["relation_id"]) for row in got] == [int] * len(want)

    def test_per_relation_metrics_are_np_mean_bits(self):
        """Relations of 1 to about 1,500 queries, so each pairwise-summation
        size class occurs: every per-relation MRR and Hits is np.mean's over
        that relation's ranks in query order."""
        gen = np.random.default_rng(59)
        for _ in range(40):
            num_relations = int(gen.integers(1, 12))
            sizes = gen.integers(1, 1500, num_relations) // gen.integers(1, 200, num_relations)
            rels = gen.permutation(np.repeat(np.arange(num_relations), sizes + 1))
            ranks = gen.integers(2, 2000, rels.size) / 2
            vocab = Vocabulary(["e0"], [f"r{j}" for j in range(num_relations)])
            got = aggregate(ranks, rels, vocab).per_relation
            assert [row["relation_id"] for row in got] == list(range(num_relations))
            for row in got:
                rel_ranks = ranks[rels == row["relation_id"]]
                assert row["queries"] == rel_ranks.size
                assert row["mrr"] == float(np.mean(1.0 / rel_ranks))
                for k in (1, 3, 10):
                    assert row[f"hits{k}"] == float(np.mean(rel_ranks <= k))


def _grid_dataset(gen, num_entities=9, num_relations=3):
    """Random KG whose test split repeats train triples and itself."""
    raw = [(f"e{i}", f"r{i % num_relations}", f"e{(i + 1) % num_entities}")
           for i in range(num_entities)]
    raw += [(f"e{gen.integers(num_entities)}", f"r{gen.integers(num_relations)}",
             f"e{gen.integers(num_entities)}") for _ in range(30)]
    valid = raw[-6:]
    test = raw[-12:-6] + raw[:3] + raw[-12:-9]  # duplicates across and within splits
    return Dataset.from_raw(raw[:-6], valid, test)


def _reference_ranks(ckpt, ds, split, directions):
    """(relation, rank) of every query, triple by triple, tail query first."""
    index = build_filter_index(ds)
    args = (ckpt.store, ckpt.model, ckpt.filter)
    out = []
    for h, r, t in ds.split_array(split).tolist():
        if directions in ("tail", "both"):
            out.append((r, _loop_rank(t, _per_query_scores(*args, "tail", h, r),
                                      set(ids_of(index.tail_index, h, r).tolist()))))
        if directions in ("head", "both"):
            out.append((r, _loop_rank(h, _per_query_scores(*args, "head", t, r),
                                      set(ids_of(index.head_index, r, t).tolist()))))
    return out


def _rank_pairs(ranks, relations):
    """collect_ranks' parallel arrays as (relation, rank) pairs."""
    assert ranks.dtype == np.float64 and relations.dtype == np.int64
    return list(zip(relations.tolist(), ranks.tolist()))


def _block_bytes(store, model, rows):
    """A SCORE_BLOCK_BYTES that gives blocks of `rows` queries."""
    ent = store["entity"]
    per_row = ent.shape[0] if model.is_tdm else ent.size
    return rows * per_row * ent.itemsize


class TestCollectRanksGrid:
    @pytest.mark.parametrize("kind", ["transe", "rotate", "cp", "complex", "rescal"])
    def test_blocked_ranks_equal_per_query_reference(self, kind, monkeypatch):
        gen = np.random.default_rng(71)
        ds = _grid_dataset(gen)
        num_e, num_r = ds.vocabulary.num_entities, ds.vocabulary.num_relations
        model = ModelSpec(kind, 4, gamma=1.0)
        n = len(ds.split_array("test"))
        block_rows = []
        score_block = CandidateScorer.score_block

        def counting_score_block(self, direction, fixed_ids, rel_ids):
            block_rows.append(len(fixed_ids))
            return score_block(self, direction, fixed_ids, rel_ids)

        monkeypatch.setattr(CandidateScorer, "score_block", counting_score_block)
        checked = 0
        mid_ranks = 0
        for filter_kind, rt in itertools.product(FILTER_KINDS, (False, True)):
            filt = FilterSpec(filter_kind, rt_enabled=rt,
                              apply_to="head_only" if model.is_tdm else "head_and_tail")
            rng = Rng(checked)
            store = build_store(model, filt, num_e, num_r, rng, init_scale=0.4)
            for name, table in store.tables.items():
                table += rng.derive(f"jitter:{name}").generator().normal(0.0, 0.05,
                                                                         table.shape)
            # duplicated entity rows force tied candidates, so mid-ranks are exercised
            ent = store.tables["entity"]
            ent[1] = ent[0]
            ent[4] = ent[3] = ent[2]
            ckpt = _fake_checkpoint(store, model, filt, ds.vocabulary)
            for directions in ("tail", "head", "both"):
                want = _reference_ranks(ckpt, ds, "test", directions)
                for rows in (1, 3, 1000):  # 1000 rows hold the whole split
                    monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                                        _block_bytes(store, model, rows))
                    block_rows.clear()
                    got = _rank_pairs(*collect_ranks(ckpt, ds, "test", directions))
                    assert got == want, (filter_kind, rt, directions, rows)
                    # distance blocks hold model.dim groups of `rows` queries
                    block = rows if model.is_tdm else rows * model.dim
                    per_direction = [min(block, n - lo) for lo in range(0, n, block)]
                    ways = 1 + (directions == "both")
                    assert block_rows == per_direction * ways, (directions, rows)
                checked += 1
                mid_ranks += sum(1 for *_, rank in got if rank % 1)
        assert checked == len(FILTER_KINDS) * 2 * 3
        assert mid_ranks > 0


class TestBlockRanking:
    def _checkpoint(self, kind):
        ds = _grid_dataset(np.random.default_rng(75))
        model = ModelSpec(kind, 4, gamma=1.0)
        filt = FilterSpec("rscf", rt_enabled=True,
                          apply_to="head_only" if model.is_tdm else "head_and_tail")
        store = build_store(model, filt, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(9), init_scale=0.4)
        return ds, _fake_checkpoint(store, model, filt, ds.vocabulary)

    @pytest.mark.parametrize("kind", ["complex", "transe"])
    def test_ranks_whole_blocks_without_per_query_calls(self, kind, monkeypatch):
        ds, ckpt = self._checkpoint(kind)
        want = _reference_ranks(ckpt, ds, "test", "both")

        def per_query(*args):
            raise AssertionError("ranked one query at a time")

        rank_rows = []
        real_rank_block = evaluation.rank_block

        def counting_rank_block(scores, *args):
            rank_rows.append(scores.shape[0])
            return real_rank_block(scores, *args)

        monkeypatch.setattr(evaluation, "filtered_rank", per_query)
        monkeypatch.setattr(evaluation, "rank_block", counting_rank_block)
        # one-query score blocks; distance blocks are stacked up to the same
        # budget of scores before ranking (ent.shape[1] rows), tensor blocks are not
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                            _block_bytes(ckpt.store, ckpt.model, 1))
        got = _rank_pairs(*collect_ranks(ckpt, ds, "test"))
        assert got == want
        n = len(ds.test)
        rows = 1 if ckpt.model.is_tdm else ckpt.store["entity"].shape[1]
        assert rank_rows == [min(rows, n - lo) for lo in range(0, n, rows)] * 2

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, 10.0])
    @pytest.mark.parametrize("directions", ["tail", "head"])
    def test_rank_outside_candidate_range_raises(self, bad, directions, monkeypatch):
        ds, ckpt = self._checkpoint("complex")
        num_e = ds.vocabulary.num_entities
        assert num_e == 9  # so 10.0 lies outside [1, N]
        monkeypatch.setattr(evaluation, "rank_block",
                            lambda scores, *args: np.full(scores.shape[0], bad))
        with pytest.raises(NumericalError,
                           match=rf"{directions} ranks outside \[1, {num_e}\] .* of the test split"):
            collect_ranks(ckpt, ds, "test", directions)


class TestSplitScopedIndex:
    @pytest.mark.parametrize("kind", ["complex", "transe"])
    def test_ranks_equal_those_of_the_full_index(self, kind, monkeypatch):
        """Without index=, collect_ranks builds an index of its split's keys
        only; the ranks are the full index's, bit for bit."""
        ds = _grid_dataset(np.random.default_rng(81))
        model = ModelSpec(kind, 4, gamma=1.0)
        filt = FilterSpec("rscf", rt_enabled=True,
                          apply_to="head_only" if model.is_tdm else "head_and_tail")
        store = build_store(model, filt, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(4), init_scale=0.4)
        ckpt = _fake_checkpoint(store, model, filt, ds.vocabulary)
        full = build_filter_index(ds)
        built = []
        monkeypatch.setattr(evaluation, "build_filter_index",
                            lambda *args: built.append(args[1:]) or build_filter_index(*args))
        for split, directions in itertools.product(("train", "valid", "test"),
                                                   ("tail", "head", "both")):
            got = collect_ranks(ckpt, ds, split, directions)
            assert built.pop() == (split,)
            want = collect_ranks(ckpt, ds, split, directions, index=full)
            assert not built
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (split, directions)


def _row_close(got, want, rel=1e-12):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestDistanceBlockInvariance:
    """Distance models broadcast a block of fixed entities against one
    candidate table; the block's row count changes no score beyond rounding,
    and one-row blocks reproduce the per-query scorer bit for bit."""

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_scores_independent_of_block_rows(self, kind, monkeypatch):
        ds = _grid_dataset(np.random.default_rng(73))
        arr = ds.split_array("test")
        num_e, num_r = ds.vocabulary.num_entities, ds.vocabulary.num_relations
        model = ModelSpec(kind, 4, gamma=1.0)
        checked = 0
        for filter_kind, rt, apply_to in itertools.product(
                FILTER_KINDS, (False, True), ("head_and_tail", "head_only")):
            filt = FilterSpec(filter_kind, rt_enabled=rt, apply_to=apply_to)
            rng = Rng(checked)
            store = build_store(model, filt, num_e, num_r, rng, init_scale=0.4)
            for name, table in store.tables.items():
                table += rng.derive(f"jitter:{name}").generator().normal(0.0, 0.05,
                                                                         table.shape)
            for direction, fixed in (("tail", arr[:, 0]), ("head", arr[:, 2])):
                oracle = np.stack([
                    _per_query_scores(store, model, filt, direction, f, r)
                    for f, r in zip(fixed.tolist(), arr[:, 1].tolist())])
                for rows in (1, 3, len(arr)):
                    monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                                        _block_bytes(store, model, rows))
                    scorer = CandidateScorer(store, model, filt)
                    blocks = list(scorer.blocks(direction, fixed, arr[:, 1]))
                    assert [b.shape[0] for b in blocks[:-1]] == \
                        [rows * model.dim] * (len(blocks) - 1)
                    got = np.concatenate(blocks)
                    if rows == 1:
                        assert np.array_equal(got, oracle), (filter_kind, rt, apply_to)
                    else:
                        assert all(_row_close(g, w) for g, w in zip(got, oracle)), \
                            (filter_kind, rt, apply_to, rows)
                checked += 1
        assert checked == len(FILTER_KINDS) * 2 * 2 * 2


    @pytest.mark.parametrize("num_entities,dtype,want", [(14_541, np.float32, 72),
                                                         (200, np.float64, 2_600)])
    def test_block_is_whole_groups_of_the_fixed_side(self, num_entities, dtype, want):
        """A d = 64 distance block holds `stack` groups of `rows` queries:
        rows as many as one (rows, N, d) array fits SCORE_BLOCK_BYTES, stack
        as many groups as their (rows, N) scores fit it (FB15k-237 shape in
        f32, the synthetic graph's in f64)."""
        ent = np.empty((num_entities, 64), dtype)
        scorer = CandidateScorer({"entity": ent}, ModelSpec("transe", 64), FilterSpec())
        rows = max(1, evaluation.SCORE_BLOCK_BYTES // ent.nbytes)
        stack = max(1, evaluation.SCORE_BLOCK_BYTES // (num_entities * ent.itemsize) // rows)
        assert scorer.block_rows == rows * stack == want

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_scores_independent_of_candidate_chunks(self, kind, monkeypatch):
        """A block scores its candidates in chunks that fit WORKSPACE_BYTES;
        chunks of 1, 3, N - 1 and N candidates (N = 11, not a multiple of 3)
        give one-query blocks the per-query scorer's bits, and larger blocks
        its scores up to the rounding of their batched products."""
        ds = _grid_dataset(np.random.default_rng(79), num_entities=11)
        arr = ds.split_array("test")
        num_e, num_r = ds.vocabulary.num_entities, ds.vocabulary.num_relations
        assert num_e == 11
        checked = 0
        for filter_kind, rt, p, apply_to in itertools.product(
                FILTER_KINDS, (False, True), (1, 2), ("head_and_tail", "head_only")):
            # p is both the filter's normalization and the distance's norm
            model = ModelSpec(kind, 4, distance_p=p, gamma=1.0)
            filt = FilterSpec(filter_kind, p=p, rt_enabled=rt, apply_to=apply_to)
            rng = Rng(checked)
            store = build_store(model, filt, num_e, num_r, rng, init_scale=0.4)
            for name, table in store.tables.items():
                table += rng.derive(f"jitter:{name}").generator().normal(0.0, 0.05,
                                                                         table.shape)
            per_candidate = model.dim * store["entity"].itemsize
            for direction, fixed in (("tail", arr[:, 0]), ("head", arr[:, 2])):
                oracle = np.stack([
                    _per_query_scores(store, model, filt, direction, f, r)
                    for f, r in zip(fixed.tolist(), arr[:, 1].tolist())])
                for rows, chunk in itertools.product((1, 3), (1, 3, num_e - 1, num_e)):
                    monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                                        _block_bytes(store, model, rows))
                    monkeypatch.setattr(M, "WORKSPACE_BYTES", chunk * rows * per_candidate)
                    scorer = CandidateScorer(store, model, filt)
                    got = np.concatenate(list(scorer.blocks(direction, fixed, arr[:, 1])))
                    key = (filter_kind, rt, p, apply_to, rows, chunk)
                    if rows == 1:
                        assert np.array_equal(got, oracle), key
                    else:
                        assert all(_row_close(g, w) for g, w in zip(got, oracle)), key
                checked += 1
        assert checked == len(FILTER_KINDS) * 2 * 2 * 2 * 2

    @pytest.mark.parametrize("chunk,calls", [(1, 11), (3, 4), (10, 2), (11, 1)])
    def test_one_query_block_scores_in_chunks(self, chunk, calls, monkeypatch):
        model = ModelSpec("transe", 4)
        filt = FilterSpec("rscf", rt_enabled=True)
        store = build_store(model, filt, 11, 2, Rng(3), init_scale=0.4)
        seen = []
        raw_dbm_scores = M.dbm_scores

        def counting_dbm_scores(*args, **kwargs):
            seen.append(kwargs["out"].shape)
            return raw_dbm_scores(*args, **kwargs)

        monkeypatch.setattr(M, "dbm_scores", counting_dbm_scores)
        monkeypatch.setattr(M, "WORKSPACE_BYTES", chunk * model.dim * store["entity"].itemsize)
        CandidateScorer(store, model, filt).tail_scores(0, 1)
        assert len(seen) == calls
        assert sum(shape[1] for shape in seen) == 11


class TestScoreBlockInPlace:
    """Distance blocks form their arithmetic in place, in chunk buffers and
    per-group tiles the scorer owns; nothing else is written."""

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_store_and_fixed_side_inputs_unchanged(self, kind, monkeypatch):
        """Every array handed to a chunk's kernels (the fixed-side tiles or
        rows, the filter's tiles, the candidate rows, the filtered candidates
        and their rt factors) keeps its bytes through the call; after both
        directions so do the store's tables, the query ids and the scorer's
        candidate rt tables."""
        calls = []

        def arrays(args):
            for a in args:
                if isinstance(a, T.EtOp):
                    yield from (v for v in (a.mult, a.bias, a.blocks) if v is not None)
                elif isinstance(a, np.ndarray):
                    yield a

        def unchanged(fn):
            def checked(*args, **kwargs):
                held = list(arrays(args))
                before = [a.tobytes() for a in held]
                result = fn(*args, **kwargs)
                assert [a.tobytes() for a in held] == before, fn.__name__
                calls.append(fn.__name__)
                return result
            return checked

        monkeypatch.setattr(T, "et_apply", unchanged(T.et_apply))
        monkeypatch.setattr(T, "dbm_direction_scores", unchanged(T.dbm_direction_scores))
        monkeypatch.setattr(M, "WORKSPACE_BYTES", 2 * 3 * 4 * 8)
        for filter_kind, rt, p, apply_to in itertools.product(
                FILTER_KINDS, (False, True), (1, 2), ("head_and_tail", "head_only")):
            model = ModelSpec(kind, 4, distance_p=p, gamma=1.0)
            filt = FilterSpec(filter_kind, p=p, rt_enabled=rt, apply_to=apply_to)
            rng = Rng(5)
            store = build_store(model, filt, 11, 3, rng, init_scale=0.4)
            for name, table in store.tables.items():
                table += rng.derive(f"jitter:{name}").generator().normal(0.0, 0.05,
                                                                         table.shape)
            tables = {name: table.tobytes() for name, table in store.tables.items()}
            fixed, rels = np.array([0, 3, 3, 10, 7]), np.array([2, 0, 2, 1, 1])
            scorer = CandidateScorer(store, model, filt)
            monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES",
                                _block_bytes(store, model, 3))
            calls.clear()
            for direction in ("tail", "head"):
                scorer.score_block(direction, fixed, rels)
            # groups of 3 and 2 queries take 6 chunks of up to 2 candidates
            # and 4 of up to 3, in each direction
            assert calls.count("dbm_direction_scores") == 2 * (6 + 4)
            assert {name: t.tobytes() for name, t in store.tables.items()} == tables
            assert fixed.tolist() == [0, 3, 3, 10, 7] and rels.tolist() == [2, 0, 2, 1, 1]
            for which, table in scorer._cand_rt.items():
                fresh = T.rt_factor(store, which, store["entity"][None], filt.p).factor
                assert table.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_groups_of_forty_queries(self, kind):
        """At N 200, f64, d 64 a group holds 40 queries, so each tile holds 40
        rows. Every query's row matches the per-query scorer: bit for bit
        where the group makes no batched product (no rt, no rscf filter),
        else up to the rounding of those products."""
        gen = np.random.default_rng(83)
        fixed, rels = gen.integers(0, 200, 90), gen.integers(0, 4, 90)
        model = ModelSpec(kind, 64, gamma=1.0)
        for filter_kind, rt, apply_to in itertools.product(
                FILTER_KINDS, (False, True), ("head_and_tail", "head_only")):
            filt = FilterSpec(filter_kind, rt_enabled=rt, apply_to=apply_to)
            store = build_store(model, filt, 200, 4, Rng(9), init_scale=0.3)
            scorer = CandidateScorer(store, model, filt)
            assert M.rows_per_block(store["entity"].nbytes, evaluation.SCORE_BLOCK_BYTES) == 40
            exact = not rt and filter_kind not in ("rscf", "rscf_linear2")
            for direction in ("tail", "head"):
                got = scorer.score_block(direction, fixed, rels)
                oracle = np.stack([_per_query_scores(store, model, filt, direction, f, r)
                                   for f, r in zip(fixed.tolist(), rels.tolist())])
                key = (filter_kind, rt, apply_to, direction)
                if exact:
                    assert got.tobytes() == oracle.tobytes(), key
                else:
                    assert all(_row_close(g, w) for g, w in zip(got, oracle)), key


class TestScoreBlockMemory:
    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    @pytest.mark.parametrize("filter_kind,rt", [("none", False), ("rscf", True),
                                                ("rscf_linear2", False), ("sfbr_diag", True)])
    def test_one_query_peak_is_its_scores_plus_workspace(self, kind, filter_kind, rt,
                                                         monkeypatch):
        """A one-query distance block at N = 2,000, d = 32 holds its (1, N)
        scores and the workspace, whose arrays fit WORKSPACE_BYTES (32 KiB
        here, against 512 KB for one (1, N, d) array)."""
        monkeypatch.setattr(M, "WORKSPACE_BYTES", 1 << 15)
        model = ModelSpec(kind, 32)
        filt = FilterSpec(filter_kind, rt_enabled=rt)
        store = build_store(model, filt, 2000, 3, Rng(5), init_scale=0.3)
        for direction in ("tail", "head"):
            scorer = CandidateScorer(store, model, filt)
            if rt:  # the scorer's one (N, d_r) rt table per direction, built once
                scorer._candidate_rt("a3" if direction == "tail" else "a2")
            tracemalloc.start()
            try:
                scores = scorer.score_block(direction, np.array([7]), np.array([1]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < scores.nbytes + 8 * M.WORKSPACE_BYTES, (direction, peak)

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_candidate_rt_table_is_built_in_row_blocks(self, kind, monkeypatch):
        """At N = 20,000 the (1, N, d_r) rt table takes 40 or 20 blocks of
        64 KiB; building it holds the table and a few blocks, where the whole
        table at once holds about two more tables, and the bits are the same.
        At N = 20,481 the last block would hold one row, whose one-row
        product may round otherwise."""
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 1 << 16)
        model = ModelSpec(kind, 16)
        filt = FilterSpec("rscf", rt_enabled=True)
        for num_entities, which in itertools.product((20_000, 20_481), ("a2", "a3")):
            store = build_store(model, filt, num_entities, 3, Rng(5), init_scale=0.3)
            scorer = CandidateScorer(store, model, filt)
            tracemalloc.start()
            try:
                table = scorer._candidate_rt(which)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert table.nbytes > 19 * evaluation.SCORE_BLOCK_BYTES
            assert peak < table.nbytes + 5 * evaluation.SCORE_BLOCK_BYTES, (which, peak)
            whole = T.rt_factor(store, which, store["entity"][None], filt.p).factor
            assert table.dtype == whole.dtype
            assert table.tobytes() == whole.tobytes()


class TestTrainingScoresEqualScorer:
    """Training and evaluation compose filter -> rt -> score through the same
    functions, so the scores the objective hands its loss equal the scorer's
    at the same (fixed, candidate) pairs."""

    @pytest.mark.parametrize("kind", ["transe", "rotate", "cp", "complex", "rescal"])
    @pytest.mark.parametrize("filter_kind", FILTER_KINDS)
    @pytest.mark.parametrize("rt", [False, True])
    def test_objective_scores_equal_scorer_scores(self, kind, filter_kind, rt, monkeypatch):
        model = ModelSpec(kind, 4, gamma=2.0)
        num_e, num_r, b = 7, 3, 5
        rng = Rng(41)
        gen = rng.derive("batch").generator()
        batch = np.stack([gen.integers(0, num_e, b), gen.integers(0, num_r, b),
                          gen.integers(0, num_e, b)], axis=1)
        loss_name = "cross_entropy" if model.is_tdm else "self_adversarial"
        raw_loss = getattr(objectives, loss_name)
        captured = []

        def capturing_loss(scores, *args, **kwargs):
            captured.append(scores.copy())
            return raw_loss(scores, *args, **kwargs)

        monkeypatch.setattr(objectives, loss_name, capturing_loss)
        apply_tos = ("head_only",) if model.is_tdm else ("head_and_tail", "head_only")
        compared = 0
        for apply_to in apply_tos:
            filt = FilterSpec(filter_kind, rt_enabled=rt, apply_to=apply_to)
            store = build_store(model, filt, num_e, num_r, rng, init_scale=0.4)
            for name, table in store.tables.items():
                table += rng.derive(f"jitter:{name}").generator().normal(0.0, 0.05,
                                                                         table.shape)
            scorer = CandidateScorer(store, model, filt)
            captured.clear()
            if model.is_tdm:
                total_objective(batch, store, model, filt,
                                LossConfig(dura_weight=0.1))
                (scores,) = captured
                # rows B..2B answer the head queries through the reciprocal relations
                for i, (h, r, t) in enumerate(batch.tolist()):
                    assert _row_close(scores[i], scorer.tail_scores(h, r))
                    assert _row_close(scores[b + i], scorer.head_scores(t, r))
                    compared += 2
            else:
                loss = LossConfig(negatives=4)
                negs = sample_negatives(batch, num_e, loss.negatives, rng.derive("negs"))
                total_objective(batch, store, model, filt, loss, negatives=negs)
                tail_sc, head_sc = captured  # one triple slice per direction
                for i, (h, r, t) in enumerate(batch.tolist()):
                    # columns are [gold, negatives...]
                    tails = np.concatenate([[t], negs[0][i]])
                    heads = np.concatenate([[h], negs[1][i]])
                    assert _row_close(tail_sc[i], scorer.tail_scores(h, r)[tails])
                    assert _row_close(head_sc[i], scorer.head_scores(t, r)[heads])
                    compared += 2
        assert compared == 2 * b * len(apply_tos)


class TestNonFiniteScores:
    def _checkpoint(self, kind):
        ds = _random_dataset(np.random.default_rng(61), 7, 2, 20)
        model = ModelSpec(kind, 4)
        filt = FilterSpec("rscf", apply_to="head_only" if model.is_tdm else "head_and_tail")
        store = build_store(model, filt, 7, 2, Rng(7), init_scale=0.3)
        return ds, _fake_checkpoint(store, model, filt, ds.vocabulary)

    @pytest.mark.parametrize("kind", ["complex", "transe"])
    def test_all_nan_entity_table_raises(self, kind):
        ds, ckpt = self._checkpoint(kind)
        ckpt.store.tables["entity"][:] = np.nan
        with pytest.raises(NumericalError, match="of the test split"):
            evaluate_split(ckpt, ds, "test")

    def test_one_non_finite_candidate_raises(self):
        ds, ckpt = self._checkpoint("cp")
        ckpt.store.tables["entity"][5] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            evaluate_split(ckpt, ds, "test", directions="tail")
