import itertools

import numpy as np
import pytest

from rscf import evaluation, objectives
from rscf.data import Dataset, build_filter_index, load_relation_groups
from rscf.errors import EmptySplit, GoldOutOfRange, NumericalError
from rscf.evaluation import (
    CandidateScorer,
    collect_ranks,
    evaluate_grouped,
    evaluate_split,
    filtered_rank,
)
from rscf.models import ModelSpec, score
from rscf.objectives import LossConfig, build_store, sample_negatives, total_objective
from rscf.tensor import Rng
from rscf.trainer import Checkpoint, TrainConfig
from rscf.transforms import (
    FILTER_KINDS,
    FilterSpec,
    rscf_entity_transform,
    rscf_relation_transform,
)


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


def _fake_checkpoint(store, model, filt, vocab):
    cfg = TrainConfig(model=model, filter=filt,
                      loss=LossConfig(task="cross_entropy" if model.is_tdm
                                      else "self_adversarial"),
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
        scorer = CandidateScorer(store, model, filt)
        recips = []
        for h, r, t in ds.test:
            for gold, scores, known in (
                (t, scorer.tail_scores(h, r), index.true_tails(h, r)),
                (h, scorer.head_scores(t, r), index.true_heads(r, t)),
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
        grouped = evaluate_grouped(ckpt, ds, groups)
        overall = evaluate_split(ckpt, ds, "test")
        assert set(grouped) == {"all"}
        assert grouped["all"].mrr == overall.mrr

    def test_query_weighted_average_identity(self):
        ds, ckpt = self._setup()
        grouped = evaluate_grouped(ckpt, ds, "frequency", num_buckets=4)
        overall = evaluate_split(ckpt, ds, "test")
        total = sum(rep.query_count for rep in grouped.values())
        weighted = sum(rep.mrr * rep.query_count for rep in grouped.values()) / total
        assert total == overall.query_count
        assert abs(weighted - overall.mrr) < 1e-12

    def test_ungrouped_relations_fall_into_other(self, tmp_path):
        ds, ckpt = self._setup()
        path = tmp_path / "g.tsv"
        path.write_text("g1\tr0\n", encoding="utf-8")
        grouped = evaluate_grouped(ckpt, ds, load_relation_groups(path))
        assert "_other" in grouped

    def test_single_relation_mode_matches_report_filter(self):
        ds, ckpt = self._setup()
        overall = evaluate_split(ckpt, ds, "test")
        rel_id = ds.test[0].relation
        name = ds.vocabulary.relation_names[rel_id]
        grouped = evaluate_grouped(ckpt, ds, rel_id)
        row = next(r for r in overall.per_relation if r["relation_id"] == rel_id)
        assert set(grouped) == {name}
        assert grouped[name].query_count == row["queries"]
        assert abs(grouped[name].mrr - row["mrr"]) < 1e-12


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
    index = build_filter_index(ds)
    scorer = CandidateScorer(ckpt.store, ckpt.model, ckpt.filter)
    out = []
    for h, r, t in ds.split(split):
        if directions in ("tail", "both"):
            out.append((h, r, t, "tail",
                        _loop_rank(t, scorer.tail_scores(h, r), index.true_tails(h, r))))
        if directions in ("head", "both"):
            out.append((h, r, t, "head",
                        _loop_rank(h, scorer.head_scores(t, r), index.true_heads(r, t))))
    return out


class TestCollectRanksGrid:
    @pytest.mark.parametrize("kind", ["transe", "rotate", "cp", "complex", "rescal"])
    def test_blocked_ranks_equal_per_query_reference(self, kind, monkeypatch):
        gen = np.random.default_rng(71)
        ds = _grid_dataset(gen)
        num_e, num_r = ds.vocabulary.num_entities, ds.vocabulary.num_relations
        model = ModelSpec(kind, 4, gamma=1.0)
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
            # three triples per block, so the test split spans several blocks
            monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 3 * num_e * ent.itemsize)
            for directions in ("tail", "head", "both"):
                got = [(r.head, r.relation, r.tail, r.direction, r.rank)
                       for r in collect_ranks(ckpt, ds, "test", directions)]
                assert got == _reference_ranks(ckpt, ds, "test", directions), \
                    (filter_kind, rt, directions)
                checked += 1
                mid_ranks += sum(1 for *_, rank in got if rank % 1)
        assert checked == len(FILTER_KINDS) * 2 * 3
        assert mid_ranks > 0


def _row_close(got, want, rel=1e-12):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


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

        def capturing_loss(scores, *args):
            captured.append(scores.copy())
            return raw_loss(scores, *args)

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
                                LossConfig("cross_entropy", dura_weight=0.1))
                (scores,) = captured
                # rows B..2B answer the head queries through the reciprocal relations
                for i, (h, r, t) in enumerate(batch.tolist()):
                    assert _row_close(scores[i], scorer.tail_scores(h, r))
                    assert _row_close(scores[b + i], scorer.head_scores(t, r))
                    compared += 2
            else:
                loss = LossConfig("self_adversarial", negatives=4)
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
        with pytest.raises(NumericalError):
            evaluate_split(ckpt, ds, "test")

    def test_one_non_finite_candidate_raises(self):
        ds, ckpt = self._checkpoint("cp")
        ckpt.store.tables["entity"][5] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            evaluate_split(ckpt, ds, "test", directions="tail")
