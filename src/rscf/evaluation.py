"""Filtered-ranking evaluation: MRR and Hits@N, overall and per grouping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models as M
from . import transforms as T
from .data import (
    Dataset,
    RelationFrequencyBuckets,
    RelationGroups,
    build_filter_index,
    relation_frequency_buckets,
)
from .errors import EmptySplit, GoldOutOfRange, NumericalError

DEFAULT_HITS = (1, 3, 10)
# Ceiling on one (queries, N) block of candidate scores. At FB15k-237 shape,
# 16 MiB blocks ranked more slowly and left about 17 MB more heap resident
# for the training that followed.
SCORE_BLOCK_BYTES = 1 << 22


def filtered_rank(gold: int, scores: np.ndarray, known_true) -> float:
    """Mid-rank of the gold candidate after removing other known-true ids.

    rank = 1 + #{better survivors} + #{tied survivors != gold} / 2, counted
    over all candidates minus the known-true ids (gold, repeats and ids
    outside the candidate range dropped). known_true is any iterable of ids.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if not 0 <= gold < n:
        raise GoldOutOfRange(f"gold {gold} outside [0, {n})")
    known = (known_true if isinstance(known_true, np.ndarray)
             else np.fromiter(known_true, dtype=np.int64))
    known = np.unique(known[(known != gold) & (known >= 0) & (known < n)])
    s_gold = scores[gold]
    s_known = scores[known]
    better = np.count_nonzero(scores > s_gold) - np.count_nonzero(s_known > s_gold)
    tied = np.count_nonzero(scores == s_gold) - np.count_nonzero(s_known == s_gold)
    return 1.0 + int(better) + 0.5 * (int(tied) - 1)  # gold survives by construction


class CandidateScorer:
    """Scores every candidate entity for (lhs, relation) queries, applying the
    run's filter exactly as in training.

    Tensor models answer head queries through the reciprocal relation row and
    never transform candidates; distance models scan candidates directly with
    the candidate-side filter active. A scorer reads the store's tables as they
    are when it first needs them: the candidate rt factor tables of distance
    models are built once and reused, so the store must not change while the
    scorer is in use.
    """

    def __init__(self, store, model: M.ModelSpec, filt: T.FilterSpec):
        self.store = store
        self.model = model
        self.filt = filt
        self._cand_rt: dict[str, np.ndarray] = {}

    def _candidate_rt(self, which: str) -> np.ndarray:
        """(1, N, d_r) rt factor of every candidate entity, built on first use."""
        if which not in self._cand_rt:
            filt = self.filt
            cand = self.store["entity"][None, :, :]
            self._cand_rt[which] = T.rt_factor(self.store, which, cand, filt.p,
                                               filt.zero_change_epsilon).factor
        return self._cand_rt[which]

    def _dbm_scores(self, fixed_id: int, rel_id: int, fixed_is_head: bool) -> np.ndarray:
        store, model, filt = self.store, self.model, self.filt
        ent = store["entity"]
        rel_rows = np.asarray([rel_id])
        rel = store["relation"][rel_rows]
        op = T.et_build(filt, store, rel, rel_rows, model.dim)
        fixed_on, cand_on, fixed_which, cand_which = T.dbm_direction(filt, fixed_is_head)
        fixed = ent[np.asarray([fixed_id])]
        cand = ent[None, :, :]
        fixed_f = T.et_apply(op, fixed) if fixed_on else fixed
        cand_f = T.et_apply(op, cand) if cand_on else cand
        fixed_rel, cand_factor = rel, None
        if filt.rt_enabled:
            fixed_rel = T.rt_factor(store, fixed_which, fixed, filt.p,
                                    filt.zero_change_epsilon).factor * rel
            cand_factor = self._candidate_rt(cand_which)
        sc, _ = T.dbm_direction_scores(model, fixed_is_head, fixed_f, fixed_rel,
                                       cand_f, cand_factor)
        return sc[0]

    def tail_scores(self, head_id: int, rel_id: int) -> np.ndarray:
        if self.model.is_tdm:
            return self.score_block("tail", np.asarray([head_id]), np.asarray([rel_id]))[0]
        return self._dbm_scores(head_id, rel_id, fixed_is_head=True)

    def head_scores(self, tail_id: int, rel_id: int) -> np.ndarray:
        if self.model.is_tdm:
            return self.score_block("head", np.asarray([tail_id]), np.asarray([rel_id]))[0]
        return self._dbm_scores(tail_id, rel_id, fixed_is_head=False)

    def score_block(self, direction: str, fixed_ids: np.ndarray,
                    rel_ids: np.ndarray) -> np.ndarray:
        """(Q, N) scores for Q queries of one direction ("tail": fixed_ids are
        heads; "head": they are tails). Tensor models score the block with one
        (Q, d) @ (d, N) product; distance models score query by query."""
        if self.model.is_tdm:
            if direction == "head":
                rel_ids = rel_ids + self.store.meta["num_relations"]
            q, _ = T.tdm_forward(self.filt, self.store, self.model, fixed_ids, rel_ids)
            return q @ self.store["entity"].T
        one = self.tail_scores if direction == "tail" else self.head_scores
        return np.stack([one(f, r) for f, r in zip(fixed_ids.tolist(), rel_ids.tolist())])


@dataclass
class RankResult:
    head: int
    relation: int
    tail: int
    direction: str  # "tail" or "head"
    rank: float


@dataclass
class EvalReport:
    mrr: float
    hits: dict[int, float]
    query_count: int
    per_relation: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "query_count": self.query_count,
            "per_relation": self.per_relation,
        }


def _metrics(ranks: np.ndarray, hits_at) -> tuple[float, dict[int, float]]:
    mrr = float(np.mean(1.0 / ranks))
    hits = {int(n): float(np.mean(ranks <= n)) for n in hits_at}
    return mrr, hits


def _aggregate(results: list[RankResult], vocabulary, hits_at) -> EvalReport:
    if not results:
        return EvalReport(0.0, {int(n): 0.0 for n in hits_at}, 0, [])
    ranks = np.asarray([r.rank for r in results], dtype=np.float64)
    mrr, hits = _metrics(ranks, hits_at)
    by_rel: dict[int, list[float]] = {}
    for r in results:
        by_rel.setdefault(r.relation, []).append(r.rank)
    per_relation = []
    for rel_id in sorted(by_rel):
        rel_ranks = np.asarray(by_rel[rel_id])
        rel_mrr, rel_hits = _metrics(rel_ranks, hits_at)
        row = {
            "relation": vocabulary.relation_names[rel_id] if vocabulary else str(rel_id),
            "relation_id": rel_id,
            "queries": int(rel_ranks.size),
            "mrr": rel_mrr,
        }
        row.update({f"hits{n}": v for n, v in sorted(rel_hits.items())})
        per_relation.append(row)
    return EvalReport(mrr, hits, len(results), per_relation)


def collect_ranks(checkpoint, dataset: Dataset, split: str,
                  directions: str = "both") -> list[RankResult]:
    """Filtered rank of every query in the split, in deterministic order.

    Queries are scored in blocks of at most SCORE_BLOCK_BYTES per direction.
    Raises NumericalError when any score in a block is not finite.
    """
    if directions not in ("tail", "head", "both"):
        raise ValueError(f"unknown directions {directions!r}")
    arr = dataset.split_array(split)
    if not arr.size:
        raise EmptySplit(split)
    index = build_filter_index(dataset)
    scorer = CandidateScorer(checkpoint.store, checkpoint.model, checkpoint.filter)
    ent = checkpoint.store["entity"]
    chunk = max(1, SCORE_BLOCK_BYTES // (ent.shape[0] * ent.itemsize))
    wanted = [d for d in ("tail", "head") if directions in (d, "both")]
    results = []
    for lo in range(0, arr.shape[0], chunk):
        block = arr[lo:lo + chunk]
        scores = {}
        for d in wanted:
            fixed = block[:, 0] if d == "tail" else block[:, 2]
            scores[d] = scorer.score_block(d, fixed, block[:, 1])
            if not np.isfinite(scores[d]).all():
                raise NumericalError(f"non-finite {d} scores among {split} "
                                     f"triples {lo}..{lo + block.shape[0] - 1}")
        for i, (h, r, t) in enumerate(block.tolist()):
            if "tail" in scores:
                rank = filtered_rank(t, scores["tail"][i], index.tail_index.ids_of(h, r))
                results.append(RankResult(h, r, t, "tail", rank))
            if "head" in scores:
                rank = filtered_rank(h, scores["head"][i], index.head_index.ids_of(r, t))
                results.append(RankResult(h, r, t, "head", rank))
    return results


def evaluate_split(checkpoint, dataset: Dataset, split: str,
                   directions: str = "both", hits_at=DEFAULT_HITS) -> EvalReport:
    results = collect_ranks(checkpoint, dataset, split, directions)
    return _aggregate(results, dataset.vocabulary, hits_at)


def evaluate_grouped(checkpoint, dataset: Dataset, grouping, split: str = "test",
                     directions: str = "both", hits_at=DEFAULT_HITS,
                     num_buckets: int = 10) -> dict[str, EvalReport]:
    """Per-group metrics. grouping is one of:

    - "frequency" or a RelationFrequencyBuckets: train-frequency buckets,
      reported as "bucket_0" (most frequent) .. "bucket_k-1";
    - a RelationGroups: named groups, ungrouped relations under "_other";
    - an int relation id: that relation only, under its name.
    """
    results = collect_ranks(checkpoint, dataset, split, directions)
    vocab = dataset.vocabulary
    seed_names: list[str] = []

    if grouping == "frequency" or isinstance(grouping, RelationFrequencyBuckets):
        buckets = (
            grouping
            if isinstance(grouping, RelationFrequencyBuckets)
            else relation_frequency_buckets(dataset.train, vocab.num_relations, num_buckets)
        )
        width = len(str(len(buckets.bucket_members) - 1))
        seed_names = [f"bucket_{b:0{width}d}"
                      for b in range(len(buckets.bucket_members))]

        def group_name_of(rel_id):
            return f"bucket_{buckets.bucket_of[rel_id]:0{width}d}"

    elif isinstance(grouping, RelationGroups):
        resolved, _unknown = grouping.resolve(vocab)
        seed_names = grouping.group_names()

        def group_name_of(rel_id):
            return resolved.get(rel_id, "_other")

    elif isinstance(grouping, int):
        target = grouping
        seed_names = [vocab.relation_names[target]]

        def group_name_of(rel_id):
            return vocab.relation_names[rel_id] if rel_id == target else None

    else:
        raise ValueError(f"unsupported grouping {grouping!r}")

    # groups with no queries still report (zero counts), so bucket layouts
    # stay fixed across runs
    partition: dict[str, list[RankResult]] = {name: [] for name in seed_names}
    for res in results:
        name = group_name_of(res.relation)
        if name is not None:
            partition.setdefault(name, []).append(res)
    return {
        name: _aggregate(members, vocab, hits_at)
        for name, members in sorted(partition.items())
    }
