"""Filtered-ranking evaluation: MRR and Hits@N, overall and per grouping."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import models as M
from . import transforms as T
from .data import (
    Dataset,
    FilterIndex,
    RelationGroups,
    build_filter_index,
    relation_frequency_buckets,
)
from .errors import EmptySplit, GoldOutOfRange, NumericalError

HITS = (1, 3, 10)  # the Hits@N every report and CSV carries
# Target size of one score block, counting one array per block: the (queries, N)
# scores of tensor models, one (queries, N, d) intermediate of distance models
# (whose filter, rt and distance temporaries take a few times that), and one
# row block of a candidate rt table. At
# FB15k-237 shape, 16 MiB tensor blocks ranked more slowly and left about 17 MB
# more heap resident for the training that followed.
SCORE_BLOCK_BYTES = 1 << 22


def rank_block(scores: np.ndarray, gold: np.ndarray, ids: np.ndarray,
               start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Filtered mid-ranks of the Q gold candidates of a (Q, N) score block.

    Row q ranks candidate gold[q] after removing its known-true ids,
    ids[start[q]:stop[q]] (the gold id, repeats and ids outside [0, N)
    ignored): rank = 1 + #{better survivors} + #{tied survivors != gold} / 2.
    Scores are compared in their own dtype, which is exact.
    """
    q, n = scores.shape
    bad = (gold < 0) | (gold >= n)
    if bad.any():
        raise GoldOutOfRange(f"gold {gold[bad][0]} outside [0, {n})")
    rows = np.arange(q)
    s_gold = scores[rows, gold]
    # int32 row sums of the bool masks take about half the time of intp ones
    better = (scores > s_gold[:, None]).sum(axis=1, dtype=np.int32)
    tied = (scores == s_gold[:, None]).sum(axis=1, dtype=np.int32)
    # the known-true ids of every row, flattened, as (row, id) pairs
    lengths = stop - start
    row = np.repeat(rows, lengths)
    known = ids[np.arange(row.size) + np.repeat(start - (np.cumsum(lengths) - lengths),
                                                 lengths)]
    keep = (known != gold[row]) & (known >= 0) & (known < n)
    row, known = np.divmod(np.unique(row[keep] * n + known[keep]), n)
    s_known, s_row_gold = scores[row, known], s_gold[row]
    better = better - np.bincount(row[s_known > s_row_gold], minlength=q)
    tied = tied - np.bincount(row[s_known == s_row_gold], minlength=q)
    return 1.0 + better + 0.5 * (tied - 1)  # gold survives by construction


def filtered_rank(gold: int, scores: np.ndarray, known_true) -> float:
    """rank_block for one query; known_true is any iterable of ids."""
    known = (known_true if isinstance(known_true, np.ndarray)
             else np.fromiter(known_true, dtype=np.int64))
    return float(rank_block(np.asarray(scores)[None, :], np.asarray([gold]), known,
                            np.zeros(1, dtype=np.int64), np.asarray([known.size]))[0])


class CandidateScorer:
    """Scores every candidate entity for (lhs, relation) queries, applying the
    run's filter exactly as in training.

    Tensor models answer head queries through the reciprocal relation row and
    never transform candidates; distance models broadcast a block's fixed side
    against chunks of the candidate table with the candidate-side filter
    active, computing each chunk in the scorer's workspace. A scorer reads the
    store's tables as they are when it first needs them: the candidate rt
    factor tables of distance models are built once and reused, so the store
    must not change while the scorer is in use.
    """

    def __init__(self, store, model: M.ModelSpec, filt: T.FilterSpec):
        self.store = store
        self.model = model
        self.filt = filt
        self._cand_rt: dict[str, np.ndarray] = {}
        self._ws = M.Workspace()

    def _candidate_rt(self, which: str) -> np.ndarray:
        """(1, N, d_r) rt factor of every candidate entity, built on first use in
        row blocks of at most SCORE_BLOCK_BYTES, so its temporaries are a few
        blocks instead of a few tables. Each row's factor depends on that row
        alone."""
        if which not in self._cand_rt:
            ent, a = self.store["entity"], self.store[which]
            table = np.empty((1, ent.shape[0], a.shape[1]), np.result_type(ent, a))
            step = max(1, SCORE_BLOCK_BYTES // (a.shape[1] * table.itemsize))
            for lo in range(0, ent.shape[0], step):
                T.rt_factor(self.store, which, ent[None, lo:lo + step], self.filt.p,
                            out=table[:, lo:lo + step])
            self._cand_rt[which] = table
        return self._cand_rt[which]

    def tail_scores(self, head_id: int, rel_id: int) -> np.ndarray:
        return self.score_block("tail", np.asarray([head_id]), np.asarray([rel_id]))[0]

    def head_scores(self, tail_id: int, rel_id: int) -> np.ndarray:
        return self.score_block("head", np.asarray([tail_id]), np.asarray([rel_id]))[0]

    def score_block(self, direction: str, fixed_ids: np.ndarray,
                    rel_ids: np.ndarray) -> np.ndarray:
        """(Q, N) scores for Q queries of one direction ("tail": fixed_ids are
        heads; "head": they are tails). Tensor models score the block with one
        (Q, d) @ (d, N) product. Distance models score it in chunks of
        candidates whose (Q, C, d) arrays fit models.WORKSPACE_BYTES, each
        written straight into its columns of the block; the chunking changes
        no score."""
        store, model, filt = self.store, self.model, self.filt
        if model.is_tdm:
            if direction == "head":
                rel_ids = rel_ids + store.meta["num_relations"]
            q, _ = T.tdm_forward(filt, store, model, fixed_ids, rel_ids)
            return q @ store["entity"].T
        fixed_is_head = direction == "tail"
        rel = store["relation"][rel_ids]
        op = T.et_build(filt, store, rel, rel_ids, model.dim)
        fixed_on, cand_on, fixed_which, cand_which = T.dbm_direction(filt, fixed_is_head)
        ent = store["entity"]
        fixed = ent[fixed_ids]
        fixed_f = T.et_apply(op, fixed) if fixed_on else fixed
        fixed_rel, cand_rt = rel, None
        if filt.rt_enabled:
            fixed_rel = T.rt_factor(store, fixed_which, fixed, filt.p).factor * rel
            cand_rt = self._candidate_rt(cand_which)
        scores = np.empty((len(fixed_ids), ent.shape[0]), dtype=ent.dtype)
        step = max(1, M.WORKSPACE_BYTES // (max(1, len(fixed_ids)) * model.dim * ent.itemsize))
        for lo in range(0, ent.shape[0], step):
            chunk = slice(lo, lo + step)
            cand = ent[None, chunk]
            cand_f = T.et_apply(op, cand, ws=self._ws) if cand_on else cand
            cand_factor = None if cand_rt is None else cand_rt[:, chunk]
            T.dbm_direction_scores(model, fixed_is_head, fixed_f, fixed_rel, cand_f,
                                   cand_factor, ws=self._ws, out=scores[:, chunk])
        return scores

    @property
    def block_rows(self) -> int:
        """Queries per score block: as many as fit SCORE_BLOCK_BYTES, at least one."""
        ent = self.store["entity"]
        per_row = ent.shape[0] if self.model.is_tdm else ent.size
        return max(1, SCORE_BLOCK_BYTES // (per_row * ent.itemsize))

    def blocks(self, direction: str, fixed_ids: np.ndarray, rel_ids: np.ndarray):
        """Yields the queries' score blocks in order, each block_rows rows (the
        last may hold fewer). Raises NumericalError on a non-finite score."""
        rows = self.block_rows
        for lo in range(0, len(fixed_ids), rows):
            scores = self.score_block(direction, fixed_ids[lo:lo + rows],
                                      rel_ids[lo:lo + rows])
            if not np.isfinite(scores).all():
                raise NumericalError(f"non-finite {direction} scores among queries "
                                     f"{lo}..{lo + scores.shape[0] - 1}")
            yield scores


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


def _metrics(ranks: np.ndarray) -> tuple[float, dict[int, float]]:
    mrr = float(np.mean(1.0 / ranks))
    hits = {n: float(np.mean(ranks <= n)) for n in HITS}
    return mrr, hits


def aggregate(ranks: np.ndarray, relations: np.ndarray, vocabulary) -> EvalReport:
    """Metrics of float64 ranks, overall and per relation of the parallel
    int64 relation ids."""
    if not ranks.size:
        return EvalReport(0.0, {n: 0.0 for n in HITS}, 0, [])
    mrr, hits = _metrics(ranks)
    # a stable sort keeps each relation's ranks in query order
    order = np.argsort(relations, kind="stable")
    rel_ids, starts = np.unique(relations[order], return_index=True)
    per_relation = []
    for rel_id, rel_ranks in zip(rel_ids.tolist(), np.split(ranks[order], starts[1:])):
        rel_mrr, rel_hits = _metrics(rel_ranks)
        row = {
            "relation": vocabulary.relation_names[rel_id],
            "relation_id": rel_id,
            "queries": int(rel_ranks.size),
            "mrr": rel_mrr,
        }
        row.update({f"hits{n}": v for n, v in sorted(rel_hits.items())})
        per_relation.append(row)
    return EvalReport(mrr, hits, int(ranks.size), per_relation)


def collect_ranks(checkpoint, dataset: Dataset, split: str, directions: str = "both",
                  index: FilterIndex | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Filtered rank of every query in the split: (ranks, relations), float64
    ranks and their int64 relation ids, triple by triple in split order with
    the tail query before the head query. index is the dataset's filter
    index, built here when not given.

    Queries are scored through CandidateScorer.blocks, which raises
    NumericalError when any score is not finite, and ranked by rank_block. A
    rank that is not finite or lies outside [1, N] raises NumericalError too.
    """
    if directions not in ("tail", "head", "both"):
        raise ValueError(f"unknown directions {directions!r}")
    arr = dataset.split_array(split)
    if not arr.size:
        raise EmptySplit(split)
    if index is None:
        index = build_filter_index(dataset)
    scorer = CandidateScorer(checkpoint.store, checkpoint.model, checkpoint.filter)
    ent = checkpoint.store["entity"]
    n = ent.shape[0]
    # score blocks ranked together: distance blocks, often one query, are
    # stacked up to SCORE_BLOCK_BYTES of scores; tensor blocks already fill it
    stack = max(1, SCORE_BLOCK_BYTES // (n * ent.itemsize) // scorer.block_rows)
    heads, rels, tails = arr.T
    wanted = [d for d in ("tail", "head") if directions in (d, "both")]
    # one row per triple, one column per direction: raveled, the tail query
    # of each triple comes before its head query
    ranks = np.empty((len(arr), len(wanted)))
    for d, out in zip(wanted, ranks.T):
        table, fixed, gold, keys = ((index.tail_index, heads, tails, (heads, rels))
                                    if d == "tail" else
                                    (index.head_index, tails, heads, (rels, tails)))
        start, stop = table.slices(*keys)
        lo = 0
        blocks = scorer.blocks(d, fixed, rels)
        try:
            while group := list(itertools.islice(blocks, stack)):
                block = group[0] if len(group) == 1 else np.concatenate(group)
                hi = lo + block.shape[0]
                out[lo:hi] = rank_block(block, gold[lo:hi], table.ids,
                                        start[lo:hi], stop[lo:hi])
                lo = hi
        except NumericalError as err:
            raise NumericalError(f"{err} of the {split} split") from None
        bad = ~((out >= 1.0) & (out <= n))  # NaN fails both
        if bad.any():
            raise NumericalError(f"{np.count_nonzero(bad)} {d} ranks outside [1, {n}] "
                                 f"(first {out[bad][0]!r}) of the {split} split")
    return ranks.ravel(), np.repeat(rels, len(wanted))


def evaluate_split(checkpoint, dataset: Dataset, split: str, directions: str = "both",
                   index: FilterIndex | None = None) -> EvalReport:
    return aggregate(*collect_ranks(checkpoint, dataset, split, directions, index),
                     dataset.vocabulary)


def aggregate_groups(ranks: np.ndarray, relations: np.ndarray, dataset: Dataset,
                     grouping, num_buckets: int = 10) -> dict[str, EvalReport]:
    """Per-group metrics of collect_ranks' (ranks, relations). grouping is one of:

    - "frequency": train-frequency buckets, reported as "bucket_0" (most
      frequent) .. "bucket_k-1";
    - a RelationGroups: named groups, ungrouped relations under "_other";
    - an int relation id: that relation only, under its name.

    Each grouping maps relation ids to indices into its group names (-1: no
    group); a group's ranks are taken by mask, so they stay in query order.
    """
    vocab = dataset.vocabulary
    if grouping == "frequency":
        group_of = relation_frequency_buckets(dataset.train, vocab.num_relations, num_buckets)
        width = len(str(num_buckets - 1))
        names = [f"bucket_{b:0{width}d}" for b in range(num_buckets)]
    elif isinstance(grouping, RelationGroups):
        names = grouping.group_names()
        index = {name: g for g, name in enumerate(names)}
        # ungrouped relations join a group named "_other", or a new last one
        group_of = np.full(vocab.num_relations, index.get("_other", len(names)))
        for rel_id, name in grouping.resolve(vocab)[0].items():
            group_of[rel_id] = index[name]
    elif isinstance(grouping, int):
        names = [vocab.relation_names[grouping]]
        group_of = np.where(np.arange(vocab.num_relations) == grouping, 0, -1)
    else:
        raise ValueError(f"unsupported grouping {grouping!r}")

    group = group_of[relations]
    # named groups with no queries still report (zero counts), so bucket
    # layouts stay fixed across runs; the new "_other" only when it has queries
    if (group == len(names)).any():
        names.append("_other")
    reports = {name: aggregate(ranks[group == g], relations[group == g], vocab)
               for g, name in enumerate(names)}
    return dict(sorted(reports.items()))
