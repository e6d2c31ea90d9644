"""Filtered-ranking evaluation: MRR and Hits@N, overall and per grouping."""

from __future__ import annotations

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
    run_starts,
)
from .errors import EmptySplit, GoldOutOfRange, NumericalError

HITS = (1, 3, 10)  # the Hits@N every report and CSV carries
# Target size of one score block's (queries, N) scores, and of one row block of
# a candidate rt table; a distance block's filter, rt and distance temporaries
# are candidate chunks that fit models.WORKSPACE_BYTES. At FB15k-237 shape,
# 16 MiB tensor blocks ranked more slowly and left about 17 MB more heap
# resident for the training that followed.
SCORE_BLOCK_BYTES = 1 << 22
_BYTE_SUM = np.uint64(0x0101010101010101)


def _row_counts(mask: np.ndarray, ws: M.Workspace) -> np.ndarray:
    """int64 count of the True entries of each row of a C-contiguous (Q, W)
    bool mask, W a multiple of 8. Each 8-byte word of a row holds 8 entries
    of 0 or 1, and times 0x0101010101010101 its top byte is their sum. At
    (72, 14,541) this takes about half the time of an int32 row sum of the
    mask, and no more at (300, 200)."""
    words = mask.view(np.uint64)
    sums = np.multiply(words, _BYTE_SUM, out=ws("rank.words", words.shape, np.uint64))
    np.right_shift(sums, np.uint64(56), out=sums)
    return sums.view(np.int64).sum(axis=1)


def rank_block(scores: np.ndarray, gold: np.ndarray, ids: np.ndarray,
               start: np.ndarray, stop: np.ndarray,
               ws: M.Workspace = M.FRESH) -> np.ndarray:
    """Filtered mid-ranks of the Q gold candidates of a (Q, N) score block.

    Row q ranks candidate gold[q] after removing its known-true ids,
    ids[start[q]:stop[q]] (the gold id, repeats and ids outside [0, N)
    ignored): rank = 1 + #{better survivors} + #{tied survivors != gold} / 2.
    Scores are compared in their own dtype, which is exact. Both comparisons
    write the workspace's "rank.mask" buffer in turn.
    """
    q, n = scores.shape
    bad = (gold < 0) | (gold >= n)
    if bad.any():
        raise GoldOutOfRange(f"gold {gold[bad][0]} outside [0, {n})")
    rows = np.arange(q)
    s_gold = scores[rows, gold]
    # rows padded with False to whole 8-byte words, for _row_counts
    mask = ws("rank.mask", (q, -(-n // 8) * 8), bool)
    mask[:, n:] = False
    np.greater(scores, s_gold[:, None], out=mask[:, :n])
    better = _row_counts(mask, ws)
    np.equal(scores, s_gold[:, None], out=mask[:, :n])
    tied = _row_counts(mask, ws)
    # the known-true ids of every row, flattened, as (row, id) pairs
    lengths = stop - start
    row = np.repeat(rows, lengths)
    known = ids[np.arange(row.size) + np.repeat(start - (np.cumsum(lengths) - lengths),
                                                 lengths)]
    keep = (known != gold[row]) & (known >= 0) & (known < n)
    # each distinct pair once: a sort, then the first of each run of equal codes
    codes = row[keep] * n + known[keep]
    codes.sort()
    row, known = np.divmod(codes[run_starts(codes)], n)
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
    never transform candidates; distance models broadcast each group of a
    block's fixed side against chunks of the candidate table with the
    candidate-side filter active, computing each chunk in the scorer's
    workspace. A scorer reads the store's tables as they are when it first
    needs them: the candidate rt factor tables of distance models are built
    once and reused, so the store must not change while the scorer is in use.

    Tensor score blocks are written into the scorer's workspace, so a block
    from score_block or blocks is valid only until the scorer's next block;
    a caller that keeps one copies it. tail_scores and head_scores return
    rows the caller owns.
    """

    def __init__(self, store, model: M.ModelSpec, filt: T.FilterSpec):
        self.store = store
        self.model = model
        self.filt = filt
        self._cand_rt: dict[str, np.ndarray] = {}
        self._ws = M.Workspace()

    def _candidate_rt(self, which: str) -> np.ndarray:
        """(1, N, d_r) rt factor of every candidate entity, built on first use in
        row blocks of about SCORE_BLOCK_BYTES, so its temporaries are a few
        blocks instead of a few tables. A block of two or more rows gives each
        row the bits that a build of the whole table gives it; a one-row
        product takes NumPy's matrix-vector path and may round otherwise, so a
        one-row last block joins the block before it."""
        if which not in self._cand_rt:
            ent, a = self.store["entity"], self.store[which]
            table = np.empty((1, ent.shape[0], a.shape[1]), np.result_type(ent, a))
            blocks = M.row_blocks(ent.shape[0], a.shape[1] * table.itemsize,
                                  SCORE_BLOCK_BYTES)
            if len(blocks) > 1 and blocks[-1].stop - blocks[-1].start == 1:
                blocks[-2:] = [slice(blocks[-2].start, blocks[-1].stop)]
            for sl in blocks:
                T.rt_factor(self.store, which, ent[None, sl], self.filt.p, out=table[:, sl])
            self._cand_rt[which] = table
        return self._cand_rt[which]

    def tail_scores(self, head_id: int, rel_id: int) -> np.ndarray:
        return self.score_block("tail", np.asarray([head_id]), np.asarray([rel_id]))[0].copy()

    def head_scores(self, tail_id: int, rel_id: int) -> np.ndarray:
        return self.score_block("head", np.asarray([tail_id]), np.asarray([rel_id]))[0].copy()

    def score_block(self, direction: str, fixed_ids: np.ndarray,
                    rel_ids: np.ndarray) -> np.ndarray:
        """(Q, N) scores for Q queries of one direction ("tail": fixed_ids are
        heads; "head": they are tails). Tensor models score the block with
        one (Q, d) @ (d, N) product into the workspace's "eval.scores"
        buffer. Distance models score it into a new array, in groups of as
        many queries as one (queries, N, d) array fits SCORE_BLOCK_BYTES:
        each group builds its filter and its transforms.query_side once and
        copies them into (group, C, .) tiles, then scores chunks of candidates whose
        (group, C, d) arrays fit models.WORKSPACE_BYTES straight into its
        rows and columns of the block, through the no-tape distance kernels
        (the filtered candidates in one workspace buffer, the rest of the
        distance in place in another). The chunking changes no score, and a
        group scores as a block of its queries alone would; larger groups
        would round their batched fixed-side products differently."""
        store, model, filt = self.store, self.model, self.filt
        ent = store["entity"]
        if model.is_tdm:
            if direction == "head":
                rel_ids = rel_ids + store.meta["num_relations"]
            q, _ = T.tdm_forward(filt, store, model, fixed_ids, rel_ids, ws=self._ws)
            return np.matmul(q, ent.T, out=self._ws("eval.scores", (len(q), ent.shape[0]),
                                                    np.result_type(q, ent)))
        scores = np.empty((len(fixed_ids), ent.shape[0]), dtype=ent.dtype)
        fixed_is_head = direction == "tail"
        for group in M.row_blocks(len(fixed_ids), ent.nbytes, SCORE_BLOCK_BYTES):
            rel_rows = rel_ids[group]
            rel = store["relation"][rel_rows]
            side = T.query_side(filt, store, fixed_is_head, ent[fixed_ids[group]], rel,
                                T.et_build(filt, store, rel, rel_rows, model.dim))
            cand_rt = self._candidate_rt(side.cand_which) if filt.rt_enabled else None
            chunks = M.row_blocks(ent.shape[0], len(rel) * model.dim * ent.itemsize,
                                  M.WORKSPACE_BYTES)
            # Operands that a chunk's ufuncs read whole are tiled. The rotate
            # head is read in halves and linear2 blocks in quarters, strided
            # either way; rotate's relation without rt keeps its (Q, 1, d_r)
            # rows, whose trig would otherwise be taken for every candidate.
            width = chunks[0].stop
            rotate = model.kind == "rotate"
            fixed_f = self._tile("tile.fixed", side.fixed_f, width,
                                 not (rotate and fixed_is_head))
            fixed_rel = self._tile("tile.rel", side.rel_t, width, filt.rt_enabled or not rotate)
            op = side.cand_op
            if op is not None:
                op = T.EtOp(op.kind, self._tile("tile.mult", op.mult, width),
                            self._tile("tile.bias", op.bias, width),
                            self._tile("tile.blocks", op.blocks, width, False))
            # each chunk width's views of them, bound once per group
            bound = {n: (fixed_f[:, :n], fixed_rel[:, :n],
                         None if op is None else op.rows(np.s_[:, :n]))
                     for n in {width, chunks[-1].stop - chunks[-1].start}}
            for chunk in chunks:
                fixed_c, rel_c, op_c = bound[chunk.stop - chunk.start]
                cand_factor = None if cand_rt is None else cand_rt[:, chunk]
                T.dbm_direction_scores(model, fixed_is_head, fixed_c, rel_c, op_c,
                                       ent[None, chunk], cand_factor, ws=self._ws,
                                       out=scores[group, chunk], tape=False)
        return scores

    def _tile(self, name: str, rows, width: int, whole: bool = True):
        """The (Q, k) rows copied across `width` candidates into the
        workspace's (Q, width, k) `name` buffer, so that a chunk's ufuncs read
        contiguous operands instead of broadcasting a (Q, 1, k) row; that row
        view when not whole, and None for None. A tile is not written again
        until the next group builds it."""
        if rows is None or not whole:
            return None if rows is None else rows[:, None, :]
        out = self._ws(name, (rows.shape[0], width, rows.shape[-1]), rows.dtype)
        np.copyto(out, rows[:, None, :])
        return out

    @property
    def block_rows(self) -> int:
        """Queries per score block: as many (N,) score rows as fit
        SCORE_BLOCK_BYTES, at least one; for distance models, rounded down to
        whole groups of score_block, at least one group."""
        ent = self.store["entity"]
        rows = M.rows_per_block(ent.shape[0] * ent.itemsize, SCORE_BLOCK_BYTES)
        if self.model.is_tdm:
            return rows
        group = M.rows_per_block(ent.nbytes, SCORE_BLOCK_BYTES)
        return max(1, rows // group) * group

    def blocks(self, direction: str, fixed_ids: np.ndarray, rel_ids: np.ndarray):
        """Yields the queries' score blocks in order, each block_rows rows (the
        last may hold fewer) and valid until the next block is drawn. Raises
        NumericalError on a non-finite score."""
        rows = self.block_rows
        for lo in range(0, len(fixed_ids), rows):
            scores = self.score_block(direction, fixed_ids[lo:lo + rows],
                                      rel_ids[lo:lo + rows])
            finite = self._ws("eval.finite", scores.shape, bool)
            if not np.isfinite(scores, out=finite).all():
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


def aggregate(ranks: np.ndarray, relations: np.ndarray, vocabulary) -> EvalReport:
    """Metrics of float64 ranks, overall and per relation of the parallel
    int64 relation ids.

    Each MRR is np.mean's: one pairwise np.add.reduce over the reciprocal
    ranks in query order, divided by their count. Hits are integer counts
    divided by the count, which is what np.mean of a bool mask gives."""
    if not ranks.size:
        return EvalReport(0.0, {n: 0.0 for n in HITS}, 0, [])
    mrr = float(np.mean(1.0 / ranks))
    hits = {n: float(np.mean(ranks <= n)) for n in HITS}
    # a stable sort keeps each relation's ranks in query order
    order = np.argsort(relations, kind="stable")
    sorted_rels, sorted_ranks = relations[order], ranks[order]
    first = run_starts(sorted_rels)
    starts = np.flatnonzero(first)
    bounds = np.append(starts, ranks.size).tolist()
    segment = np.cumsum(first) - 1  # each sorted rank's relation, numbered from 0
    recip = 1.0 / sorted_ranks
    hit_counts = {n: np.bincount(segment[sorted_ranks <= n], minlength=starts.size).tolist()
                  for n in HITS}
    per_relation = []
    for i, rel_id in enumerate(sorted_rels[starts].tolist()):
        lo, hi = bounds[i], bounds[i + 1]
        row = {
            "relation": vocabulary.relation_names[rel_id],
            "relation_id": rel_id,
            "queries": hi - lo,
            "mrr": float(np.add.reduce(recip[lo:hi]) / (hi - lo)),
        }
        row.update({f"hits{n}": hit_counts[n][i] / (hi - lo) for n in HITS})
        per_relation.append(row)
    return EvalReport(mrr, hits, int(ranks.size), per_relation)


def collect_ranks(checkpoint, dataset: Dataset, split: str, directions: str = "both",
                  index: FilterIndex | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Filtered rank of every query in the split: (ranks, relations), float64
    ranks and their int64 relation ids, triple by triple in split order with
    the tail query before the head query. index is the dataset's filter
    index; when not given, one that holds only this split's keys is built
    here.

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
        index = build_filter_index(dataset, split)
    scorer = CandidateScorer(checkpoint.store, checkpoint.model, checkpoint.filter)
    ws = M.Workspace()  # rank_block's masks
    n = checkpoint.store["entity"].shape[0]
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
        try:
            for block in scorer.blocks(d, fixed, rels):
                hi = lo + block.shape[0]
                out[lo:hi] = rank_block(block, gold[lo:hi], table.ids,
                                        start[lo:hi], stop[lo:hi], ws)
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
        if not 0 <= grouping < vocab.num_relations:
            raise ValueError(f"relation id {grouping} outside [0, {vocab.num_relations})")
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
