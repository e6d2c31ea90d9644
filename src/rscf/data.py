"""Triple files, vocabularies, filtered-evaluation indices, and relation groupings."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DuplicateRelation, MalformedLine, TooFewRelations

SPLITS = ("train", "valid", "test")


def _triple_names(path, fmt: str):
    """The [head, relation, tail] names of each line of a triple file, in file
    order, read one line at a time. fmt="tsv" splits on single tabs;
    fmt="whitespace" on any whitespace run (hand-written fixtures). Blank and
    whitespace-only lines are skipped but counted in MalformedLine's 1-based
    line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # universal newlines leave no "\r"; only the "\n" ends a line
            fields = line.split() if fmt == "whitespace" else line.rstrip("\n").split("\t")
            if len(fields) != 3 or line.isspace():
                if line.isspace():
                    continue
                raise MalformedLine(path, lineno, f"expected 3 fields, got {len(fields)}")
            yield fields


def _encode(rows, entities: dict, relations: dict) -> np.ndarray:
    """(n, 3) int64 ids of the (head, relation, tail) name rows, in order. A
    name new to `entities` (head before tail) or `relations` gets the next id
    there. The ids go to one flat buffer as each row is read, so no row
    outlives its turn."""
    ids = array("q")
    append = ids.append
    entity_id, relation_id = entities.get, relations.get
    for h, r, t in rows:
        i = entity_id(h)
        if i is None:
            i = entities[h] = len(entities)
        append(i)
        i = relation_id(r)
        if i is None:
            i = relations[r] = len(relations)
        append(i)
        i = entity_id(t)
        if i is None:
            i = entities[t] = len(entities)
        append(i)
    return np.frombuffer(ids, dtype=np.int64).reshape(-1, 3)


@dataclass
class Vocabulary:
    """Dense, deterministic name<->id maps for entities and relations."""

    entity_names: list[str]
    relation_names: list[str]
    entity_ids: dict[str, int] = field(init=False, repr=False)
    relation_ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.entity_ids = {name: i for i, name in enumerate(self.entity_names)}
        self.relation_ids = {name: i for i, name in enumerate(self.relation_names)}
        if len(self.entity_ids) != len(self.entity_names):
            raise ValueError("duplicate entity names")
        if len(self.relation_ids) != len(self.relation_names):
            raise ValueError("duplicate relation names")

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def to_dict(self) -> dict:
        return {"entities": self.entity_names, "relations": self.relation_names}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        return cls(list(d["entities"]), list(d["relations"]))


def _read_only_rows(rows) -> np.ndarray:
    """Read-only, C-contiguous (n, 3) int64 view of an (n, 3) int sequence."""
    arr = np.ascontiguousarray(rows, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (n, 3) triples, got shape {arr.shape}")
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(eq=False)
class Dataset:
    """Splits as read-only (n, 3) int64 arrays of (head, relation, tail) ids.

    Every consumer shares these arrays (split_array hands them out), so they
    are not writeable: a write would corrupt every later filter index and epoch.
    """

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    vocabulary: Vocabulary

    def __post_init__(self):
        for name in SPLITS:
            setattr(self, name, _read_only_rows(getattr(self, name)))

    def split_array(self, name: str) -> np.ndarray:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test])

    @classmethod
    def from_raw(cls, train_raw, valid_raw, test_raw) -> "Dataset":
        """Ids of (head, relation, tail) name triples, assigned by first
        appearance across train, valid and test in that order, head before
        tail; relations are numbered on their own."""
        entities: dict[str, int] = {}
        relations: dict[str, int] = {}
        arrays = [_encode(raw, entities, relations) for raw in (train_raw, valid_raw, test_raw)]
        return cls(*arrays, Vocabulary(list(entities), list(relations)))

    @classmethod
    def load(cls, train_path, valid_path=None, test_path=None, fmt: str = "tsv") -> "Dataset":
        """from_raw over the lines of the split files, each read once, line by
        line; a valid or test path of None gives an empty split."""
        if fmt not in ("tsv", "whitespace"):
            raise ValueError(f"unknown triple format: {fmt!r}")
        return cls.from_raw(*(_triple_names(p, fmt) if p else ()
                              for p in (train_path, valid_path, test_path)))

    @classmethod
    def load_dir(cls, directory, fmt: str = "tsv") -> "Dataset":
        """Load train.txt / valid.txt / test.txt from a directory (valid/test optional)."""
        d = Path(directory)
        valid = d / "valid.txt"
        test = d / "test.txt"
        return cls.load(
            d / "train.txt",
            valid if valid.exists() else None,
            test if test.exists() else None,
            fmt,
        )


def run_starts(x: np.ndarray) -> np.ndarray:
    """Bool mask of the entries of sorted x that differ from the one before
    (the first included): the first entry of each run of equal values."""
    first = np.empty(x.shape, dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


class IdTable:
    """Read-only map (a, b) -> ids, stored as CSR arrays.

    `key_codes` holds the distinct codes a * width + b in ascending order; the
    ids of key_codes[i] are ids[ptr[i]:ptr[i + 1]], ascending and without
    repeats. Built from equal-length arrays with a >= 0, 0 <= b < width and
    0 <= ids < id_bound, sorted as one int64 code per (a, b, id).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, ids: np.ndarray,
                 width: int, id_bound: int):
        self.width = width
        codes = a * width
        codes += b
        codes *= id_bound
        codes += ids
        codes.sort()
        key_of, self.ids = np.divmod(codes[run_starts(codes)], id_bound)
        starts = np.flatnonzero(run_starts(key_of))
        self.key_codes = key_of[starts]
        self.ptr = np.append(starts, key_of.size)

    def slices(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start, stop) arrays: the ids stored under key (a[i], b[i]) are
        ids[start[i]:stop[i]], an empty slice for a key with none (a < 0 or b
        outside [0, width) included)."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        codes = a * self.width + b
        i = np.searchsorted(self.key_codes, codes)
        hit = (a >= 0) & (b >= 0) & (b < self.width) & (i < self.key_codes.size)
        hit[hit] = self.key_codes[i[hit]] == codes[hit]
        start = self.ptr[i]
        return start, np.where(hit, self.ptr[np.minimum(i + 1, self.key_codes.size)], start)


@dataclass
class FilterIndex:
    """True-triple lookup over train+valid+test for filtered ranking."""

    tail_index: IdTable  # (head, relation) -> tails
    head_index: IdTable  # (relation, tail) -> heads


def _rows_with_keys(parts, query: np.ndarray, cols: tuple[int, int],
                    shape: tuple[int, int]) -> np.ndarray:
    """The rows of the (n, 3) arrays in parts whose columns `cols` hold a key
    that some row of query holds, concatenated in order. shape bounds the two
    columns' ids; a bool key-presence table over the codes a * shape[1] + b
    marks the query's keys."""
    def codes(x):
        return x[:, cols[0]] * shape[1] + x[:, cols[1]]

    present = np.zeros(shape[0] * shape[1], dtype=bool)
    present[codes(query)] = True
    return np.concatenate([p[present[codes(p)]] for p in parts])


def build_filter_index(dataset: Dataset, split: str | None = None) -> FilterIndex:
    """The filter index over train+valid+test. With a split, only the
    (head, relation) and (relation, tail) keys of that split's triples are
    indexed: each holds the same ids as in the full index, and every other
    key is empty. At FB15k-237 shape a 1,000-triple test split keys about 7%
    of the triples, so the scoped index skips most of the sorting."""
    parts = [dataset.split_array(name) for name in SPLITS]
    filled = [p for p in parts if p.size]
    num_e = max((int(p[:, ::2].max()) for p in filled), default=0) + 1
    num_r = max((int(p[:, 1].max()) for p in filled), default=0) + 1
    if split is None:
        tails = heads = dataset.all_triples()
    else:
        query = dataset.split_array(split)
        tails = _rows_with_keys(parts, query, (0, 1), (num_e, num_r))
        heads = _rows_with_keys(parts, query, (1, 2), (num_r, num_e))
    return FilterIndex(IdTable(tails[:, 0], tails[:, 1], tails[:, 2], num_r, num_e),
                       IdTable(heads[:, 1], heads[:, 2], heads[:, 0], num_e, num_e))


def relation_frequency_buckets(train: np.ndarray, num_relations: int,
                               k: int = 10) -> np.ndarray:
    """(num_relations,) int64 bucket of each relation: relations
    0..num_relations-1 partitioned into k buckets by descending frequency in
    train, (n, 3) (head, relation, tail) ids.

    Ties break by relation id ascending. When the count is not divisible by k,
    the earlier (higher-frequency) buckets take the extra relation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if num_relations < k:
        raise TooFewRelations(num_relations, k)
    rels = np.asarray(train, dtype=np.int64)[:, 1]
    freq = np.bincount(rels, minlength=num_relations)[:num_relations]
    order = np.argsort(-freq, kind="stable")  # (-freq, id): a stable sort keeps ids ascending
    base, extra = divmod(num_relations, k)
    bucket = np.empty(num_relations, dtype=np.int64)
    # bucket b holds base + 1 relations while b < extra, then base
    bucket[order] = np.repeat(np.arange(k), base + (np.arange(k) < extra))
    return bucket


@dataclass
class RelationGroups:
    """Partial map relation-name -> group-name, loaded from a 2-column TSV."""

    group_of: dict[str, str]

    def group_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for g in self.group_of.values():
            seen.setdefault(g)
        return list(seen)

    def resolve(self, vocabulary: Vocabulary) -> tuple[dict[int, str], int]:
        """Map relation ids to group names; returns (map, count of unknown names)."""
        resolved: dict[int, str] = {}
        unknown = 0
        for name, group in self.group_of.items():
            rel_id = vocabulary.relation_ids.get(name)
            if rel_id is None:
                unknown += 1
            else:
                resolved[rel_id] = group
        return resolved, unknown


def load_relation_groups(path) -> RelationGroups:
    group_of: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise MalformedLine(path, lineno, f"expected 2 fields, got {len(fields)}")
            group, relation = fields
            if relation in group_of:
                raise DuplicateRelation(relation)
            group_of[relation] = group
    return RelationGroups(group_of)
