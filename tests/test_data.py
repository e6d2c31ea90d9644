import gc
import json
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscf.data import (
    SPLITS,
    Dataset,
    Vocabulary,
    build_filter_index,
    load_relation_groups,
    relation_frequency_buckets,
)
from rscf.errors import DuplicateRelation, MalformedLine, TooFewRelations
from rscf.reference import build_vocabulary, encode, ids_of, load_triples

BENCH_DIR = os.environ.get("RSCF_BENCH_DIR", "")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTriples:
    def test_single_line(self, tmp_path):
        path = _write(tmp_path, "t.txt", "a\tr1\tb\n")
        assert load_triples(path) == [("a", "r1", "b")]

    def test_field_count_error_carries_line_number(self, tmp_path):
        path = _write(tmp_path, "t.txt", "a r1\n")
        with pytest.raises(MalformedLine) as err:
            load_triples(path, fmt="whitespace")
        assert err.value.line_number == 1

    def test_tab_mode_rejects_space_separated(self, tmp_path):
        path = _write(tmp_path, "t.txt", "a r1 b\n")
        with pytest.raises(MalformedLine):
            load_triples(path)

    def test_whitespace_mode(self, tmp_path):
        path = _write(tmp_path, "t.txt", "a   r1\tb\n\n x y z\n")
        assert load_triples(path, fmt="whitespace") == [("a", "r1", "b"), ("x", "y", "z")]

    def test_file_order_no_dedup(self, tmp_path):
        path = _write(tmp_path, "t.txt", "a\tr\tb\na\tr\tb\n")
        assert load_triples(path) == [("a", "r", "b")] * 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_triples(tmp_path / "nope.txt")


class TestVocabulary:
    def test_first_appearance_order(self):
        vocab = build_vocabulary([("a", "r", "b")])
        assert vocab.entity_ids == {"a": 0, "b": 1}
        assert vocab.relation_ids == {"r": 0}

    def test_split_order_train_valid_test(self):
        vocab = build_vocabulary([("a", "r", "b")], [("c", "s", "a")], [("d", "r", "c")])
        assert vocab.entity_names == ["a", "b", "c", "d"]
        assert vocab.relation_names == ["r", "s"]

    def test_deterministic(self):
        raw = [("x", "p", "y"), ("y", "q", "z"), ("x", "q", "x")]
        assert build_vocabulary(raw).entity_names == build_vocabulary(raw).entity_names

    def test_roundtrip_serialization(self):
        vocab = build_vocabulary([("a", "r", "b"), ("c", "s", "d")])
        again = Vocabulary.from_dict(json.loads(json.dumps(vocab.to_dict())))
        assert again.entity_ids == vocab.entity_ids
        assert again.relation_ids == vocab.relation_ids


class TestDatasetArrays:
    def test_splits_are_read_only_int64_rows(self, tmp_path):
        _write(tmp_path, "train.txt", "a\tr\tb\nb\ts\tc\n")
        _write(tmp_path, "test.txt", "c\tr\ta\n")
        ds = Dataset.load_dir(tmp_path)
        assert ds.train.tolist() == [[0, 0, 1], [1, 1, 2]]
        assert ds.test.tolist() == [[2, 0, 0]]
        assert ds.valid.shape == (0, 3)
        for name in ("train", "valid", "test"):
            arr = ds.split_array(name)
            assert arr is getattr(ds, name)
            assert arr.dtype == np.int64 and arr.flags.c_contiguous
            with pytest.raises(ValueError):
                arr[:1, 0] = 7
        assert ds.train.tolist() == [[0, 0, 1], [1, 1, 2]]
        with pytest.raises(ValueError, match="unknown split"):
            ds.split_array("dev")

    def test_any_triple_sequence_becomes_read_only_rows(self):
        rows = np.array([[0, 0, 1], [1, 0, 0]], dtype=np.int32)
        ds = Dataset(train=rows, valid=[(1, 0, 1)], test=[], vocabulary=build_vocabulary([]))
        assert ds.train.dtype == np.int64 and ds.valid.tolist() == [[1, 0, 1]]
        assert ds.test.shape == (0, 3)
        with pytest.raises(ValueError):
            ds.valid[0, 0] = 0
        with pytest.raises(ValueError, match="expected \\(n, 3\\) triples"):
            Dataset(train=[(0, 1)], valid=[], test=[], vocabulary=build_vocabulary([]))

    def test_encode_rejects_unknown_names(self):
        vocab = build_vocabulary([("a", "r", "b")])
        assert encode(vocab, [("b", "r", "a")]).tolist() == [[1, 0, 0]]
        assert encode(vocab, []).shape == (0, 3)
        with pytest.raises(KeyError):
            encode(vocab, [("a", "r", "zz")])
        with pytest.raises(KeyError):
            encode(vocab, [("a", "q", "b")])

    def test_load_keeps_no_python_object_per_triple(self, tmp_path):
        gen = np.random.default_rng(12)
        n = 20_000
        rows = np.stack([gen.integers(0, 2_000, n), gen.integers(0, 50, n),
                         gen.integers(0, 2_000, n)], axis=1).tolist()
        lines = "".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows)
        data = tmp_path / "kg"
        data.mkdir()
        _write(data, "train.txt", lines)
        warm = tmp_path / "warm"  # imports and caches the first load makes
        warm.mkdir()
        _write(warm, "train.txt", "a\tr\tb\n")
        Dataset.load_dir(warm)
        gc.collect()
        before = len(gc.get_objects())
        ds = Dataset.load_dir(data)
        gc.collect()
        growth = len(gc.get_objects()) - before
        assert len(ds.train) == n
        assert growth < 0.01 * n, growth


def _oracle_load(paths, fmt="tsv"):
    """Vocabulary and split arrays of the three-pass reference loader; a None
    path is an empty split."""
    raws = [load_triples(p, fmt) if p else [] for p in paths]
    vocab = build_vocabulary(*raws)
    return vocab, [encode(vocab, raw) for raw in raws]


def _assert_matches_oracle(ds, paths, fmt="tsv"):
    vocab, arrays = _oracle_load(paths, fmt)
    assert ds.vocabulary.entity_names == vocab.entity_names
    assert ds.vocabulary.relation_names == vocab.relation_names
    for name, want in zip(SPLITS, arrays):
        got = ds.split_array(name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _write_bytes(tmp_path, name, text):
    """Write text as UTF-8 bytes, line endings as given."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


class TestStreamingLoad:
    """Dataset.load against the three-pass oracle (read every line into
    tuples, number the names, encode): the same vocabulary, the same array
    bytes and the same errors."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, tmp_path, seed):
        gen = np.random.default_rng(seed)
        ents, rels = int(gen.integers(1, 40)), int(gen.integers(1, 8))
        pool = [f"/m/\u00e9{i}" for i in range(ents)]
        paths = []
        for name in SPLITS:
            n = int(gen.integers(0, 120))
            lines = [f"{pool[gen.integers(ents)]}\tr{gen.integers(rels)}\t"
                     f"{pool[gen.integers(ents)]}" for _ in range(n)]
            lines += lines[: int(gen.integers(0, 4))]  # duplicate triples
            paths.append(_write_bytes(tmp_path, f"{name}.txt", "".join(
                line + ("\n", "\r\n", "\r")[gen.integers(3)] for line in lines)))
        ds = Dataset.load(*paths)
        _assert_matches_oracle(ds, paths)
        again = Dataset.from_raw(*(load_triples(p) for p in paths))
        assert again.vocabulary.to_dict() == ds.vocabulary.to_dict()
        assert all(again.split_array(s).tobytes() == ds.split_array(s).tobytes()
                   for s in SPLITS)

    @pytest.mark.parametrize("text", [
        "a\tr\tb\r\nb\ts\tc\r\n",  # CRLF
        "a\tr\tb\rb\ts\tc\r",  # lone CR
        "a\tr\tb\r\nb\ts\tc\rc\tr\ta\n",  # mixed
        "\n\na\tr\tb\n \n\t\n \t \t \nb\ts\tc\n\n",  # blank and whitespace-only lines
        "a\tr\tb\nb\ts\tc",  # no trailing newline
        " a\tr \t b \n",  # spaces around names belong to the names
        "a\tr\tb\n \t \t ",  # whitespace-only last line with two tabs, no newline
        "a\tr\tb\n\u3000\n\xa0\t\u2003\t\u3000\nb\t \tc\n",  # non-ASCII blank lines; a " " name
        "",
    ])
    def test_tsv_edge_cases(self, tmp_path, text):
        path = _write_bytes(tmp_path, "train.txt", text)
        _assert_matches_oracle(Dataset.load(path), (path, None, None))

    @pytest.mark.parametrize("text", [
        "a   r1\tb\n\n x y z\n",
        "a\xa0r\u3000b\n\u2003\nc\u2028s\u2029a\n",  # non-ASCII whitespace splits fields
        "a\x85r\x1cb\r\nb\x0br\x0cc",  # NEL and separators split fields, not lines
        " \t \t \n\u3000\n",
    ])
    def test_whitespace_format_edge_cases(self, tmp_path, text):
        path = _write_bytes(tmp_path, "train.txt", text)
        _assert_matches_oracle(Dataset.load(path, fmt="whitespace"), (path, None, None),
                               "whitespace")

    def test_duplicates_and_names_shared_across_splits(self, tmp_path):
        paths = [_write(tmp_path, "train.txt", "a\tr\tb\na\tr\tb\n"),
                 _write(tmp_path, "valid.txt", "c\ts\ta\nb\tr\ta\n"),
                 _write(tmp_path, "test.txt", "d\tt\tc\na\tr\tb\nd\ts\td\n")]
        ds = Dataset.load(*paths)
        _assert_matches_oracle(ds, paths)
        assert ds.vocabulary.entity_names == ["a", "b", "c", "d"]
        assert ds.vocabulary.relation_names == ["r", "s", "t"]
        assert ds.test.tolist() == [[3, 2, 2], [0, 0, 1], [3, 1, 3]]

    def test_missing_valid_and_test(self, tmp_path):
        train = _write(tmp_path, "train.txt", "a\tr\tb\nb\ts\tc\n")
        for paths in ((train, None, None), (train, "", None),
                      (train, None, _write(tmp_path, "test.txt", "c\tr\td\n"))):
            _assert_matches_oracle(Dataset.load(*paths), paths)
        (tmp_path / "test.txt").unlink()
        _write(tmp_path, "valid.txt", "c\tq\ta\n")
        _assert_matches_oracle(Dataset.load_dir(tmp_path),
                               (train, tmp_path / "valid.txt", None))

    @pytest.mark.parametrize("bad", SPLITS)
    def test_malformed_line_numbers_in_each_split(self, tmp_path, bad):
        paths = []
        for name in SPLITS:
            text = "a\tr\tb\n"
            if name == bad:
                text += "\r\n \t \t \n\nb\ts\tc\r\nc\ts\n"  # line 6 has two fields
            paths.append(_write_bytes(tmp_path, f"{name}.txt", text))
        with pytest.raises(MalformedLine) as want:
            _oracle_load(paths)
        with pytest.raises(MalformedLine) as got:
            Dataset.load(*paths)
        assert got.value.path == want.value.path == paths[SPLITS.index(bad)]
        assert got.value.line_number == want.value.line_number == 6
        assert str(got.value) == str(want.value)

    def test_unknown_format_before_any_file_is_opened(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(ValueError, match="unknown triple format"):
            load_triples(missing, fmt="csv")
        with pytest.raises(ValueError, match="unknown triple format"):
            Dataset.load(missing, missing, missing, fmt="csv")
        with pytest.raises(OSError):
            Dataset.load(missing)

    def test_peak_memory_is_bounded_by_the_output(self, tmp_path):
        """tracemalloc's peak while loading about 30k lines stays under twice
        the bytes of the split arrays and the vocabulary it returns: nothing
        per line is kept while the file is read (a load that keeps a list of
        name tuples peaks at about 8.4 MB here, four times the bound)."""
        gen = np.random.default_rng(3)
        n = 30_000
        rows = np.stack([gen.integers(0, 3_000, n), gen.integers(0, 50, n),
                         gen.integers(0, 3_000, n)], axis=1).tolist()
        _write(tmp_path, "train.txt",
               "".join(f"/m/e{h:05d}\t/r/rel_{r:03d}\t/m/e{t:05d}\n" for h, r, t in rows))
        Dataset.load_dir(tmp_path)  # imports and caches the first load makes
        tracemalloc.start()
        try:
            ds = Dataset.load_dir(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vocab = ds.vocabulary
        names = vocab.entity_names + vocab.relation_names
        output = (sum(ds.split_array(s).nbytes for s in SPLITS)
                  + sum(map(sys.getsizeof, names))
                  + sum(map(sys.getsizeof, (vocab.entity_names, vocab.relation_names,
                                            vocab.entity_ids, vocab.relation_ids))))
        assert len(ds.train) == n
        assert peak < 2 * output, (peak, output)


class TestFilterIndex:
    def test_merges_splits(self):
        ds = Dataset(train=[(0, 0, 1)], valid=[(0, 0, 2)], test=[],
                     vocabulary=build_vocabulary([("a", "r", "b"), ("a", "r", "c")]))
        index = build_filter_index(ds)
        assert ids_of(index.tail_index, 0, 0).tolist() == [1, 2]
        assert ids_of(index.head_index, 0, 1).tolist() == [0]

    def test_id_slices_are_sorted_and_deduplicated(self):
        ds = Dataset(train=[(0, 0, 2), (0, 0, 1), (0, 0, 2)],
                     valid=[(0, 0, 1)], test=[(0, 0, 2), (3, 0, 2)],
                     vocabulary=build_vocabulary([("a", "r", "b")]))
        index = build_filter_index(ds)
        assert ids_of(index.tail_index, 0, 0).tolist() == [1, 2]
        assert ids_of(index.head_index, 0, 2).tolist() == [0, 3]
        assert ids_of(index.tail_index, 0, 1).size == 0
        assert ids_of(index.tail_index, -1, 0).size == 0
        assert index.tail_index.key_codes.size == 2  # keys (0, 0) and (3, 0)
        assert ids_of(index.tail_index, 3, 0).tolist() == [2]
        assert index.head_index.key_codes.size == 2 and ids_of(index.head_index, 0, 1).size > 0

    def test_empty_dataset(self):
        ds = Dataset([], [], [], build_vocabulary([]))
        index = build_filter_index(ds)
        assert index.tail_index.key_codes.size == 0 and index.head_index.key_codes.size == 0

    def test_matches_linear_scan_on_random_kg(self):
        gen = np.random.default_rng(5)
        triples = [tuple(map(int, row)) for row in
                   np.stack([gen.integers(0, 9, 50), gen.integers(0, 3, 50),
                             gen.integers(0, 9, 50)], axis=1)]
        names = [(f"e{i}", f"r{j}", f"e{k}") for i, j, k in triples]
        ds = Dataset.from_raw(names[:30], names[30:40], names[40:])
        index = build_filter_index(ds)
        everything = ds.all_triples().tolist()
        for h in range(ds.vocabulary.num_entities):
            for r in range(ds.vocabulary.num_relations):
                expected = {t for hh, rr, t in everything if hh == h and rr == r}
                assert set(ids_of(index.tail_index, h, r).tolist()) == expected

    def test_slices_match_scalar_lookup_and_linear_scan(self):
        gen = np.random.default_rng(6)
        triples = [tuple(map(int, row)) for row in
                   np.stack([gen.integers(0, 7, 40), gen.integers(0, 3, 40),
                             gen.integers(0, 7, 40)], axis=1)]
        names = [(f"e{i}", f"r{j}", f"e{k}") for i, j, k in triples]
        ds = Dataset.from_raw(names[:25], names[25:32], names[32:])
        everything = ds.all_triples().tolist()
        num_e, num_r = ds.vocabulary.num_entities, ds.vocabulary.num_relations
        table = build_filter_index(ds).tail_index
        # present and absent keys, negative a or b, and b at or past the width
        keys = [(h, r) for h in range(-2, num_e + 2) for r in range(-2, num_r + 3)]
        heads, rels = np.asarray(keys).T
        order = gen.permutation(len(keys))  # lookups need not come sorted
        start, stop = table.slices(heads[order], rels[order])
        hits = 0
        for i, (h, r) in enumerate(np.asarray(keys)[order].tolist()):
            got = table.ids[start[i]:stop[i]]
            assert got.tolist() == ids_of(table, h, r).tolist()
            expected = sorted({t for hh, rr, t in everything if hh == h and rr == r})
            assert got.tolist() == expected
            hits += bool(expected)
        assert 0 < hits < len(keys)
        empty = build_filter_index(Dataset([], [], [], build_vocabulary([]))).tail_index
        start, stop = empty.slices(heads, rels)
        assert np.array_equal(start, stop)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_split_scoped_index_holds_the_split_keys(self, seed, split):
        """An index built for one split gives each of that split's keys the
        full index's ids, and every other key (absent from the graph, negative
        or past the width included) an empty slice."""
        gen = np.random.default_rng(seed)
        raw = [(f"e{gen.integers(12)}", f"r{gen.integers(4)}", f"e{gen.integers(12)}")
               for _ in range(90)]
        ds = Dataset.from_raw(raw[:60], raw[60:72], raw[72:])
        full, scoped = build_filter_index(ds), build_filter_index(ds, split)
        arr = ds.split_array(split)
        num_e = ds.vocabulary.num_entities
        graph = ds.all_triples().tolist()
        for full_table, table, queried, in_graph, bound in (
                (full.tail_index, scoped.tail_index, {(h, r) for h, r, _ in arr.tolist()},
                 {(h, r) for h, r, _ in graph}, num_e),
                (full.head_index, scoped.head_index, {(r, t) for _, r, t in arr.tolist()},
                 {(r, t) for _, r, t in graph}, full.tail_index.width)):
            assert table.width == full_table.width
            keys = [(a, b) for a in range(-1, bound + 1) for b in range(-1, table.width + 2)]
            a, b = np.asarray(keys).T
            start, stop = table.slices(a, b)
            full_start, full_stop = full_table.slices(a, b)
            absent = 0
            for i, key in enumerate(keys):
                got = table.ids[start[i]:stop[i]].tolist()
                if key in queried:
                    assert got == full_table.ids[full_start[i]:full_stop[i]].tolist() != []
                else:
                    assert got == [], key
                absent += key not in in_graph
            assert queried and absent

    def test_completeness_invariant(self):
        gen = np.random.default_rng(9)
        raw = [(f"e{gen.integers(6)}", f"r{gen.integers(2)}", f"e{gen.integers(6)}")
               for _ in range(40)]
        ds = Dataset.from_raw(raw[:20], raw[20:30], raw[30:])
        index = build_filter_index(ds)
        for h, r, t in ds.all_triples().tolist():
            assert t in ids_of(index.tail_index, h, r)
            assert h in ids_of(index.head_index, r, t)


def _bucket_members(buckets, k):
    """Relation ids of each of the k buckets, ascending, from the bucket array."""
    members = [[] for _ in range(k)]
    for rel_id, b in enumerate(buckets.tolist()):
        members[b].append(rel_id)
    return members


class TestFrequencyBuckets:
    def test_even_split(self):
        train = [(0, r, 0) for r in range(20) for _ in range(20 - r)]
        members = _bucket_members(relation_frequency_buckets(train, 20, k=10), 10)
        assert [len(b) for b in members] == [2] * 10
        assert members[0] == [0, 1]

    def test_tie_breaks_by_relation_id(self):
        train = [(0, 0, 0)] * 5 + [(0, 1, 0)] * 5 + [(0, 2, 0)]
        buckets = relation_frequency_buckets(train, 3, k=3)
        assert _bucket_members(buckets, 3) == [[0], [1], [2]]

    def test_237_relations_into_10(self):
        train = [(0, r, 0) for r in range(237) for _ in range(r + 1)]
        buckets = relation_frequency_buckets(train, 237, k=10)
        sizes = [len(b) for b in _bucket_members(buckets, 10)]
        assert sizes == [24] * 7 + [23] * 3

    def test_too_few_relations(self):
        with pytest.raises(TooFewRelations):
            relation_frequency_buckets([(0, 0, 0)], 3, k=10)

    @given(st.integers(1, 40), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, num_rel, k, seed):
        if num_rel < k:
            return
        gen = np.random.default_rng(seed)
        train = [(0, int(r), 0) for r in gen.integers(0, num_rel, size=120)]
        buckets = relation_frequency_buckets(train, num_rel, k=k)
        bucket_members = _bucket_members(buckets, k)
        flat = [r for members in bucket_members for r in members]
        assert sorted(flat) == list(range(num_rel))
        sizes = [len(b) for b in bucket_members]
        assert max(sizes) - min(sizes) <= 1
        freqs = [sorted((-sum(1 for t in train if t[1] == r), r)
                        for r in members) for members in bucket_members]
        # descending frequency across bucket boundaries
        for left, right in zip(freqs, freqs[1:]):
            assert left[-1] <= right[0]


class TestRelationGroups:
    def test_basic_mapping(self, tmp_path):
        path = _write(tmp_path, "g.tsv",
                      "people place\t/people/person/place_of_birth\n")
        groups = load_relation_groups(path)
        assert groups.group_of["/people/person/place_of_birth"] == "people place"

    def test_empty_file(self, tmp_path):
        groups = load_relation_groups(_write(tmp_path, "g.tsv", ""))
        assert groups.group_of == {}

    def test_duplicate_relation(self, tmp_path):
        path = _write(tmp_path, "g.tsv", "g1\tr\ng2\tr\n")
        with pytest.raises(DuplicateRelation):
            load_relation_groups(path)

    def test_resolve_counts_unknown(self, tmp_path):
        path = _write(tmp_path, "g.tsv", "g1\tr0\ng1\tmissing\n")
        groups = load_relation_groups(path)
        vocab = build_vocabulary([("a", "r0", "b")])
        resolved, unknown = groups.resolve(vocab)
        assert resolved == {0: "g1"}
        assert unknown == 1


@pytest.mark.skipif(not BENCH_DIR, reason="set RSCF_BENCH_DIR to benchmark data")
class TestBenchmarkStatistics:
    """Published dataset statistics, checked only when the benchmarks are
    available locally (RSCF_BENCH_DIR/<name>/{train,valid,test}.txt)."""

    def test_fb15k237(self):
        d = Path(BENCH_DIR) / "FB15k-237"
        train = load_triples(d / "train.txt")
        assert len(train) == 272_115
        vocab = build_vocabulary(train, load_triples(d / "valid.txt"),
                                 load_triples(d / "test.txt"))
        assert vocab.num_entities == 14_541
        assert vocab.num_relations == 237

    def test_wn18rr(self):
        d = Path(BENCH_DIR) / "WN18RR"
        vocab = build_vocabulary(load_triples(d / "train.txt"),
                                 load_triples(d / "valid.txt"),
                                 load_triples(d / "test.txt"))
        assert vocab.num_entities == 40_943
        assert vocab.num_relations == 11
