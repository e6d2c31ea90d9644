from collections import Counter

import numpy as np

from rscf.data import Dataset, build_filter_index
from rscf.synthetic import synthetic_kg, write_dataset


class TestSyntheticKg:
    def test_shape(self):
        ds = synthetic_kg(seed=0)
        assert ds.vocabulary.num_entities == 200
        assert ds.vocabulary.num_relations == 12
        assert len(ds.train) == 3000
        assert len(ds.valid) == 300
        assert len(ds.test) == 300

    def test_deterministic(self):
        assert np.array_equal(synthetic_kg(seed=3).train, synthetic_kg(seed=3).train)

    def test_train_covers_vocab(self):
        ds = synthetic_kg(seed=1)
        seen_e = set(ds.train[:, [0, 2]].ravel().tolist())
        seen_r = set(ds.train[:, 1].tolist())
        assert seen_e == set(range(200))
        assert seen_r == set(range(12))

    def test_splits_disjoint(self):
        ds = synthetic_kg(seed=0)
        train, valid, test = (set(map(tuple, split.tolist()))
                              for split in (ds.train, ds.valid, ds.test))
        assert not train & valid
        assert not train & test
        assert not valid & test

    def test_rules_are_functional_or_two_valued(self):
        ds = synthetic_kg(seed=0)
        index = build_filter_index(ds)
        sizes = Counter(np.diff(index.tail_index.ptr).tolist())
        assert set(sizes) <= {1, 2}

    def test_write_roundtrip(self, tmp_path):
        ds = synthetic_kg(seed=0)
        write_dataset(ds, tmp_path)
        again = Dataset.load_dir(tmp_path)
        assert np.array_equal(again.train, ds.train)
        assert np.array_equal(again.valid, ds.valid)
        assert np.array_equal(again.test, ds.test)
