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
        assert synthetic_kg(seed=3).train == synthetic_kg(seed=3).train

    def test_train_covers_vocab(self):
        ds = synthetic_kg(seed=1)
        seen_e = {x for t in ds.train for x in (t.head, t.tail)}
        seen_r = {t.relation for t in ds.train}
        assert seen_e == set(range(200))
        assert seen_r == set(range(12))

    def test_splits_disjoint(self):
        ds = synthetic_kg(seed=0)
        train = set(ds.train)
        assert not train & set(ds.valid)
        assert not train & set(ds.test)
        assert not set(ds.valid) & set(ds.test)

    def test_rules_are_functional_or_two_valued(self):
        ds = synthetic_kg(seed=0)
        index = build_filter_index(ds)
        sizes = Counter(np.diff(index.tail_index.ptr).tolist())
        assert set(sizes) <= {1, 2}

    def test_write_roundtrip(self, tmp_path):
        ds = synthetic_kg(seed=0)
        write_dataset(ds, tmp_path)
        again = Dataset.load_dir(tmp_path)
        assert again.train == ds.train
        assert again.valid == ds.valid
        assert again.test == ds.test
