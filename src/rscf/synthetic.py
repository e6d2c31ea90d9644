"""Deterministic synthetic knowledge graph for desk-scale smoke runs.

Entities form a cluster x position grid. Primitive relations act as affine
maps (cluster shift, unit-multiplier position map); composed relations apply
two primitives in both orders, yielding a second tail wherever the orders
disagree. Held-out valid/test pairs follow the same rules, so a model that
recovers the group structure ranks them well.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .data import SPLITS, Dataset
from .tensor import Rng


@dataclass(frozen=True)
class AffineRule:
    cluster_shift: int
    pos_mult: int
    pos_shift: int

    def apply(self, cluster: int, pos: int, num_clusters: int, positions: int):
        return ((cluster + self.cluster_shift) % num_clusters,
                (self.pos_mult * pos + self.pos_shift) % positions)

    def compose(self, other: "AffineRule", num_clusters: int, positions: int):
        """self after other."""
        return AffineRule(
            (self.cluster_shift + other.cluster_shift) % num_clusters,
            (self.pos_mult * other.pos_mult) % positions,
            (self.pos_mult * other.pos_shift + self.pos_shift) % positions,
        )


def synthetic_kg(seed: int = 0) -> Dataset:
    """200 entities / 12 relations: 6 primitive rules plus 6 two-order
    compositions, ~3,000 train triples after holding out 300 pairs each for
    valid and test."""
    num_entities, num_relations, num_clusters, holdout = 200, 12, 10, 300
    positions = num_entities // num_clusters
    units = (1, 3, 7, 9, 11, 13, 17, 19)  # invertible mod 20: position maps are bijections
    num_primitive = num_relations // 2
    gen = Rng(seed).derive("synthetic").generator()

    def _draw_primitives():
        return [AffineRule(
            int(gen.integers(1, num_clusters)),
            int(units[gen.integers(0, len(units))]),
            int(gen.integers(1, positions)),
        ) for _ in range(num_primitive)]

    def _all_pairs_order_sensitive(rules) -> bool:
        for k in range(num_relations - num_primitive):
            i, j = k % num_primitive, (k + 1) % num_primitive
            fwd = rules[i].compose(rules[j], num_clusters, positions)
            bwd = rules[j].compose(rules[i], num_clusters, positions)
            if fwd == bwd:
                return False
        return True

    primitives = _draw_primitives()
    for _ in range(64):
        if _all_pairs_order_sensitive(primitives):
            break
        primitives = _draw_primitives()

    def entity(cluster: int, pos: int) -> int:
        return cluster * positions + pos

    triples: list[tuple[str, str, str]] = []

    def add(head: int, rel: int, cluster: int, pos: int):
        triples.append((f"e{head:03d}", f"r{rel:02d}", f"e{entity(cluster, pos):03d}"))

    for rel, rule in enumerate(primitives):
        for e in range(num_entities):
            c, pos = divmod(e, positions)
            add(e, rel, *rule.apply(c, pos, num_clusters, positions))
    for k in range(num_relations - num_primitive):
        i, j = k % num_primitive, (k + 1) % num_primitive
        rel = num_primitive + k
        forward = primitives[i].compose(primitives[j], num_clusters, positions)
        backward = primitives[j].compose(primitives[i], num_clusters, positions)
        for e in range(num_entities):
            c, pos = divmod(e, positions)
            add(e, rel, *forward.apply(c, pos, num_clusters, positions))
            if backward != forward:
                add(e, rel, *backward.apply(c, pos, num_clusters, positions))

    order = gen.permutation(len(triples))
    valid_idx = set(order[:holdout].tolist())
    test_idx = set(order[holdout : 2 * holdout].tolist())
    train = [t for i, t in enumerate(triples) if i not in valid_idx and i not in test_idx]
    valid = [triples[i] for i in sorted(valid_idx)]
    test = [triples[i] for i in sorted(test_idx)]

    # every entity and relation must stay observable in train
    seen_e = {s for h, _, t in train for s in (h, t)}
    seen_r = {r for _, r, _ in train}
    for pool in (valid, test):
        for i in reversed(range(len(pool))):
            h, r, t = pool[i]
            if h not in seen_e or t not in seen_e or r not in seen_r:
                train.append(pool.pop(i))
                seen_e.update((h, t))
                seen_r.add(r)
    return Dataset.from_raw(train, valid, test)


def write_dataset(dataset: Dataset, directory) -> None:
    """Dump train/valid/test TSV files with the vocabulary's string names."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    vocab = dataset.vocabulary
    for split in SPLITS:
        lines = [
            f"{vocab.entity_names[h]}\t{vocab.relation_names[r]}\t{vocab.entity_names[t]}\n"
            for h, r, t in dataset.split_array(split).tolist()
        ]
        (d / f"{split}.txt").write_text("".join(lines), encoding="utf-8")
