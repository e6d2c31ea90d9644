"""Seeded random knowledge graph with the shape of FB15k-237.

FB15k-237 has 14,541 entities, 237 relations, 272,115 train and 17,535 valid
triples. This generator reproduces those counts exactly, with every entity and
every relation appearing in train. Heads, relations and tails are drawn from
power-law popularity weights (ENTITY_SKEW, RELATION_SKEW). The exponents are
assumptions: they are not fitted to any published FB15k-237 statistic, so the
sizes of the known-true sets the filter index holds follow from them and not
from the real graph. The test split is a sample whose size the caller picks.
Nothing is downloaded.

    python3 perfbench/fb15k_shape.py --seed 7 --test 2000 --out DIR
    python3 perfbench/fb15k_shape.py --seed 7 --test 2000 --stats   # shape figures
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

NUM_ENTITIES = 14_541
NUM_RELATIONS = 237
NUM_TRAIN = 272_115
NUM_VALID = 17_535
# power-law exponents of entity and relation popularity; assumed, not fitted
ENTITY_SKEW = 0.8
RELATION_SKEW = 1.1


def _weights(gen: np.random.Generator, n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return gen.permutation(w / w.sum())


def generate_triples(seed: int, num_test: int) -> dict[str, np.ndarray]:
    """Distinct (head, relation, tail) id rows split into train/valid/test."""
    if num_test < 1:
        raise ValueError("num_test must be >= 1")
    gen = np.random.default_rng([seed, 237])
    ent_w = _weights(gen, NUM_ENTITIES, ENTITY_SKEW)
    rel_w = _weights(gen, NUM_RELATIONS, RELATION_SKEW)
    total = NUM_TRAIN + NUM_VALID + num_test

    # coverage rows first: every entity once as a head, every relation once
    heads = gen.permutation(NUM_ENTITIES)
    rels = gen.choice(NUM_RELATIONS, size=NUM_ENTITIES, p=rel_w)
    rels[:NUM_RELATIONS] = gen.permutation(NUM_RELATIONS)
    tails = gen.choice(NUM_ENTITIES, size=NUM_ENTITIES, p=ent_w)
    rows = np.stack([heads, rels, tails], axis=1)
    while True:
        keys = (rows[:, 0] * NUM_RELATIONS + rows[:, 1]) * NUM_ENTITIES + rows[:, 2]
        _, first = np.unique(keys, return_index=True)
        rows = rows[np.sort(first)]
        if rows.shape[0] >= total:
            break
        need = int((total - rows.shape[0]) * 1.1) + 1024
        extra = np.stack([gen.choice(NUM_ENTITIES, size=need, p=ent_w),
                          gen.choice(NUM_RELATIONS, size=need, p=rel_w),
                          gen.choice(NUM_ENTITIES, size=need, p=ent_w)], axis=1)
        rows = np.concatenate([rows, extra])
    rows = rows[:total]
    cover, rest = rows[:NUM_ENTITIES], gen.permutation(rows[NUM_ENTITIES:])
    held = NUM_VALID + num_test
    return {
        "train": np.concatenate([cover, rest[held:]]),
        "valid": rest[:NUM_VALID],
        "test": rest[NUM_VALID:held],
    }


def write_tsv(splits: dict[str, np.ndarray], directory) -> Path:
    """Write train.txt / valid.txt / test.txt with Freebase-style names."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    ent = np.array([f"/m/e{i:05d}" for i in range(NUM_ENTITIES)])
    rel = np.array([f"/r/rel_{i:03d}" for i in range(NUM_RELATIONS)])
    for name, rows in splits.items():
        lines = np.char.add(np.char.add(np.char.add(np.char.add(
            ent[rows[:, 0]], "\t"), rel[rows[:, 1]]), "\t"), ent[rows[:, 2]])
        (d / f"{name}.txt").write_text("\n".join(lines.tolist()) + "\n", encoding="utf-8")
    return d


def shape_stats(splits: dict[str, np.ndarray]) -> dict:
    """Figures of the generated graph that set evaluation cost: triples per
    relation, entity degree in train, and the size of the known-true set each
    test query is filtered against (what evaluation.filtered_rank receives)."""
    train = splits["train"]
    rows = np.concatenate(list(splits.values()))
    per_rel = np.bincount(train[:, 1], minlength=NUM_RELATIONS)
    degree = np.bincount(np.concatenate([train[:, 0], train[:, 2]]), minlength=NUM_ENTITIES)

    def known(key_cols):
        keys = rows[:, key_cols[0]] * NUM_ENTITIES * NUM_RELATIONS + rows[:, key_cols[1]]
        uniq, counts = np.unique(keys, return_counts=True)
        test = splits["test"]
        test_keys = test[:, key_cols[0]] * NUM_ENTITIES * NUM_RELATIONS + test[:, key_cols[1]]
        return counts, counts[np.searchsorted(uniq, test_keys)]

    tail_sets, tail_q = known((0, 1))  # (h, r, ?)
    head_sets, head_q = known((2, 1))  # (?, r, t)
    per_query = np.concatenate([tail_q, head_q])

    def summary(x):
        return {"min": int(x.min()), "median": float(np.median(x)), "mean": float(x.mean()),
                "max": int(x.max())}

    return {
        "train_triples_per_relation": summary(per_rel),
        "train_degree_per_entity": summary(degree),
        "known_tails_per_head_relation": summary(tail_sets),
        "known_heads_per_relation_tail": summary(head_sets),
        "filtered_ids_per_test_query": summary(per_query),
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--test", type=int, default=2000)
    ap.add_argument("--out")
    ap.add_argument("--stats", action="store_true", help="print shape figures as JSON")
    args = ap.parse_args(argv)
    if not (args.out or args.stats):
        ap.error("give --out, --stats or both")
    splits = generate_triples(args.seed, args.test)
    if args.out:
        write_tsv(splits, args.out)
    if args.stats:
        print(json.dumps(shape_stats(splits), indent=1))


if __name__ == "__main__":
    main()
