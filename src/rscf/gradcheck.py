"""Exhaustive analytic-vs-numerical gradient verification grid.

Runs the full objective for every model x filter x relation-transform x
relation-prediction x regularizer combination on a tiny random problem and
compares hand-derived gradients against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import TDM_KINDS, ModelSpec
from .objectives import LossConfig, build_store, sample_negatives, total_objective
from .tensor import Rng, finite_difference_check
from .transforms import FILTER_KINDS, FilterSpec

MODELS = ("transe", "rotate", "cp", "complex", "rescal")


@dataclass
class ComboResult:
    model: str
    filter: str
    rt: bool
    rp_weight: float
    dura_weight: float
    max_rel_error: float


def check_combo(model_kind: str, filter_kind: str, rt: bool, rp_weight: float,
                dura_weight: float, dim: int = 6, triples: int = 5, seed: int = 3,
                coords_per_table: int = 64) -> float:
    """Max relative error between analytic and central-difference gradients."""
    num_entities, num_relations, negatives, eps = 6, 3, 4, 1e-5
    if model_kind == "rescal":
        dim = min(dim, 4)  # keeps the dim^2 relation rows small
    model = ModelSpec(model_kind, dim, distance_p=2, gamma=2.0)
    filt = FilterSpec(filter_kind, p=2, rt_enabled=rt,
                      apply_to="head_only" if model.is_tdm else "head_and_tail")
    loss = LossConfig(rp_weight=rp_weight, dura_weight=dura_weight,
                      negatives=negatives)
    rng = Rng(seed)
    store = build_store(model, filt, num_entities, num_relations, rng,
                        "gaussian", 0.5)
    # nudge every table off its (possibly special) initialization point
    for name, table in store.tables.items():
        table += rng.derive(f"jitter:{name}").generator().normal(0.0, 0.05, table.shape)
    gen = rng.derive("batch").generator()
    batch = np.stack([
        gen.integers(0, num_entities, size=triples),
        gen.integers(0, num_relations, size=triples),
        gen.integers(0, num_entities, size=triples),
    ], axis=1)
    negs = None
    if model.is_dbm:
        negs = sample_negatives(batch, num_entities, negatives, rng.derive("negs"))

    def loss_fn():
        return total_objective(batch, store, model, filt, loss,
                               negatives=negs, grad=False)[0]

    _, buf = total_objective(batch, store, model, filt, loss, negatives=negs)
    report = finite_difference_check(loss_fn, store,
                                     buf.dense_grads(all_tables=True),
                                     eps=eps, rng=rng.derive("fd"),
                                     coords_per_table=coords_per_table)
    return report.max_rel_error


def run_grid(seed: int = 3, **kwargs) -> list[ComboResult]:
    """Every model x filter x rt x relation-prediction weight (0, 0.1) x
    regularizer weight (0, 0.05; tensor models only) combination."""
    results = []
    for model_kind in MODELS:
        duras = (0.0, 0.05) if model_kind in TDM_KINDS else (0.0,)
        for filter_kind in FILTER_KINDS:
            for rt in (False, True):
                for lam in (0.0, 0.1):
                    for dura in duras:
                        err = check_combo(model_kind, filter_kind, rt, lam,
                                          dura, seed=seed, **kwargs)
                        results.append(ComboResult(model_kind, filter_kind, rt,
                                                   lam, dura, err))
    return results
