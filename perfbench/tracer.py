"""Span tracer that wraps rscf's public functions from outside the package.

Each traced name is patched where its caller looks it up, so a span measures
exactly the calls the pipeline makes: `rscf.trainer.fnv1a` is wrapped and
`rscf.tensor.fnv1a` is not, which keeps `Rng.derive` hashing out of the
checkpoint numbers. Spans nest by call stack; each carries a shared id (the
batch, query, epoch, evaluation or checkpoint it belongs to). Spans stay in
memory and are written out by `dump` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np


def _rows(x) -> int:
    x = np.asarray(x)
    return int(x.size // x.shape[-1]) if x.ndim else 1


def _optimizer_rows(args, kwargs, result) -> int:
    store, buf = args[0], args[1]
    return sum(int(np.count_nonzero(buf.touched(name)))
               for name, _ in buf.items() if store.trainable.get(name, False))


def _index_triples(args, kwargs, result) -> int:
    ds = args[0]
    return len(ds.train) + len(ds.valid) + len(ds.test)


def _candidates(args, kwargs):
    """Candidate id arrays the objective scores, one per direction, or None for
    tensor models (which score the whole entity table)."""
    negatives = kwargs.get("negatives")
    if negatives is None:
        return None
    batch = np.asarray(args[0]).reshape(-1, 3)
    tails, heads = negatives
    return [np.concatenate([batch[:, 2:3], np.asarray(tails)], axis=1),
            np.concatenate([batch[:, 0:1], np.asarray(heads)], axis=1)]


def _cand_rows(args, kwargs, result) -> int:
    cands = _candidates(args, kwargs)
    if cands is None:
        return int(args[1]["entity"].shape[0])
    return sum(int(c.size) for c in cands)


def _cand_ids(args, kwargs, result) -> int:
    cands = _candidates(args, kwargs)
    if cands is None:
        return int(args[1]["entity"].shape[0])
    return sum(int(np.unique(c).size) for c in cands)


# label, module where the caller looks the name up, attribute path,
# shared-id rule ("new:<kind>" starts an id, "last:<kind>" joins the latest
# one, None inherits the parent's), and counters {suffix: fn(args, kwargs, result)}
TRACED = [
    ("data.Dataset.load", "rscf.data", "Dataset.load", "new:setup", {}),
    ("data.build_filter_index", "rscf.evaluation", "build_filter_index", None,
     {"triples": _index_triples}),
    ("objectives.build_store", "rscf.objectives", "build_store", None, {}),
    ("objectives.build_store", "rscf.trainer", "build_store", None, {}),
    ("objectives.total_objective", "rscf.trainer", "total_objective", "new:batch",
     {"triples": lambda a, k, r: int(np.asarray(a[0]).reshape(-1, 3).shape[0]),
      "cand_rows": _cand_rows, "cand_ids": _cand_ids}),
    ("objectives.cross_entropy", "rscf.objectives", "cross_entropy", None, {}),
    ("objectives.self_adversarial", "rscf.objectives", "self_adversarial", None, {}),
    ("objectives.GradientBuffer.add_rows", "rscf.objectives", "GradientBuffer.add_rows",
     None, {"rows": lambda a, k, r: int(np.size(a[2]))}),
    ("objectives.GradientBuffer.add_full", "rscf.objectives", "GradientBuffer.add_full",
     None, {}),
    ("objectives.optimizer_step", "rscf.trainer", "optimizer_step", "last:batch",
     {"rows": _optimizer_rows}),
    ("transforms.et_build", "rscf.transforms", "et_build", None, {}),
    ("transforms.et_apply", "rscf.transforms", "et_apply", None,
     {"rows": lambda a, k, r: _rows(a[1])}),
    ("transforms.et_apply_vjp", "rscf.transforms", "et_apply_vjp", None, {}),
    ("transforms.et_param_vjp", "rscf.transforms", "et_param_vjp", None, {}),
    ("transforms.rt_factor", "rscf.transforms", "rt_factor", None,
     {"rows": lambda a, k, r: _rows(a[2])}),
    ("transforms.rt_factor_vjp", "rscf.transforms", "rt_factor_vjp", None,
     {"rows": lambda a, k, r: _rows(a[1])}),
    ("models.tdm_query", "rscf.models", "tdm_query", None, {}),
    ("models.tdm_query_vjp", "rscf.models", "tdm_query_vjp", None, {}),
    ("models.tdm_query_t", "rscf.models", "tdm_query_t", None, {}),
    ("models.tdm_query_t_vjp", "rscf.models", "tdm_query_t_vjp", None, {}),
    ("models.dbm_scores", "rscf.models", "dbm_scores", None,
     {"pairs": lambda a, k, r: int(np.size(r[0]))}),
    ("models.dbm_scores_vjp", "rscf.models", "dbm_scores_vjp", None, {}),
    ("models.relation_scores", "rscf.models", "relation_scores", None, {}),
    ("models.relation_scores_vjp", "rscf.models", "relation_scores_vjp", None, {}),
    ("evaluation.evaluate_split", "rscf.evaluation", "evaluate_split", "new:eval", {}),
    ("evaluation.CandidateScorer.tail_scores", "rscf.evaluation",
     "CandidateScorer.tail_scores", "new:query", {}),
    ("evaluation.CandidateScorer.head_scores", "rscf.evaluation",
     "CandidateScorer.head_scores", "new:query", {}),
    ("evaluation.filtered_rank", "rscf.evaluation", "filtered_rank", "last:query",
     {"filtered_ids": lambda a, k, r: len(a[2])}),
    ("analysis.scale_trace", "rscf.analysis", "scale_trace", None, {}),
    ("trainer.train", "rscf.trainer", "train", "new:train", {}),
    ("trainer.train_epoch", "rscf.trainer", "train_epoch", "new:epoch", {}),
    ("trainer.save_checkpoint", "rscf.trainer", "save_checkpoint", "new:ckpt", {}),
    ("trainer.load_checkpoint", "rscf.trainer", "load_checkpoint", "new:ckpt", {}),
    ("trainer.fnv1a", "rscf.trainer", "fnv1a", None,
     {"bytes": lambda a, k, r: len(a[0])}),
]

LABELS = list(dict.fromkeys(label for label, *_ in TRACED))
COUNTERS = list(dict.fromkeys(f"{label}.{suffix}"
                              for label, _, _, _, counters in TRACED for suffix in counters))


class Tracer:
    """Patches every TRACED name on enter and restores it on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent index, shared id]
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._next: dict[str, int] = {}
        self._last: dict[str, str] = {}
        self._patched: list[tuple] = []
        self.t0 = time.perf_counter()

    def _shared_id(self, rule: str | None) -> str:
        if rule is not None:
            mode, kind = rule.split(":")
            if mode == "new":
                n = self._next.get(kind, 0)
                self._next[kind] = n + 1
                self._last[kind] = f"{kind}:{n}"
                return self._last[kind]
            if kind in self._last:
                return self._last[kind]
        return self.spans[self._stack[-1]][4] if self._stack else "run"

    def _wrap(self, label, fn, rule, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self._shared_id(rule)
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, sid])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            for suffix, counter in counters.items():
                self.counts[f"{label}.{suffix}"] += counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for label, module_name, path, rule, counters in TRACED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(label, raw.__func__, rule, counters))
            else:
                patched = self._wrap(label, raw, rule, counters)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls / total_s / self_s per label plus every work counter."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LABELS, 0)
        total = dict.fromkeys(LABELS, 0.0)
        own = dict.fromkeys(LABELS, 0.0)
        for i, (label, start, end, _, _) in enumerate(self.spans):
            calls[label] += 1
            total[label] += end - start
            own[label] += end - start - child[i]
        out: dict[str, tuple[float, str]] = {}
        for label in LABELS:
            out[f"{label}.calls"] = (calls[label], "count")
            out[f"{label}.total_s"] = (total[label], "s")
            out[f"{label}.self_s"] = (own[label], "s")
        for name, n in self.counts.items():
            out[name] = (n, "count")
        return out

    def dump(self, path) -> int:
        """Write one JSON line per span (times relative to tracer creation)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (label, start, end, parent, sid) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": label, "parent": parent, "id": sid,
                                     "start": start - self.t0, "end": end - self.t0}) + "\n")
        return len(self.spans)


def derived_metrics(layer: dict, config, num_entities: int) -> dict:
    """Ratios and computed work from the traced counts.

    objectives.cand_unique_frac: distinct entity ids over candidate rows the
    objective scores (tensor models score each of the N entities once, so 1).
    evaluation.score_gflop: floating-point work of candidate scoring during
    evaluation, computed from shapes (not measured): 2*N*d per query for
    tensor models; 3*N*d, plus 2*N*d*d_r for the candidate rt table when rt
    is on, for distance models.
    """
    rows = layer["objectives.total_objective.cand_rows"][0]
    ids = layer["objectives.total_objective.cand_ids"][0]
    queries = (layer["evaluation.CandidateScorer.tail_scores.calls"][0]
               + layer["evaluation.CandidateScorer.head_scores.calls"][0])
    n, d, dr = num_entities, config.model.dim, config.model.relation_dim
    if config.model.is_tdm:
        per_query = 2.0 * n * d
    else:
        per_query = 3.0 * n * d + (2.0 * n * d * dr if config.filter.rt_enabled else 0.0)
    return {
        "objectives.cand_unique_frac": (ids / rows if rows else None, "ratio"),
        "evaluation.score_gflop": (queries * per_query / 1e9, "GFLOP_computed"),
    }
