"""Output checks and the result schema of the benchmark.

A failed check counts in `failed` and its operation contributes no sample to
any metric, so a wrong answer is never reported as a score.
"""

from __future__ import annotations

import math

import numpy as np

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class RankProbe:
    """Records every rank `evaluation.filtered_rank` returns while active.

    It adds one Python call per query, which is small against the scoring
    work of each query. If the program stops ranking through filtered_rank,
    no ranks are recorded and the checks fall back to the report's figures.
    """

    def __init__(self, evaluation_module):
        self.module = evaluation_module
        self.ranks: list[float] = []

    def __enter__(self) -> "RankProbe":
        inner = self.original = self.module.filtered_rank
        ranks = self.ranks

        def probed(*args, **kwargs):
            rank = inner(*args, **kwargs)
            ranks.append(rank)
            return rank

        self.module.filtered_rank = probed
        return self

    def __exit__(self, *exc) -> None:
        self.module.filtered_rank = self.original


def check_losses(losses) -> str | None:
    bad = [v for v in losses if not math.isfinite(v)]
    return f"{len(bad)} non-finite epoch losses" if bad else None


def check_report(report, ranks, num_entities: int, expected_queries: int) -> list[str]:
    """Ranks finite and in [1, N]; MRR in (0, 1]; Hits in [0, 1], non-decreasing in N."""
    problems = []
    if report.query_count != expected_queries:
        problems.append(f"{report.query_count} queries ranked, expected {expected_queries}")
    if ranks:
        r = np.asarray(ranks, dtype=np.float64)
        bad = ~(np.isfinite(r) & (r >= 1.0) & (r <= num_entities))
        if bad.any():
            problems.append(f"{int(bad.sum())} ranks outside [1, {num_entities}] "
                            f"(first {r[bad][0]!r})")
        if len(ranks) != expected_queries:
            problems.append(f"{len(ranks)} ranks recorded, expected {expected_queries}")
    if not (math.isfinite(report.mrr) and 0.0 < report.mrr <= 1.0):
        problems.append(f"MRR {report.mrr!r} outside (0, 1]")
    hits = [report.hits[k] for k in sorted(report.hits)]
    if not all(math.isfinite(h) and 0.0 <= h <= 1.0 for h in hits):
        problems.append(f"Hits {report.hits} outside [0, 1]")
    elif any(a > b for a, b in zip(hits, hits[1:])):
        problems.append(f"Hits {report.hits} decrease with N")
    return problems


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def check_checkpoint(saved, loaded) -> str | None:
    """Every table and accumulator equal bit for bit, plus epoch, config and vocabulary."""
    s, t = saved.store, loaded.store
    if sorted(s.tables) != sorted(t.tables) or sorted(s.acc) != sorted(t.acc):
        return f"tables {sorted(s.tables)} saved, {sorted(t.tables)} loaded"
    for kind, src, dst in (("table", s.tables, t.tables), ("acc", s.acc, t.acc)):
        for name in src:
            if not _same_bits(src[name], dst[name]):
                return f"{kind} {name!r} differs after reload"
    if loaded.epoch != saved.epoch:
        return f"epoch {loaded.epoch} loaded, {saved.epoch} saved"
    if loaded.config.to_dict() != saved.config.to_dict():
        return "config differs after reload"
    if loaded.vocabulary.to_dict() != saved.vocabulary.to_dict():
        return "vocabulary differs after reload"
    return None


def validate_result(result: dict, declared: list[dict]) -> list[str]:
    """Problems with a result line against the declared metrics (empty if none)."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not an integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"metric {m['name']} value {value!r} is not a finite number")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems
