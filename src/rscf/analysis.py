"""Diagnostics: cluster concentration scores, transformation/embedding scale
traces, score-distribution export, the Monte Carlo consistency simulation, and
the shrinking-gradient sign check for the duality regularizer."""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import models as M
from . import transforms as T
from .errors import DataError, DegenerateCentroid, NoFilter, SingleCluster
from .evaluation import CandidateScorer
from .tensor import Rng

# ---------------------------------------------------------------------------
# cluster concentration


@dataclass
class ClusterReport:
    intra_per_cluster: list[float]
    intra_mean: float
    inter_per_cluster: list[float | None]
    inter_mean: float
    sizes: list[int]

    def to_dict(self) -> dict:
        return asdict(self)


def _as_clusters(clusters) -> list[np.ndarray]:
    out = [np.atleast_2d(np.asarray(c, dtype=np.float64)) for c in clusters]
    if any(c.size == 0 for c in out):
        raise ValueError("clusters must be non-empty")
    return out


def intra_cluster_distance(clusters, literal_n: bool = False):
    """Relative spread of each cluster around its centroid.

    Default: per cluster, mean over elements of ||x - C|| / ||C||, then the
    arithmetic mean across clusters. literal_n=True instead divides each
    cluster's summed distances by the number of clusters (no per-element mean)
    and reports the total, for comparison with the undivided reading.
    Returns (per_cluster, aggregate).
    """
    cs = _as_clusters(clusters)
    n = len(cs)
    per = []
    for c in cs:
        centroid = c.mean(axis=0)
        cnorm = float(np.linalg.norm(centroid))
        if cnorm < 1e-12:
            raise DegenerateCentroid("cluster centroid too close to the origin")
        dists = np.linalg.norm(c - centroid, axis=1) / cnorm
        per.append(float(dists.sum() / n) if literal_n else float(dists.mean()))
    aggregate = float(np.sum(per)) if literal_n else float(np.mean(per))
    return per, aggregate


def inter_cluster_distance(clusters):
    """Distance of each centroid to its nearest other centroid, relative to
    the cluster's summed element norms. Clusters whose element norms sum to
    ~zero get None and are excluded from the mean. Returns (per_cluster, mean).
    """
    cs = _as_clusters(clusters)
    if len(cs) < 2:
        raise SingleCluster("need at least two clusters")
    centroids = np.stack([c.mean(axis=0) for c in cs])
    per: list[float | None] = []
    for k, c in enumerate(cs):
        gaps = np.linalg.norm(centroids - centroids[k], axis=1)
        gaps[k] = np.inf
        nearest = float(gaps.min())
        denom = float(np.linalg.norm(c, axis=1).sum())
        per.append(None if denom < 1e-12 else nearest / denom)
    defined = [v for v in per if v is not None]
    mean = float(np.mean(defined)) if defined else float("nan")
    return per, mean


def cluster_vectors(checkpoint, groups, target: str, entity_id: int):
    """Group the ET factor vectors (target "et") or entity_id's transformed
    embeddings (target "ee") by relation group; returns (clusters, unknown)."""
    store, model, filt = checkpoint.store, checkpoint.model, checkpoint.filter
    if filt.kind == "none":
        raise DataError("checkpoint has no entity transformation to analyze")
    num_entities = store["entity"].shape[0]
    if target == "ee" and not 0 <= entity_id < num_entities:
        raise DataError(f"entity id {entity_id} outside [0, {num_entities})")
    resolved, unknown = groups.resolve(checkpoint.vocabulary)
    rel_rows = np.asarray(sorted(resolved), dtype=np.int64)
    op = T.et_build(filt, store, store["relation"][rel_rows], rel_rows, model.dim)
    if target == "et":
        vectors = op.factor_vectors()
    else:
        # the one entity row broadcasts against every relation's operator
        vectors = T.et_apply(op, store["entity"][[entity_id]])
    clusters: dict[str, list[np.ndarray]] = {}
    for rel_id, vec in zip(rel_rows.tolist(), vectors):
        clusters.setdefault(resolved[rel_id], []).append(vec)
    return clusters, unknown


def cluster_report(clusters, literal_n: bool = False) -> ClusterReport:
    cs = _as_clusters(clusters)
    intra_per, intra_mean = intra_cluster_distance(cs, literal_n)
    inter_per, inter_mean = inter_cluster_distance(cs)
    return ClusterReport(intra_per, intra_mean, inter_per, inter_mean,
                         [c.shape[0] for c in cs])


# ---------------------------------------------------------------------------
# scale traces


@dataclass
class ScaleRecord:
    transformation_scale: float | None
    rt_scale: float | None
    embedding_scale: float


def _reference_norm(filt: T.FilterSpec, dim: int) -> float:
    """Norm of the zero-change factor vector, so the inert filter reads 1.0."""
    if filt.kind == "rscf_linear2" and filt.linear2_add_one == "full":
        return M.p_norm(np.ones(2 * dim), filt.p)
    # elementwise filters, and linear2 identity blocks (ones on w1/w4 only)
    return M.p_norm(np.ones(dim), filt.p)


def embedding_scale(store, p: int, head_ids) -> float:
    heads = store["entity"][np.asarray(head_ids, dtype=np.int64)]
    return float(np.mean(M.p_norm(heads, p)))


def telemetry_sample(train_arr: np.ndarray, seed: int, size: int) -> np.ndarray:
    """The min(size, n) train triples that scale traces run on."""
    n = train_arr.shape[0]
    idx = Rng(seed).derive("telemetry").generator().choice(n, size=min(size, n), replace=False)
    return train_arr[idx]


def scale_trace(store, model: M.ModelSpec, filt: T.FilterSpec,
                triples, *, ws=None) -> ScaleRecord:
    """Mean normalized factor norms and transformed-head norms over a triple
    sample (Fig-style concentration diagnostics). ws, a models.Workspace,
    holds the sample's arrays; a training run passes its own between epochs."""
    if filt.kind == "none" and not filt.rt_enabled:
        raise NoFilter("no transformation is active")
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    heads = M.gather(ws, "trace.heads", store["entity"], triples[:, 0])
    rel_rows = triples[:, 1]
    rel = M.gather(ws, "trace.rel", store["relation"], rel_rows)
    transformation = None
    emb_vectors = heads
    if filt.kind != "none":
        op = T.et_build(filt, store, rel, rel_rows, model.dim, ws=ws)
        factors = op.factor_vectors()
        transformation = float(
            np.mean(M.p_norm(factors, filt.p, ws=ws)) / _reference_norm(filt, model.dim))
        emb_vectors = T.et_apply(op, heads, ws=ws)
    rt = None
    if filt.rt_enabled:
        combined = T.rt_factor(store, "a2", heads, filt.p, ws=ws).factor
        if model.is_dbm:
            tails = store["entity"][triples[:, 2]]
            combined = combined * T.rt_factor(store, "a3", tails, filt.p).factor
        rt = float(np.mean(M.p_norm(combined, filt.p, ws=ws))
                   / M.p_norm(np.ones(model.relation_dim), filt.p))
    return ScaleRecord(transformation, rt,
                       float(np.mean(M.p_norm(emb_vectors, filt.p, ws=ws))))


# ---------------------------------------------------------------------------
# score-distribution export


def score_distribution(checkpoint, queries) -> np.ndarray:
    """One row of candidate scores per (head, relation) query. Raises
    NumericalError when any score is not finite."""
    scorer = CandidateScorer(checkpoint.store, checkpoint.model, checkpoint.filter)
    pairs = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    blocks = list(scorer.blocks("tail", pairs[:, 0], pairs[:, 1]))
    return np.concatenate(blocks or [np.zeros((0, checkpoint.store["entity"].shape[0]))])


def export_score_distribution(checkpoint, queries, path) -> np.ndarray:
    matrix = score_distribution(checkpoint, queries)
    num_entities = checkpoint.store["entity"].shape[0]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([str(e) for e in range(num_entities)])
    for row in matrix:
        writer.writerow([repr(float(v)) for v in row])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    return matrix


# ---------------------------------------------------------------------------
# Monte Carlo consistency simulation

# Collinear triples put C at A + s (B - A), |s| drawn from (1, LINE_SCALE_MAX);
# the random linear maps have N(0, 1/dim) entries.
LINE_SCALE_MAX = 3.0


@dataclass
class ConsistencySimConfig:
    dim: int = 32
    samples: int = 10_000
    thresholds: tuple = (1.0, 1.01, 1.02)
    p: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if any(t < 1.0 for t in self.thresholds):
            raise ValueError("ratio thresholds must be >= 1")


ROW_NAMES = ("transformation", "normalization", "add_one")


@dataclass
class ConsistencyReport:
    columns: list[str]
    rates: dict[str, dict[str, float]]
    config: ConsistencySimConfig

    def to_dict(self) -> dict:
        return {
            "columns": self.columns,
            "rows": list(ROW_NAMES),
            "rates": self.rates,
            "samples": self.config.samples,
            "dim": self.config.dim,
            "p": self.config.p,
            "seed": self.config.seed,
        }


def _sample_condition(gen, cfg: ConsistencySimConfig, column):
    """Point triples (A, B, C) with ||AC|| > ||AB|| guaranteed per condition."""
    n, s = cfg.dim, cfg.samples
    if column == "on_a_line":
        a = gen.normal(size=(s, n))
        b = gen.normal(size=(s, n))
        scale = gen.uniform(1.0 + 1e-9, LINE_SCALE_MAX, size=(s, 1))
        sign = np.where(gen.random(size=(s, 1)) < 0.5, -1.0, 1.0)
        c = a + sign * scale * (b - a)
        return a, b, c
    threshold = float(column)
    parts_a, parts_b, parts_c = [], [], []
    have = 0
    while have < s:
        m = max(1024, 2 * (s - have))
        a = gen.normal(size=(m, n))
        b = gen.normal(size=(m, n))
        c = gen.normal(size=(m, n))
        ratio = np.linalg.norm(c - a, axis=1) / np.linalg.norm(b - a, axis=1)
        ok = ratio > threshold
        parts_a.append(a[ok])
        parts_b.append(b[ok])
        parts_c.append(c[ok])
        have += int(ok.sum())
    a = np.concatenate(parts_a)[:s]
    b = np.concatenate(parts_b)[:s]
    c = np.concatenate(parts_c)[:s]
    return a, b, c


def _sample_matrices(gen, cfg: ConsistencySimConfig) -> np.ndarray:
    """Gaussian maps, singular with probability zero."""
    n = cfg.dim
    return gen.normal(scale=1.0 / np.sqrt(n), size=(cfg.samples, n, n))


def _column_rates(gen, cfg: ConsistencySimConfig, column) -> dict[str, float]:
    a, b, c = _sample_condition(gen, cfg, column)
    mats = _sample_matrices(gen, cfg)
    am = np.einsum("si,sij->sj", a, mats)
    bm = np.einsum("si,sij->sj", b, mats)
    cm = np.einsum("si,sij->sj", c, mats)
    trans_keep = np.linalg.norm(cm - am, axis=1) > np.linalg.norm(bm - am, axis=1)

    an, _, _ = T.normalize_rows(am, cfg.p)
    bn, _, _ = T.normalize_rows(bm, cfg.p)
    cn, _, _ = T.normalize_rows(cm, cfg.p)
    norm_gap = np.linalg.norm(cn - an, axis=1) - np.linalg.norm(bn - an, axis=1)
    norm_keep = norm_gap > 0

    # the add-one step compares orderings before and after the ones shift
    ao, bo, co = an + 1.0, bn + 1.0, cn + 1.0
    addone_gap = np.linalg.norm(co - ao, axis=1) - np.linalg.norm(bo - ao, axis=1)
    addone_keep = np.sign(addone_gap) == np.sign(norm_gap)

    return {
        "transformation": float(trans_keep.mean()),
        "normalization": float(norm_keep.mean()),
        "add_one": float(addone_keep.mean()),
    }


def monte_carlo_consistency(cfg: ConsistencySimConfig) -> ConsistencyReport:
    """Success rates of preserving ||AC|| > ||AB|| through a shared linear map,
    its normalization, and the ones shift, per sampling condition.

    Columns: collinear triples, and ratio conditions ||AC||/||AB|| > t. The
    add-one row is measured against the post-normalization ordering, which it
    preserves exactly (equal difference vectors), so it reads 1.0. Columns run
    on a thread pool of up to one thread per CPU core; each draws from its own
    derived rng stream, so the rates do not depend on the thread count.
    """
    columns = ["on_a_line"] + [f"ratio_gt_{t:g}" for t in cfg.thresholds]
    specs = ["on_a_line"] + [float(t) for t in cfg.thresholds]

    def _run(col_name, spec):
        gen = Rng(cfg.seed).derive(f"mc:{col_name}").generator()
        return _column_rates(gen, cfg, spec)

    with ThreadPoolExecutor(max_workers=min(len(columns), os.cpu_count() or 1)) as pool:
        cols = list(pool.map(_run, columns, specs))
    rates: dict[str, dict[str, float]] = {row: {} for row in ROW_NAMES}
    for col_name, col in zip(columns, cols):
        for row in ROW_NAMES:
            rates[row][col_name] = col[row]
    return ConsistencyReport(columns, rates, cfg)


# ---------------------------------------------------------------------------
# sign check for the shrinking gradient of the duality regularizer


@dataclass
class SignCheckReport:
    trials: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {"trials": self.trials, "failures": self.failures,
                "passed": self.passed}


def dura_sign_gradient(w, h, r):
    """d/dw of w^2 (h r)^2 + w^2 h^2 = 2 w (h r)^2 + 2 w h^2."""
    return 2.0 * w * (h * r) ** 2 + 2.0 * w * h**2


def dura_sign_check(trials: int, rng: Rng) -> SignCheckReport:
    """The penalty gradient wrt a diagonal filter weight always carries the
    weight's own sign, so descent shrinks the filter regardless of sign."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = rng.generator()
    report = SignCheckReport(trials)
    for _ in range(trials):
        w, h, r = gen.normal(size=3)
        while abs(w) < 1e-9 or abs(h) < 1e-9 or abs(r) < 1e-9:
            w, h, r = gen.normal(size=3)
        g = dura_sign_gradient(w, h, r)
        if np.sign(g) != np.sign(w):
            report.failures.append({"w": float(w), "h": float(h), "r": float(r),
                                    "gradient": float(g)})
    return report
