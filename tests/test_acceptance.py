"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE] ...: PASS/FAIL` line (visible under
pytest -v plus -s, and in failure output), then asserts.
"""

import json
import time

import numpy as np

from rscf.analysis import (
    ConsistencySimConfig,
    dura_sign_check,
    inter_cluster_distance,
    intra_cluster_distance,
    monte_carlo_consistency,
    scale_trace,
)
from rscf.cli import main as cli_main
from rscf.data import Dataset, build_filter_index
from rscf.evaluation import CandidateScorer, collect_ranks, evaluate_split
from rscf.gradcheck import run_grid
from rscf.models import ModelSpec, p_norm
from rscf.objectives import LossConfig, build_store, total_objective
from rscf.reference import ZERO_CHANGE, dura_penalty, ids_of, p_normalize, rp_term
from rscf.synthetic import synthetic_kg, write_dataset
from rscf.tensor import Rng
from rscf.trainer import Checkpoint, TrainConfig, train
from rscf.transforms import FilterSpec
from rscf import transforms as T


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


def test_criterion_01_gradient_grid():
    """Analytic gradients match central differences for every model x filter
    x RT x RP x regularizer combination at < 1e-4, in under two minutes."""
    start = time.time()
    results = run_grid()
    elapsed = time.time() - start
    worst = max(r.max_rel_error for r in results)
    _report(1, "gradient correctness",
            worst < 1e-4 and elapsed < 120.0,
            f"{len(results)} combos, max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_normalization_identity():
    gen = np.random.default_rng(2)
    ok = True
    for p in (1, 2):
        vectors = gen.normal(size=(10_000, 12))
        units = np.stack([p_normalize(v, p) for v in vectors])
        ok &= bool(np.isfinite(units).all())
        ok &= bool(np.max(np.abs(p_norm(units, p) - 1.0)) < 1e-9)
    ok &= p_normalize(np.zeros(5), 1) is ZERO_CHANGE
    ok &= p_normalize(np.zeros(5), 2) is ZERO_CHANGE
    _report(2, "normalization identity", ok)


def test_criterion_03_collinear_and_addone():
    gen = np.random.default_rng(3)
    n = 10_000
    dim = 8
    a = gen.normal(size=(n, dim))
    b = gen.normal(size=(n, dim))
    s = gen.uniform(-3.0, 3.0, size=(n, 1))
    c = a + s * (b - a)
    worst = 0.0
    mats = gen.normal(size=(n, dim, dim))
    ca = np.einsum("si,sij->sj", c - a, mats)
    ba = np.einsum("si,sij->sj", b - a, mats)
    lhs = np.linalg.norm(ca, axis=1)
    rhs = np.abs(s[:, 0]) * np.linalg.norm(ba, axis=1)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, rhs)))

    x = gen.normal(size=(n, dim))
    y = gen.normal(size=(n, dim))
    gap = np.abs(np.linalg.norm(x - y, axis=1)
                 - np.linalg.norm((x + 1.0) - (y + 1.0), axis=1))
    addone_worst = float(np.max(gap))
    _report(3, "collinear consistency + add-one invariance",
            worst <= 1e-9 and addone_worst <= 1e-9,
            f"ratio err {worst:.2e}, add-one err {addone_worst:.2e}")


def test_criterion_04_monte_carlo_qualitative():
    cfg = ConsistencySimConfig(dim=32, samples=10_000, seed=7)
    report = monte_carlo_consistency(cfg)
    cols = report.columns
    ratio_cols = cols[1:]
    ok = True
    for row in ("transformation", "normalization"):
        rates = [report.rates[row][c] for c in ratio_cols]
        for lo, hi in zip(rates, rates[1:]):
            sigma = np.sqrt(lo * (1 - lo) / cfg.samples
                            + hi * (1 - hi) / cfg.samples)
            ok &= hi >= lo - 3.0 * sigma
    header = " ".join(f"{c:>12s}" for c in cols)
    print(f"\n    {'':14s}{header}")
    for row in ("transformation", "normalization", "add_one"):
        cells = " ".join(f"{report.rates[row][c]:12.3f}" for c in cols)
        print(f"    {row:14s}{cells}")
    _report(4, "Monte Carlo qualitative reproduction", ok)


def test_criterion_05_sign_lemma():
    report = dura_sign_check(1000, Rng(0))
    _report(5, "regularizer sign lemma", report.passed,
            f"{report.trials} trials, {len(report.failures)} violations")


def test_criterion_06_bounded_change_identity():
    gen = np.random.default_rng(6)
    worst = 0.0
    for p in (1, 2):
        e = gen.normal(size=(1000, 10))
        alpha = e / p_norm(e, p)[:, None]
        lhs = p_norm(alpha * e, p)
        rhs = p_norm(e * e, p) / p_norm(e, p)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _report(6, "bounded-change identity", worst < 1e-9, f"max err {worst:.2e}")


def _sort_based_rank(gold: int, scores: np.ndarray, known_true) -> float:
    """Independent oracle: sort surviving candidates, average the positions
    of the gold's tied block."""
    survivors = [e for e in range(len(scores)) if e == gold or e not in known_true]
    ordered = sorted(survivors, key=lambda e: -scores[e])
    tied = [i for i, e in enumerate(ordered) if scores[e] == scores[gold]]
    first, last = tied[0] + 1, tied[-1] + 1
    return (first + last) / 2.0


def test_criterion_07_filtered_ranking_oracle():
    gen = np.random.default_rng(77)
    kinds = ("cp", "complex", "rescal", "transe", "rotate")
    checked = 0
    mismatches = 0
    for kg in range(100):
        num_e = int(gen.integers(3, 13))
        num_r = int(gen.integers(1, 5))
        n_triples = int(gen.integers(8, 61))
        raw = [(f"e{gen.integers(num_e)}", f"r{gen.integers(num_r)}",
                f"e{gen.integers(num_e)}") for _ in range(n_triples)]
        seed_cov = [(f"e{i}", "r0", f"e{(i + 1) % num_e}") for i in range(num_e)]
        k = len(raw)
        ds = Dataset.from_raw(seed_cov + raw[: k // 2], raw[k // 2 : 3 * k // 4],
                              raw[3 * k // 4 :])
        if not len(ds.test):
            continue
        model = ModelSpec(kinds[kg % len(kinds)], 4, gamma=1.0)
        filt = FilterSpec("rscf" if kg % 2 else "none",
                          apply_to="head_only" if model.is_tdm else "head_and_tail")
        store = build_store(model, filt, ds.vocabulary.num_entities,
                            ds.vocabulary.num_relations, Rng(kg), init_scale=0.3)
        if kg % 3 == 0 and ds.vocabulary.num_entities >= 4:
            # duplicated embeddings force score ties, exercising mid-rank
            store.tables["entity"][1] = store.tables["entity"][0]
            store.tables["entity"][3] = store.tables["entity"][2]
        cfg = TrainConfig(model=model, filter=filt,
                          loss=LossConfig(), epochs=0)
        ckpt = Checkpoint(1, cfg, ds.vocabulary, store, 0)
        index = build_filter_index(ds)
        scorer = CandidateScorer(store, model, filt)
        ranks, relations = collect_ranks(ckpt, ds, "test")
        # queries come triple by triple, the tail query before the head query
        queries = [(h, r, t, d) for h, r, t in ds.test.tolist() for d in ("tail", "head")]
        assert [q[1] for q in queries] == relations.tolist()
        for (h, r, t, direction), rank in zip(queries, ranks.tolist(), strict=True):
            if direction == "tail":
                scores = scorer.tail_scores(h, r)
                known = set(ids_of(index.tail_index, h, r).tolist())
                gold = t
            else:
                scores = scorer.head_scores(t, r)
                known = set(ids_of(index.head_index, r, t).tolist())
                gold = h
            if _sort_based_rank(gold, scores, known) != rank:
                mismatches += 1
            checked += 1
    _report(7, "filtered-ranking oracle", mismatches == 0 and checked > 500,
            f"{checked} queries over 100 KGs, {mismatches} mismatches")


def test_criterion_08_cluster_metric_oracle():
    per_intra, mean_intra = intra_cluster_distance([[(1.0, 0.0), (3.0, 0.0)]])
    per_inter, _ = inter_cluster_distance([[(0.0, 0.0)], [(3.0, 4.0)]])
    ok = abs(per_intra[0] - 0.5) < 1e-9 and abs(mean_intra - 0.5) < 1e-9
    ok &= per_inter[0] is None and abs(per_inter[1] - 1.0) < 1e-9
    gen = np.random.default_rng(8)
    clusters = [gen.normal(size=(5, 3)) + 2.0, gen.normal(size=(4, 3)) - 1.5]
    shuffled = [c[::-1].copy() for c in clusters]
    # element order changes only the floating-point summation order
    ok &= abs(intra_cluster_distance(clusters)[1]
              - intra_cluster_distance(shuffled)[1]) < 1e-12
    ok &= abs(inter_cluster_distance(clusters)[1]
              - inter_cluster_distance(shuffled)[1]) < 1e-12
    _report(8, "cluster-metric oracle", ok)


def _random_guess_mrr(dataset: Dataset) -> float:
    """Expected MRR of a uniformly random ranking under the filtered setting."""
    index = build_filter_index(dataset)
    num_e = dataset.vocabulary.num_entities
    harmonics = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, num_e + 1))])
    expectations = []
    for h, r, t in dataset.test:
        for gold, known in ((t, set(ids_of(index.tail_index, h, r).tolist())),
                            (h, set(ids_of(index.head_index, r, t).tolist()))):
            c = num_e - len(known - {gold})
            expectations.append(harmonics[c] / c)
    return float(np.mean(expectations))


def test_criterion_09_training_smoke():
    ds = synthetic_kg(seed=0)
    cfg = TrainConfig(
        model=ModelSpec("complex", 64),
        filter=FilterSpec("rscf", p=2, apply_to="head_only", rt_enabled=True),
        loss=LossConfig(rp_weight=0.1, dura_weight=0.05),
        epochs=100, lr=0.5, batch_size=512, seed=1, plugin_epoch=0,
        validate=False, scale_telemetry=False, init_scale=0.05,
    )
    start = time.time()
    ckpt, _ = train(ds, cfg)
    report = evaluate_split(ckpt, ds, "test")
    elapsed = time.time() - start
    random_mrr = _random_guess_mrr(ds)
    ok = (report.mrr >= 0.5 and report.mrr >= 5.0 * random_mrr
          and elapsed < 300.0)
    _report(9, "desk-scale training smoke", ok,
            f"MRR {report.mrr:.3f} vs random {random_mrr:.4f}, "
            f"{cfg.epochs} epochs in {elapsed:.0f}s")


def test_criterion_10_concentration_dynamics():
    ds = synthetic_kg(seed=0)

    def _run(filter_kind):
        def _cfg(epochs):
            return TrainConfig(
                model=ModelSpec("complex", 64),
                filter=FilterSpec(filter_kind, p=2, apply_to="head_only"),
                loss=LossConfig(dura_weight=0.3),
                epochs=epochs, lr=0.2, batch_size=512, seed=1, plugin_epoch=10,
                validate=False, scale_telemetry=True, telemetry_sample=512,
                init_scale=0.05,
            )

        pre_ckpt, _ = train(ds, _cfg(10))
        sample = ds.split_array("train")[:512]
        reference = scale_trace(pre_ckpt.store, pre_ckpt.model,
                                pre_ckpt.config.filter, sample).transformation_scale
        _, tail_report = train(ds, _cfg(40), initial=pre_ckpt)
        post = [r.transformation_scale for r in tail_report.records]
        return reference, post

    sfbr_ref, sfbr_post = _run("sfbr_diag")
    rscf_ref, rscf_post = _run("rscf")
    sfbr_drop = 1.0 - sfbr_post[-1] / sfbr_ref
    rscf_band = [v / rscf_ref for v in rscf_post]
    ok = sfbr_drop >= 0.20 and all(0.9 <= v <= 1.1 for v in rscf_band)
    _report(10, "concentration dynamics", ok,
            f"sfbr drop {sfbr_drop:.0%}, rscf band "
            f"[{min(rscf_band):.3f}, {max(rscf_band):.3f}]")


def test_criterion_11_objective_decomposition():
    model = ModelSpec("complex", 6)
    filt = FilterSpec("rscf", rt_enabled=True, apply_to="head_only")
    rng = Rng(11)
    store = build_store(model, filt, 7, 3, rng, init_scale=0.4)
    for name, table in store.tables.items():
        table += rng.derive(f"j:{name}").generator().normal(0, 0.1, table.shape)
    gen = rng.derive("batch").generator()
    batch = np.stack([gen.integers(0, 7, 6), gen.integers(0, 3, 6),
                      gen.integers(0, 7, 6)], axis=1)
    lam, dw = 0.3, 0.07
    full, _ = total_objective(batch, store, model, filt,
                              LossConfig(rp_weight=lam,
                                         dura_weight=dw))
    base, _ = total_objective(batch, store, model, filt,
                              LossConfig())
    num_rel = store.meta["num_relations"]
    rp_sum = sum(rp_term(model, store["entity"][h], store["entity"][t],
                         store["relation"][:num_rel], int(r))[0]
                 for h, r, t in batch)
    dura_sum = 0.0
    for h, r, t in batch:
        for lhs_id, row, tgt_id in ((h, r, t), (t, r + num_rel, h)):
            rel = store["relation"][np.asarray([row])]
            op = T.et_build(filt, store, rel, np.asarray([row]), model.dim)
            h_hat = T.et_apply(op, store["entity"][np.asarray([lhs_id])])
            dura_sum += dura_penalty(h_hat, rel,
                                     store["entity"][np.asarray([tgt_id])],
                                     model.kind)[0]
    gap = abs(full - (base + lam * rp_sum + dw * dura_sum))
    _report(11, "objective decomposition identity", gap < 1e-9,
            f"gap {gap:.2e}")


def test_criterion_12_determinism(tmp_path):
    data_dir = tmp_path / "data"
    write_dataset(synthetic_kg(seed=2), data_dir)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"""
data.train = {data_dir}/train.txt
data.valid = {data_dir}/valid.txt
data.test = {data_dir}/test.txt
model.kind = complex
model.dim = 16
filter.kind = rscf
filter.rt = true
loss.rp_weight = 0.1
loss.dura_weight = 0.01
train.epochs = 3
train.lr = 0.3
train.batch_size = 512
train.seed = 9
train.init_scale = 0.05
""", encoding="utf-8")
    blobs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg_path), "--out", str(out),
                         "--deterministic"]) == 0
        assert cli_main(["evaluate", "--config", str(cfg_path), "--checkpoint",
                         str(out / "checkpoint.rscfckp"), "--out",
                         str(out / "eval"), "--deterministic"]) == 0
        blobs.append({
            "checkpoint": (out / "checkpoint.rscfckp").read_bytes(),
            "report_json": (out / "train_report.json").read_bytes(),
            "report_csv": (out / "train_report.csv").read_bytes(),
            "eval_json": (out / "eval" / "eval.json").read_bytes(),
            "eval_csv": (out / "eval" / "eval_per_relation.csv").read_bytes(),
        })
    identical = blobs[0] == blobs[1]
    mrr = json.loads(blobs[0]["eval_json"])["mrr"]
    _report(12, "seeded determinism", identical,
            f"byte-identical artifacts, MRR {mrr:.3f}")
