#!/usr/bin/env python3
"""rscf benchmark: train, filtered evaluation and checkpoint I/O, end to end.

One run is one workload in a fresh process, driven as a closed loop by a single
caller through the entry points the CLI uses (RunConfig.from_file,
Dataset.load_dir, objectives.build_store, trainer.train / trainer.train_epoch,
evaluation.evaluate_split, trainer.save_checkpoint / trainer.load_checkpoint).
The program receives only the config and TSV files generated here from --seed.

    python3 perfbench/run.py --workload fb15k-complex-dura-rscf --seed 3 --seconds 30
    python3 perfbench/run.py --workload all --seconds 30     # every workload
    python3 perfbench/run.py --workload synthetic-complex-dura-rscf --trace 1

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are per-layer metrics from traced passes, plus the tracing overhead
against untraced passes of the same work. The line before it records the
environment, shapes, seeds and every sample behind the medians. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402

try:
    from rscf import evaluation, objectives, trainer
    from rscf.config import RunConfig
    from rscf.data import Dataset
    from rscf.synthetic import synthetic_kg, write_dataset
    from rscf.tensor import Rng
except ImportError as err:  # main() reports it and exits without a result
    RSCF_IMPORT_ERROR: ImportError | None = err
else:
    RSCF_IMPORT_ERROR = None

PRESETS = ROOT / "src" / "rscf" / "presets"
MB = 1e6


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # "synthetic" or "fb15k"
    preset: str  # shipped preset the run config is made from (its data.* lines dropped)
    overrides: dict[str, str] = field(default_factory=dict)  # preset keys replaced; {seed} substituted
    train_sample: int = 0  # rows per train_epoch call; 0 = one whole trainer.train run
    test_size: int = 0  # fb15k: sampled test triples
    min_rounds: int = 3
    setup_repeats: int = 1  # back-to-back set-ups timed together as one setup_s sample
    mrr_floor: float | None = None  # quality target on the test split


WORKLOADS = {w.name: w for w in [
    Workload(
        name="synthetic-complex-dura-rscf",
        why="shipped preset trained to MRR>0.9: dispatch, optimizer, telemetry "
            "and per-validation filter-index rebuilds dominate",
        graph="synthetic",
        preset="synthetic-complex-dura-rscf.cfg",
        min_rounds=20,  # rounds take ~0.3 s and follow the 13-17 s preset run
        setup_repeats=20,  # one set-up takes ~6 ms
        mrr_floor=0.9,
    ),
    Workload(
        name="fb15k-complex-dura-rscf",
        why="FB15k-237 shape, tensor path: all-entity scoring and softmax, real-size "
            "filter index, 8 MB checkpoint checksum; rt and distance code bypassed",
        graph="fb15k",
        preset="complex-dura-rscf-fb15k237.cfg",
        overrides={"model.dim": "64", "train.epochs": "1", "train.seed": "{seed}"},
        train_sample=3000,
        test_size=1000,
    ),
    Workload(
        name="fb15k-transe-rscf-rt",
        why="FB15k-237 shape, distance path: (B,K,d) intermediates, rt factors "
            "over B*K candidate rows, np.add.at scatter; tensor scoring bypassed",
        graph="fb15k",
        preset="transe-rscf-fb15k237.cfg",
        overrides={"model.dim": "64", "train.batch_size": "128", "train.epochs": "1",
                   "train.seed": "{seed}"},
        train_sample=256,
        test_size=15,
    ),
]}


# ---------------------------------------------------------------------------
# inputs


def run_config(w: Workload, seed: int, data: Path) -> str:
    """The workload's preset with its data paths pointed at `data` and its
    overridden keys replaced."""
    overrides = {k: v.format(seed=seed) for k, v in w.overrides.items()}
    overrides.update({f"data.{s}": str(data / f"{s}.txt") for s in ("train", "valid", "test")})
    preset = (PRESETS / w.preset).read_text(encoding="utf-8").splitlines()
    kept = [line for line in preset
            if line.split("=", 1)[0].strip() not in overrides]
    return "\n".join(kept + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def make_inputs(w: Workload, seed: int, work: Path) -> Path:
    """Write the workload's TSVs and run config under `work`; returns the config path."""
    data = work / "data"
    if w.graph == "synthetic":
        # the bundled graph the preset documents, whatever the seed: its quality
        # target (test MRR > 0.9) is stated for this graph only
        write_dataset(synthetic_kg(seed=0), data)
    else:
        subprocess.run([sys.executable, str(HERE / "fb15k_shape.py"), "--seed", str(seed),
                        "--test", str(w.test_size), "--out", str(data)],
                       check=True, timeout=120)
    cfg = work / "run.cfg"
    cfg.write_text(run_config(w, seed, data), encoding="utf-8")
    return cfg


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Samples:
    """Per-operation rates of one run; the run reports their medians."""

    values: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)

    def median(self, name: str) -> float | None:
        vals = self.values.get(name)
        return statistics.median(vals) if vals else None


class Run:
    """One workload in this process: rounds of set-up, train, evaluate and
    checkpoint round trip, each timed on its own."""

    def __init__(self, w: Workload, seed: int, cfg_path: Path, work: Path):
        self.w, self.seed, self.cfg_path, self.work = w, seed, cfg_path, work
        self.s = Samples()
        self.test_mrr: float | None = None
        self.ckpt_bytes: int | None = None
        self.rounds = 0
        self.config = self.dataset = self.state = self.trained = None

    def op_setup(self) -> None:
        """Read config and dataset files, and build the store where the
        benchmark trains through train_epoch (trainer.train builds its own).
        The sample is the mean of `setup_repeats` back-to-back set-ups."""
        self.dataset = self.state = None
        gc.collect()  # free the previous set-up outside the timed region
        self.s.attempted += 1
        t0 = time.perf_counter()
        for _ in range(self.w.setup_repeats):
            config, dataset, store = self._setup()
        self.s.add("setup_s", (time.perf_counter() - t0) / self.w.setup_repeats)
        self.config, self.dataset = config, dataset
        if store is not None:
            train_arr = dataset.split_array("train")
            pick = Rng(self.seed).derive("perfbench:train-sample").generator().choice(
                train_arr.shape[0], size=self.w.train_sample, replace=False)
            self.state = trainer.TrainState(store, dataset, config, 0, train_arr[pick])

    def _setup(self):
        cfg = RunConfig.from_file(self.cfg_path)
        config = cfg.train_config()
        dataset = Dataset.load_dir(Path(cfg.require("data.train")).parent, cfg["data.format"])
        store = None
        if self.w.train_sample:
            vocab = dataset.vocabulary
            store = objectives.build_store(config.model, config.filter, vocab.num_entities,
                                           vocab.num_relations, Rng(config.seed),
                                           config.init_scheme, config.init_scale,
                                           config.dtype)
        return config, dataset, store

    def checkpoint(self):
        if self.state is None:
            return self.trained
        st = self.state
        return trainer.Checkpoint(trainer.CHECKPOINT_VERSION, st.config,
                                  st.dataset.vocabulary, st.store, st.epoch)

    def op_train(self) -> None:
        self.s.attempted += 1
        if self.state is None:
            t0 = time.perf_counter()
            self.trained, report = trainer.train(self.dataset, self.config)
            elapsed = time.perf_counter() - t0
            rows = len(self.dataset.train) * self.config.epochs
            losses = [r.loss for r in report.records]
        else:
            t0 = time.perf_counter()
            record = trainer.train_epoch(self.state)
            elapsed = time.perf_counter() - t0
            rows = self.state.train_arr.shape[0]
            losses = [record.loss]
        problem = checks.check_losses(losses)
        if problem:
            self.s.fail(f"train: {problem}")
        else:
            self.s.add("train_triples_per_s", rows / elapsed)

    def op_eval(self) -> None:
        self.s.attempted += 1
        ckpt = self.checkpoint()
        with checks.RankProbe(evaluation) as probe:
            t0 = time.perf_counter()
            report = evaluation.evaluate_split(ckpt, self.dataset, "test")
            elapsed = time.perf_counter() - t0
        problems = checks.check_report(report, probe.ranks, ckpt.store["entity"].shape[0],
                                       2 * len(self.dataset.test))
        if self.w.mrr_floor is not None and not report.mrr > self.w.mrr_floor:
            problems.append(f"test MRR {report.mrr} not above {self.w.mrr_floor}")
        if problems:
            self.s.fail("eval: " + "; ".join(problems))
        else:
            self.s.add("eval_queries_per_s", report.query_count / elapsed)
        self.test_mrr = report.mrr

    def op_checkpoint(self) -> None:
        ckpt = self.checkpoint()
        path = self.work / "run.rscfckp"
        self.s.attempted += 2
        t0 = time.perf_counter()
        trainer.save_checkpoint(path, ckpt)
        save_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded = trainer.load_checkpoint(path)
        load_s = time.perf_counter() - t0
        self.ckpt_bytes = path.stat().st_size
        problem = checks.check_checkpoint(ckpt, loaded)
        if problem:
            self.s.fail(f"checkpoint: {problem}")
            return
        self.s.add("ckpt_save_mb_per_s", self.ckpt_bytes / MB / save_s)
        self.s.add("ckpt_load_mb_per_s", self.ckpt_bytes / MB / load_s)

    def measure(self, seconds: float, min_rounds: int) -> None:
        """Closed loop of rounds until the next one would end past `seconds`
        (judged by the median round so far) and at least `min_rounds` ran.

        A round is set-up, train op, evaluation, checkpoint save and load. A
        workload that trains through trainer.train instead starts with one
        set-up and preset run; its rounds evaluate and round-trip that model.
        """
        t0 = time.perf_counter()
        if not self.w.train_sample:
            self.op_setup()
            self.op_train()
        took: list[float] = []
        while (self.rounds < min_rounds or time.perf_counter() - t0
               + statistics.median(took) <= seconds):
            r0 = time.perf_counter()
            self.op_setup()
            if self.w.train_sample:
                self.op_train()
            self.op_eval()
            self.op_checkpoint()
            self.rounds += 1
            took.append(time.perf_counter() - r0)


# ---------------------------------------------------------------------------
# results


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def shapes(run: Run) -> dict:
    c = run.config
    if c is None or run.dataset is None:
        return {}
    vocab = run.dataset.vocabulary
    out = {
        "entities": vocab.num_entities,
        "relations": vocab.num_relations,
        "train_triples": len(run.dataset.train),
        "valid_triples": len(run.dataset.valid),
        "test_triples": len(run.dataset.test),
        "model": c.model.kind,
        "dim": c.model.dim,
        "relation_dim": c.model.relation_dim,
        "filter": c.filter.kind,
        "rt": c.filter.rt_enabled,
        "rp_weight": c.loss.rp_weight,
        "dura_weight": c.loss.dura_weight,
        "precision": c.precision,
        "batch_size": c.batch_size,
        "train_seed": c.seed,
    }
    if c.model.is_dbm:
        out["negatives"] = c.loss.negatives
    if run.w.train_sample:
        out["train_sample"] = run.w.train_sample
    else:
        out["epochs"] = c.epochs
        out["validate_every"] = c.validate_every if c.validate else None
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> dict:
    s = run.s
    metrics = {
        "setup_s": (s.median("setup_s"), "s"),
        "train_triples_per_s": (s.median("train_triples_per_s"), "1/s"),
        "eval_queries_per_s": (s.median("eval_queries_per_s"), "1/s"),
        "ckpt_save_mb_per_s": (s.median("ckpt_save_mb_per_s"), "MB/s"),
        "ckpt_load_mb_per_s": (s.median("ckpt_load_mb_per_s"), "MB/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def guarded(run: Run, fn, *args) -> None:
    """Run `fn`; an exception ends the run's operations and counts as a failure."""
    try:
        fn(*args)
    except Exception:  # the run must still print its result
        run.s.fail(traceback.format_exc(limit=4))


TRACE_ORDER = ("UT", "TU", "UT")  # U untraced, T traced; neither kind always runs first


def traced_passes(w: Workload, seed: int, cfg_path: Path, work: Path):
    """Per-layer metrics and the tracer's overhead.

    A pass is one set-up, train op and round (the preset run plus a round on
    the synthetic workload). An untraced warm-up pass comes first, so that
    first allocations and thread starts fall on no measured pass; then pairs
    of one untraced and one traced pass in TRACE_ORDER. The overhead is the
    median over pairs of traced / untraced wall time, minus 1; every timing
    per-layer metric is the median over the traced passes (counts are the
    same in each). Returns (the last pass's run, metrics, the first traced
    pass's tracer, the per-pair ratios).
    """
    import tracer

    attempted = failed = 0
    notes: list[str] = []

    def one_pass(traced: bool):
        nonlocal attempted, failed
        run = Run(w, seed, cfg_path, work)
        tr = tracer.Tracer() if traced else contextlib.nullcontext()
        with tr:
            t0 = time.perf_counter()
            guarded(run, run.measure, 0, 1)
            wall = time.perf_counter() - t0
        attempted += run.s.attempted
        failed += run.s.failed
        notes.extend(run.s.notes)
        return run, wall, tr

    one_pass(False)
    ratios, walls, layers, tracers = [], {"U": [], "T": []}, [], []
    for order in TRACE_ORDER:
        pair = {}
        for kind in order:
            run, wall, tr = one_pass(kind == "T")
            pair[kind] = wall
            walls[kind].append(wall)
            if kind == "T":
                layer = tr.layer_metrics()
                if run.dataset is not None:
                    layer.update(tracer.derived_metrics(layer, run.config,
                                                        run.dataset.vocabulary.num_entities))
                layer["evaluation.test_mrr"] = (run.test_mrr, "ratio")
                layers.append(layer)
                tracers.append(tr)
        ratios.append(pair["T"] / pair["U"])
    metrics = {name: {"value": _median_or_none([l[name][0] for l in layers]), "unit": unit}
               for name, (_, unit) in layers[0].items()}
    metrics["trace.untraced_wall_s"] = {"value": statistics.median(walls["U"]), "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": statistics.median(walls["T"]), "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": statistics.median(ratios) - 1.0, "unit": "ratio"}
    run.s.attempted, run.s.failed, run.s.notes = attempted, failed, notes
    return run, metrics, tracers[0], ratios


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 trace_dir: Path) -> tuple[dict, dict]:
    """Make the inputs, run the workload; returns (info line, result line)."""
    cfg_path = make_inputs(w, seed, work)
    extra: dict = {}
    if not trace:
        run = Run(w, seed, cfg_path, work)
        guarded(run, run.measure, seconds, w.min_rounds)
        metrics = end_to_end(run)
        extra["rounds"] = run.rounds
    else:
        run, metrics, tr, ratios = traced_passes(w, seed, cfg_path, work)
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_path = trace_dir / f"{w.name}-seed{seed}.spans.jsonl"
        extra = {"spans": tr.dump(spans_path), "spans_file": str(spans_path),
                 "traced_over_untraced": ratios}
    info = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "shapes": shapes(run),
        "samples": run.s.values,
        "checkpoint_bytes": run.ckpt_bytes,
        "test_mrr": run.test_mrr,
        "failures": run.s.notes,
        **extra,
    }
    result = {
        "correct": run.s.failed == 0,
        "attempted": run.s.attempted,
        "failed": run.s.failed,
        "metrics": metrics,
    }
    return info, result


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        rows.append((name, result))
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:48s} {v['value']!r:>24} {v['unit']}")
    print(json.dumps({name: result for name, result in rows}))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rscf benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its work files (and its child process)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    if RSCF_IMPORT_ERROR is not None or not all((PRESETS / w.preset).is_file()
                                                  for w in WORKLOADS.values()):
        print(f"perfbench: no rscf sources under {ROOT / 'src'}: {RSCF_IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        info, result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                    bool(args.trace), work, ROOT / ".perfbench" / "traces")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
