"""tkgdiff benchmark: train, checkpoint, reload and evaluate on seeded synthetic
corpora, end to end (untraced) or per layer (traced).

    python3 bench/run.py --workload icews14 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the repository root. Each metric is printed as `name value unit`;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count once, when numpy is first imported.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"


def _import_package():
    """Import tkgdiff from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import tkgdiff
    origin = Path(tkgdiff.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"tkgdiff imported from {origin}, not from {src}")


_import_package()

import numpy as np  # noqa: E402

from corpora import CorpusSpec, corpus_stats, generate  # noqa: E402
from tkgdiff import corpus, dpcl, engine, evaluate, geometry, gndiff, numkit  # noqa: E402
from tkgdiff.errors import NumericError  # noqa: E402
from tracer import Tracer, self_times, subtree  # noqa: E402

MODULES = {"corpus": corpus, "dpcl": dpcl, "geometry": geometry, "gndiff": gndiff,
           "numkit": numkit, "evaluate": evaluate, "engine": engine}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A corpus spec plus the TrainConfig fields it sets; BENCHMARK.json and
    bench/README.md say why each workload is in the suite."""

    name: str
    spec: CorpusSpec
    config: dict        # TrainConfig fields besides seed


ICEWS14_SHAPE = dict(n_entities=7128, n_relations=230, n_timestamps=365)

WORKLOADS = {w.name: w for w in (
    Workload(
        "icews14",
        CorpusSpec(**ICEWS14_SHAPE, n_train=128, n_valid=0, n_test=8, n_pairs=400,
                   periodic_share=0.6, new_share=0.25, valid_window=2, test_window=3),
        dict(epochs_stage1=0, epochs_stage2=1)),
    Workload(
        "icews14-dpcl",
        CorpusSpec(**ICEWS14_SHAPE, n_train=128, n_valid=0, n_test=192, n_pairs=400,
                   periodic_share=0.6, new_share=0.25, valid_window=2, test_window=3),
        dict(epochs_stage1=0, epochs_stage2=1, no_gndiff=True)),
    Workload(
        "dense-history",
        CorpusSpec(n_entities=240, n_relations=6, n_timestamps=365, n_train=1536,
                   n_valid=96, n_test=192, n_pairs=12, periodic_share=0.75,
                   new_share=0.3, valid_window=20, test_window=25),
        dict(d_dpcl=16, d_diff=16, epochs_stage1=2, epochs_stage2=2, steps=10)),
)}


# ---------------------------------------------------------------------------
# Per-layer trace targets and their work counts
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _denoiser_work(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    rows = np.asarray(_arg(args, kwargs, 1, "xt")).size // 3
    # forward multiply-adds of the two dense layers, 2 flops each
    return {"rows": rows,
            "gflop": 2.0 * rows * (params.w1.size + params.w2.size) / 1e9}


def _pairwise_work(args, kwargs, result):
    return {"cells": result.size}


def _reprojection_work(args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 0, "x"))
    rows = x.reshape(-1, x.shape[-1])
    changed = np.any(result.reshape(rows.shape) != rows, axis=1)
    return {"rows": len(rows), "rows_reprojected": int(changed.sum())}


TRACE_TARGETS = {
    "corpus.build_periodic_index": None,
    "corpus.token_entropies": None,
    "corpus.is_new_event": None,
    "corpus.PeriodicIndex.z_row": None,
    "dpcl.QueryBatch.from_quads": lambda a, k, r: {"rows": len(r)},
    "dpcl.periodic_scores": None,
    "dpcl.nonperiodic_scores": None,
    "dpcl.ce_loss": None,
    "dpcl.supcon_loss": None,
    "geometry.poincare_pairwise": _pairwise_work,
    "geometry.euclidean_pairwise": _pairwise_work,
    "geometry.project_array_to_ball": _reprojection_work,
    "gndiff.p_diff_batch": None,
    "gndiff.denoise_x0_batch": _denoiser_work,
    "gndiff.batch_loss": None,
    "numkit.Tensor.__init__": lambda a, k, r: {"mb": a[0].data.nbytes / 1e6},
    "numkit.GradTape.gradient": lambda a, k, r: {"records": len(a[0])},
    "numkit.adam_step": lambda a, k, r: {"params": r.size},
    "evaluate.evaluate_split": None,
    "evaluate.filtered_rank": None,
    "evaluate.raw_rank": None,
    "evaluate.p_dpcl": None,
    "engine.train": None,
    "engine.save_checkpoint": lambda a, k, r: {
        "mb": os.path.getsize(_arg(a, k, 1, "path")) / 1e6},
    "engine.load_checkpoint": None,
}


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# One round: train -> checkpoint -> reload -> evaluate, with checks
# ---------------------------------------------------------------------------

@dataclass
class Round:
    train_s: float
    eval_s: float
    attempted: int
    failed: int
    problems: list[str]
    fingerprint: tuple          # ranks and losses: must repeat exactly
    quality: dict[str, float]
    phases: dict[str, int]      # span ids of the phases when traced


@dataclass
class Traced:
    """A traced round with its per-name self times and work counts."""

    round: Round
    self_s: dict[str, float]
    counts: dict[str, float]


LOSSES = ("loss_total", "loss_ce", "loss_sup", "loss_diff")


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def run_round(cfg, store, work_dir: Path, tracer: Tracer | None = None) -> Round:
    """Train, reload best.ckpt and evaluate the test split, then check the
    outputs. A raised NumericError or a failed check marks the operations it
    covers (training batches, test queries) as failed."""
    n_batches = cfg.total_epochs * math.ceil(len(store.split("train")) / cfg.batch)
    n_test = len(store.split("test"))
    out_dir = work_dir / "ckpt"
    problems: list[str] = []
    phases: dict[str, int] = {}
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())

    ckpt = reports = None
    t0 = time.perf_counter()
    try:
        with span("bench.train") as phases["train"]:
            ckpt = engine.train(cfg, store, out_dir=out_dir)
    except NumericError as e:
        problems.append(f"train raised NumericError: {e}")
    t1 = time.perf_counter()
    if ckpt is not None:
        try:
            with span("bench.eval") as phases["eval"]:
                loaded = engine.load_checkpoint(out_dir / "best.ckpt")
                model = engine.model_from_checkpoint(loaded, store)
                reports = evaluate.evaluate_split(model, store, "test",
                                                  seed=cfg.seed, lam=cfg.lam)
        except NumericError as e:
            problems.append(f"evaluate raised NumericError: {e}")
    t2 = time.perf_counter()
    shutil.rmtree(out_dir, ignore_errors=True)

    losses = [] if ckpt is None else [line[k] for line in ckpt.metrics for k in LOSSES]
    train_ok = ckpt is not None and len(ckpt.metrics) == cfg.total_epochs \
        and _finite(losses)
    if ckpt is not None and not train_ok:
        problems.append("training losses missing or non-finite")
    failed = 0 if train_ok else n_batches

    quality: dict[str, float] = {}
    ranks = raw = ()
    if reports is None:
        failed += n_test
    else:
        everything = reports["all"]
        ranks, raw = tuple(everything.ranks), tuple(everything.raw_ranks)
        bad = sum(not (1 <= f <= r <= store.n_entities) for f, r in zip(ranks, raw))
        if bad:
            problems.append(f"{bad} queries violate 1 <= filtered <= raw <= |E|")
        if len(ranks) != n_test or len(raw) != n_test:
            problems.append(f"{len(ranks)} ranks for {n_test} test queries")
            bad += abs(n_test - min(len(ranks), len(raw)))
        strata = len(reports["new-events"].ranks) + len(reports["periodic"].ranks)
        if strata != n_test:
            problems.append(f"strata hold {strata} of {n_test} test queries")
        quality = {"mrr": everything.mrr, "mrr_new": reports["new-events"].mrr,
                   "mrr_periodic": reports["periodic"].mrr,
                   "hits1": everything.hits(1), "hits10": everything.hits(10)}
        if not _finite(quality.values()):
            problems.append("non-finite ranking metrics")
            bad = n_test
        failed += min(bad, n_test)
    return Round(train_s=t1 - t0, eval_s=t2 - t1, attempted=n_batches + n_test,
                 failed=failed, problems=problems,
                 fingerprint=(ranks, raw, tuple(losses)), quality=quality,
                 phases=phases)


# ---------------------------------------------------------------------------
# Set-up: what a run pays before its first batch or query
# ---------------------------------------------------------------------------

# Set-up is sampled at least twice before every round, and for at least this long.
SETUP_BUDGET_S = 0.5


def time_setup(cfg, store) -> list[float]:
    """Set-up times: a replica of the set-up calls engine.train,
    model_from_checkpoint and evaluate_split make before their first batch or
    query (the periodic indexes they build, token_entropies, parameter init),
    repeated at least twice and until SETUP_BUDGET_S is spent."""
    scopes = [("train",)]
    if len(store.split("valid")):
        scopes.append(("train", "valid"))
    scopes.append(evaluate._SCOPE_FOR_SPLIT["test"])
    times: list[float] = []
    while len(times) < 2 or sum(times) < SETUP_BUDGET_S:
        t0 = time.perf_counter()
        corpus.token_entropies(store)
        for scope in scopes:
            corpus.build_periodic_index(store, cfg.lam, scope)
        init_rng = numkit.rng_for(cfg.seed, engine._NS_INIT)
        dpcl.init_params(store.n_entities, store.n_relations, cfg.d_dpcl, init_rng)
        gndiff.init_denoiser(store.n_entities, store.n_relations, cfg.d_diff, init_rng)
        corpus.token_entropies(store)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# A workload run
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 manifest: dict) -> dict:
    start = time.perf_counter()
    store = generate(workload.spec, seed)
    stats = corpus_stats(store)
    cfg = engine.TrainConfig(**workload.config, seed=seed)

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    plain: list[Round] = []
    traced: list[Traced] = []
    setup_times: list[float] = []
    deadline = start + seconds
    try:
        while True:
            # set-up is sampled before every round, so its median spans the run
            setup_times += time_setup(cfg, store)
            # a traced run alternates plain and traced rounds; the difference
            # of their wall times is the tracing overhead
            if trace and len(plain) > len(traced):
                tracer.counts.clear()
                tracer.install(MODULES, TRACE_TARGETS)
                try:
                    with tracer.span("bench.round") as root:
                        rnd = run_round(cfg, store, work_dir, tracer)
                finally:
                    tracer.uninstall()
                traced.append(Traced(rnd, self_times(tracer.spans, root),
                                     {**tracer.counts, **_eval_share(tracer.spans, rnd)}))
            else:
                rnd = run_round(cfg, store, work_dir, None)
                plain.append(rnd)
            done = len(plain) >= 1 and len(traced) >= (1 if trace else 0)
            if done and time.perf_counter() + rnd.train_s + rnd.eval_s > deadline:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    rounds = plain + [t.round for t in traced]
    problems = [p for r in rounds for p in r.problems]
    if any(r.fingerprint != rounds[0].fingerprint for r in rounds):
        problems.append("ranks or losses differ between identical rounds")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    n_train_quads = len(store.split("train")) * cfg.total_epochs
    n_test = len(store.split("test"))
    losses = rounds[0].fingerprint[2]
    info = {"workload": workload.name, "seed": seed, "rounds": len(rounds),
            "round_train_s": [round(r.train_s, 3) for r in rounds],
            "round_eval_s": [round(r.eval_s, 3) for r in rounds],
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "numpy": np.__version__, "blas": _blas_name(),
            "python": platform.python_version(), "error_rate": failed / attempted,
            **stats, "final_loss_total": losses[-len(LOSSES)] if losses else None,
            **{f"quality.{k}": v for k, v in rounds[0].quality.items()}}
    if trace:
        metrics = _per_layer_metrics(manifest, traced, plain)
        tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl")
    else:
        metrics = {
            "train_quads_per_s": _metric(
                statistics.median(n_train_quads / r.train_s for r in rounds), "1/s"),
            "eval_queries_per_s": _metric(
                statistics.median(n_test / r.eval_s for r in rounds), "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
        }
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "info": info, "problems": problems}


def _eval_share(spans, rnd: Round) -> dict[str, float]:
    """Share of the eval phase spent inside p_diff_batch and its children."""
    idx = rnd.phases.get("eval")
    if idx is None:
        return {}
    inside = sum(spans[i][3] - spans[i][2] for i in subtree(spans, idx)
                 if spans[i][0] == "gndiff.p_diff_batch")
    return {"gndiff.p_diff_batch.eval_share": inside / (spans[idx][3] - spans[idx][2])}


def _per_layer_metrics(manifest, traced: list[Traced], plain: list[Round]) -> dict:
    med = statistics.median
    out = {}
    for spec in manifest["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_s":
            # the first round pays the warm-up (page faults, allocator growth)
            value = med([t.round.train_s + t.round.eval_s for t in traced]) - \
                med([r.train_s + r.eval_s for r in plain[1:] or plain])
        elif name.startswith("quality."):
            value = traced[0].round.quality.get(name.split(".", 1)[1], 0.0)
        elif name.endswith(".self_s"):
            value = med([t.self_s.get(name[:-len(".self_s")], 0.0) for t in traced])
        elif name.endswith(".rows_reprojected_ratio"):
            base = name[:-len("_ratio")]
            rows = base[:-len("_reprojected")]
            value = med([t.counts.get(base, 0) / t.counts[rows]
                         if t.counts.get(rows) else 0.0 for t in traced])
        else:
            value = med([t.counts.get(name, 0.0) for t in traced])
        out[name] = _metric(value, spec["unit"])
    return out


def _blas_name() -> str:
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _print_metrics(result: dict) -> None:
    for key, value in result["info"].items():
        print(f"info {key} {value}")
    for problem in result["problems"]:
        print(f"problem {problem}")
    print(f"error_rate {result['info']['error_rate']:.6g} ratio")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def _run_all(args) -> int:
    """Each workload in its own process; a failing workload does not stop
    the others."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name} problem exited with code {proc.returncode}")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), load_manifest())
    _print_metrics(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
