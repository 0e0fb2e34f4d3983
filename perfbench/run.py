#!/usr/bin/env python3
"""outfitrec benchmark: train every fuser, write checkpoints, evaluate them.

Usage, from the repository root:

    python3 perfbench/run.py --workload accept-d32 --seed 1 --seconds 25 --trace 0

One process, one caller, a closed loop. After a timed set-up, the run
interleaves five phases: `train()` of each of the four fusers (each
checkpoint is then saved), and the `outfitrec eval` path (load the
dataset and the four checkpoints, evaluate the ensemble). Each phase
repeats until it has had its share (a fifth) of `--seconds`. Metrics
are medians over the run, and every repetition must reproduce the first.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` two passes run untraced and one traced, the last line holds
the per-layer metrics, and the spans go to perfbench/out/. See
perfbench/README.md for the workloads and for which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
# One BLAS thread: on a small machine a second BLAS thread competes with
# the interpreter thread and makes timings noisier, not faster. The count
# in effect is printed with every result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FUSERS = ("baseline", "dot_product", "stacked", "coattention")
ATTENTION = FUSERS[1:]
SETUP_ROUNDS = 3
ORACLE_SAMPLE = 8          # FC and FITB questions re-scored per model
ORACLE_TOL = 1e-9


def import_package():
    """Import outfitrec from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import outfitrec
    except ImportError as exc:
        sys.exit(f"cannot import outfitrec from {src}: {exc}")
    if not Path(outfitrec.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"outfitrec resolved outside {src}: {outfitrec.__file__}")


import_package()

from outfitrec import (data, evaluation, model as model_mod,  # noqa: E402
                       optim, training)
from outfitrec.data import SyntheticSpec  # noqa: E402
from outfitrec.training import TrainConfig  # noqa: E402

import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    spec: SyntheticSpec
    config: TrainConfig
    min_calls: int        # calls of each phase, whatever --seconds says
    floors: bool          # criterion 3's FC/FITB floors apply


WORKLOADS = {
    "accept-d32": Workload(   # criterion 3's shape, cut to one epoch
        spec=SyntheticSpec(),
        config=TrainConfig(epochs=1, learning_rate=1e-3, batch_size=128,
                           d_g=32, d_c=32, h=32, runs=1),
        min_calls=2, floors=True),
    # Paper width; one epoch is 128 + 4 triplets. Four types, all in every
    # outfit, so the 11 train outfits train every type pair and every
    # question stays answerable.
    "paper-d512": Workload(
        spec=SyntheticSpec(num_types=4, train_outfits=11, valid_outfits=8,
                           fc_questions=100, fitb_questions=50),
        config=TrainConfig(epochs=1, batch_size=128, runs=1),
        min_calls=1, floors=False),
}

END_TO_END = (["setup_s", "peak_rss_mb", "eval_questions_per_s", "fc_auc",
               "fitb_acc"]
              + [f"train_triplets_per_s.{f}" for f in FUSERS])

PER_FUSER_LAYERS = (
    "tensor.backward_ms.{f}", "tensor.backward_ms.{f}.tail",
    "tensor.graph_nodes.{f}", "tensor.graph_mb.{f}", "fusion.forward_ms.{f}",
    "fusion.forward_ms.{f}.tail", "embedding.project_ms.{f}",
    "compatibility.loss_ms.{f}", "optim.adam_ms.{f}",
    "training.assemble_ms.{f}", "training.steps.{f}",
    "training.validation_ms.{f}", "evaluation.representations_ms.{f}",
    "evaluation.fc_ms.{f}", "evaluation.fitb_ms.{f}",
    "compatibility.score_ms.{f}", "compatibility.score_calls.{f}")
SHARED_LAYERS = (
    "compatibility.type_pair_groups", "training.sample_triplets_ms",
    "evaluation.fc_auc_ms", "evaluation.vote_ms", "model.load_model_ms",
    "model.save_model_ms", "data.load_dataset_ms",
    "data.generate_synthetic_ms", "data.save_dataset_ms",
    "evaluation.attention_gain_auc", "tracing.overhead_s",
    "tracing.overhead_pct")


def per_layer_names() -> list[str]:
    return ([t.format(f=f) for t in PER_FUSER_LAYERS for f in FUSERS]
            + list(SHARED_LAYERS))


UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "eval_questions_per_s": "1/s",
         "fc_auc": "auc", "fitb_acc": "fraction"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("train_triplets_per_s"):
        return "1/s"
    if name.startswith("tensor.graph_mb"):
        return "MB_computed"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    if name.endswith("_auc"):
        return "auc"
    return "count"


# -- environment ---------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu, l3 = platform.processor() or "unknown", None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size"
                  ).read_text().strip()
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "cores": os.cpu_count(),
            "cpu": cpu, "l3": l3, "seed": seed}


# -- timed phases --------------------------------------------------------------


class StepClock:
    """Times each training step from outside the package: a step starts
    when `train()` calls `_batch_arrays` and ends when `Adam.step`
    returns. Two clock reads per step; no spans. Steps go to `steps`
    as (triplets in the batch, seconds). If a later change moves either
    function, no steps are recorded and whole calls are timed."""

    def __init__(self):
        self.steps: list[tuple[int, float]] = []
        self._open: tuple[int, float] | None = None
        self._undo: list[tuple] = []

    def __enter__(self) -> "StepClock":
        assemble = getattr(training, "_batch_arrays", None)
        step = getattr(getattr(optim, "Adam", None), "step", None)
        if assemble is None or step is None:
            return self

        def timed_assemble(dataset, triplets):
            self._open = (len(triplets), time.perf_counter())
            return assemble(dataset, triplets)

        def timed_step(optimizer, *args, **kwargs):
            result = step(optimizer, *args, **kwargs)
            if self._open is not None:
                size, start = self._open
                self.steps.append((size, time.perf_counter() - start))
                self._open = None
            return result

        self._undo = [(training, "_batch_arrays", assemble),
                      (optim.Adam, "step", step)]
        training._batch_arrays, optim.Adam.step = timed_assemble, timed_step
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in self._undo:
            setattr(owner, name, original)


@dataclasses.dataclass
class TrainCall:
    """One timed `train()`: its wall time and its steps."""
    wall_s: float
    steps: list[tuple[int, float]]

    def rest_s(self) -> float:
        """Wall time outside the steps: model init, triplet sampling,
        validation."""
        return self.wall_s - sum(s for _, s in self.steps)


def median_steps(calls: list[TrainCall]) -> dict[int, float]:
    """Median step time per batch size, pooled over calls."""
    by_size = defaultdict(list)
    for call in calls:
        for size, seconds in call.steps:
            by_size[size].append(seconds)
    return {size: statistics.median(v) for size, v in sorted(by_size.items())}


def train_seconds(calls: list[TrainCall]) -> float:
    """`train()` wall time with each of its parts replaced by the part's
    median over the run. Steps with the same batch size are one part,
    pooled over calls; the rest of the call is another. Every call of a
    run trains the same batches, so with one call this is its wall time,
    and a host stall that hits some steps or some calls moves only the
    samples it hit, not the median."""
    medians = median_steps(calls)
    return (statistics.median(c.rest_s() for c in calls)
            + sum(medians[size] for size, _ in calls[0].steps))


PHASES = (*reversed(FUSERS), "eval")


@dataclasses.dataclass
class Samples:
    """Every timed repetition of a run: per fuser, the `train()` calls and
    per-step losses; then the eval path's wall times and reports."""
    train: dict[str, list[TrainCall]]
    losses: dict[str, list[list[float]]]
    eval_s: list[float]
    reports: list[dict]
    triplets: dict[str, int]
    questions: int = 0
    failed: int = 0
    attempted: int = 0

    def calls(self, phase: str) -> int:
        return len(self.eval_s if phase == "eval" else self.train[phase])

    def spent_s(self, phase: str) -> float:
        if phase == "eval":
            return sum(self.eval_s)
        return sum(c.wall_s for c in self.train[phase])

    def total_s(self) -> float:
        return sum(map(self.spent_s, PHASES))


def ordered_pairs(dataset) -> int:
    """Triplet candidates per epoch: ordered described pairs in train."""
    total = 0
    for outfit in dataset.outfits["train"]:
        m = sum(1 for i in outfit.items if dataset.items[i].described)
        total += m * (m - 1)
    return total


def run_phases(wl: Workload, seed: int, dataset, manifest: Path, work: Path,
               seconds: float, min_calls: int = 1) -> Samples:
    """Five phases: `train()` of each fuser (then its checkpoint is saved,
    untimed), then the eval path. The first pass runs each phase once,
    coattention first: the largest graph grows the heap once, instead of
    adding page faults to every later phase. After that, the phase with
    the least time so far runs next, until every phase has run
    `min_calls` times and had a fifth of `seconds`. So the phases
    interleave, and each gets about the same share of the run, whatever
    one call of it costs."""
    out = Samples({f: [] for f in FUSERS}, {f: [] for f in FUSERS}, [], [], {})
    pairs = ordered_pairs(dataset)
    share = seconds / len(PHASES)
    due = list(PHASES)
    while due:
        phase = min(due, key=lambda p: (out.calls(p) > 0, out.spent_s(p)))
        if phase == "eval":
            start = time.perf_counter()
            eval_data = data.load_dataset(manifest)
            models = [model_mod.load_model(work / f"{f}.ckpt") for f in FUSERS]
            report = evaluation.evaluate(eval_data, models)
            out.eval_s.append(time.perf_counter() - start)
            out.reports.append(report.to_dict())
            out.questions = report.fc_answered + report.fitb_answered
            total = report.fc_total + report.fitb_total
            out.attempted += total * len(models)
            out.failed += (total - out.questions) * len(models)
        else:
            cfg = dataclasses.replace(wl.config, fusion=phase, seed=seed)
            with StepClock() as clock:
                start = time.perf_counter()
                model, history = training.train(dataset, cfg)
                wall = time.perf_counter() - start
            out.train[phase].append(TrainCall(wall, clock.steps))
            out.losses[phase].append(
                [x for h in history for x in h.step_losses])
            out.attempted += len(out.losses[phase][-1])
            out.triplets[phase] = sum(pairs - h.skipped_pairs
                                      for h in history)
            model_mod.save_model(model, work / f"{phase}.ckpt")
        due = [p for p in PHASES if out.calls(p) < min_calls
               or out.spent_s(p) < share]
    return out


# -- checks ----------------------------------------------------------------------


def oracle_problems(manifest: Path, work: Path) -> list[str]:
    """Re-score a sample of questions with the numpy oracle."""
    problems = []
    ds = data.load_dataset(manifest)
    fc, fitb, _, _ = data.filter_questions(ds.fc_questions,
                                           ds.fitb_questions, ds)
    fc_sample = fc[::max(1, len(fc) // ORACLE_SAMPLE)][:ORACLE_SAMPLE]
    fitb_sample = fitb[::max(1, len(fitb) // ORACLE_SAMPLE)][:ORACLE_SAMPLE]
    for fusion in FUSERS:
        model = model_mod.load_model(work / f"{fusion}.ckpt")
        scores, _, _, _ = evaluation.fc_scores_and_labels(ds, fc_sample, model)
        for q, got in zip(fc_sample, scores):
            want = oracle.fc_score(model, ds, q)
            if abs(got - want) > ORACLE_TOL:
                problems.append(f"{fusion}: FC score {got!r} != oracle {want!r}")
        reps = evaluation.compute_representations(
            model, ds, [i for q in fitb_sample for i in q.partial + q.candidates])
        for q in fitb_sample:
            got = evaluation.fitb_answer(q, model, ds, reps)
            want = oracle.fitb_totals(model, ds, q)
            if got is None or float(abs(got[1] - want).max()) > ORACLE_TOL:
                problems.append(f"{fusion}: FITB totals differ from oracle")
    return problems


def floor_problems(report: dict) -> list[str]:
    """Criterion 3's floors, per fuser."""
    problems = [f"{f}: FC AUC {auc:.4f} < 0.75"
                for f, auc in zip(FUSERS, report["fc_auc_per_run"]) if auc < 0.75]
    problems += [f"{f}: FITB accuracy {acc:.4f} < 0.50"
                 for f, acc in zip(FUSERS, report["fitb_accuracy_per_run"])
                 if acc < 0.50]
    return problems


def rerun_problems(runs: list[Samples]) -> list[str]:
    """Every repetition of a phase must give the losses or report of its
    first: they are reruns of one seed."""
    problems = []
    for fusion in FUSERS:
        reruns = [r for run in runs for r in run.losses[fusion]]
        if not all(math.isfinite(x) for x in reruns[0]):
            problems.append(f"{fusion}: non-finite step loss")
        if any(r != reruns[0] for r in reruns[1:]):
            problems.append(f"{fusion}: a same-seed rerun changed the losses")
    reports = [json.dumps(r, sort_keys=True) for run in runs for r in run.reports]
    if any(r != reports[0] for r in reports[1:]):
        problems.append("a same-seed rerun changed the evaluation report")
    return problems


def check(wl: Workload, runs: list[Samples], manifest: Path,
          work: Path) -> list[str]:
    problems = rerun_problems(runs)
    failed = sum(run.failed for run in runs)
    if failed:
        problems.append(f"{failed} unanswered question-model pairs")
    if wl.floors:
        problems += floor_problems(runs[0].reports[0])
    return problems + oracle_problems(manifest, work)


# -- set-up ----------------------------------------------------------------------


def warm_up(work: Path) -> None:
    """One tiny epoch and evaluation per fuser: imports, BLAS threads and
    first-call paths are paid here, not in the timed phases."""
    spec = SyntheticSpec(train_outfits=6, valid_outfits=4, fc_questions=40,
                         fitb_questions=20)
    tiny = data.generate_synthetic(spec, 0)
    cfg = TrainConfig(epochs=1, batch_size=16, d_g=8, d_c=8, h=8, runs=1)
    models = [training.train(tiny, dataclasses.replace(cfg, fusion=f))[0]
              for f in FUSERS]
    evaluation.evaluate(tiny, models)
    model_mod.save_model(models[0], work / "warm.ckpt")
    model_mod.load_model(work / "warm.ckpt")


def set_up(wl: Workload, seed: int, work: Path):
    """Generate and save the dataset, load it back as the training input."""
    dataset = data.generate_synthetic(wl.spec, seed)
    manifest = data.save_dataset(dataset, work / "dataset")
    return data.load_dataset(manifest), manifest


def timed_set_up(wl: Workload, seed: int, work: Path):
    """Median of several set-up rounds. Every round saves into the same
    directory: the first creates the feature files, later rounds overwrite
    them, which keeps file-creation stalls of the disk out of the median."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        warm_up(work)
        result = set_up(wl, seed, work)
        times.append(time.perf_counter() - start)
    print("set-up rounds (s): " + json.dumps(times))
    return statistics.median(times), result


def print_samples(samples: Samples) -> None:
    """Per phase: every call's wall time; per fuser also the median step
    time of each batch size, the median rest of a call, and the
    `train()` time the throughput is computed from."""
    for f in FUSERS:
        calls = samples.train[f]
        print(f"samples {f} (s): " + json.dumps({
            "calls": [c.wall_s for c in calls],
            "median_step": median_steps(calls),
            "median_rest": statistics.median(c.rest_s() for c in calls),
            "train": train_seconds(calls)}))
    print("samples eval (s): " + json.dumps(samples.eval_s))


# -- metrics ---------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it; the median when there are too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return statistics.quantiles(ordered, n=100)[pct - 1], pct
    return statistics.median(ordered), 50


def end_to_end(samples: Samples, setup_s: float) -> dict:
    report = samples.reports[0]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "eval_questions_per_s": samples.questions * len(FUSERS)
        / statistics.median(samples.eval_s),
        "fc_auc": report["fc_auc_mean"],
        "fitb_acc": report["fitb_accuracy_mean"],
    }
    for f in FUSERS:
        metrics[f"train_triplets_per_s.{f}"] = (
            samples.triplets[f] / train_seconds(samples.train[f]))
    return metrics


def per_layer(tr: Tracer, report: dict, overhead_s: float,
              untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus the full statistics."""
    metrics, stats = {}, {}

    def put(name, values, mode="median"):
        values = list(values)
        if not values:
            metrics[name] = 0.0
            stats[name] = {"n": 0}
            return
        value, pct = (tail(values) if mode == "tail"
                      else (statistics.median(values), 50))
        metrics[name] = value
        stats[name] = {"n": len(values), "median": statistics.median(values),
                       "pct": pct, "value": value, "max": max(values)}

    for f in FUSERS:
        step = lambda layer: tr.per_step.get((layer, f), [])  # noqa: E731
        put(f"tensor.backward_ms.{f}", step("tensor.backward"))
        put(f"tensor.backward_ms.{f}.tail", step("tensor.backward"), "tail")
        graphs = tr.graphs.get(f, [])
        put(f"tensor.graph_nodes.{f}", [g[0] for g in graphs])
        put(f"tensor.graph_mb.{f}", [g[1] / 2**20 for g in graphs])
        put(f"fusion.forward_ms.{f}", step("fusion.forward"))
        put(f"fusion.forward_ms.{f}.tail", step("fusion.forward"), "tail")
        put(f"embedding.project_ms.{f}", step("embedding.project"))
        put(f"compatibility.loss_ms.{f}", step("compatibility.loss"))
        put(f"optim.adam_ms.{f}", step("optim.adam"))
        put(f"training.assemble_ms.{f}", step("training.assemble"))
        metrics[f"training.steps.{f}"] = len(step("optim.adam"))
        put(f"training.validation_ms.{f}",
            tr.per_call.get(("training.validation", f), []))
        for layer in ("evaluation.representations", "evaluation.fc",
                      "evaluation.fitb", "compatibility.score"):
            metrics[f"{layer}_ms.{f}"] = sum(tr.per_call.get((layer, f), []))
        metrics[f"compatibility.score_calls.{f}"] = tr.counts.get(
            ("compatibility.score_calls", f), 0)

    def calls(layer):
        return [v for (name, _), vs in tr.per_call.items() if name == layer
                for v in vs]

    put("compatibility.type_pair_groups", tr.pair_groups)
    put("training.sample_triplets_ms", calls("training.sample_triplets"))
    metrics["evaluation.fc_auc_ms"] = sum(calls("evaluation.fc_auc"))
    metrics["evaluation.vote_ms"] = sum(calls("evaluation.vote"))
    for layer in ("model.load_model", "model.save_model", "data.load_dataset",
                  "data.generate_synthetic", "data.save_dataset"):
        put(f"{layer}_ms", calls(layer))
    fc = dict(zip(FUSERS, report["fc_auc_per_run"]))
    metrics["evaluation.attention_gain_auc"] = (
        min(fc[f] for f in ATTENTION) - fc["baseline"])
    metrics["tracing.overhead_s"] = overhead_s
    metrics["tracing.overhead_pct"] = 100.0 * overhead_s / untraced_s
    return metrics, stats


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    (BENCH / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-",
                                 dir=BENCH / "out"))
    try:
        setup_s, (dataset, manifest) = timed_set_up(wl, args.seed, work)
        if not args.trace:
            runs = [run_phases(wl, args.seed, dataset, manifest, work,
                               args.seconds, wl.min_calls)]
            metrics = end_to_end(runs[0], setup_s)
            print_samples(runs[0])
        else:
            # a warm untraced pass first, so that the untraced pass the
            # overhead is measured against is as warm as the traced one
            runs = [run_phases(wl, args.seed, dataset, manifest, work, 0)
                    for _ in range(2)]
            tr = Tracer()
            tr.install()
            try:
                set_up(wl, args.seed, work)
                runs.append(run_phases(wl, args.seed, dataset, manifest,
                                       work, 0))
            finally:
                tr.uninstall()
            plain_s, traced_s = runs[1].total_s(), runs[2].total_s()
            metrics, stats = per_layer(tr, runs[2].reports[0],
                                       traced_s - plain_s, plain_s)
            out = (BENCH / "out"
                   / f"trace-{args.workload}-seed{args.seed}.json.gz")
            out.write_bytes(gzip.compress(json.dumps(
                {"environment": env, "workload": args.workload,
                 "untraced_s": plain_s, "traced_s": traced_s,
                 "missing_targets": tr.missing, "stats": stats,
                 "spans": tr.dump()}).encode()))
            print(f"spans: {out.relative_to(ROOT)}")
        problems = check(wl, runs, manifest, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = per_layer_names() if args.trace else END_TO_END
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metric names drifted: {sorted(metrics)}")
    for p in problems:
        print(f"check failed: {p}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
