"""In-process timings of training and evaluation layers at the acceptance
width (d=32), for one tree or for a parent tree against this one.

    python tools/layerbench.py                       # this tree alone
    python tools/layerbench.py --parent ../parent    # parent vs this tree

Each tree's `src/outfitrec` is loaded under its own top-level name, so
all run in one process on one heap and one BLAS. Every figure is timed
`--rounds` times per tree. With `--parent`, this tree is also loaded a
second time, and round k calls the parent, this tree and its second load
back to back, in that order in even rounds and in reverse in odd ones.
The figures, on `SyntheticSpec()` seed 42 with a one-epoch d=32 config
(`perfbench`'s accept-d32 shape):

- `data.generate_synthetic`: the dataset, generated afresh;
- `data.save_dataset`: the generated dataset, saved over the tree's own
  copy in a temporary directory;
- `data.load_dataset`: that copy, loaded;
- `training.sample_triplets`: one epoch's triplets, from a fresh
  generator seeded with the round number;
- `compatibility.loss_step.<fuser>`: `training_loss` plus `backward` on
  the first 128-triplet batch of an initialised model;
- `training.train.<fuser>`: one-epoch `train()`;
- `evaluation.evaluate`: `evaluate` of four initialised models, one per
  fuser, on the dataset's 2000 FC and 1000 FITB questions.

Per figure it reports each tree's median and interquartile range in ms,
the ratio of the medians (parent / change, so above 1 is faster), the
rounds in which this tree was faster, and whether both trees gave equal
outputs (the dataset's content: stores, items, outfits and questions, as
loaded for `save_dataset`, not the file bytes; triplets; loss bits and
gradients; step losses and parameters; the report's `to_dict()`).
The second load gives the A/A noise floor: `aa_ratio` is its median over
this tree's (oriented as `ratio`), `aa_spread` the interquartile range of
the per-round A/A ratios, and `verdict` is "no change" when `ratio` lies
inside that spread, else "faster" or "slower".
The JSON names the parent by its directory name.
It writes the JSON to `--out` (default `BENCH_layers.json` at the repo
root) and exits with status 1 when some figure's outputs differ. Run it on
a quiet host; the BLAS thread count defaults to 1.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC, SEED = {}, 42          # SyntheticSpec fields, dataset seed
CONFIG = {"epochs": 1, "learning_rate": 1e-3, "batch_size": 128,
          "d_g": 32, "d_c": 32, "h": 32, "runs": 1, "seed": 0}
FUSERS = ("baseline", "dot_product", "stacked", "coattention")


class Tree:
    """One checkout's `outfitrec`, loaded under the name `name`, and the
    dataset it generates."""

    def __init__(self, root: Path, name: str):
        package = Path(root).resolve() / "src" / "outfitrec"
        for loaded in [m for m in sys.modules
                       if m == name or m.startswith(name + ".")]:
            del sys.modules[loaded]   # an earlier load under this name
        spec = importlib.util.spec_from_file_location(
            name, package / "__init__.py",
            submodule_search_locations=[str(package)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        self.root = Path(root).resolve()
        self.training = importlib.import_module(f"{name}.training")
        self.compatibility = importlib.import_module(f"{name}.compatibility")
        self.evaluation = importlib.import_module(f"{name}.evaluation")
        self.data = importlib.import_module(f"{name}.data")
        self.dataset = self.generate()

    def generate(self):
        return self.data.generate_synthetic(self.data.SyntheticSpec(**SPEC),
                                            SEED)

    def config(self, fusion: str):
        return self.training.TrainConfig(fusion=fusion, **CONFIG)


def digest(*parts) -> str:
    """SHA-256 of arrays, floats, None and lists of them, by their bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)):
            h.update(digest(*part).encode())
        elif part is None:
            h.update(b"none")
        else:
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def content(dataset) -> str:
    """Digest of a dataset's stores, items, outfits and questions."""
    items = [[i, item.type.name, item.type.id, item.description]
             for i, item in dataset.items.items()]
    outfits = {split: [[o.id, list(o.items)] for o in members]
               for split, members in dataset.outfits.items()}
    questions = [[[list(q.items), q.label] for q in dataset.fc_questions],
                 [[list(q.partial), list(q.candidates), q.answer]
                  for q in dataset.fitb_questions]]
    return digest(dataset.regions, np.array(dataset.regions.shape),
                  dataset.words, np.array(dataset.words.shape),
                  np.frombuffer(json.dumps([items, outfits, questions])
                                .encode(), np.uint8))


def generate_call(tree: Tree):
    """`generate_synthetic` of the benchmark spec."""
    def call(round_: int):
        dataset = tree.generate()
        return lambda: content(dataset)
    return call


def save_call(tree: Tree, out: Path):
    """`save_dataset` of the generated dataset into `out`."""
    def call(round_: int):
        manifest = tree.data.save_dataset(tree.dataset, out)
        return lambda: content(tree.data.load_dataset(manifest))
    return call


def load_call(tree: Tree, out: Path):
    """`load_dataset` of the tree's own save of the dataset into `out`."""
    manifest = tree.data.save_dataset(tree.dataset, out)

    def call(round_: int):
        dataset = tree.data.load_dataset(manifest)
        return lambda: content(dataset)
    return call


def sample_call(tree: Tree):
    """`sample_triplets` of one epoch; a round seeds its generator."""
    def call(round_: int) -> str:
        triplets, skipped = tree.training.sample_triplets(
            tree.dataset, np.random.default_rng(round_))
        return digest(triplets, np.array([skipped]))
    return call


def initialised(tree: Tree, fusion: str):
    """A `fusion` model at init: `train` of zero epochs."""
    return tree.training.train(tree.dataset, dataclasses.replace(
        tree.config(fusion), epochs=0))[0]


def loss_step_call(tree: Tree, fusion: str):
    """`training_loss` plus `backward` on the first batch at init."""
    config = tree.config(fusion)
    model = initialised(tree, fusion)
    params = [p for _, p in model.parameters()]
    triplets, _ = tree.training.sample_triplets(
        tree.dataset, np.random.default_rng(config.seed))
    batch = tree.training._batch_arrays(tree.dataset,
                                        triplets[:config.batch_size])
    weights = config.weights()

    def call(round_: int) -> str:
        for p in params:
            p.zero_grad()
        loss = tree.compatibility.training_loss(model, *batch, weights)
        loss.backward()
        return digest(loss.data, [p.grad for p in params])
    return call


def train_call(tree: Tree, fusion: str):
    """One-epoch `train()`."""
    config = tree.config(fusion)

    def call(round_: int) -> str:
        model, history = tree.training.train(tree.dataset, config)
        return digest([np.array(h.step_losses) for h in history],
                      [p.data for _, p in model.parameters()])
    return call


def evaluate_call(tree: Tree):
    """`evaluate` of one initialised model per fuser."""
    models = [initialised(tree, fusion) for fusion in FUSERS]

    def call(round_: int) -> str:
        report = tree.evaluation.evaluate(tree.dataset, models)
        return json.dumps(report.to_dict(), sort_keys=True)
    return call


def figures(trees: list[Tree], work: Path) -> dict:
    """Each figure's call per tree, in report order; each tree saves its
    dataset under its own name in `work`."""
    out = {"data.generate_synthetic": [generate_call(t) for t in trees],
           "data.save_dataset": [save_call(t, work / f"save{k}")
                                 for k, t in enumerate(trees)],
           "data.load_dataset": [load_call(t, work / f"load{k}")
                                 for k, t in enumerate(trees)],
           "training.sample_triplets": [sample_call(t) for t in trees]}
    for fusion in FUSERS:
        out[f"compatibility.loss_step.{fusion}"] = [
            loss_step_call(t, fusion) for t in trees]
    for fusion in FUSERS:
        out[f"training.train.{fusion}"] = [train_call(t, fusion)
                                           for t in trees]
    out["evaluation.evaluate"] = [evaluate_call(t) for t in trees]
    return out


def summary(seconds: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.array(seconds) * 1e3, [25, 50, 75])
    return {"median_ms": round(float(median), 4),
            "iqr_ms": round(float(q3 - q1), 4)}


def time_figure(calls, rounds: int) -> dict:
    """Time `calls` (this tree's alone, or the parent's, this tree's and
    its second load's) for `rounds` rounds after one untimed call each,
    reversing their order every other round. A call returns its output's
    digest, or a function computing it where that would cost more than
    the call; only the untimed call's output is read."""
    outputs = [call(0) for call in calls]   # warm-up, and the outputs
    outputs = [out() if callable(out) else out for out in outputs]
    times = [[] for _ in calls]
    for round_ in range(rounds):
        order = range(len(calls)) if round_ % 2 == 0 else reversed(
            range(len(calls)))
        for k in order:
            start = time.perf_counter()
            calls[k](round_)
            times[k].append(time.perf_counter() - start)
    if len(calls) == 1:
        return {"change": summary(times[0])}
    parent, change, again = (np.array(t) for t in times)
    result = {"change": summary(change), "parent": summary(parent)}
    ratio = result["parent"]["median_ms"] / result["change"]["median_ms"]
    low, high = np.percentile(again / change, [25, 75])
    return {**result, "ratio": round(ratio, 4),
            "pairs_ahead": f"{int((change < parent).sum())}/{rounds}",
            "equal_outputs": outputs[0] == outputs[1],
            "aa_ratio": round(float(np.median(again) / np.median(change)), 4),
            "aa_spread": [round(float(low), 4), round(float(high), 4)],
            "verdict": ("no change" if low <= ratio <= high
                        else "faster" if ratio > high else "slower")}


def host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu, "cores": os.cpu_count(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path,
                    help="a checkout to time against this one")
    ap.add_argument("--rounds", type=int, default=15,
                    help="timed calls per tree and figure (default 15)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json",
                    help="where to write the JSON")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    trees = [Tree(ROOT, "layerbench_change")]
    if args.parent:
        trees = [Tree(args.parent, "layerbench_parent"), trees[0],
                 Tree(ROOT, "layerbench_again")]
    with tempfile.TemporaryDirectory() as work:
        layers = {name: time_figure(calls, args.rounds)
                  for name, calls in figures(trees, Path(work)).items()}
    result = {"host": host(), "spec": {"fields": SPEC, "seed": SEED},
              "config": CONFIG, "rounds": args.rounds,
              "parent": trees[0].root.name if args.parent else None,
              "layers": layers}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, fig in layers.items():
        line = f"{name:36s} change {fig['change']['median_ms']:9.3f} ms"
        if args.parent:
            line += (f"  parent {fig['parent']['median_ms']:9.3f} ms"
                     f"  x{fig['ratio']:.3f}  ahead {fig['pairs_ahead']}"
                     f"  {'equal' if fig['equal_outputs'] else 'DIFFER'}"
                     f"  A/A x{fig['aa_ratio']:.3f} [{fig['aa_spread'][0]:.3f}"
                     f", {fig['aa_spread'][1]:.3f}]  {fig['verdict']}")
        print(line)
    differ = [n for n, f in layers.items() if not f.get("equal_outputs", True)]
    if differ:
        print("outputs differ: " + ", ".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
