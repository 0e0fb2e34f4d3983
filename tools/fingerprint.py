"""Bit-identity fingerprint of training, evaluation and the dataset format.

Writes one JSON of the figures a same-behaviour change must not move:

- per fuser, two d=32 epochs on `SyntheticSpec()` seed 42 (train seed 0):
  every step loss as `float.hex`, the SHA-256 of the final float64
  parameters, each epoch's validation AUC and the SHA-256 of each
  epoch's sampled triplets;
- per fuser, `perfbench/tracer.graph_stats` (node count and bytes) of the
  training-loss graph of the first batch at initialisation, and its node
  count per tape op, so a fusion shows which ops left the graph;
- per fuser, the SHA-256 of the trained model's FC pair scores and FITB
  candidate totals on the kept test questions, scored from reps computed
  in `evaluate`'s id order (a rank-based AUC can hide a moved score);
- the SHA-256 of each file `save_dataset` writes for
  `SyntheticSpec(undescribed_frac=0.2)` seed 3;
- the `evaluate` report of the four trained models.

    python tools/fingerprint.py --out before.json        # on one tree
    python tools/fingerprint.py --against before.json    # on the other

`--against FILE` prints the first differing step of each fuser, its
largest relative step-loss difference and every other figure that
differs, and exits with status 1 when anything differs. The float64 bits
depend on the BLAS kernel and thread count, so compare two trees on one
host with the same `OPENBLAS_NUM_THREADS`; the JSON is not a checked-in
pin. The tool imports `outfitrec` from the `src/` of its own checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import sys
import tempfile
from collections import Counter
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from outfitrec import training  # noqa: E402
from outfitrec.compatibility import training_loss  # noqa: E402
from outfitrec.compatibility import plan_pairs, plan_scores  # noqa: E402
from outfitrec.data import (SyntheticSpec, filter_questions,  # noqa: E402
                            generate_synthetic, save_dataset)
from outfitrec.evaluation import (compute_representations,  # noqa: E402
                                  evaluate, fitb_answers)
from outfitrec.model import FUSION_KINDS  # noqa: E402

SPEC, SEED = SyntheticSpec(), 42
CONFIG = training.TrainConfig(epochs=2, learning_rate=1e-3, batch_size=128,
                              d_g=32, d_c=32, h=32, runs=1, seed=0)
SAVE_SPEC, SAVE_SEED = SyntheticSpec(undescribed_frac=0.2), 3


def graph_stats(loss) -> tuple[int, int]:
    """`perfbench/tracer.graph_stats`, loaded from this checkout."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.graph_stats(loss)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hex_or_none(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def op_counts(loss) -> dict[str, int]:
    """Nodes of the graph under `loss` per tape op, named as its backward
    closure's owner (`linear`, `Tensor.__add__`, ...); a leaf counts as
    "(parameter)" when it takes a gradient and as "(constant)" otherwise."""
    counts: Counter[str] = Counter()
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            counts[node._backward.__qualname__.split(".<locals>.")[0]] += 1
        else:
            counts["(parameter)" if node.requires_grad else "(constant)"] += 1
        stack.extend(node._parents)
    return dict(sorted(counts.items()))


def first_batch_graph(dataset, config) -> dict:
    """Node count, bytes and nodes per op of the first batch's loss graph
    at init."""
    model, _ = training.train(dataset, dataclasses.replace(config, epochs=0))
    triplets, _ = training.sample_triplets(
        dataset, np.random.default_rng(config.seed))
    regions, words, groups = training._batch_arrays(
        dataset, triplets[:config.batch_size])
    loss = training_loss(model, regions, words, groups, config.weights())
    nodes, nbytes = graph_stats(loss)
    return {"nodes": nodes, "bytes": nbytes, "ops": op_counts(loss)}


def train_fingerprint(dataset, config) -> tuple[dict, object]:
    """One `train` call's step losses, parameter hash, validation AUCs and
    per-epoch triplet hashes. The triplets are read by rebinding
    `training.sample_triplets` for the call, which draws the same numbers.
    Each triplet hashes as the line "anchor positive negative" of its
    item ids, so the hash does not depend on how the rows are stored."""
    sampled = []
    sample = training.sample_triplets

    def recording(dataset, rng):
        triplets, skipped = sample(dataset, rng)
        sampled.append(sha256("\n".join(
            [" ".join(map(dataset.ids.__getitem__, t))
             for t in triplets.tolist()]
            + [f"skipped {skipped}"]).encode()))
        return triplets, skipped

    training.sample_triplets = recording
    try:
        model, history = training.train(dataset, config)
    finally:
        training.sample_triplets = sample
    params = hashlib.sha256()
    for name, p in model.parameters():
        params.update(name.encode() + b"\0")
        params.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return {"step_losses": [x.hex() for h in history for x in h.step_losses],
            "params_sha256": params.hexdigest(),
            "valid_auc": [hex_or_none(h.valid_auc) for h in history],
            "triplets_sha256": sampled}, model


def scoring_fingerprint(dataset, model) -> dict:
    """SHA-256 of `model`'s FC pair scores and FITB candidate totals (an
    unanswerable question hashes as b"none") on the kept test questions."""
    fc, fitb, _, _ = filter_questions(dataset.fc_questions,
                                      dataset.fitb_questions, dataset)
    ids = [i for q in fc for i in q.items]
    ids += [i for q in fitb for i in (*q.partial, *q.candidates)]
    reps = compute_representations(model, dataset, ids)
    pairs = [p for q in fc for p in combinations(q.items, 2)]
    choice, totals = fitb_answers(fitb, model, dataset, reps)
    blobs = [b"none" if c < 0 else t.tobytes()
             for c, t in zip(choice.tolist(), totals)]
    scores = plan_scores(plan_pairs(dataset, pairs, model.spaces), model, reps)
    return {"fc_pair_scores_sha256": sha256(scores.tobytes()),
            "fitb_totals_sha256": sha256(b"".join(blobs))}


def fingerprint() -> dict:
    dataset = generate_synthetic(SPEC, SEED)
    fusers, models = {}, []
    for fusion in FUSION_KINDS:
        config = dataclasses.replace(CONFIG, fusion=fusion)
        fusers[fusion], model = train_fingerprint(dataset, config)
        fusers[fusion]["first_batch_graph"] = first_batch_graph(dataset,
                                                                config)
        fusers[fusion].update(scoring_fingerprint(dataset, model))
        models.append(model)
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(generate_synthetic(SAVE_SPEC, SAVE_SEED), tmp)
        saved = {p.name: sha256(p.read_bytes())
                 for p in sorted(Path(tmp).iterdir())}
    return {"fusers": fusers, "save_dataset_sha256": saved,
            "evaluate": evaluate(dataset, models).to_dict()}


def step_loss_difference(old: list[str], new: list[str]) -> str | None:
    """The first differing step and the largest relative difference."""
    if old == new:
        return None
    first = next((k for k, (a, b) in enumerate(zip(old, new)) if a != b),
                 min(len(old), len(new)))
    deltas = [abs(float.fromhex(b) - float.fromhex(a))
              / max(abs(float.fromhex(a)), np.finfo(float).tiny)
              for a, b in zip(old, new)]
    return (f"first differing step {first} (steps {len(old)} -> {len(new)}), "
            f"largest relative step-loss difference {max(deltas, default=0.0):.3g}")


def differences(old, new, path: str = "") -> list[str]:
    """Every figure of `new` that differs from `old`, one line each."""
    if path.endswith("step_losses") and isinstance(old, list) and isinstance(new, list):
        found = step_loss_difference(old, new)
        return [f"{path}: {found}"] if found else []
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in sorted(set(old) | set(new))
                for line in differences(old.get(key), new.get(key),
                                        f"{path}.{key}" if path else key)]
    # NaN is a figure too: compare the JSON text, not the values
    if json.dumps(old) != json.dumps(new):
        return [f"{path}: {json.dumps(old)} -> {json.dumps(new)}"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path,
                    help="write the JSON here (default: standard output)")
    ap.add_argument("--against", type=Path,
                    help="compare with this earlier fingerprint")
    args = ap.parse_args(argv)
    result = fingerprint()
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    elif not args.against:
        sys.stdout.write(text)
    if not args.against:
        return 0
    found = differences(json.loads(args.against.read_text()), result)
    for line in found:
        print(line)
    print(f"{len(found)} differing figure(s) against {args.against}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
