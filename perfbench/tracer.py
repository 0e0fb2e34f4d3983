"""Span tracer that wraps outfitrec's public functions from the outside.

The package's modules import each other's functions by name, so a
function is traced by rebinding every module global that refers to it
(the call sites), plus the class attribute for methods. Nothing in the
package changes; `uninstall` puts every original back.

Each wrapped call records a span (layer, start, end, parent, fuser).
Spans stay in memory and are written out by the caller at exit. A span's
self time is its duration minus the time covered by its direct child
spans. Self times are also aggregated on the fly:

* per training step (inside `train`, outside validation), keyed by
  (layer, fuser); a step ends when `Adam.step` returns;
* per call for everything else, keyed by (layer, fuser).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, module, attribute). Methods are given as "Class.method".
TARGETS = (
    ("data.generate_synthetic", "outfitrec.data", "generate_synthetic"),
    ("data.save_dataset", "outfitrec.data", "save_dataset"),
    ("data.load_dataset", "outfitrec.data", "load_dataset"),
    ("embedding.project", "outfitrec.embedding", "project_regions"),
    ("embedding.project", "outfitrec.embedding", "project_words"),
    ("fusion.forward", "outfitrec.model", "item_features"),
    ("model.save_model", "outfitrec.model", "save_model"),
    ("model.load_model", "outfitrec.model", "load_model"),
    ("compatibility.loss", "outfitrec.compatibility", "training_loss"),
    ("compatibility.score", "outfitrec.compatibility", "score_from_reps"),
    ("tensor.backward", "outfitrec.tensor", "Tensor.backward"),
    ("optim.adam", "outfitrec.optim", "Adam.step"),
    ("training.train", "outfitrec.training", "train"),
    ("training.sample_triplets", "outfitrec.training", "sample_triplets"),
    ("training.assemble", "outfitrec.training", "_batch_arrays"),
    ("evaluation.evaluate", "outfitrec.evaluation", "evaluate"),
    ("evaluation.representations", "outfitrec.evaluation",
     "compute_representations"),
    ("evaluation.fc", "outfitrec.evaluation", "fc_scores_and_labels"),
    ("evaluation.fitb", "outfitrec.evaluation", "fitb_answer"),
    ("evaluation.fc_auc", "outfitrec.evaluation", "fc_auc"),
    ("evaluation.vote", "outfitrec.evaluation", "vote"),
)

# Layers whose self time inside train() is summed per training step.
STEP_LAYERS = {"training.assemble", "compatibility.loss", "fusion.forward",
               "embedding.project", "tensor.backward", "optim.adam"}


def _fuser_of(args, kwargs) -> str | None:
    """The fusion kind of the first model or config among the arguments."""
    for value in list(args) + list(kwargs.values()):
        fusion = getattr(value, "fusion", None)
        if isinstance(fusion, str):
            return fusion
    return None


def graph_stats(loss) -> tuple[int, int]:
    """Exact node count of the loss graph and the bytes its node values
    own. Views share their base buffer, which is counted once."""
    seen: set[int] = set()
    owners: dict[int, int] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        owner = node.data
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        owners[id(owner)] = owner.nbytes
        stack.extend(getattr(node, "_parents", ()))
    return len(seen), sum(owners.values())


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (layer, start, end, parent, fuser)
        self.per_step = defaultdict(list)   # (layer, fuser) -> [ms per step]
        self.per_call = defaultdict(list)   # (layer, fuser) -> [ms per call]
        self.graphs = defaultdict(list)     # fuser -> [(nodes, bytes)]
        self.counts = defaultdict(int)
        self.pair_groups: list[int] = []
        self._stack: list[list] = []        # [span id, layer, start, child s, fuser]
        self._undo: list[tuple] = []
        self._train_fuser: str | None = None
        self._step: dict[str, float] = defaultdict(float)
        self._validation = 0
        self.missing: list[str] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, mod_name, attr in TARGETS:
            module = sys.modules[mod_name]
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, meth, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(layer, original)
            if cls_name:
                self._undo.append((owner, meth, original))
                setattr(owner, meth, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if not (name == "outfitrec" or name.startswith("outfitrec.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- spans -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, fn, args, kwargs)

        return wrapper

    def _call(self, layer, fn, args, kwargs):
        fuser = _fuser_of(args, kwargs)
        if fuser is None and self._stack:
            fuser = self._stack[-1][4]
        if layer == "tensor.backward":
            nodes, nbytes = graph_stats(args[0])
            self.graphs[fuser].append((nodes, nbytes))
        elif layer == "compatibility.loss":
            groups = kwargs.get("pair_groups", args[3] if len(args) > 3 else ())
            self.pair_groups.append(len(groups))
        elif layer == "compatibility.score" and self._train_fuser is None:
            self.counts[("compatibility.score_calls", fuser)] += 1
        elif layer == "training.train":
            self._train_fuser = fuser
        elif layer == "evaluation.fc" and self._train_fuser is not None:
            self._validation += 1
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [span_id, layer, 0.0, 0.0, fuser]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(frame, end)

    def _close(self, frame, end) -> None:
        span_id, layer, start, child, fuser = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[span_id] = (layer, start, end,
                               parent[0] if parent else None, fuser)
        self_ms = 1e3 * (duration - child)
        if self._train_fuser is None:
            if layer == "evaluation.representations":
                self_ms = 1e3 * duration   # inclusive of the forward pass
            self.per_call[(layer, fuser)].append(self_ms)
            return
        if layer == "training.train":
            self._train_fuser = None
        elif layer == "evaluation.fc":
            # validation inside train(): reported whole, once per epoch
            self._validation -= 1
            self.per_call[("training.validation", fuser)].append(
                1e3 * duration)
        elif layer == "evaluation.fc_auc":
            epochs = self.per_call[("training.validation", fuser)]
            if epochs:
                epochs[-1] += 1e3 * duration
        elif layer in STEP_LAYERS and not self._validation:
            self._step[layer] += self_ms
            if layer == "optim.adam":
                for name, ms in self._step.items():
                    self.per_step[(name, fuser)].append(ms)
                self._step.clear()
        elif not self._validation:
            self.per_call[(layer, fuser)].append(self_ms)

    def dump(self) -> list[dict]:
        return [{"layer": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "fuser": s[4]} for s in self.spans]
