"""Plain-numpy reference for item representations and question scores.

Works from a model's named parameters (the checkpoint names), one item
at a time, with no autodiff and no batching, so it shares no code path
with the package beyond the parameter values.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def _softmax(a):
    e = np.exp(a - a.max())
    return e / e.sum()


def _mfb(x, y, u, v, p):
    z = (u @ x) * (v @ y)
    pooled = z.reshape(-1, p).sum(axis=1)
    s = pooled * (pooled * pooled + 1e-8) ** -0.25
    return s / np.sqrt((s * s).sum() + 1e-24)


def _conv_scores(rows, w, prefix):
    return np.array([float((w[f"{prefix}.w2"] @ np.maximum(
        w[f"{prefix}.w1"] @ r + w[f"{prefix}.b1"], 0.0) + w[f"{prefix}.b2"])[0])
        for r in rows])


def representation(model, item) -> np.ndarray:
    w = {name: t.data for name, t in model.parameters()}
    x = item.regions @ w["proj.w_img"].T
    y = item.words @ w["proj.w_txt"].T
    t = y.mean(axis=0)
    hops = model.dims.hops
    if model.fusion == "baseline":
        return x.mean(axis=0)
    if model.fusion == "dot_product":
        alpha = _softmax((np.tanh(x) * np.tanh(t)).sum(axis=1))
        return np.concatenate([alpha @ x, t])
    if model.fusion == "stacked":
        q = t.copy()
        for r in range(hops):
            s = np.tanh(w[f"stacked.{r}.w_v"] @ x.T
                        + (w[f"stacked.{r}.w_t"] @ q
                           + w[f"stacked.{r}.b_s"].ravel())[:, None])
            q = q + _softmax((w[f"stacked.{r}.w_p"] @ s).ravel()) @ x
        return np.concatenate([q, t])
    p = model.dims.mfb_factor
    c_t = _softmax(_conv_scores(y, w, "coatt.text")) @ y
    merged = np.stack([_mfb(row, c_t, w["coatt.u_merge"], w["coatt.v_merge"], p)
                       for row in x])
    contexts = [_softmax(_conv_scores(merged, w, f"coatt.vis{r}")) @ merged
                for r in range(hops)]
    c_v = w["coatt.w_f"] @ np.concatenate(contexts)
    return _mfb(c_v, c_t, w["coatt.u_final"], w["coatt.v_final"], p)


def _pair_score(model, reps, dataset, a, b) -> float | None:
    ta, tb = dataset.items[a].type.name, dataset.items[b].type.name
    key = f"space.{min(ta, tb)}|{max(ta, tb)}"
    space = dict(model.parameters()).get(key)
    if space is None:
        return None
    pa, pb = space.data @ reps[a], space.data @ reps[b]
    return float(pa @ pb / (np.linalg.norm(pa) * np.linalg.norm(pb)))


def _reps(model, dataset, ids):
    return {i: representation(model, dataset.items[i]) for i in ids}


def fc_score(model, dataset, question) -> float:
    reps = _reps(model, dataset, question.items)
    scores = [_pair_score(model, reps, dataset, a, b)
              for a, b in combinations(question.items, 2)]
    scores = [s for s in scores if s is not None]
    return sum(scores) / len(scores)


def fitb_totals(model, dataset, question) -> np.ndarray:
    reps = _reps(model, dataset, question.partial + question.candidates)
    totals = np.zeros(len(question.candidates))
    for ci, cand in enumerate(question.candidates):
        for other in question.partial:
            s = _pair_score(model, reps, dataset, cand, other)
            if s is not None:
                totals[ci] += s
    return totals
