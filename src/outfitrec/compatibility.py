"""Type-pair compatibility scoring and the training losses.

The total loss combines a compatibility term in the type-pair space with
visual-semantic, visual-similarity and textual-similarity terms in the
common space, all built from the margin-based triplet loss over cosine
similarity. Loss functions accept a leading batch axis and return the
batch vector; batch reduction happens in `training_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, canonical_pair
from .errors import DomainError
from .model import OutfitModel, item_features
from .tensor import Tensor, as_tensor, cosine_similarity, matmul


@dataclass
class LossWeights:
    lambda_vsim: float = 5e-5
    lambda_tsim: float = 5e-5
    lambda_vse: float = 5e-3
    margin: float = 0.2

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        for name in ("lambda_vsim", "lambda_tsim", "lambda_vse"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def triplet_loss(anchor: Tensor, positive: Tensor, negative: Tensor,
                 margin: float) -> Tensor:
    """max(0, f(anchor, negative) - f(anchor, positive) + margin), f = cosine."""
    gap = (cosine_similarity(anchor, negative)
           - cosine_similarity(anchor, positive) + margin)
    return gap.relu()


def loss_vse(img_u, img_p, img_n, txt_u, txt_p, txt_n,
             margin: float) -> Tensor:
    """Each image closer to its own description than to the other two."""
    def per_image(img, own, other_a, other_b):
        return (triplet_loss(img, own, other_a, margin)
                + triplet_loss(img, own, other_b, margin)) * 0.5

    total = (per_image(img_u, txt_u, txt_p, txt_n)
             + per_image(img_p, txt_p, txt_u, txt_n)
             + per_image(img_n, txt_n, txt_u, txt_p))
    return total * (1.0 / 3.0)


def loss_vsim(img_u, img_p, img_n, margin: float) -> Tensor:
    """Same-type images (or texts) closer to each other than to the
    cross-type one."""
    return (triplet_loss(img_p, img_n, img_u, margin)
            + triplet_loss(img_n, img_p, img_u, margin)) * 0.5


def loss_comp(rep_u: Tensor, rep_p: Tensor, rep_n: Tensor, space: Tensor,
              margin: float) -> Tensor:
    """Triplet loss after projecting the reps into one type-pair space."""
    def project(rep):
        rep = as_tensor(rep)
        out = matmul(rep.reshape(rep.shape[:-1] + (1, rep.shape[-1])),
                     space.transpose_last())
        return out.reshape(out.shape[:-2] + (space.shape[0],))

    return triplet_loss(project(rep_u), project(rep_p), project(rep_n), margin)


def total_loss(comp: Tensor, vsim: Tensor, tsim: Tensor, vse: Tensor,
               weights: LossWeights) -> Tensor:
    return (comp + weights.lambda_vsim * vsim + weights.lambda_tsim * tsim
            + weights.lambda_vse * vse)


def training_loss(model: OutfitModel,
                  regions: tuple[np.ndarray, np.ndarray, np.ndarray],
                  words: tuple[np.ndarray, np.ndarray, np.ndarray],
                  pair_groups: dict[tuple[str, str], np.ndarray],
                  weights: LossWeights,
                  terms_out: dict | None = None) -> Tensor:
    """Mean total loss over a triplet batch.

    `regions`/`words` hold the anchor, positive and negative feature
    stacks, each (B, rows, dim). `pair_groups` maps each canonical type
    pair to the batch indices of the triplets trained in that pair's
    compatibility space; the groups must partition the batch.
    """
    batch = regions[0].shape[0]
    grouped = sum(len(ix) for ix in pair_groups.values())
    if grouped != batch:
        raise DomainError(
            f"pair groups cover {grouped} triplets but batch has {batch}")

    feats = [item_features(model, r, w) for r, w in zip(regions, words)]
    (rep_u, img_u, txt_u), (rep_p, img_p, txt_p), (rep_n, img_n, txt_n) = feats

    comp_sum = None
    for pair, idx in pair_groups.items():
        space = model.space(*pair)
        losses = loss_comp(rep_u.take(idx), rep_p.take(idx), rep_n.take(idx),
                           space, weights.margin)
        part = losses.sum()
        comp_sum = part if comp_sum is None else comp_sum + part
    comp = comp_sum * (1.0 / batch)

    vsim = loss_vsim(img_u, img_p, img_n, weights.margin).mean()
    tsim = loss_vsim(txt_u, txt_p, txt_n, weights.margin).mean()
    vse = loss_vse(img_u, img_p, img_n, txt_u, txt_p, txt_n,
                   weights.margin).mean()
    if terms_out is not None:
        terms_out.update(comp=comp.item(), vsim=vsim.item(),
                         tsim=tsim.item(), vse=vse.item())
    return total_loss(comp, vsim, tsim, vse, weights)


# -- scoring -----------------------------------------------------------------


def pair_scores(model: OutfitModel, dataset: Dataset,
                reps: dict[str, np.ndarray],
                pairs: list[tuple[str, str]]) -> np.ndarray:
    """`score_from_reps` for a list of item-id pairs, NaN where a pair has
    no trained space. Each type pair projects its distinct items once, with
    one matrix product, and scores its pairs as dots of unit rows."""
    scores = np.full(len(pairs), np.nan)
    groups: dict[tuple[str, str], list[int]] = {}
    for k, (a, b) in enumerate(pairs):
        key = canonical_pair(dataset.items[a].type.name, dataset.items[b].type.name)
        groups.setdefault(key, []).append(k)
    for key, ks in groups.items():
        if key not in model.spaces:
            continue
        ids = list(dict.fromkeys(i for k in ks for i in pairs[k]))
        row = {item: r for r, item in enumerate(ids)}
        proj = np.stack([reps[i] for i in ids]) @ model.spaces[key].data.T
        norms = np.linalg.norm(proj, axis=1, keepdims=True)
        if not norms.all():
            raise DomainError("compatibility projection collapsed to zero vector")
        unit = proj / norms
        left = unit[[row[pairs[k][0]] for k in ks]]
        right = unit[[row[pairs[k][1]] for k in ks]]
        scores[ks] = (left * right).sum(axis=1)
    return scores


def score_from_reps(model: OutfitModel, type_a: str, rep_a: np.ndarray,
                    type_b: str, rep_b: np.ndarray) -> float:
    """Cosine similarity of two fused reps in their type-pair space."""
    space = model.space(type_a, type_b).data
    pa = space @ rep_a
    pb = space @ rep_b
    na, nb = np.linalg.norm(pa), np.linalg.norm(pb)
    if na == 0.0 or nb == 0.0:
        raise DomainError("compatibility projection collapsed to zero vector")
    return float(pa @ pb / (na * nb))


def pair_score(model: OutfitModel, item_a, item_b) -> float:
    """Compatibility of two described items, in [-1, 1].

    Raises UnseenTypePairError when the type pair has no trained space.
    """
    from .tensor import no_grad
    with no_grad():
        rep_a = item_features(model, item_a.regions, item_a.words)[0].data
        rep_b = item_features(model, item_b.regions, item_b.words)[0].data
    return score_from_reps(model, item_a.type.name, rep_a,
                           item_b.type.name, rep_b)
