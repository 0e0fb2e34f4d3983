"""Type-pair compatibility scoring and the training losses.

The total loss combines a compatibility term in the type-pair space with
visual-semantic, visual-similarity and textual-similarity terms in the
common space. Each term is a table of the (negative, positive) cosine
pairs it compares; `hinges` reads them from the `role_cosines` table of a
triplet batch's role stacks and returns each triplet's mean margin hinge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, canonical_pair
from .errors import ConfigError, DimensionError, DomainError
from .model import OutfitModel, item_features
from .tensor import (Tensor, concat, grouped_projection, no_grad,
                     role_cosines, take_rows)


@dataclass
class LossWeights:
    lambda_vsim: float = 5e-5
    lambda_tsim: float = 5e-5
    lambda_vse: float = 5e-3
    margin: float = 0.2

    def __post_init__(self):
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        for name in ("lambda_vsim", "lambda_tsim", "lambda_vse"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


# ((i, j) negative, (i, j) positive) entries of a role-cosine table, with
# roles 0 = anchor, 1 = positive, 2 = negative. comp: the anchor nearer the
# positive; vsim, tsim: the two same-type items nearer each other than the
# anchor; vse: each image nearer its own text than the other two.
COMP = [((0, 2), (0, 1))]
SIM = [((1, 0), (1, 2)), ((2, 0), (1, 2))]
VSE = [((i, j), (i, i)) for i in range(3) for j in range(3) if j != i]


def hinges(cos: Tensor, table, margin: float) -> Tensor:
    """Each triplet's mean of max(0, cos[negative] - cos[positive] + margin)
    over the entries of `table`, read from the (3, 3, ...) table `cos`."""
    flat = np.array(table) @ np.array([3, 1])   # (entries, 2) of 9 rows
    pick = take_rows(cos.reshape((9,) + cos.shape[2:]), flat.T)
    return (pick[0] - pick[1] + margin).relu().mean(axis=0)


def triplet_loss(anchor: Tensor, positive: Tensor, negative: Tensor,
                 margin: float) -> Tensor:
    """max(0, f(anchor, negative) - f(anchor, positive) + margin), f = cosine."""
    roles = concat([anchor, positive, negative], axis=0).reshape(
        (3,) + anchor.shape)
    return hinges(role_cosines(roles, roles), COMP, margin)


def total_loss(comp: Tensor, vsim: Tensor, tsim: Tensor, vse: Tensor,
               weights: LossWeights) -> Tensor:
    return (comp + weights.lambda_vsim * vsim + weights.lambda_tsim * tsim
            + weights.lambda_vse * vse)


def training_loss(model: OutfitModel, regions: np.ndarray, words: np.ndarray,
                  pair_groups: dict[tuple[str, str], np.ndarray],
                  weights: LossWeights,
                  terms_out: dict | None = None) -> Tensor:
    """Mean total loss over a triplet batch.

    `regions` (U, N, d_i) and `words` (U, M, d_t) hold each distinct item
    of the batch once. `pair_groups` maps each canonical type pair to a
    (3, n_k) integer array: the item rows of the anchors, positives and
    negatives of the n_k triplets trained in that pair's compatibility
    space. The batch is the B = sum n_k triplets of all the groups.

    `item_features` runs once over the U items. `take_rows` then gathers
    its outputs into (3, B, .) role stacks, anchors, positives and
    negatives, and sums the gradients of an item that appears in several
    roles or triplets. The groups are concatenated in order, so each type
    pair's triplets are one column range of the stacks, and one
    `grouped_projection` projects every range into its pair's space: the
    graph's size does not grow with the number of type pairs in the batch.
    Each loss term is one `hinges` over one `role_cosines` table.
    """
    items = regions.shape[0]
    if words.shape[0] != items:
        raise DimensionError(
            f"regions hold {items} items but words hold {words.shape[0]}")
    groups = [np.asarray(ix) for ix in pair_groups.values()]
    if any(ix.ndim != 2 or ix.shape[0] != 3 for ix in groups):
        raise DimensionError(
            f"pair groups must be (3, n) arrays of item rows, got shapes "
            f"{[ix.shape for ix in groups]}")
    role_items = np.concatenate([np.empty((3, 0), np.intp), *groups],
                                axis=1)   # (3, B)
    if not np.issubdtype(role_items.dtype, np.integer):
        raise DimensionError(
            f"pair groups must hold integer item rows, got {role_items.dtype}")
    if not role_items.size:
        raise DomainError("a triplet batch needs at least one triplet")
    if role_items.min() < 0 or role_items.max() >= items:
        raise DomainError(
            f"pair groups name item rows in [{role_items.min()}, "
            f"{role_items.max()}], outside the batch's {items} items")

    fused, img, txt = (take_rows(t, role_items)
                       for t in item_features(model, regions, words))
    proj = grouped_projection(fused, [model.space(*p) for p in pair_groups],
                              [ix.shape[1] for ix in groups])
    comp = hinges(role_cosines(proj, proj), COMP, weights.margin).mean()
    vsim = hinges(role_cosines(img, img), SIM, weights.margin).mean()
    tsim = hinges(role_cosines(txt, txt), SIM, weights.margin).mean()
    vse = hinges(role_cosines(img, txt), VSE, weights.margin).mean()
    if terms_out is not None:
        terms_out.update(comp=comp.item(), vsim=vsim.item(),
                         tsim=tsim.item(), vse=vse.item())
    return total_loss(comp, vsim, tsim, vse, weights)


# -- scoring -----------------------------------------------------------------


def _space_cosines(space: np.ndarray, reps: np.ndarray, left, right
                   ) -> np.ndarray:
    """Cosines of the `left[k]` and `right[k]` rows of `reps` (n, rep_dim)
    in the (d_c, rep_dim) type-pair `space`: one GEMM projects every row,
    and each pair is the dot of two unit rows."""
    proj = reps @ space.T
    norms = np.linalg.norm(proj, axis=1, keepdims=True)
    if not norms.all():
        raise DomainError("compatibility projection collapsed to zero vector")
    unit = proj / norms
    return (unit[left] * unit[right]).sum(axis=1)


def pair_scores(model: OutfitModel, dataset: Dataset,
                reps: dict[str, np.ndarray],
                pairs: list[tuple[str, str]]) -> np.ndarray:
    """`score_from_reps` for a list of item-id pairs, NaN where a pair has
    no trained space. Each type pair projects its distinct items once."""
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
        scores[ks] = _space_cosines(
            model.spaces[key].data, np.stack([reps[i] for i in ids]),
            [row[pairs[k][0]] for k in ks], [row[pairs[k][1]] for k in ks])
    return scores


def score_from_reps(model: OutfitModel, type_a: str, rep_a: np.ndarray,
                    type_b: str, rep_b: np.ndarray) -> float:
    """Cosine similarity of two fused reps in their type-pair space."""
    return float(_space_cosines(model.space(type_a, type_b).data,
                                np.stack([rep_a, rep_b]), [0], [1])[0])


def pair_score(model: OutfitModel, item_a, item_b) -> float:
    """Compatibility of two described items, in [-1, 1]. Both are fused in
    one `item_features` call, in `(type, id)` order, so the score does not
    depend on the argument order.

    Raises UnseenTypePairError when the type pair has no trained space,
    DomainError for an undescribed item and DimensionError when the items'
    region or word counts differ.
    """
    a, b = sorted((item_a, item_b), key=lambda item: (item.type.name, item.id))
    space = model.space(a.type.name, b.type.name).data
    if not (a.described and b.described):
        raise DomainError("pair_score needs two described items")
    if a.regions.shape != b.regions.shape or a.words.shape != b.words.shape:
        raise DimensionError(
            f"items {a.id!r} and {b.id!r} differ in region or word count")
    with no_grad():
        reps = item_features(model, np.stack([a.regions, b.regions]),
                             np.stack([a.words, b.words]))[0].data
    return float(_space_cosines(space, reps, [0], [1])[0])
