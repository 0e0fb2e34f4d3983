"""Type-pair compatibility scoring and the training losses.

The total loss combines a compatibility term in the type-pair space with
visual-semantic, visual-similarity and textual-similarity terms in the
common space. Each term is a table of the (negative, positive) cosine
pairs it compares between a triplet batch's role stacks. `training_loss`
computes the four terms and their weighted total as one `loss_head` node,
which forms only the cosines each table reads. `triplet_loss`, the
per-triplet comp term, is that node's op-by-op reference: it reads `COMP`
from a full `role_cosines` table with `take_rows`, `relu` and `mean`.

Scoring keys items by store row: a `PairPlan` holds the distinct store
rows of its pairs, and `Reps.at` maps a store row to its rep.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import Dataset, first_seen
from .errors import ConfigError, DimensionError, DomainError
from .model import OutfitModel, item_features
from .tensor import (Tensor, concat, grouped_projection, loss_head, no_grad,
                     role_cosines, take_rows)


@dataclass
class LossWeights:
    lambda_vsim: float = 5e-5
    lambda_tsim: float = 5e-5
    lambda_vse: float = 5e-3
    margin: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ConfigError(
                f"margin must be positive and finite, got {self.margin}")
        for name in ("lambda_vsim", "lambda_tsim", "lambda_vse"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"{name} must be non-negative and finite, got {value}")


def _row_table(entries) -> np.ndarray:
    """The (2, E) negative and positive rows, row 3 * i + j for role pair
    (i, j), of a 3-role table's ((i, j) negative, (i, j) positive) entries."""
    rows = np.ascontiguousarray((np.array(entries) @ np.array([3, 1])).T)
    rows.setflags(write=False)
    return rows


# Row tables of ((i, j) negative, (i, j) positive) entries of a role-cosine
# table, with roles 0 = anchor, 1 = positive, 2 = negative, built once.
# comp: the anchor nearer the positive; vsim, tsim: the two same-type items
# nearer each other than the anchor; vse: each image nearer its own text
# than the other two.
COMP = _row_table([((0, 2), (0, 1))])
SIM = _row_table([((1, 0), (1, 2)), ((2, 0), (1, 2))])
VSE = _row_table([((i, j), (i, i)) for i in range(3) for j in range(3)
                  if j != i])


def triplet_loss(anchor: Tensor, positive: Tensor, negative: Tensor,
                 margin: float) -> Tensor:
    """max(0, f(anchor, negative) - f(anchor, positive) + margin), f = cosine,
    op by op: the `COMP` rows of the role-cosine table seen as 9 rows."""
    roles = concat([anchor, positive, negative], axis=0).reshape(
        (3,) + anchor.shape)
    rows = role_cosines(roles, roles).reshape((9,) + anchor.shape[:-1])
    return (take_rows(rows, COMP[0]) + take_rows(rows, COMP[1]) * -1.0
            + margin).relu().mean(axis=0)


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
    The comp term compares the projected stack with itself, vsim and tsim
    the image and text stacks with themselves, and vse images with texts;
    one `loss_head` node computes the four and their weighted total.
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
    total, values = loss_head(
        [proj, img, txt],
        [(1.0, 0, 0, COMP), (weights.lambda_vsim, 1, 1, SIM),
         (weights.lambda_tsim, 2, 2, SIM), (weights.lambda_vse, 1, 2, VSE)],
        weights.margin)
    if terms_out is not None:
        terms_out.update(zip(("comp", "vsim", "tsim", "vse"), values))
    return total


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


class Reps(Mapping):
    """Fused reps of the store rows `rows` of `dataset`, as one (n, rep_dim)
    array `data` whose row k is the rep of store row `rows[k]`. `at[r]` is
    store row r's row of `data`, -1 when r has no rep. As a mapping by id,
    an id's rep is a view of its row."""

    def __init__(self, dataset: Dataset, rows: np.ndarray, data: np.ndarray):
        self.dataset, self.rows, self.data = dataset, rows, data
        self.at = np.full(len(dataset.ids), -1, dtype=np.intp)
        self.at[rows] = np.arange(len(rows))

    def __getitem__(self, item_id: str) -> np.ndarray:
        k = self.at[self.dataset.row[item_id]]
        if k < 0:
            raise KeyError(item_id)
        return self.data[k]

    def __iter__(self):
        return map(self.dataset.ids.__getitem__, self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(eq=False)
class PairPlan:
    """The model-independent part of scoring a list of `size` item pairs
    of `dataset`.

    `rows` are the distinct store rows of the pairs in first-seen order.
    Each group is one trained type pair's `(pair, positions, rows, left,
    right)`: the positions of its pairs in the list, its distinct entries
    of `rows` in first-seen order over those pairs, and each pair's left
    and right index into those entries.
    """
    dataset: Dataset
    rows: np.ndarray
    size: int
    groups: list[tuple[tuple[str, str], np.ndarray, np.ndarray, np.ndarray,
                       np.ndarray]]


def plan_pairs(dataset: Dataset, pairs: list[tuple[str, str]], trained
               ) -> PairPlan:
    """The plan of a list of item-id pairs, grouped by the type pairs in
    `trained`; a pair of an untrained type pair is in no group.

    The pairs' distinct items become rows, and each pair a (row, row)
    entry of a (P, 2) array. `Dataset.type_pair_groups` gives the type
    pairs in first-seen order, and each one's pair positions.
    DomainError names an id the dataset does not hold.
    """
    store = dataset.rows(list(chain.from_iterable(pairs))).reshape(-1, 2)
    distinct, ends = first_seen(store)
    groups = []
    for pair, at in dataset.type_pair_groups(store[:, 0], store[:, 1]).items():
        if pair in trained:
            # first-seen, not sorted: some OpenBLAS kernels give a GEMM row
            # other bits at another row position (tests/test_blas_kernels.py)
            rows, local = first_seen(ends[at])
            groups.append((pair, at, rows, local[:, 0], local[:, 1]))
    return PairPlan(dataset, distinct, len(pairs), groups)


def plan_scores(plan: PairPlan, model: OutfitModel, reps: Reps) -> np.ndarray:
    """The pair scores of `plan` under `model`, NaN where a pair has no
    trained space: the reps of the plan's rows are gathered once, and each
    group's rows are projected into its type-pair space by one
    `_space_cosines` call. DomainError names an id without a rep, and
    rejects reps of another dataset than the plan's."""
    if reps.dataset is not plan.dataset:
        raise DomainError("the reps and the pair plan belong to different "
                          "datasets")
    scores = np.full(plan.size, np.nan)
    if len(plan.rows):
        at = reps.at[plan.rows]
        if (at < 0).any():
            bare = plan.dataset.ids[plan.rows[int(np.argmin(at))]]
            raise DomainError(f"item {bare!r} has no representation; only "
                              "described items are scored")
        stack = reps.data[at]
        for pair, positions, rows, left, right in plan.groups:
            scores[positions] = _space_cosines(model.spaces[pair].data,
                                               stack[rows], left, right)
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
    for item in (a, b):
        if not item.described:
            raise DomainError(f"item {item.id!r} has no description; "
                              "pair_score needs two described items")
    space = model.space(a.type.name, b.type.name).data
    if a.regions.shape != b.regions.shape or a.words.shape != b.words.shape:
        raise DimensionError(
            f"items {a.id!r} and {b.id!r} differ in region or word count")
    with no_grad():
        reps = item_features(model, np.stack([a.regions, b.regions]),
                             np.stack([a.words, b.words]))[0].data
    return float(_space_cosines(space, reps, [0], [1])[0])
