"""Triplet sampling, the training loop and multi-run ensembling."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, asdict

import numpy as np

from .compatibility import LossWeights, training_loss
from .data import Dataset, FCQuestion, first_seen
from .errors import ConfigError, ConsistencyError, check_field_types
from .evaluation import fc_auc, fc_scores_and_labels
from .model import FUSION_KINDS, ModelDims, OutfitModel, init_model
from .optim import Adam

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    fusion: str = "baseline"
    epochs: int = 10
    learning_rate: float = 5e-5
    batch_size: int = 128
    lambda_vsim: float = LossWeights.lambda_vsim
    lambda_tsim: float = LossWeights.lambda_tsim
    lambda_vse: float = LossWeights.lambda_vse
    margin: float = LossWeights.margin
    hops: int = 2
    mfb_factor: int = 2
    d_g: int = 512
    d_c: int = 512
    h: int = 512
    seed: int = 0
    runs: int = 5

    def validate(self) -> None:
        check_field_types(self, ConfigError)
        if self.fusion not in FUSION_KINDS:
            raise ConfigError(f"fusion must be one of {FUSION_KINDS}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        for name in ("batch_size", "hops", "mfb_factor",
                     "d_g", "d_c", "h", "runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        self.weights()

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def weights(self) -> LossWeights:
        return LossWeights(self.lambda_vsim, self.lambda_tsim,
                           self.lambda_vse, self.margin)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    valid_auc: float | None
    skipped_pairs: int
    step_losses: list[float] = field(default_factory=list)


# First candidates drawn per vector call of `sample_triplets`.
CANDIDATE_CHUNK = 256


def sample_triplets(dataset: Dataset, rng: np.random.Generator
                    ) -> tuple[np.ndarray, int]:
    """One epoch of triplets: every ordered co-occurring described pair,
    shuffled, with a same-type negative never co-occurring with the anchor.

    Returns (triplets, skipped): a (T, 3) array of the anchor, positive
    and negative store rows of each triplet, and the count of pairs with
    no valid negative.

    Each pair draws up to 16 candidates uniformly from the positive's type
    pool and keeps the first valid one (rejection sampling stays uniform
    over the eligible set); when all 16 fail, it draws from the list of
    eligible items, or is skipped when there is none. The pairs, pools and
    co-occurrence test are `Dataset.train_pairs`' arrays.

    The draws are those of one scalar `rng.integers` call per candidate:
    a call with an array of bounds gives the values and the final state of
    one scalar call per bound (tests/test_training.py checks this). So each
    round draws the first candidates of up to `CANDIDATE_CHUNK` pairs in
    one call from a saved state; at the first rejected one it restores the
    state, redraws the accepted pairs and retries that pair by scalar calls.
    """
    table = dataset.train_pairs
    order = rng.permutation(len(table.pairs))
    anchor, positive = table.pairs[order].T
    kind = dataset.type_rank[positive]
    start, bound = table.start[kind], table.size[kind]
    negative = np.empty(len(order), np.intp)
    k = 0
    while k < len(order):
        end = min(k + CANDIDATE_CHUNK, len(order))
        state = rng.bit_generator.state
        cand = table.pool[start[k:end] + rng.integers(bound[k:end])]
        rejected = table.shares_outfit(anchor[k:end], cand)
        accepted = int(rejected.argmax()) if rejected.any() else end - k
        negative[k:k + accepted] = cand[:accepted]
        k += accepted
        if k < end:
            rng.bit_generator.state = state
            rng.integers(bound[k - accepted:k])   # the accepted pairs' draws
            pool = table.pool[start[k]:start[k] + bound[k]].tolist()
            negative[k] = _scalar_negative(table, int(anchor[k]), pool, rng)
            k += 1
    kept = negative >= 0
    return (np.column_stack((anchor, positive, negative))[kept],
            int(len(kept) - kept.sum()))


def _scalar_negative(table, anchor: int, pool: list[int],
                     rng: np.random.Generator) -> int:
    """A pair's negative by scalar draws: up to 16 candidates from `pool`,
    then one draw from the eligible list; -1 when no item is eligible."""
    for _ in range(16):
        cand = pool[int(rng.integers(len(pool)))]
        if not table.shares(anchor, cand):
            return cand
    eligible = [c for c in pool if not table.shares(anchor, c)]
    return eligible[int(rng.integers(len(eligible)))] if eligible else -1


def _batch_arrays(dataset: Dataset, triplets: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, dict]:
    """The item-level inputs of `training_loss` for a (b, 3) batch of
    anchor, positive and negative store rows of described items.

    `regions` (U, N, d_i) and `words` (U, M, d_t) hold each distinct item
    once, in first-seen order over the anchors, then the positives, then
    the negatives. `pair_groups` maps each type pair of
    `Dataset.type_pair_groups` over the anchors and positives, in its
    first-seen order, to a (3, n_k) array of item rows: the anchors,
    positives and negatives of that pair's triplets, in batch order.
    """
    rows, role_rows = first_seen(triplets.T)
    regions, words = dataset.features(rows)
    groups = dataset.type_pair_groups(triplets[:, 0], triplets[:, 1])
    return regions, words, {pair: role_rows[:, at]
                            for pair, at in groups.items()}


def _validation_questions(dataset: Dataset, seed: int) -> list[FCQuestion]:
    """FC-style questions from the valid split: real outfits vs random
    cross-outfit recombinations with distinct types."""
    outfits = dataset.outfits.get("valid", [])
    described = [o for o in outfits
                 if (dataset.word_row[dataset.rows(o.items)] >= 0).all()]
    if len(described) < 2:
        return []
    rng = np.random.default_rng(seed ^ 0x5F3759DF)
    pool = [i for o in described for i in o.items]
    pool_rank = dataset.type_rank[dataset.rows(pool)].tolist()
    questions = [FCQuestion(items=o.items, label=1) for o in described]
    for o in described:
        size = len(o.items)
        for _ in range(32):
            picks = rng.choice(len(pool), size=size, replace=False).tolist()
            if len({pool_rank[p] for p in picks}) == size:
                questions.append(FCQuestion(
                    items=tuple(pool[p] for p in picks), label=0))
                break
    return questions


def train(dataset: Dataset, config: TrainConfig,
          seed: int | None = None) -> tuple[OutfitModel, list[EpochStats]]:
    """Train one model; deterministic in (dataset, config, seed) at a fixed
    BLAS thread count."""
    config.validate()
    seed = config.seed if seed is None else seed
    dims = ModelDims(d_g=config.d_g, d_c=config.d_c, h=config.h,
                     hops=config.hops, mfb_factor=config.mfb_factor,
                     region_dim=dataset.dims.region_dim,
                     word_dim=dataset.dims.word_dim)
    pairs = dataset.trained_type_pairs()
    if not pairs:
        raise ConsistencyError("no trainable type pairs in the train split")
    model = init_model(config.fusion, dims, pairs, seed)
    params = model.parameters()
    optimizer = Adam([p for _, p in params], lr=config.learning_rate)
    weights = config.weights()
    rng = np.random.default_rng(seed)
    valid_questions = _validation_questions(dataset, seed)

    history: list[EpochStats] = []
    step = 0
    for epoch in range(config.epochs):
        triplets, skipped = sample_triplets(dataset, rng)
        step_losses: list[float] = []
        for start in range(0, len(triplets), config.batch_size):
            batch = triplets[start:start + config.batch_size]
            regions, words, pair_groups = _batch_arrays(dataset, batch)
            terms: dict[str, float] = {}
            loss = training_loss(model, regions, words, pair_groups, weights,
                                 terms_out=terms)
            value = loss.item()
            if not np.isfinite(value):
                raise ConsistencyError(
                    f"non-finite loss at epoch {epoch} step {step}: {terms}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            step_losses.append(value)
            step += 1
        valid_auc = None
        if valid_questions:
            scores, labels, _, _ = fc_scores_and_labels(
                dataset, valid_questions, model)
            if len(set(labels)) == 2:
                valid_auc = fc_auc(scores, labels)
        stats = EpochStats(epoch=epoch,
                           mean_loss=float(np.mean(step_losses))
                           if step_losses else float("nan"),
                           valid_auc=valid_auc, skipped_pairs=skipped,
                           step_losses=step_losses)
        history.append(stats)
        log.info("epoch %d: loss %.5f valid_auc %s skipped %d",
                 epoch, stats.mean_loss,
                 f"{valid_auc:.4f}" if valid_auc is not None else "n/a",
                 skipped)
    return model, history


def train_ensemble(dataset: Dataset, config: TrainConfig
                   ) -> list[tuple[OutfitModel, list[EpochStats]]]:
    """`runs` independent trainings with seeds seed, seed+1, ..."""
    return [train(dataset, config, seed=config.seed + i)
            for i in range(config.runs)]
