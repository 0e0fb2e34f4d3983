"""Attention mass on the planted rows: the paper's claim that attention
finds the informative regions and words that mean pooling dilutes,
checked directly on the synthetic data.

The generator writes the style's unit pattern, scaled by
`signal_amplitude`, into `signal_rows` region rows and word rows of each
item. In the float64 store of a freshly generated dataset those rows, and
no others, have a norm of `signal_amplitude` to 1e-9; after a float32
save that no longer holds, so the probe runs on the dataset in memory.

Over the first `PROBE_ITEMS` described test items, an attention's planted
mass is the mean total weight it puts on the planted rows, and uniform
weights put k/N on them (k/M for the words). At initialisation every
attention is within 0.05 of uniform. After 5 epochs at the acceptance
width, dot-product attention and each stacked hop are at least 0.1 above
uniform. Co-attention is checked at initialisation only: its visual hops
stay near uniform after training (ROADMAP item 4).
"""

import dataclasses

import numpy as np
import pytest

from outfitrec.data import SyntheticSpec, generate_synthetic
from outfitrec.model import FUSION_KINDS, item_features
from outfitrec.training import TrainConfig, train

SPEC, SEED = SyntheticSpec(), 42
# the acceptance width, one run
CONFIG = TrainConfig(epochs=5, learning_rate=1e-3, batch_size=128, d_g=32,
                     d_c=32, h=32, runs=1, seed=0)
PROBE_ITEMS = 1024
INIT_TOL, TRAINED_GAIN = 0.05, 0.1


def planted_rows(store: np.ndarray) -> np.ndarray:
    """(n, K) mask of the rows of an (n, K, d) store whose norm is the
    planted amplitude."""
    norms = np.linalg.norm(store, axis=-1)
    return np.abs(norms - SPEC.signal_amplitude) <= 1e-9


@pytest.fixture(scope="module")
def probe():
    """The dataset, and the probe items' regions, words and masks."""
    dataset = generate_synthetic(SPEC, SEED)
    test_ids = [i for o in dataset.outfits["test"] for i in o.items]
    rows = dataset.described_rows(list(dict.fromkeys(test_ids)))
    assert len(rows) >= PROBE_ITEMS
    regions, words = dataset.features(rows[:PROBE_ITEMS])
    return dataset, regions, words, planted_rows(regions), planted_rows(words)


def planted_masses(model, probe) -> list[tuple[float, float]]:
    """(planted mass, uniform mass) of each attention the model records,
    in the order `item_features` appends them."""
    _, regions, words, region_mask, word_mask = probe
    weights: list[np.ndarray] = []
    item_features(model, regions, words, weights)
    out = []
    for alpha in weights:   # N != M, so the width names the modality
        mask = word_mask if alpha.shape[-1] == SPEC.num_words else region_mask
        out.append((float((alpha * mask).sum(axis=-1).mean()),
                    SPEC.signal_rows / alpha.shape[-1]))
    return out


def test_planted_rows_are_found_by_their_norm(probe):
    _, _, _, region_mask, word_mask = probe
    assert (region_mask.sum(axis=-1) == SPEC.signal_rows).all()
    assert (word_mask.sum(axis=-1) == SPEC.signal_rows).all()


@pytest.mark.parametrize("fusion", FUSION_KINDS[1:])
def test_attention_is_near_uniform_at_init(probe, fusion):
    dataset = probe[0]
    model, _ = train(dataset, dataclasses.replace(CONFIG, fusion=fusion,
                                                  epochs=0))
    masses = planted_masses(model, probe)
    # dot_product: one visual attention; stacked: one per hop;
    # coattention: the text attention, then one visual attention per hop
    assert len(masses) == {"dot_product": 1, "stacked": CONFIG.hops,
                           "coattention": 1 + CONFIG.hops}[fusion]
    for mass, uniform in masses:
        assert abs(mass - uniform) <= INIT_TOL, masses


@pytest.mark.parametrize("fusion", ["dot_product", "stacked"])
def test_trained_attention_finds_the_planted_rows(probe, fusion):
    dataset = probe[0]
    model, _ = train(dataset, dataclasses.replace(CONFIG, fusion=fusion))
    for mass, uniform in planted_masses(model, probe):
        assert mass >= uniform + TRAINED_GAIN, planted_masses(model, probe)
