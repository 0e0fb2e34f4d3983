"""Self-check helpers: full-loss gradient verification on a tiny model."""

from __future__ import annotations

import numpy as np

from .compatibility import LossWeights, training_loss
from .model import ModelDims, init_model
from .optim import GradCheckReport, grad_check

# The tiny model's fixed sizes and the finite-difference step. The step
# is smaller than the primitive-op default because the composed loss
# contains ReLU kinks and the signed-sqrt's high-curvature region; h ~ 1e-6
# keeps the truncation error well below the tolerance while staying far
# above double-precision roundoff.
REGION_DIM, WORD_DIM, HOPS, MFB_FACTOR, H_SCALE = 5, 6, 2, 2, 1e-6


def full_loss_grad_check(fusion: str, d_g: int = 8, d_c: int = 8, h: int = 8,
                         n_regions: int = 4, n_words: int = 3, seed: int = 0,
                         rel_tol: float = 1e-4) -> GradCheckReport:
    """Check every parameter's tape gradient of the total training loss
    against central finite differences (step `H_SCALE`) on a small random
    triplet batch whose items repeat across roles and type pairs."""
    rng = np.random.default_rng(seed)
    dims = ModelDims(d_g=d_g, d_c=d_c, h=h, hops=HOPS, mfb_factor=MFB_FACTOR,
                     region_dim=REGION_DIM, word_dim=WORD_DIM)
    pairs = {("typeA", "typeB"), ("typeA", "typeC")}
    model = init_model(fusion, dims, pairs, seed)
    # items 0-1 are typeA, 2-3 typeB, 4-5 typeC; item 0 is an anchor in
    # both type pairs and a positive, so the gather's scatter sums gradients
    # across roles and pairs
    regions = rng.normal(size=(6, n_regions, REGION_DIM))
    words = rng.normal(size=(6, n_words, WORD_DIM))
    pair_groups = {("typeA", "typeB"): np.array([[0, 2], [2, 0], [3, 1]]),
                   ("typeA", "typeC"): np.array([[0], [4], [5]])}
    weights = LossWeights()

    def loss_fn():
        return training_loss(model, regions, words, pair_groups, weights)

    return grad_check(loss_fn, model.parameters(), h_scale=H_SCALE,
                      rel_tol=rel_tol)
