"""Projections into the common semantic space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, linear


@dataclass
class CommonSpaceProjector:
    """Linear maps taking raw image/text features into the shared space."""
    w_img: Tensor  # (d_g, d_i)
    w_txt: Tensor  # (d_g, d_t)


def uniform_init(rng: np.random.Generator | None, shape: tuple[int, ...],
                 fan_in: int, name: str) -> Tensor:
    """Uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], seeded; with no `rng`,
    zeros allocated without a draw (for a checkpoint to fill). Either way
    the leaf adopts the fresh C-ordered array without a copy. A shape too
    large to allocate raises MemoryError, numpy's refusal of a size past
    the intp limit included."""
    try:
        if rng is None:
            values = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            values = rng.uniform(-bound, bound, size=shape)
    except ValueError as exc:   # "array is too big"
        raise MemoryError(exc) from exc
    return Tensor(values, requires_grad=True, name=name)


def init_projector(rng: np.random.Generator | None, d_g: int, d_i: int,
                   d_t: int) -> CommonSpaceProjector:
    return CommonSpaceProjector(
        w_img=uniform_init(rng, (d_g, d_i), d_i, "proj.w_img"),
        w_txt=uniform_init(rng, (d_g, d_t), d_t, "proj.w_txt"))


def project_regions(regions: Tensor, proj: CommonSpaceProjector) -> Tensor:
    """Map region rows (..., N, d_i) to common space (..., N, d_g)."""
    if regions.shape[-1] != proj.w_img.shape[1]:
        raise DimensionError(
            f"region dim {regions.shape[-1]} does not match projector "
            f"input dim {proj.w_img.shape[1]}")
    return linear(regions, proj.w_img)


def project_words(words: Tensor, proj: CommonSpaceProjector) -> Tensor:
    """Map word rows (..., M, d_t) to common space (..., M, d_g)."""
    if words.shape[-1] != proj.w_txt.shape[1]:
        raise DimensionError(
            f"word dim {words.shape[-1]} does not match projector "
            f"input dim {proj.w_txt.shape[1]}")
    return linear(words, proj.w_txt)

