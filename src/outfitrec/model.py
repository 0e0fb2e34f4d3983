"""Model container: projections, fusion parameters, type-pair spaces.

Checkpoints are a magic line, a JSON header (version, fusion kind, dims,
type-pair key table, parameter names/shapes) and a little-endian float32
payload holding the parameter tensors in header order.

The model computes in float64, so a save/load round trip rounds every
parameter to the nearest float32: a loaded value differs from the saved
one by at most 2**-24 of its magnitude (values in float32's normal range;
smaller ones lose more, larger ones overflow). Through `item_features`
this moves each fused or pooled row by well under 1e-5 of its norm
(about 1e-7, and up to 7e-7 for co-attention, whose signed square root
amplifies it, at d_g from 8 to 128); `tests/test_model.py` holds both
bounds.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import canonical_pair
from .embedding import (CommonSpaceProjector, init_projector,
                        project_regions, project_words, uniform_init)
from .errors import DatasetError, DimensionError, UnseenTypePairError
from .fusion import (CoAttentionParams, StackedAttentionParams,
                     fuse_coattention, fuse_dot_product, fuse_stacked,
                     init_coattention_params, init_stacked_params)
from .tensor import Tensor, as_tensor, named_parameters, pool_rows

FUSION_KINDS = ("baseline", "dot_product", "stacked", "coattention")

CHECKPOINT_MAGIC = b"OUTFITREC-CKPT\n"
CHECKPOINT_VERSION = 1


@dataclass
class ModelDims:
    d_g: int
    d_c: int
    h: int
    hops: int
    mfb_factor: int
    region_dim: int
    word_dim: int


@dataclass
class OutfitModel:
    fusion: str
    dims: ModelDims
    projector: CommonSpaceProjector
    stacked: StackedAttentionParams | None
    coattention: CoAttentionParams | None
    spaces: dict[tuple[str, str], Tensor]   # canonical type pair -> (d_c, rep_dim)

    @property
    def rep_dim(self) -> int:
        return self.dims.d_g if self.fusion == "baseline" else 2 * self.dims.d_g

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Named parameters in checkpoint order: projector, fuser, spaces."""
        return named_parameters(self)

    def has_space(self, type_u: str, type_v: str) -> bool:
        return canonical_pair(type_u, type_v) in self.spaces

    def space(self, type_u: str, type_v: str) -> Tensor:
        key = canonical_pair(type_u, type_v)
        try:
            return self.spaces[key]
        except KeyError:
            raise UnseenTypePairError(
                f"no compatibility space trained for type pair {key}") from None


def init_model(fusion: str, dims: ModelDims,
               type_pairs: set[tuple[str, str]], seed: int) -> OutfitModel:
    """Seeded initialization; one compatibility space per trained pair."""
    return _build_model(fusion, dims, type_pairs, np.random.default_rng(seed))


def _build_model(fusion: str, dims: ModelDims,
                 type_pairs: set[tuple[str, str]],
                 rng: np.random.Generator | None) -> OutfitModel:
    """The model's tensors drawn from `rng`, or zeros when it is None."""
    if fusion not in FUSION_KINDS:
        raise ValueError(f"unknown fusion kind {fusion!r}; expected {FUSION_KINDS}")
    projector = init_projector(rng, dims.d_g, dims.region_dim, dims.word_dim)
    stacked = coatt = None
    if fusion == "stacked":
        stacked = init_stacked_params(rng, dims.d_g, dims.h, dims.hops)
    elif fusion == "coattention":
        coatt = init_coattention_params(rng, dims.d_g, dims.hops, dims.mfb_factor)
    rep_dim = dims.d_g if fusion == "baseline" else 2 * dims.d_g
    spaces = {}
    for (u, v) in sorted(canonical_pair(*pr) for pr in type_pairs):
        spaces[(u, v)] = uniform_init(rng, (dims.d_c, rep_dim), rep_dim,
                                      f"space.{u}|{v}")
    return OutfitModel(fusion=fusion, dims=dims, projector=projector,
                       stacked=stacked, coattention=coatt, spaces=spaces)


# -- representations ---------------------------------------------------------


def item_features(model: OutfitModel, regions, words,
                  weights_out: list | None = None
                  ) -> tuple[Tensor, Tensor, Tensor]:
    """Fused reps plus pooled unimodal common-space features for a batch.

    Returns (fused (B, rep_dim), pooled image (B, d_g), pooled text (B, d_g)).
    """
    x_rows = project_regions(as_tensor(regions), model.projector)
    y_rows = project_words(as_tensor(words), model.projector)
    x_pooled = pool_rows(x_rows)
    t_pooled = pool_rows(y_rows)
    if model.fusion == "baseline":
        fused = x_pooled
    elif model.fusion == "dot_product":
        fused = fuse_dot_product(x_rows, t_pooled, weights_out)
    elif model.fusion == "stacked":
        fused = fuse_stacked(x_rows, t_pooled, model.stacked, weights_out)
    else:
        fused = fuse_coattention(x_rows, y_rows, model.coattention, weights_out)
    return fused, x_pooled, t_pooled


# -- checkpoint I/O ----------------------------------------------------------


def save_model(model: OutfitModel, path: str | Path) -> None:
    params = model.parameters()
    header = {
        "version": CHECKPOINT_VERSION,
        "fusion": model.fusion,
        "dims": vars(model.dims),
        "type_pairs": [list(k) for k in sorted(model.spaces)],
        "params": [{"name": n, "shape": list(t.shape)} for n, t in params],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, t in params:
            fh.write(np.asarray(t.data, dtype="<f4").tobytes())


def load_model(path: str | Path) -> OutfitModel:
    """Malformed files, non-finite values included, raise DatasetError;
    misshapen parameters raise DimensionError."""
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise DatasetError(f"{path}: not an outfitrec checkpoint")
    off = len(CHECKPOINT_MAGIC) + 8
    try:
        (hlen,) = struct.unpack_from("<Q", raw, off - 8)
        header = json.loads(raw[off:off + hlen])
        if header["version"] != CHECKPOINT_VERSION:
            raise DatasetError(f"{path}: unsupported checkpoint version")
        dims = ModelDims(**header["dims"])
        stored = [(m["name"], tuple(m["shape"])) for m in header["params"]]
        # each hop adds parameters, so more hops than listed parameters
        # cannot match; building them one by one could exhaust memory
        if (header["fusion"] in ("stacked", "coattention")
                and dims.hops > len(stored)):
            raise DatasetError(
                f"{path}: {dims.hops} hops but {len(stored)} parameters")
        model = _build_model(header["fusion"], dims,
                             {tuple(k) for k in header["type_pairs"]}, rng=None)
    except DatasetError:
        raise
    except (struct.error, ValueError, KeyError, TypeError,
            RecursionError) as exc:
        raise DatasetError(f"{path}: malformed checkpoint header: {exc!r}") from exc
    except MemoryError as exc:
        raise DatasetError(
            f"{path}: header dims {header['dims']} do not fit in memory") from exc
    off += hlen
    params = model.parameters()
    if [name for name, _ in stored] != [name for name, _ in params]:
        raise DatasetError(f"{path}: header parameters differ from the model's")
    for (name, shape), (_, target) in zip(stored, params):
        if target.shape != shape:
            raise DimensionError(
                f"{path}: parameter {name!r} has shape {shape}, "
                f"expected {target.shape}")
        nbytes = 4 * target.data.size
        chunk = raw[off:off + nbytes]
        if len(chunk) != nbytes:
            raise DatasetError(f"{path}: truncated payload at {name!r}")
        # an all-ones f32 exponent is NaN or Inf; testing the bits keeps a
        # signaling NaN from warning as it is widened
        bits = np.frombuffer(chunk, dtype="<u4")
        if np.any((bits & 0x7F800000) == 0x7F800000):
            raise DatasetError(f"{path}: parameter {name!r} holds NaN or Inf")
        target.data = bits.view("<f4").astype(np.float64).reshape(shape)
        off += nbytes
    if off != len(raw):
        raise DatasetError(f"{path}: {len(raw) - off} trailing bytes after payload")
    return model
