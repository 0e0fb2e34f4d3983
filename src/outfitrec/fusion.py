"""Attention-based fusion of region and word features.

Three mechanisms, each turning an item's common-space region matrix
(and its text) into one multimodal vector of dimension 2*d_g:

* dot-product attention: parameter-free weights from tanh'd region/text
  dot products, output [context; text].
* stacked attention: R hops of additive attention with a query that
  starts at the text vector and accumulates context, output [query; text].
* co-attention: text rows attended by a kernel-1 conv stack; each region
  row merged with the text context via factorized bilinear pooling (MFB);
  R hops of conv attention over the merged rows; hop contexts fused and
  merged with the text context by a final MFB.

Every function works over any leading axes, so one item and a batch of
items take the same path: the region rows X are (..., N, d_g), the text
vector t is (..., d_g) and the word rows Y are (..., M, d_g), with the
same leading axes. The output, and each attention-weight array appended
to `weights_out`, keeps those leading axes: (..., 2*d_g) and (..., K).
Inputs whose leading axes or widths disagree raise DimensionError.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import Tensor, attention_pool, concat, linear, mfb_pool, softmax
from .embedding import uniform_init


# -- parameter containers ----------------------------------------------------


@dataclass
class StackedHopParams:
    w_v: Tensor   # (h, d_g)
    w_t: Tensor   # (h, d_g)
    w_p: Tensor   # (1, h)
    b_s: Tensor   # (h, 1)


@dataclass
class StackedAttentionParams:
    hops: list[StackedHopParams]


@dataclass
class ConvAttentionParams:
    """Two kernel-1 1D convolutions with ReLU between (per-row linear maps)."""
    w1: Tensor    # (d_mid, d_in)
    b1: Tensor    # (d_mid,)
    w2: Tensor    # (1, d_mid)
    b2: Tensor    # (1,)


@dataclass
class CoAttentionParams:
    text_attn: ConvAttentionParams          # d_g -> d_g -> 1
    visual_attn: list[ConvAttentionParams]  # per hop, 2*d_g -> d_g -> 1
    u_merge: Tensor    # (p*2*d_g, d_g)   expands region rows
    v_merge: Tensor    # (p*2*d_g, d_g)   expands the text context
    u_final: Tensor    # (p*2*d_g, 2*d_g) expands the visual context
    v_final: Tensor    # (p*2*d_g, d_g)   expands the text context
    w_f: Tensor        # (2*d_g, R*2*d_g) fuses hop contexts
    p: int


def _check_hop_memory(hops: int, hop_shapes: dict, *shapes) -> None:
    """MemoryError, before any draw, when `hops` sets of `hop_shapes` and
    the `shapes` hold more float64 bytes than the host's physical memory."""
    size = 8 * (hops * sum(math.prod(s) for s, _ in hop_shapes.values())
                + sum(map(math.prod, shapes)))
    if size > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise MemoryError(f"{hops} hops need {size} bytes of parameters")


def init_stacked_params(rng: np.random.Generator | None, d_g: int, h: int,
                        hops: int) -> StackedAttentionParams:
    shapes = {"w_v": ((h, d_g), d_g), "w_t": ((h, d_g), d_g),
              "w_p": ((1, h), h), "b_s": ((h, 1), d_g)}
    _check_hop_memory(hops, shapes)
    return StackedAttentionParams(hops=[StackedHopParams(**{
        name: uniform_init(rng, shape, fan_in, f"stacked.{r}.{name}")
        for name, (shape, fan_in) in shapes.items()}) for r in range(hops)])


def _conv_shapes(d_in: int, d_mid: int) -> dict:   # field: (shape, fan-in)
    return {"w1": ((d_mid, d_in), d_in), "b1": ((d_mid,), d_in),
            "w2": ((1, d_mid), d_mid), "b2": ((1,), d_mid)}


def init_conv_attention(rng: np.random.Generator | None, d_in: int,
                        d_mid: int, prefix: str) -> ConvAttentionParams:
    return ConvAttentionParams(**{
        name: uniform_init(rng, shape, fan_in, f"{prefix}.{name}")
        for name, (shape, fan_in) in _conv_shapes(d_in, d_mid).items()})


def init_coattention_params(rng: np.random.Generator | None, d_g: int,
                            hops: int, p: int) -> CoAttentionParams:
    k = 2 * d_g
    _check_hop_memory(hops, _conv_shapes(k, d_g), (k, hops * k))
    return CoAttentionParams(
        text_attn=init_conv_attention(rng, d_g, d_g, "coatt.text"),
        visual_attn=[init_conv_attention(rng, k, d_g, f"coatt.vis{r}")
                     for r in range(hops)],
        u_merge=uniform_init(rng, (p * k, d_g), d_g, "coatt.u_merge"),
        v_merge=uniform_init(rng, (p * k, d_g), d_g, "coatt.v_merge"),
        u_final=uniform_init(rng, (p * k, k), k, "coatt.u_final"),
        v_final=uniform_init(rng, (p * k, d_g), d_g, "coatt.v_final"),
        w_f=uniform_init(rng, (k, hops * k), hops * k, "coatt.w_f"),
        p=p)


# -- shape checks and attention ---------------------------------------------


def _check_rows(x: Tensor, what: str,
                other: tuple[int, ...] | None = None) -> Tensor:
    """`x`, a tensor of (..., K, d) rows. Fewer than 2 axes, or an
    (..., d) shape other than that of the `other` input when it is given,
    raise DimensionError; K == 0 raises DomainError."""
    if x.ndim < 2:
        raise DimensionError(f"{what} expects (..., K, d) rows, got shape {x.shape}")
    if other is not None and x.shape[:-2] + x.shape[-1:] != other:
        raise DimensionError(
            f"{what} rows {x.shape} do not match the (..., d) shape {other} "
            f"of its other input")
    if x.shape[-2] == 0:
        raise DomainError(f"{what} requires at least one row")
    return x


def _row(v: Tensor) -> Tensor:
    """A (..., d) vector as a one-row (..., 1, d) matrix."""
    return v.reshape(v.shape[:-1] + (1, v.shape[-1]))


def _attend(scores: Tensor, rows: Tensor, weights_out: list | None) -> Tensor:
    """Softmax of the (..., K) scores, appended to `weights_out` when given,
    and the attention-weighted sum of the (..., K, d) rows: (..., d)."""
    alpha = softmax(scores)
    if weights_out is not None:
        weights_out.append(alpha.data.copy())
    return attention_pool(alpha, rows)


# -- fusers -------------------------------------------------------------------


def fuse_dot_product(regions: Tensor, text: Tensor,
                     weights_out: list | None = None) -> Tensor:
    """Parameter-free visual attention from tanh'd dot products."""
    x = _check_rows(regions, "dot-product attention", text.shape)
    scores = (x.tanh() * _row(text.tanh())).sum(axis=-1)     # (..., N)
    ctx = _attend(scores, x, weights_out)
    return concat([ctx, text], axis=-1)


def fuse_stacked(regions: Tensor, text: Tensor,
                 params: StackedAttentionParams,
                 weights_out: list | None = None) -> Tensor:
    """R hops of additive attention with an accumulating query vector."""
    x = _check_rows(regions, "stacked attention", text.shape)
    query = text
    for hop in params.hops:
        proj_x = linear(x, hop.w_v)                           # (..., N, h)
        proj_q = linear(query, hop.w_t) + hop.b_s.reshape(-1)  # (..., h)
        hidden = (proj_x + _row(proj_q)).tanh()               # (..., N, h)
        scores = linear(hidden, hop.w_p).reshape(hidden.shape[:-1])
        query = query + _attend(scores, x, weights_out)
    return concat([query, text], axis=-1)


def conv_attention_scores(rows: Tensor, params: ConvAttentionParams) -> Tensor:
    """Kernel-1 conv stack with ReLU between: per-row scores (..., K)."""
    hidden = (linear(rows, params.w1) + params.b1).relu()
    scores = linear(hidden, params.w2) + params.b2
    return scores.reshape(scores.shape[:-1])


def attend_text(words: Tensor, params: ConvAttentionParams,
                weights_out: list | None = None) -> Tensor:
    """Text context vector attended independently of the image."""
    y = _check_rows(words, "text attention")
    return _attend(conv_attention_scores(y, params), y, weights_out)


def mfb(x: Tensor, y: Tensor, u: Tensor, v: Tensor, p: int) -> Tensor:
    """Factorized bilinear pooling of two feature sets.

    Expand both inputs to p*k dims, then `mfb_pool`: merge with
    elementwise multiplication, sum-pool consecutive groups of p back to k,
    then apply signed square root and L2 normalization. Leading axes
    broadcast, so a single vector can merge against a whole row matrix;
    `mfb_pool` rejects expanded widths that differ or do not divide by p.
    """
    return mfb_pool(linear(x, u), linear(y, v), p)


def fuse_coattention(regions: Tensor, words: Tensor,
                     params: CoAttentionParams,
                     weights_out: list | None = None) -> Tensor:
    """Co-attention over words and MFB-merged region rows."""
    x = _check_rows(regions, "co-attention (regions)")
    y = _check_rows(words, "co-attention (words)", x.shape[:-2] + x.shape[-1:])

    text_ctx = attend_text(y, params.text_attn, weights_out)      # (..., d_g)
    merged = mfb(x, _row(text_ctx),
                 params.u_merge, params.v_merge, params.p)        # (..., N, 2*d_g)

    hop_ctx = [_attend(conv_attention_scores(merged, conv), merged, weights_out)
               for conv in params.visual_attn]                    # (..., 2*d_g)
    visual_ctx = linear(concat(hop_ctx, axis=-1), params.w_f)     # (..., 2*d_g)
    return mfb(visual_ctx, text_ctx, params.u_final, params.v_final, params.p)
