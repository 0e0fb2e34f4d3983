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

All functions accept a leading batch axis: X is (B, N, d_g) or (N, d_g),
t is (B, d_g) or (d_g,), Y is (B, M, d_g) or (M, d_g).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .tensor import (Tensor, as_tensor, concat, l2_normalize, linear,
                     matmul, signed_sqrt, softmax)
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


def init_stacked_params(rng: np.random.Generator | None, d_g: int, h: int,
                        hops: int) -> StackedAttentionParams:
    out = []
    for r in range(hops):
        out.append(StackedHopParams(
            w_v=uniform_init(rng, (h, d_g), d_g, f"stacked.{r}.w_v"),
            w_t=uniform_init(rng, (h, d_g), d_g, f"stacked.{r}.w_t"),
            w_p=uniform_init(rng, (1, h), h, f"stacked.{r}.w_p"),
            b_s=uniform_init(rng, (h, 1), d_g, f"stacked.{r}.b_s")))
    return StackedAttentionParams(hops=out)


def init_conv_attention(rng: np.random.Generator | None, d_in: int,
                        d_mid: int, prefix: str) -> ConvAttentionParams:
    return ConvAttentionParams(
        w1=uniform_init(rng, (d_mid, d_in), d_in, f"{prefix}.w1"),
        b1=uniform_init(rng, (d_mid,), d_in, f"{prefix}.b1"),
        w2=uniform_init(rng, (1, d_mid), d_mid, f"{prefix}.w2"),
        b2=uniform_init(rng, (1,), d_mid, f"{prefix}.b2"))


def init_coattention_params(rng: np.random.Generator | None, d_g: int,
                            hops: int, p: int) -> CoAttentionParams:
    k = 2 * d_g
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


# -- shape plumbing ----------------------------------------------------------


def _batched(x: Tensor, ndim: int) -> tuple[Tensor, bool]:
    x = as_tensor(x)
    if x.ndim == ndim:
        return x, False
    if x.ndim == ndim - 1:
        return x.reshape((1,) + x.shape), True
    raise DimensionError(f"expected ndim {ndim} or {ndim - 1}, got shape {x.shape}")


def _squeeze_batch(x: Tensor, squeeze: bool) -> Tensor:
    return x.reshape(x.shape[1:]) if squeeze else x


def _check_rows(x: Tensor, what: str) -> None:
    if x.shape[-2] == 0:
        raise DomainError(f"{what} requires at least one row")


def _attend(scores: Tensor, rows: Tensor, weights_out: list | None) -> Tensor:
    """Softmax of the (B, K) scores, appended to `weights_out` when given,
    and the attention-weighted sum of the (B, K, d) rows: (B, d)."""
    alpha = softmax(scores, axis=-1)
    if weights_out is not None:
        weights_out.append(alpha.data.copy())
    b, k = alpha.shape
    return matmul(alpha.reshape(b, 1, k), rows).reshape(b, rows.shape[-1])


# -- fusers -------------------------------------------------------------------


def fuse_dot_product(regions: Tensor, text: Tensor,
                     weights_out: list | None = None) -> Tensor:
    """Parameter-free visual attention from tanh'd dot products."""
    x, sq = _batched(regions, 3)
    t, _ = _batched(text, 2)
    _check_rows(x, "dot-product attention")
    b, _, d_g = x.shape
    scores = (x.tanh() * t.tanh().reshape(b, 1, d_g)).sum(axis=-1)  # (B, N)
    ctx = _attend(scores, x, weights_out)
    return _squeeze_batch(concat([ctx, t], axis=-1), sq)


def fuse_stacked(regions: Tensor, text: Tensor,
                 params: StackedAttentionParams,
                 weights_out: list | None = None) -> Tensor:
    """R hops of additive attention with an accumulating query vector."""
    x, sq = _batched(regions, 3)
    t, _ = _batched(text, 2)
    _check_rows(x, "stacked attention")
    b, n, _ = x.shape
    query = t
    for hop in params.hops:
        proj_x = linear(x, hop.w_v)                           # (B, N, h)
        proj_q = linear(query, hop.w_t) + hop.b_s.reshape(1, -1)  # (B, h)
        hidden = (proj_x + proj_q.reshape(b, 1, -1)).tanh()   # (B, N, h)
        scores = linear(hidden, hop.w_p).reshape(b, n)
        query = query + _attend(scores, x, weights_out)
    return _squeeze_batch(concat([query, t], axis=-1), sq)


def conv_attention_scores(rows: Tensor, params: ConvAttentionParams) -> Tensor:
    """Kernel-1 conv stack with ReLU between: per-row scores (B, K)."""
    hidden = (linear(rows, params.w1) + params.b1).relu()
    scores = linear(hidden, params.w2) + params.b2
    return scores.reshape(scores.shape[:-1])


def attend_text(words: Tensor, params: ConvAttentionParams,
                weights_out: list | None = None) -> Tensor:
    """Text context vector attended independently of the image."""
    y, sq = _batched(words, 3)
    _check_rows(y, "text attention")
    ctx = _attend(conv_attention_scores(y, params), y, weights_out)
    return _squeeze_batch(ctx, sq)


def mfb(x: Tensor, y: Tensor, u: Tensor, v: Tensor, p: int) -> Tensor:
    """Factorized bilinear pooling of two feature sets.

    Expand both inputs to p*k dims, merge with elementwise multiplication,
    sum-pool consecutive groups of p back to k, then apply signed square
    root and L2 normalization. Leading axes broadcast, so a single vector
    can merge against a whole row matrix.
    """
    u, v = as_tensor(u), as_tensor(v)
    if u.shape[0] != v.shape[0] or u.shape[0] % p != 0:
        raise DimensionError(
            f"expand maps disagree or are not divisible by p={p}: "
            f"{u.shape} vs {v.shape}")
    ex = linear(x, u)
    ey = linear(y, v)
    z = ex * ey
    k = u.shape[0] // p
    pooled = z.reshape(z.shape[:-1] + (k, p)).sum(axis=-1)
    return l2_normalize(signed_sqrt(pooled), axis=-1)


def fuse_coattention(regions: Tensor, words: Tensor,
                     params: CoAttentionParams,
                     weights_out: list | None = None) -> Tensor:
    """Co-attention over words and MFB-merged region rows."""
    x, sq = _batched(regions, 3)
    y, _ = _batched(words, 3)
    _check_rows(x, "co-attention (regions)")
    _check_rows(y, "co-attention (words)")
    b, n, d_g = x.shape

    text_ctx = attend_text(y, params.text_attn, weights_out)      # (B, d_g)
    merged = mfb(x, text_ctx.reshape(b, 1, d_g),
                 params.u_merge, params.v_merge, params.p)        # (B, N, 2*d_g)

    hop_ctx = []
    for conv in params.visual_attn:
        hop_ctx.append(_attend(conv_attention_scores(merged, conv), merged,
                               weights_out))                      # (B, 2*d_g)
    visual_ctx = linear(concat(hop_ctx, axis=-1), params.w_f)     # (B, 2*d_g)
    out = mfb(visual_ctx, text_ctx, params.u_final, params.v_final, params.p)
    return _squeeze_batch(out, sq)
