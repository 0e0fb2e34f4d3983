"""Dense f64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (row-major, float64). Every differentiable
operation records its input nodes and a backward closure on the node it
produces; ``Tensor.backward()`` walks that graph once in reverse
topological order and accumulates gradients into the leaves created with
``requires_grad=True``. Operations broadcast like numpy, and gradients of
broadcast operands are summed back to the operand's shape. Ops take
Tensors; only `+` and `*` also wrap a plain number or array.

Shapes may carry leading batch axes: `linear` maps the last axis,
`attention_pool` sums rows over the second-to-last, reductions act on
whatever axis is requested, and softmax, the MFB pooling tail and the
role cosines act on the last axis; `loss_head` reads the leading roles
of its (R, ..., d) stacks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from numbers import Integral
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph holding a float64 array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.name = name

    # -- construction ------------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"],
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Record `backward` only when some parent requires a gradient, so
        the closure of a one-parent op may assume that its parent does."""
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is not None:
            self.grad += grad
        elif (isinstance(grad, np.ndarray) and grad.base is None
              and grad.flags.c_contiguous and grad.dtype == np.float64):
            self.grad = grad   # a fresh temporary no other node holds
        else:
            # a view of another node's buffer, or a numpy scalar from 0-d
            # arithmetic: keep a private C-ordered copy
            self.grad = np.array(grad, dtype=np.float64, order="C")

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Each interior node's gradient is freed once its closure has passed
        it on; only the leaves keep `.grad`.
        """
        if self.data.size != 1:
            raise DomainError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._result(data, (self, other), backward)

    def __mul__(self, other):
        other = as_tensor(other)
        data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._result(data, (self, other), backward)

    __rmul__ = __mul__

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g):
            self._accumulate(g.reshape(old))

        return Tensor._result(data, (self,), backward)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None):
        data = self.data.sum(axis=axis)

        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._result(data, (self,), backward)

    def mean(self, axis=None):
        axes = (range(self.ndim) if axis is None
                else axis if isinstance(axis, tuple) else (axis,))
        n = math.prod(self.shape[a] for a in axes)
        return self.sum(axis=axis) * (1.0 / n)

    # -- elementwise nonlinearities ---------------------------------------

    def tanh(self):
        data = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - data ** 2))

        return Tensor._result(data, (self,), backward)

    def relu(self):
        data = np.maximum(self.data, 0.0)

        def backward(g):
            self._accumulate(g * (self.data > 0.0))

        return Tensor._result(data, (self,), backward)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def parameter(data, name: str | None = None) -> Tensor:
    """A leaf tensor that accumulates gradients, in its own C-ordered
    buffer (so `Adam` can update it through flat views)."""
    return Tensor(np.array(data, dtype=np.float64, order="C"),
                  requires_grad=True, name=name)


def named_parameters(tree) -> list[tuple[str, Tensor]]:
    """(name, tensor) for every tensor in a tree of dataclasses, lists and
    dicts: fields in declaration order, dict values in sorted key order."""
    if isinstance(tree, Tensor):
        return [(tree.name, tree)]
    if is_dataclass(tree):
        tree = [getattr(tree, f.name) for f in fields(tree)]
    elif isinstance(tree, dict):
        tree = [tree[k] for k in sorted(tree)]
    elif not isinstance(tree, list):
        return []
    return [pair for child in tree for pair in named_parameters(child)]


# -- composite / free-function operations ----------------------------------


def _fold(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`x @ w` for a 2-D `w`, with `x`'s batch axes folded into the rows
    of one GEMM; the result owns its C-ordered buffer."""
    out = np.empty(x.shape[:-1] + (w.shape[-1],))
    np.matmul(x.reshape(-1, x.shape[-1]), w, out=out.reshape(-1, w.shape[-1]))
    return out


def linear(x: Tensor, w: Tensor) -> Tensor:
    """`x @ w^T` for a (d_out, d_in) weight `w`, with `x`'s batch axes folded
    into the rows of one GEMM for the product and for both gradients.

    `w`'s gradient, `g^T x` over all rows, is one GEMM written straight into
    `w`'s own layout, so the leaf adopts it without a copy.
    """
    if x.ndim < 1 or w.ndim != 2:
        raise DimensionError(
            f"linear needs an ndim >= 1 input and a 2-D weight, "
            f"got {x.shape} and {w.shape}")
    d_out, d_in = w.shape
    if x.shape[-1] != d_in:
        raise DimensionError(
            f"linear input dim {x.shape[-1]} does not match weight {w.shape}")
    data = _fold(x.data, w.data.T)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_fold(g, w.data))
        if w.requires_grad:
            w._accumulate(g.reshape(-1, d_out).T @ x.data.reshape(-1, d_in))

    return Tensor._result(data, (x, w), backward)


def attention_pool(alpha: Tensor, rows: Tensor) -> Tensor:
    """The (..., d) sums of (..., K, d) rows weighted by (..., K) `alpha` of
    the same leading axes: `np.matmul` of `alpha` as (..., 1, K) rows."""
    if rows.ndim < 2 or alpha.shape != rows.shape[:-1]:
        raise DimensionError(f"attention_pool needs (..., K) weights and "
                             f"(..., K, d) rows, got {alpha.shape}, {rows.shape}")
    a = alpha.data.reshape(alpha.shape[:-1] + (1, alpha.shape[-1]))
    data = np.matmul(a, rows.data).reshape(rows.shape[:-2] + rows.shape[-1:])

    def backward(g):
        g = g.reshape(a.shape[:-1] + g.shape[-1:])
        if alpha.requires_grad:
            g_a = np.matmul(g, rows.data.swapaxes(-1, -2))
            alpha._accumulate(g_a.reshape(alpha.shape))
        if rows.requires_grad:
            # the inner dimension is 1: an outer product, plus the +0.0
            # that a matmul's sum starts from (it turns -0.0 into +0.0)
            g_rows = a.swapaxes(-1, -2) * g
            g_rows += 0.0
            rows._accumulate(g_rows)

    return Tensor._result(data, (alpha, rows), backward)


def take_rows(x: Tensor, index) -> Tensor:
    """Rows `index` of `x` along its first axis, shaped `index.shape +
    x.shape[1:]` for an integer index of any shape. Rows may repeat or go
    unused; backward sums the gradients of a repeated row with one
    `np.bincount` over the flat `row * width + col` positions."""
    index = np.asarray(index)
    if x.ndim < 1 or not np.issubdtype(index.dtype, np.integer):
        raise DimensionError(
            f"take_rows needs an integer index into an array with rows, "
            f"got index shape {index.shape} ({index.dtype}) and x {x.shape}")
    rows = x.shape[0]
    if index.size and (index.min() < 0 or index.max() >= rows):
        raise DimensionError(
            f"take_rows index spans [{index.min()}, {index.max()}], "
            f"outside the {rows} rows of x")
    data = x.data[index]

    def backward(g):
        width = int(np.prod(x.shape[1:]))
        flat = (index[..., None] * width + np.arange(width)).ravel()
        summed = np.bincount(flat, weights=g.ravel(), minlength=rows * width)
        x._accumulate(summed.reshape(x.shape))

    return Tensor._result(data, (x,), backward)


def grouped_projection(x: Tensor, weights: Sequence[Tensor],
                       sizes: Sequence[int]) -> Tensor:
    """The next `sizes[k]` columns of the (R, B, d_in) stack `x` projected
    by the (d_out, d_in) `weights[k]`: `out[:, cols] = x[:, cols] @ w_k^T`.

    Forward and backward are one GEMM per weight in each direction, over
    the range's R * sizes[k] rows in role-major order.
    """
    if x.ndim != 3 or len(weights) != len(sizes) or not weights:
        raise DimensionError(
            f"grouped_projection needs an (R, B, d_in) x and one column count "
            f"per weight, got {x.shape} and {len(weights)}, {len(sizes)}")
    (stack, cols, d_in), d_out = x.shape, weights[0].shape[0]
    if any(w.shape != (d_out, d_in) for w in weights):
        raise DimensionError(
            f"grouped_projection weights {[w.shape for w in weights]} do not "
            f"all map {d_in} to {d_out}")
    if min(sizes) < 0 or sum(sizes) != cols:
        raise DomainError(f"column counts {list(sizes)} must be "
                          f"non-negative and sum to the {cols} columns of x")
    spans = [slice(end - n, end) for n, end in zip(sizes, np.cumsum(sizes))]
    xs = [x.data[:, s].reshape(-1, d_in) for s in spans]   # role-major rows
    data = np.empty((stack, cols, d_out))
    for w, s, x_k in zip(weights, spans, xs):
        data[:, s] = (x_k @ w.data.T).reshape(stack, -1, d_out)

    def backward(g):
        gx = np.empty(x.shape) if x.requires_grad else None
        for w, s, x_k in zip(weights, spans, xs):
            g_k = g[:, s].reshape(-1, d_out)
            if gx is not None:
                gx[:, s] = (g_k @ w.data).reshape(stack, -1, d_in)
            if w.requires_grad:
                w._accumulate(g_k.T @ x_k)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._result(data, (x, *weights), backward)


def softmax(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis (max-subtraction)."""
    if x.data.size == 0 or x.data.shape[-1] == 0:
        raise DomainError("softmax of empty input")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        x._accumulate((g - inner) * data)

    return Tensor._result(data, (x,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = list(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(ts, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._result(data, ts, backward)


def mfb_pool(x: Tensor, y: Tensor, p: int) -> Tensor:
    """The pooling tail of factorized bilinear pooling as one node: the
    product `x * y` (broadcasting), summed over consecutive groups of `p`
    along the last axis, the smoothed signed square root `s = z (z^2 +
    1e-8)^(-1/4)` (differentiable at 0, so finite-difference checks stay
    tight) and `s` scaled to unit L2 norm (a vanishing one maps to ~0).

    Backward adds its terms in the order of the op-by-op graph (divide,
    square, sum, root) it replaced, whose gradients it reproduces bit for
    bit; each factor's gradient is written one group term at a time, with
    no repeated copy of the per-group gradient. DomainError: `p` is not an
    integer >= 1. DimensionError: the widths differ or do not divide by `p`.
    """
    if isinstance(p, bool) or not isinstance(p, Integral) or p < 1:
        raise DomainError(f"mfb_pool needs an integer factor p >= 1, got {p!r}")
    if x.ndim < 1 or x.shape[-1:] != y.shape[-1:] or x.shape[-1] % p:
        raise DimensionError(f"mfb_pool widths of {x.shape} and {y.shape} "
                             f"must agree and divide by p={p}")
    # strided adds, left to right from +0.0: numpy's sum of a group of
    # fewer than 8 terms, bit for bit (from 8 on numpy sums pairwise)
    pooled = x.data[..., 0::p] * y.data[..., 0::p]
    pooled += 0.0   # as in numpy's sum, -0.0 terms total +0.0
    for j in range(1, p):
        pooled += x.data[..., j::p] * y.data[..., j::p]
    square = pooled ** 2
    q = square + 1e-8
    s = pooled * q ** -0.25
    norm = np.sqrt((s * s).sum(axis=-1, keepdims=True) + 1e-24)
    data = s / norm

    def backward(g):
        c = (-g * s / norm ** 2).sum(axis=-1, keepdims=True) * 0.5 / norm
        cs = c * s
        g_s = g / norm + cs + cs   # one term per factor of `s * s`
        g_z = g_s * (0.5 * square + 1e-8) * q ** -1.25   # one per group
        for t, other in ((x, y), (y, x)):
            if t.requires_grad:
                # term j of group k: g_z[..., k] * other[..., k * p + j]
                g_t = np.empty(g_z.shape[:-1] + (g_z.shape[-1] * p,))
                for j in range(p):
                    np.multiply(g_z, other.data[..., j::p], out=g_t[..., j::p])
                t._accumulate(_unbroadcast(g_t, t.shape))

    return Tensor._result(data, (x, y), backward)


def _norms(x: np.ndarray) -> np.ndarray:
    """The L2 norms of the rows of `x` along its last axis; DomainError
    when one is zero, since a cosine with it is undefined."""
    norm = np.sqrt((x * x).sum(axis=-1))
    if not np.all(norm):
        raise DomainError("cosine of a zero vector is undefined")
    return norm


def _cosines(a: np.ndarray, b: np.ndarray, norm_a: np.ndarray,
             norm_b: np.ndarray, i: np.ndarray, j: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Entry e = cos(a[i[e]], b[j[e]]) of two (R, ..., d) stacks with row
    norms `norm_a` and `norm_b`, as `(x * y).sum(-1) / (|x| * |y|)`: the
    (E, ...) cosines and their denominators. One product per entry keeps
    the temporaries at one role's size."""
    den = norm_a[i] * norm_b[j]
    dots = np.empty(den.shape)
    for e, (r, s) in enumerate(zip(i.tolist(), j.tolist())):
        np.sum(a[r] * b[s], axis=-1, out=dots[e, ...])
    return dots / den, den


def _cosine_grad(g: np.ndarray, cos: np.ndarray, den: np.ndarray,
                 own: np.ndarray, own_norm: np.ndarray, other: np.ndarray,
                 own_roles: np.ndarray, other_roles: np.ndarray
                 ) -> np.ndarray:
    """The gradient for the stack `own` of sum_e g[e] * cos[e], where entry
    e of `_cosines` paired own[own_roles[e]] with other[other_roles[e]]:
    d cos(x, y)/dx = y / (|x| |y|) - cos(x, y) x / |x|^2.

    Each role adds its entries' terms in entry order, and a role no entry
    reads gets +0.0. Over a row-major (R, R) table that is the order of a
    contraction over the other role; the final `+= 0.0` gives its start
    from +0.0 (no -0.0 survives). So leaving out entries whose `g` is 0
    keeps every bit, signed zeros included."""
    g_dot, g_cos = g / den, g * cos
    roles: dict[int, list[tuple[int, int]]] = {}
    for e, (r, s) in enumerate(zip(own_roles.tolist(), other_roles.tolist())):
        roles.setdefault(r, []).append((e, s))
    grad = np.zeros(own.shape)
    for r, ((e, s), *rest) in roles.items():
        dot, total = g_dot[e][..., None] * other[s], g_cos[e]
        for e, s in rest:
            dot += g_dot[e][..., None] * other[s]
            total = total + g_cos[e]
        np.subtract(dot, (total / own_norm[r] ** 2)[..., None] * own[r],
                    out=grad[r])
    grad += 0.0
    return grad


def role_cosines(a: Tensor, b: Tensor) -> Tensor:
    """The (R, R, ...) table `out[i, j] = cos(a[i], b[j])` of two (R, ..., d)
    stacks: `(x * y).sum(-1) / (|x| * |y|)` along the last axis, with each
    stack's norms computed once (once in all when `a is b`)."""
    if a.ndim < 2 or a.shape != b.shape:
        raise DimensionError(f"role_cosines needs two (R, ..., d) stacks of "
                             f"one shape, got {a.shape} and {b.shape}")
    roles = a.shape[0]
    i, j = np.divmod(np.arange(roles * roles), roles)
    norm_a = _norms(a.data)
    norm_b = norm_a if b is a else _norms(b.data)
    cos, den = _cosines(a.data, b.data, norm_a, norm_b, i, j)

    def backward(g):
        g = g.reshape(cos.shape)
        if a.requires_grad:
            a._accumulate(_cosine_grad(g, cos, den, a.data, norm_a, b.data,
                                       i, j))
        if b.requires_grad:
            b._accumulate(_cosine_grad(g, cos, den, b.data, norm_b, a.data,
                                       j, i))

    return Tensor._result(cos.reshape((roles, roles) + cos.shape[1:]),
                          (a, b), backward)


def _hinge_grad(g: np.ndarray, hinge: np.ndarray, negative_rows: np.ndarray,
                positive_rows: np.ndarray, count: int) -> np.ndarray:
    """The gradient for the `count` cosine rows of the triplet means of the
    (E, ...) `hinge` rows `cos[negative] - cos[positive] + margin`, given
    theirs, `g`: one `np.bincount` scatter per side."""
    g_neg = g * (1.0 / len(negative_rows)) * (hinge > 0.0)   # signed zeros
    width = hinge[0].size
    flat = [(ix[:, None] * width + np.arange(width)).ravel()
            for ix in (negative_rows, positive_rows)]
    summed = (np.bincount(flat[0], weights=g_neg.ravel(),
                          minlength=count * width)
              + np.bincount(flat[1], weights=(g_neg * -1.0).ravel(),
                            minlength=count * width))
    return summed.reshape((count,) + hinge.shape[1:])


def loss_head(stacks: Sequence[Tensor], terms, margin: float
              ) -> tuple[Tensor, list[float]]:
    """A weighted sum of margin-hinge loss terms over role stacks, as one
    node, and each term's value.

    Term `(weight, a, b, table)` is `weight` times the mean over triplets
    of the op-by-op chain `(take_rows(rows, table[0]) + take_rows(rows,
    table[1]) * -1.0 + margin).relu().mean(axis=0)`, where `rows` is
    `role_cosines(stacks[a], stacks[b])` seen as R * R rows, for two
    (R, ..., d) stacks and a (2, E) row table; the total adds the weighted
    terms left to right. Only the cosines the table's rows read are
    computed and differentiated, and each stack's norms once.

    Forward and backward repeat the arithmetic of that chain, its
    `.mean()` and the weighted sum's `*` and `+`, so values and gradients
    match it bit for bit: an unread cosine's gradient is exactly 0, and
    `_cosine_grad` adds the read ones as the full table's contraction
    does. Each stack receives its gradients in term order, the `a` side
    before the `b` side. DimensionError: a term's stacks differ in
    shape or are not (R, ..., d), or its table is not a (2, E >= 1) integer
    numpy array of rows in [0, R * R).
    """
    norms: dict[int, np.ndarray] = {}
    saved, values, total = [], [], None
    for weight, ia, ib, table in terms:
        a, b = stacks[ia].data, stacks[ib].data
        if (a.ndim < 2 or a.shape != b.shape
                or not isinstance(table, np.ndarray) or table.ndim != 2
                or table.shape[0] != 2 or not table.size
                or table.dtype.kind not in "iu"):
            raise DimensionError(
                f"loss_head needs two (R, ..., d) stacks of one shape and a "
                f"(2, E) integer row table, got {a.shape}, {b.shape} and "
                f"{getattr(table, 'shape', table)}")
        roles, listed = a.shape[0], table.tolist()
        read = sorted(set(listed[0] + listed[1]))   # the cosines to compute
        if read[0] < 0 or read[-1] >= roles * roles:
            raise DimensionError(f"loss_head rows span [{read[0]}, "
                                 f"{read[-1]}], outside {roles * roles}")
        at = {row: k for k, row in enumerate(read)}
        neg, pos = (np.array([at[row] for row in side], dtype=np.intp)
                    for side in listed)
        i, j = np.divmod(np.array(read, dtype=np.intp), roles)
        for k, x in ((ia, a), (ib, b)):
            if k not in norms:
                norms[k] = _norms(x)
        cos, den = _cosines(a, b, norms[ia], norms[ib], i, j)
        hinge = cos[neg] + cos[pos] * -1.0 + margin
        per_triplet = np.maximum(hinge, 0.0).sum(axis=0) * (1.0 / len(neg))
        value = per_triplet.sum() * (1.0 / per_triplet.size)
        total = value * weight if total is None else total + value * weight
        values.append(float(value))
        saved.append((i, j, neg, pos, cos, den, hinge))

    def backward(g):
        for (weight, ia, ib, _), (i, j, neg, pos, cos, den, hinge) in zip(
                terms, saved):
            g_mean = np.broadcast_to(g * weight * (1.0 / hinge[0].size),
                                     hinge.shape[1:])
            g_cos = _hinge_grad(g_mean, hinge, neg, pos, len(cos))
            a, b = stacks[ia], stacks[ib]
            if a.requires_grad:
                a._accumulate(_cosine_grad(g_cos, cos, den, a.data, norms[ia],
                                           b.data, i, j))
            if b.requires_grad:
                b._accumulate(_cosine_grad(g_cos, cos, den, b.data, norms[ib],
                                           a.data, j, i))

    return Tensor._result(np.asarray(total), stacks, backward), values


def pool_rows(x: Tensor) -> Tensor:
    """Mean over the second-to-last axis (rows of a feature matrix), as one
    node: the sum times 1/n, and backward `g` times 1/n broadcast back over
    the rows (the arithmetic of `x.mean(axis=-2)`)."""
    if x.ndim < 2:
        raise DimensionError(f"pool_rows needs ndim >= 2, got shape {x.shape}")
    if x.shape[-2] == 0:
        raise DomainError("pool_rows of an empty row set")
    scale = 1.0 / x.shape[-2]
    data = x.data.sum(axis=-2) * scale

    def backward(g):
        x._accumulate(np.broadcast_to(np.expand_dims(g * scale, -2), x.shape))

    return Tensor._result(data, (x,), backward)
