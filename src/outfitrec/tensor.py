"""Dense f64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays (row-major, float64). Every differentiable
operation records its input nodes and a backward closure on the node it
produces; ``Tensor.backward()`` walks that graph once in reverse
topological order and accumulates gradients into the leaves created with
``requires_grad=True``. Operations broadcast like numpy, and gradients of
broadcast operands are summed back to the operand's shape.

Shapes may carry leading batch axes: matrix operations act on the last
two axes, reductions and activations on whatever axis is requested.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, is_dataclass
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

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

    __radd__ = __add__

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

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, other):
        other = as_tensor(other)
        data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

        return Tensor._result(data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        return Tensor._result(data, (self,), backward)

    def transpose_last(self):
        """Swap the last two axes."""
        if self.ndim < 2:
            raise DimensionError(f"transpose_last needs ndim >= 2, got shape {self.shape}")
        data = self.data.swapaxes(-1, -2)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.swapaxes(-1, -2))

        return Tensor._result(data, (self,), backward)

    def __getitem__(self, key):
        """Basic indexing (ints and slices) as a view; backward writes `g`
        into one zero buffer."""
        keys = key if isinstance(key, tuple) else (key,)
        basic = (slice, int, np.integer, type(Ellipsis))
        if not all(isinstance(k, basic) and not isinstance(k, bool)
                   for k in keys):
            raise DimensionError(
                f"Tensor indexing takes ints and slices, got {key!r}")
        data = self.data[key]

        def backward(g):
            if self.requires_grad:
                buf = np.zeros(self.shape)
                buf[key] = g
                self._accumulate(buf)

        return Tensor._result(data, (self,), backward)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._result(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities ---------------------------------------

    def tanh(self):
        data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - data ** 2))

        return Tensor._result(data, (self,), backward)

    def relu(self):
        data = np.maximum(self.data, 0.0)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        return Tensor._result(data, (self,), backward)

    def sqrt(self):
        if np.any(self.data < 0.0):
            raise DomainError("sqrt of negative value")
        data = np.sqrt(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / np.maximum(data, 1e-300))

        return Tensor._result(data, (self,), backward)


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def parameter(data, name: str | None = None) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


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


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the 2-D `w` in `x @ w`: `x`'s batch axes, if any, fold
    into the rows of one GEMM, x^T g over all of them."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes.

    A 2-D right operand (a weight) folds `a`'s batch axes into the rows of
    one GEMM, for the product and for both gradients. A right operand with
    batch axes is multiplied per sample, and each gradient is summed back
    over the axes its operand was broadcast along.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs ndim >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents disagree: {a.shape} x {b.shape}")
    folded = b.ndim == 2
    data = _fold(a.data, b.data) if folded else np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            if folded:
                ga = _fold(g, b.data.T)
            else:
                ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
            a._accumulate(ga)
        if b.requires_grad:
            if folded:
                gb = _weight_grad(a.data, g)
            else:
                gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
            b._accumulate(gb)

    return Tensor._result(data, (a, b), backward)


def take_rows(x: Tensor, index) -> Tensor:
    """Rows `index` of `x` along its first axis. Rows may repeat or go
    unused; backward sums the gradients of a repeated row with one
    `np.bincount` over the flat `row * width + col` positions."""
    x = as_tensor(x)
    index = np.asarray(index)
    if (x.ndim < 1 or index.ndim != 1
            or not np.issubdtype(index.dtype, np.integer)):
        raise DimensionError(
            f"take_rows needs a 1-D integer index into an array with rows, "
            f"got index shape {index.shape} ({index.dtype}) and x {x.shape}")
    rows = x.shape[0]
    if index.size and (index.min() < 0 or index.max() >= rows):
        raise DimensionError(
            f"take_rows index spans [{index.min()}, {index.max()}], "
            f"outside the {rows} rows of x")
    data = x.data[index]

    def backward(g):
        if x.requires_grad:
            width = int(np.prod(x.shape[1:]))
            flat = (index[:, None] * width + np.arange(width)).ravel()
            summed = np.bincount(flat, weights=g.ravel(),
                                 minlength=rows * width)
            x._accumulate(summed.reshape(x.shape))

    return Tensor._result(data, (x,), backward)


def is_partition(index_sets: Sequence[np.ndarray], n: int) -> bool:
    """Whether the index arrays together hold each of 0..n-1 exactly once."""
    flat = np.concatenate([np.empty(0, np.intp), *map(np.ravel, index_sets)])
    return flat.size == n and np.array_equal(np.sort(flat), np.arange(n))


def grouped_projection(x: Tensor, weights: Sequence[Tensor],
                       row_sets: Sequence[np.ndarray]) -> Tensor:
    """Rows `row_sets[k]` of the 2-D `x` projected by `weights[k]`:
    `out[rows] = x[rows] @ weights[k]^T`, every weight (d_out, d_in).

    The row sets must partition x's rows. Forward and backward are one
    GEMM per weight in each direction, and rows are written by index.
    """
    x = as_tensor(x)
    rows = [np.asarray(r, dtype=np.intp) for r in row_sets]
    if x.ndim != 2 or len(weights) != len(rows) or not weights:
        raise DimensionError(
            f"grouped_projection needs a 2-D x and one row set per weight, "
            f"got {x.shape}, {len(weights)} weights, {len(rows)} row sets")
    d_out = weights[0].shape[0]
    if any(w.shape != (d_out, x.shape[1]) for w in weights):
        raise DimensionError(
            f"grouped_projection weights {[w.shape for w in weights]} do not "
            f"all map {x.shape[1]} to {d_out}")
    if not is_partition(rows, x.shape[0]):
        raise DomainError(
            f"row sets hold {sum(r.size for r in rows)} indices and must "
            f"partition the {x.shape[0]} rows of x")
    data = np.empty((x.shape[0], d_out))
    for w, r in zip(weights, rows):
        data[r] = x.data[r] @ w.data.T

    def backward(g):
        gx = np.empty(x.shape) if x.requires_grad else None
        for w, r in zip(weights, rows):
            g_r = g[r]
            if gx is not None:
                gx[r] = g_r @ w.data
            if w.requires_grad:
                w._accumulate(g_r.T @ x.data[r])
        if gx is not None:
            x._accumulate(gx)

    return Tensor._result(data, (x, *weights), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis` (max-subtraction)."""
    x = as_tensor(x)
    if x.data.size == 0 or x.data.shape[axis] == 0:
        raise DomainError("softmax of empty input")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            x._accumulate((g - inner) * data)

    return Tensor._result(data, (x,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(ts, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._result(data, ts, backward)


def signed_sqrt(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Smoothed signed square root: x * (x^2 + eps)^(-1/4).

    Matches sign(x)*sqrt(|x|) away from zero but stays differentiable
    everywhere, which keeps finite-difference gradient checks tight.
    """
    x = as_tensor(x)
    u = x.data ** 2 + eps
    data = x.data * u ** -0.25

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (0.5 * x.data ** 2 + eps) * u ** -1.25)

    return Tensor._result(data, (x,), backward)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-24) -> Tensor:
    """Scale rows to unit L2 norm; a vanishing row maps to (near) zero."""
    x = as_tensor(x)
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def cosine_similarity(x: Tensor, y: Tensor, axis: int = -1) -> Tensor:
    """Cosine of the angle between `x` and `y` along `axis`."""
    return cosines([(x, y)], axis)[0]


def cosines(pairs: Sequence[tuple[Tensor, Tensor]], axis: int = -1
            ) -> list[Tensor]:
    """`cosine_similarity` of each (x, y) pair; a tensor that appears in
    several pairs has its norm computed once."""
    norms: dict[int, tuple[Tensor, Tensor]] = {}   # id -> (tensor, norm)

    def norm(t: Tensor) -> Tensor:
        if id(t) not in norms:
            n = (t * t).sum(axis=axis).sqrt()
            if not np.all(n.data):
                raise DomainError(
                    "cosine_similarity of a zero vector is undefined")
            norms[id(t)] = (t, n)   # holding t keeps its id from being reused
        return norms[id(t)][1]

    out = []
    for x, y in pairs:
        x, y = as_tensor(x), as_tensor(y)
        if x.shape != y.shape:
            raise DimensionError(
                f"cosine_similarity shape mismatch: {x.shape} vs {y.shape}")
        dot = (x * y).sum(axis=axis)
        out.append(dot / (norm(x) * norm(y)))
    return out


def pool_rows(x: Tensor) -> Tensor:
    """Mean over the second-to-last axis (rows of a feature matrix)."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise DimensionError(f"pool_rows needs ndim >= 2, got shape {x.shape}")
    if x.shape[-2] == 0:
        raise DomainError("pool_rows of an empty row set")
    return x.mean(axis=-2)
