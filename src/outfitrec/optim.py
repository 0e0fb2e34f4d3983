"""Adam optimizer and a finite-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .errors import ConsistencyError
from .tensor import Tensor, no_grad


# Elements per Adam block: six f64 block arrays (weight, gradient, m, v and
# two scratch buffers) fit in a 2 MB L2 cache.
ADAM_BLOCK = 32768


class Adam:
    """Standard Adam with bias correction, operating on parameter tensors.

    Update: m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    p <- p - lr * m_hat / (sqrt(v_hat) + eps).

    Consecutive parameters whose sizes sum to at most `ADAM_BLOCK` (read
    when the optimizer is built) share one segment, whose moments are
    packed in one `m` and one `v` array; a larger parameter is a segment of
    its own. Each step, a run of two or more consecutive parameters of a
    segment that have a gradient is gathered into scratch, updated by one
    pass and copied back; a lone parameter is updated in flat blocks,
    through views of its C-ordered buffer. The update is elementwise, so
    the values are those of one whole-array pass per parameter.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 5e-5,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        for i, p in enumerate(self.params):
            if not p.data.flags.c_contiguous:
                raise ConsistencyError(
                    f"parameter {p.name or i} is not C-ordered; Adam updates "
                    "it through flat views of its buffer")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._block = ADAM_BLOCK
        members: list[list[int]] = []   # parameter indices per segment
        total = 0
        for i, p in enumerate(self.params):
            if members and total + p.data.size <= self._block:
                members[-1].append(i)
                total += p.data.size
            else:
                members.append([i])
                total = p.data.size
        # per segment: its parameter indices, their offsets into the packed
        # moments (one more than the indices) and the moments
        self._segments: list[tuple[list[int], list[int], np.ndarray,
                                   np.ndarray]] = []
        self.m: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        for ix in members:
            offsets = np.cumsum([0] + [self.params[i].data.size
                                       for i in ix]).tolist()
            # written now: `np.zeros` maps untouched pages, which would
            # fault inside the first step (222 MB of moments at d=512,
            # about 70 ms)
            m, v = np.full(offsets[-1], 0.0), np.full(offsets[-1], 0.0)
            for i, lo, hi in zip(ix, offsets, offsets[1:]):
                shape = self.params[i].shape
                self.m.append(m[lo:hi].reshape(shape))
                self.v.append(v[lo:hi].reshape(shape))
            self._segments.append((ix, offsets, m, v))
        # flat scratch of one block: packed values and gradients, and two
        # buffers for the update
        size = min(max((o[-1] for _, o, _, _ in self._segments), default=0),
                   self._block)
        self._scratch = tuple(np.empty(size) for _ in range(4))

    def step(self) -> None:
        """Apply one update. Parameters without a gradient (absent from
        this step's loss) are left untouched."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for ix, offsets, m, v in self._segments:
            k = 0
            for has_gradient, run in groupby(map(self._has_gradient, ix)):
                n = len(list(run))
                if has_gradient:
                    lo, hi = offsets[k], offsets[k + n]
                    self._update_run(self.params[ix[k]:ix[k] + n],
                                     m[lo:hi], v[lo:hi], bc1, bc2)
                k += n

    def _has_gradient(self, i: int) -> bool:
        p = self.params[i]
        if p.grad is None:
            return False
        if not p.data.flags.c_contiguous:
            raise ConsistencyError(
                f"parameter {p.name or i} is no longer C-ordered")
        return True

    def _update_run(self, params: list[Tensor], m: np.ndarray, v: np.ndarray,
                    bc1: float, bc2: float) -> None:
        """Update consecutive parameters whose flat moments are `m` and `v`."""
        if len(params) == 1:
            w, g = params[0].data.reshape(-1), params[0].grad.reshape(-1)
        else:   # at most one block: gather, update, copy back
            w_buf, g_buf = (buf[:m.size] for buf in self._scratch[:2])
            w = np.concatenate([p.data for p in params], axis=None, out=w_buf)
            g = np.concatenate([p.grad for p in params], axis=None, out=g_buf)
        block = self._block
        for lo in range(0, g.size, block):
            hi = lo + block
            self._update(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], bc1, bc2)
        if len(params) > 1:
            lo = 0
            for p in params:
                p.data.reshape(-1)[:] = w[lo:lo + p.data.size]
                lo += p.data.size

    def _update(self, w: np.ndarray, g: np.ndarray, m: np.ndarray,
                v: np.ndarray, bc1: float, bc2: float) -> None:
        """The Adam update of one block, in place in `w`, `m` and `v`."""
        s1, s2 = (buf[:g.size] for buf in self._scratch[2:])
        m *= self.beta1                      # m <- b1*m + (1-b1)*g
        m += np.multiply(1.0 - self.beta1, g, out=s1)
        np.multiply(g, g, out=s1)            # v <- b2*v + (1-b2)*g^2
        s1 *= 1.0 - self.beta2
        v *= self.beta2
        v += s1
        np.divide(m, bc1, out=s1)            # lr * m_hat
        s1 *= self.lr
        np.divide(v, bc2, out=s2)            # sqrt(v_hat) + eps
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        w -= s1

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass
class GradCheckReport:
    """Max relative error per parameter block, plus the overall verdict."""
    per_block: dict = field(default_factory=dict)
    rel_tol: float = 1e-4

    @property
    def max_rel_error(self) -> float:
        return float(np.max(list(self.per_block.values()), initial=0.0))

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.rel_tol

    def __str__(self) -> str:
        lines = [f"{name}: max rel err {err:.3e}" for name, err in self.per_block.items()]
        lines.append(f"overall: {self.max_rel_error:.3e} "
                     f"({'PASS' if self.passed else 'FAIL'} at {self.rel_tol:g})")
        return "\n".join(lines)


def grad_check(loss_fn: Callable[[], Tensor],
               params: Sequence[tuple[str, Tensor]],
               h_scale: float = 1e-3,
               rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of `loss_fn` against central finite differences.

    `loss_fn` must rebuild the loss from the parameters' current values on
    every call. Per entry the step is h = h_scale * max(1, |value|) and the
    relative error is |fd - g| / max(1, |fd|, |g|); a NaN one fails.
    """
    for _, p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params}

    report = GradCheckReport(rel_tol=rel_tol)
    for name, p in params:
        flat = p.data.reshape(-1)
        errs = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            h = h_scale * max(1.0, abs(orig))
            with no_grad():
                flat[i] = orig + h
                up = loss_fn().item()
                flat[i] = orig - h
                down = loss_fn().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            g = analytic[name].reshape(-1)[i]
            errs[i] = abs(fd - g) / max(1.0, abs(fd), abs(g))
        report.per_block[name] = float(np.max(errs, initial=0.0))
    return report
