"""Adam optimizer and a finite-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass, field
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

    Every parameter is updated in flat blocks of `ADAM_BLOCK` elements
    (read when the optimizer is built), through views of its C-ordered
    buffer; the values are those of one whole-array pass.
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
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # two flat scratch buffers of one block
        self._block = ADAM_BLOCK
        size = min(max((p.data.size for p in self.params), default=0),
                   self._block)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self) -> None:
        """Apply one update. Parameters without a gradient (absent from
        this step's loss) are left untouched."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        block = self._block
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not p.data.flags.c_contiguous:
                raise ConsistencyError(
                    f"parameter {p.name or i} is no longer C-ordered")
            w, g = p.data.reshape(-1), g.reshape(-1)
            m, v = self.m[i].reshape(-1), self.v[i].reshape(-1)
            for lo in range(0, g.size, block):
                hi = lo + block
                self._update(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], bc1, bc2)

    def _update(self, w: np.ndarray, g: np.ndarray, m: np.ndarray,
                v: np.ndarray, bc1: float, bc2: float) -> None:
        """The Adam update of one block, in place in `w`, `m` and `v`."""
        s1, s2 = (buf[:g.size] for buf in self._scratch)
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
