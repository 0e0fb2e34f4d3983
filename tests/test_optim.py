"""Adam update rule and the finite-difference gradient checker."""

import numpy as np
import pytest

from outfitrec import optim
from outfitrec.errors import ConsistencyError
from outfitrec.optim import Adam, grad_check
from outfitrec.tensor import Tensor, parameter


def test_zero_gradient_leaves_parameters_unchanged():
    p = parameter([1.5, -2.0])
    p.grad = np.zeros(2)
    Adam([p], lr=0.1).step()
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_single_step_matches_closed_form():
    # one scalar parameter, constant gradient 1.0:
    # m = 0.1, v = 0.001, m_hat = 1, v_hat = 1
    # => p - lr * 1 / (1 + eps)
    lr, eps = 0.01, 1e-8
    p = parameter([3.0])
    p.grad = np.array([1.0])
    Adam([p], lr=lr, eps=eps).step()
    expected = 3.0 - lr * 1.0 / (1.0 + eps)
    assert p.data[0] == pytest.approx(expected, abs=1e-15)


def test_identical_parameters_stay_identical():
    a = parameter([0.7, -0.3])
    b = parameter([0.7, -0.3])
    opt = Adam([a, b], lr=0.05)
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.normal(size=2)
        a.grad, b.grad = g.copy(), g.copy()
        opt.step()
    np.testing.assert_array_equal(a.data, b.data)


def test_steps_match_textbook_update():
    rng = np.random.default_rng(3)
    assert_textbook_update(rng, [parameter(rng.normal(size=(3, 4))),
                                 parameter(rng.normal(size=5))])


def test_blocked_steps_match_textbook_update(monkeypatch):
    """Parameters of several blocks plus a remainder, one exact block, and
    one smaller than a block; a transposed array becomes a C-ordered leaf."""
    monkeypatch.setattr(optim, "ADAM_BLOCK", 4)
    rng = np.random.default_rng(4)
    assert_textbook_update(rng, [
        parameter(rng.normal(size=(3, 5))), parameter(rng.normal(size=4)),
        parameter(rng.normal(size=(2, 7)).T), parameter(rng.normal(size=3)),
        parameter(rng.normal(size=(2, 3, 3)))])


def test_non_contiguous_parameter_rejected(monkeypatch):
    """A reshape copy of a strided buffer would drop its update, so Adam
    refuses one when it is built or when it steps."""
    p = Tensor(np.zeros((3, 4)).T, requires_grad=True, name="w_t")
    with pytest.raises(ConsistencyError, match="w_t"):
        Adam([p])
    monkeypatch.setattr(optim, "ADAM_BLOCK", 4)
    q = parameter(np.zeros((3, 4)), name="w")
    opt = Adam([q])
    q.data = np.asfortranarray(q.data)
    q.grad = np.ones((3, 4))
    with pytest.raises(ConsistencyError, match="w"):
        opt.step()


def assert_textbook_update(rng, params):
    """Five Adam steps on `params` equal the textbook update bit for bit,
    in place in each parameter's own array."""
    lr, b1, b2, eps = 0.3, 0.9, 0.999, 1e-8
    buffers = [p.data for p in params]
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 6):
        for i, p in enumerate(params):
            g = rng.normal(size=p.shape)
            p.grad = g.copy()
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g ** 2
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
    for p, r, buf in zip(params, ref, buffers):
        np.testing.assert_array_equal(p.data, r)
        assert p.data is buf


def test_parameter_without_gradient_is_skipped():
    p = parameter([1.0], name="w")
    Adam([p]).step()
    np.testing.assert_array_equal(p.data, [1.0])


def test_step_counter_strictly_increases():
    p = parameter([1.0])
    opt = Adam([p], lr=0.1)
    for expected in (1, 2, 3):
        p.grad = np.array([0.5])
        opt.step()
        assert opt.t == expected


def test_grad_check_quadratic():
    rng = np.random.default_rng(1)
    p = parameter(rng.normal(size=(4, 3)))
    report = grad_check(lambda: (p * p).sum() * 0.5, [("p", p)], h_scale=1e-3)
    assert report.max_rel_error < 1e-8


def test_grad_check_constant_loss_reports_zero_gradients():
    p = parameter([1.0, 2.0])
    report = grad_check(lambda: Tensor([0.0]).sum() + p.sum() * 0.0,
                        [("p", p)], h_scale=1e-3)
    assert report.max_rel_error == 0.0
    assert report.passed


def test_grad_check_flags_wrong_gradient():
    # a gradient-free view of one factor halves the tape gradient
    # relative to the true one
    p = parameter([1.0, -2.0])
    report = grad_check(lambda: (Tensor(p.data) * p).sum(), [("p", p)],
                        h_scale=1e-3)
    assert not report.passed



def nan_gradient(p):
    """`p.sum()` on a tape whose backward writes NaN into `p`'s gradient."""
    return Tensor._result(p.data.sum(), (p,),
                          lambda g: p._accumulate(np.full(p.shape, np.nan)))


def test_grad_check_fails_on_nan_gradient():
    # the NaN block comes second: a plain max() over the blocks keeps the
    # first of (finite, NaN) and would report the finite error
    p = parameter([1.0, 2.0])
    q = parameter([3.0])
    report = grad_check(lambda: (q * q).sum() + nan_gradient(p),
                        [("q", q), ("p", p)])
    assert np.isnan(report.per_block["p"])
    assert np.isnan(report.max_rel_error)
    assert not report.passed


def test_grad_check_fails_on_nan_loss_at_a_perturbed_point():
    p = parameter([1.0, 0.0])

    def loss():
        value = (p * p).sum()
        return value * np.nan if p.data[1] > 0 else value

    report = grad_check(loss, [("p", p)])
    assert np.isnan(report.per_block["p"])
    assert not report.passed
