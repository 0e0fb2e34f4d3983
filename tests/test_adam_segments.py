"""Adam's packed segments: the same values as a per-parameter update."""

import numpy as np

from outfitrec import optim
from outfitrec.optim import Adam
from outfitrec.tensor import parameter


def test_segmented_steps_match_per_parameter_reference(monkeypatch):
    """With 8-element blocks the parameters form the segments [0, 1, 2],
    [3, 4], [5] (20 elements: three blocks) and [6, 7, 8]. Steps without
    some gradients split the segments into runs of one or more parameters.
    Five steps equal a per-parameter update bit for bit, and a parameter
    without a gradient keeps its value and moments."""
    monkeypatch.setattr(optim, "ADAM_BLOCK", 8)
    lr, b1, b2, eps = 0.3, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(6)
    shapes = [(2,), (3,), (1, 3), (5,), (2,), (4, 5), (1,), (1,), (2, 2)]
    params = [parameter(rng.normal(size=s)) for s in shapes]
    absent_at = [set(), {1}, {0, 4}, {3, 6, 7}, {1, 2}]
    buffers = [p.data for p in params]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    assert [ix for ix, *_ in opt._segments] == [[0, 1, 2], [3, 4], [5],
                                                 [6, 7, 8]]
    for t, absent in enumerate(absent_at, start=1):
        for i, p in enumerate(params):
            if i in absent:
                p.grad = None
                continue
            g = rng.normal(size=p.shape)
            p.grad = g.copy()
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g ** 2
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        kept = {i: (params[i].data.copy(), opt.m[i].copy(), opt.v[i].copy())
                for i in absent}
        opt.step()
        for i, (w_i, m_i, v_i) in kept.items():
            assert params[i].data.tobytes() == w_i.tobytes()
            assert opt.m[i].tobytes() == m_i.tobytes()
            assert opt.v[i].tobytes() == v_i.tobytes()
    for i, p in enumerate(params):
        np.testing.assert_array_equal(p.data, ref[i])
        np.testing.assert_array_equal(opt.m[i], m[i])
        np.testing.assert_array_equal(opt.v[i], v[i])
        assert p.data is buffers[i]
