"""Fusion mechanisms against straight-line numpy oracles."""

import numpy as np
import pytest

from outfitrec.errors import DomainError
from outfitrec.fusion import (ConvAttentionParams, StackedAttentionParams,
                              StackedHopParams, attend_text, fuse_coattention,
                              fuse_dot_product, fuse_stacked,
                              init_coattention_params, init_stacked_params,
                              mfb)
from outfitrec.optim import grad_check
from outfitrec.tensor import Tensor, named_parameters, parameter

DG = 4


# -- independent oracles (plain numpy, loop-level transcriptions) -----------


def softmax_np(a):
    e = np.exp(a - a.max())
    return e / e.sum()


def oracle_dot(X, t):
    a = np.array([np.tanh(X[i]) @ np.tanh(t) for i in range(len(X))])
    alpha = softmax_np(a)
    c = np.zeros_like(t)
    for i in range(len(X)):
        c = c + alpha[i] * X[i]
    return np.concatenate([c, t])


def oracle_stacked(X, t, hops):
    q = t.copy()
    for (wv, wt, wp, bs) in hops:
        pre = wv @ X.T                       # (h, N)
        qvec = wt @ q + bs.ravel()           # (h,)
        s = np.tanh(pre + qvec[:, None])     # vector added to each column
        a = (wp @ s).ravel()
        alpha = softmax_np(a)
        q = q + alpha @ X
    return np.concatenate([q, t])


def oracle_conv_scores(rows, w1, b1, w2, b2):
    out = []
    for row in rows:
        hidden = np.maximum(w1 @ row + b1, 0.0)
        out.append(float((w2 @ hidden + b2)[0]))
    return np.array(out)


def oracle_attend_text(Y, cp):
    a = oracle_conv_scores(Y, cp.w1.data, cp.b1.data, cp.w2.data, cp.b2.data)
    alpha = softmax_np(a)
    return alpha @ Y


def oracle_signed_sqrt(z, eps=1e-8):
    return z * (z * z + eps) ** -0.25


def oracle_mfb(x, y, u, v, p):
    zx, zy = u @ x, v @ y
    z = zx * zy
    k = len(z) // p
    pooled = np.array([z[i * p:(i + 1) * p].sum() for i in range(k)])
    s = oracle_signed_sqrt(pooled)
    return s / np.sqrt((s * s).sum() + 1e-24)


def oracle_coattention(X, Y, P):
    c_t = oracle_attend_text(Y, P.text_attn)
    merged = np.stack([oracle_mfb(X[i], c_t, P.u_merge.data, P.v_merge.data,
                                  P.p) for i in range(len(X))])
    contexts = []
    for cp in P.visual_attn:
        a = oracle_conv_scores(merged, cp.w1.data, cp.b1.data,
                               cp.w2.data, cp.b2.data)
        contexts.append(softmax_np(a) @ merged)
    c_v = P.w_f.data @ np.concatenate(contexts)
    return oracle_mfb(c_v, c_t, P.u_final.data, P.v_final.data, P.p)


# -- dot product attention ---------------------------------------------------


class TestDotProduct:
    def test_single_region_passthrough(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, DG))
        t = rng.normal(size=DG)
        out = fuse_dot_product(Tensor(x), Tensor(t)).data
        np.testing.assert_allclose(out, np.concatenate([x[0], t]), atol=1e-12)

    def test_equal_scores_give_uniform_weights(self):
        x = np.stack([np.ones(DG), np.ones(DG)])
        weights = []
        fuse_dot_product(Tensor(x), Tensor(np.ones(DG)), weights_out=weights)
        np.testing.assert_allclose(weights[0].ravel(), [0.5, 0.5], atol=1e-12)

    def test_random_case_matches_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, DG))
        t = rng.normal(size=DG)
        np.testing.assert_allclose(fuse_dot_product(Tensor(x), Tensor(t)).data,
                                   oracle_dot(x, t), atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, DG))
        t = rng.normal(size=DG)
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            fuse_dot_product(Tensor(x), Tensor(t)).data,
            fuse_dot_product(Tensor(x[perm]), Tensor(t)).data, atol=1e-12)

    def test_empty_regions_rejected(self):
        with pytest.raises(DomainError):
            fuse_dot_product(Tensor(np.zeros((0, DG))), Tensor(np.zeros(DG)))


# -- stacked attention --------------------------------------------------------


def make_stacked(rng, hops, h=3):
    return init_stacked_params(rng, DG, h, hops)


class TestStacked:
    def test_zero_weights_degenerate(self):
        hop = StackedHopParams(w_v=parameter(np.zeros((3, DG))),
                               w_t=parameter(np.zeros((3, DG))),
                               w_p=parameter(np.random.default_rng(0)
                                             .normal(size=(1, 3))),
                               b_s=parameter(np.zeros((3, 1))))
        params = StackedAttentionParams(hops=[hop])
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, DG))
        t = rng.normal(size=DG)
        out = fuse_stacked(Tensor(x), Tensor(t), params).data
        expected = np.concatenate([t + x.mean(axis=0), t])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_two_hops_match_unrolled_oracle(self):
        rng = np.random.default_rng(4)
        params = make_stacked(rng, hops=2)
        x = rng.normal(size=(5, DG))
        t = rng.normal(size=DG)
        hops = [(h.w_v.data, h.w_t.data, h.w_p.data, h.b_s.data)
                for h in params.hops]
        np.testing.assert_allclose(
            fuse_stacked(Tensor(x), Tensor(t), params).data,
            oracle_stacked(x, t, hops), atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        params = make_stacked(rng, hops=2)
        x = rng.normal(size=(6, DG))
        t = rng.normal(size=DG)
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            fuse_stacked(Tensor(x), Tensor(t), params).data,
            fuse_stacked(Tensor(x[perm]), Tensor(t), params).data, atol=1e-12)


# -- text attention and MFB ---------------------------------------------------


class TestAttendText:
    def test_single_word_is_identity(self):
        rng = np.random.default_rng(6)
        from outfitrec.fusion import init_conv_attention
        cp = init_conv_attention(rng, DG, DG, "t")
        y = rng.normal(size=(1, DG))
        np.testing.assert_allclose(attend_text(Tensor(y), cp).data, y[0],
                                   atol=1e-12)

    def test_zero_weights_give_row_mean(self):
        cp = ConvAttentionParams(w1=parameter(np.zeros((DG, DG))),
                                 b1=parameter(np.zeros(DG)),
                                 w2=parameter(np.zeros((1, DG))),
                                 b2=parameter(np.zeros(1)))
        rng = np.random.default_rng(7)
        y = rng.normal(size=(5, DG))
        np.testing.assert_allclose(attend_text(Tensor(y), cp).data,
                                   y.mean(axis=0), atol=1e-12)

    def test_matches_per_row_linear_map_oracle(self):
        rng = np.random.default_rng(8)
        from outfitrec.fusion import init_conv_attention
        cp = init_conv_attention(rng, DG, DG, "t")
        y = rng.normal(size=(4, DG))
        np.testing.assert_allclose(attend_text(Tensor(y), cp).data,
                                   oracle_attend_text(y, cp), atol=1e-10)


class TestMfb:
    def test_p1_identity_slices(self):
        k = 6
        eye = parameter(np.eye(k))
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=k), rng.normal(size=k)
        out = mfb(Tensor(x.reshape(1, k)), Tensor(y.reshape(1, k)),
                  eye, eye, p=1).data[0]
        s = oracle_signed_sqrt(x * y)
        np.testing.assert_allclose(out, s / np.linalg.norm(s), atol=1e-10)

    def test_zero_input_gives_zero_output(self):
        k = 4
        eye = parameter(np.eye(k))
        out = mfb(Tensor(np.zeros((1, k))), Tensor(np.ones((1, k))),
                  eye, eye, p=1).data
        np.testing.assert_array_equal(out, np.zeros((1, k)))

    def test_group_sum_pooling_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        d, p = 8, 2
        k = 6
        u = parameter(rng.normal(size=(p * k, d)))
        v = parameter(rng.normal(size=(p * k, d)))
        x, y = rng.normal(size=d), rng.normal(size=d)
        out = mfb(Tensor(x.reshape(1, d)), Tensor(y.reshape(1, d)),
                  u, v, p=p).data[0]
        np.testing.assert_allclose(out, oracle_mfb(x, y, u.data, v.data, p),
                                   atol=1e-10)


# -- co-attention --------------------------------------------------------------


def make_coatt(rng, hops=2, p=2):
    return init_coattention_params(rng, DG, hops, p)


class TestCoattention:
    def test_single_region_singleton_weights(self):
        rng = np.random.default_rng(11)
        params = make_coatt(rng)
        x = rng.normal(size=(1, DG))
        y = rng.normal(size=(2, DG))
        weights = []
        fuse_coattention(Tensor(x), Tensor(y), params, weights_out=weights)
        # weights: [text, hop1, hop2]; both visual hops are singleton
        for alpha in weights[1:]:
            np.testing.assert_allclose(alpha.ravel(), [1.0], atol=1e-12)

    def test_single_hop_identity_fuse_matrix(self):
        rng = np.random.default_rng(12)
        params = make_coatt(rng, hops=1)
        params.w_f = parameter(np.eye(2 * DG))
        x = rng.normal(size=(3, DG))
        y = rng.normal(size=(2, DG))
        out = fuse_coattention(Tensor(x), Tensor(y), params).data
        np.testing.assert_allclose(out, oracle_coattention(x, y, params),
                                   atol=1e-10)

    def test_small_random_instance_matches_straight_line_oracle(self):
        rng = np.random.default_rng(13)
        params = make_coatt(rng, hops=2, p=2)
        x = rng.normal(size=(3, DG))
        y = rng.normal(size=(2, DG))
        np.testing.assert_allclose(fuse_coattention(Tensor(x), Tensor(y),
                                                    params).data,
                                   oracle_coattention(x, y, params),
                                   atol=1e-10)

    def test_region_permutation_leaves_output_unchanged(self):
        rng = np.random.default_rng(14)
        params = make_coatt(rng)
        x = rng.normal(size=(5, DG))
        y = rng.normal(size=(3, DG))
        perm = rng.permutation(5)
        np.testing.assert_allclose(
            fuse_coattention(Tensor(x), Tensor(y), params).data,
            fuse_coattention(Tensor(x[perm]), Tensor(y), params).data,
            atol=1e-12)

    def test_empty_inputs_rejected(self):
        rng = np.random.default_rng(15)
        params = make_coatt(rng)
        with pytest.raises(DomainError):
            fuse_coattention(Tensor(np.zeros((0, DG))),
                             Tensor(np.zeros((2, DG))), params)
        with pytest.raises(DomainError):
            fuse_coattention(Tensor(np.zeros((2, DG))),
                             Tensor(np.zeros((0, DG))), params)


# -- shared invariants ----------------------------------------------------------


def all_fused_outputs(rng):
    x = rng.normal(size=(5, DG))
    t = rng.normal(size=DG)
    y = rng.normal(size=(3, DG))
    stacked = make_stacked(rng, hops=2)
    coatt = make_coatt(rng)
    collected = {}
    for name, out in [
            ("dot", fuse_dot_product(Tensor(x), Tensor(t),
                                     weights_out=(wd := []))),
            ("stacked", fuse_stacked(Tensor(x), Tensor(t), stacked,
                                     weights_out=(ws := []))),
            ("coatt", fuse_coattention(Tensor(x), Tensor(y), coatt,
                                       weights_out=(wc := [])))]:
        collected[name] = out
    return collected, [wd, ws, wc]


def test_outputs_have_dimension_2dg_and_are_finite():
    outs, _ = all_fused_outputs(np.random.default_rng(16))
    for out in outs.values():
        assert out.shape == (2 * DG,)
        assert np.all(np.isfinite(out.data))


def test_attention_weights_live_on_the_simplex():
    _, weight_lists = all_fused_outputs(np.random.default_rng(17))
    checked = 0
    for weights in weight_lists:
        for alpha in weights:
            assert np.all(alpha >= 0)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
            checked += 1
    assert checked >= 6  # dot:1, stacked:2 hops, coatt: text + 2 hops


def test_batched_results_equal_per_item_results():
    rng = np.random.default_rng(18)
    stacked = make_stacked(rng, hops=2)
    coatt = make_coatt(rng)
    xb = rng.normal(size=(3, 5, DG))
    tb = rng.normal(size=(3, DG))
    yb = rng.normal(size=(3, 4, DG))
    batched = {
        "dot": fuse_dot_product(Tensor(xb), Tensor(tb)).data,
        "stacked": fuse_stacked(Tensor(xb), Tensor(tb), stacked).data,
        "coatt": fuse_coattention(Tensor(xb), Tensor(yb), coatt).data,
    }
    for i in range(3):
        np.testing.assert_allclose(
            batched["dot"][i],
            fuse_dot_product(Tensor(xb[i]), Tensor(tb[i])).data, atol=1e-12)
        np.testing.assert_allclose(
            batched["stacked"][i],
            fuse_stacked(Tensor(xb[i]), Tensor(tb[i]), stacked).data,
            atol=1e-12)
        np.testing.assert_allclose(
            batched["coatt"][i],
            fuse_coattention(Tensor(xb[i]), Tensor(yb[i]), coatt).data,
            atol=1e-12)


class TestFuserGradients:
    """Output-norm gradients of each fuser pass the finite-difference check."""

    def test_stacked_parameters(self):
        rng = np.random.default_rng(19)
        params = make_stacked(rng, hops=2)
        x, t = rng.normal(size=(4, DG)), rng.normal(size=DG)

        def loss():
            out = fuse_stacked(Tensor(x), Tensor(t), params)
            return (out * out).sum()

        report = grad_check(loss, named_parameters(params), h_scale=1e-6)
        assert report.passed, str(report)

    def test_coattention_parameters(self):
        rng = np.random.default_rng(20)
        params = make_coatt(rng)
        x, y = rng.normal(size=(3, DG)), rng.normal(size=(2, DG))

        def loss():
            out = fuse_coattention(Tensor(x), Tensor(y), params)
            return (out * out).sum()

        report = grad_check(loss, named_parameters(params), h_scale=1e-6)
        assert report.passed, str(report)

    def test_dot_product_inputs(self):
        rng = np.random.default_rng(21)
        x = parameter(rng.normal(size=(4, DG)))
        t = parameter(rng.normal(size=DG))

        def loss():
            out = fuse_dot_product(x, t)
            return (out * out).sum()

        report = grad_check(loss, [("x", x), ("t", t)], h_scale=1e-6)
        assert report.passed, str(report)
