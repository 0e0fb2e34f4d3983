"""Tensor primitives against independent oracles and their invariants."""

import ast
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outfitrec import tensor
from outfitrec.compatibility import (COMP, SIM, VSE, LossWeights,
                                     training_loss, triplet_loss)
from outfitrec.errors import DimensionError, DomainError
from outfitrec.fusion import mfb
from outfitrec.model import FUSION_KINDS, ModelDims, init_model
from outfitrec.optim import grad_check
from outfitrec.tensor import (Tensor, attention_pool, concat,
                              grouped_projection, linear, loss_head, mfb_pool,
                              parameter, pool_rows, role_cosines, softmax,
                              take_rows)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_stability_no_overflow(self):
        out = softmax(Tensor([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_against_extended_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 50
        vals = [1.0, 2.0, 3.0]
        exps = [mpmath.e ** v for v in vals]
        total = sum(exps)
        expected = [float(e / total) for e in exps]
        np.testing.assert_allclose(softmax(Tensor(vals)).data, expected,
                                   rtol=1e-14)

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            softmax(Tensor(np.zeros(0)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
           st.floats(-100, 100))
    def test_normalization_and_shift_invariance(self, vals, shift):
        base = softmax(Tensor(vals)).data
        assert base.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(base > 0)
        shifted = softmax(Tensor([v + shift for v in vals])).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)


def cos_table(a, b):
    return role_cosines(Tensor(a), Tensor(b)).data


class TestRoleCosines:
    def test_identity(self):
        v = np.array([[1.0, 2.0, -3.0]])
        assert cos_table(v, v)[0, 0] == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cos_table([[1.0, 0.0], [1.0, 1.0]],
                         [[0.0, 1.0], [1.0, -1.0]])[[0, 1], [0, 1]] \
            == pytest.approx([0.0, 0.0])

    def test_every_entry_is_the_per_pair_cosine_bit_for_bit(self):
        """Entry (i, j, b) is the cosine of a[i, b] and b[j, b] computed on
        its own, with the same products and sums."""
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 3, 4, 37))   # past numpy's 8-wide unroll
        for x_stack, y_stack in ((a, a), (a, b)):
            got = cos_table(x_stack, y_stack)
            assert got.shape == (3, 3, 4)
            for i, j, k in np.ndindex(got.shape):
                x, y = x_stack[i, k], y_stack[j, k]
                want = (x * y).sum() / (np.sqrt((x * x).sum())
                                        * np.sqrt((y * y).sum()))
                assert got[i, j, k] == want

    @pytest.mark.parametrize("same", [True, False], ids=["a_is_b", "a_not_b"])
    def test_zero_row_rejected(self, same):
        a = np.ones((3, 2, 4))
        a[2, 1] = 0.0
        b = a if same else np.ones((3, 2, 4))
        with pytest.raises(DomainError, match="zero vector"):
            role_cosines(Tensor(a), Tensor(b))
        with pytest.raises(DomainError, match="zero vector"):
            role_cosines(Tensor(b), Tensor(a))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 2, 4), (3, 2, 5)), ((3, 2, 4), (2, 2, 4)), ((3, 2, 4), (3, 4)),
        ((4,), (4,))], ids=["width", "roles", "batch", "one_dim"])
    def test_shape_mismatch_rejected(self, a_shape, b_shape):
        with pytest.raises(DimensionError, match="role_cosines"):
            role_cosines(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 100), st.floats(0.01, 100))
    def test_symmetry_bound_and_scale_invariance(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 5)) + 0.01
        c = cos_table(x, x)
        assert c[0, 1] == pytest.approx(c[1, 0], abs=1e-12)
        assert np.all(np.abs(c) <= 1.0 + 1e-12)
        scaled = cos_table(np.stack([alpha * x[0], beta * x[1]]),
                           np.stack([beta * x[1], alpha * x[0]]))
        assert scaled[0, 0] == pytest.approx(c[0, 1], abs=1e-9)


class TestElementwise:
    def test_tanh_relu_basics(self):
        assert Tensor([0.0]).tanh().item() == 0.0
        assert Tensor([-3.0]).relu().item() == 0.0
        assert Tensor([3.0]).relu().item() == 3.0

    def test_column_broadcast_add_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(4, 3))
        vec = rng.normal(size=4)
        out = (Tensor(mat) + Tensor(vec.reshape(4, 1))).data
        expected = mat.copy()
        for col in range(3):
            for row in range(4):
                expected[row, col] = mat[row, col] + vec[row]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_non_broadcastable_shapes_rejected(self):
        with pytest.raises(ValueError):
            _ = Tensor(np.zeros((4, 3))) + Tensor(np.zeros((5, 2)))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 4)) * 100)
        for out in (x.tanh(), x.relu(), softmax(x), mfb_pool(x, x, 2)):
            assert np.all(np.isfinite(out.data))


def mfb_pool_oracle(x, y, p):
    """`mfb_pool` one output row at a time, in Python floats."""
    full = np.broadcast_shapes(x.shape, y.shape)
    x, y, rows = np.broadcast_to(x, full), np.broadcast_to(y, full), full[:-1]
    out = np.empty(rows + (full[-1] // p,))
    for idx in np.ndindex(*rows):
        pooled = [sum(x[idx][j + i] * y[idx][j + i] for i in range(p))
                  for j in range(0, x.shape[-1], p)]
        s = [z * (z * z + 1e-8) ** -0.25 for z in pooled]
        norm = math.sqrt(sum(v * v for v in s) + 1e-24)
        out[idx] = [v / norm for v in s]
    return out


class TestMfbPool:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_matches_loop_oracle(self, p):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(2, 4, 5 * p)), rng.normal(size=(2, 1, 5 * p))
        x[1, 2, :p] = 0.0   # a pooled entry at 0 maps to 0
        got = mfb_pool(Tensor(x), Tensor(y), p).data
        assert got.shape == (2, 4, 5) and got[1, 2, 0] == 0.0
        np.testing.assert_allclose(got, mfb_pool_oracle(x, y, p),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(got, axis=-1), 1.0,
                                   rtol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
    def test_bits_match_reshape_sum_reference(self, p):
        """Below 8 terms a group, strided pooling gives the bits of numpy's
        sum over the groups, and the backward, which reuses the forward's
        squares and writes each factor's gradient term by term of a group,
        those of one that recomputes them and repeats the per-group
        gradient p times; with either factor broadcast over the rows, at
        the acceptance batch's (351, 8) leading shape too, and +0.0 and
        -0.0 products among the pooled terms."""
        for lead, swap in product([(6, 8), (351, 8)], [False, True]):
            self.check_reshape_sum_bits(p, lead, swap)

    @staticmethod
    def check_reshape_sum_bits(p, lead, swap):
        rng = np.random.default_rng(p)
        k = 16
        x = rng.normal(size=lead + (k * p,))
        y = rng.normal(size=(lead[0], 1, k * p))
        x[0, 0, :p] = 0.0                    # +0.0 products only
        x[1, 2, :p], y[1, 0, :p] = -0.0, 1.0     # -0.0 products only
        x[2, 3, :2 * p:2] = -0.0             # a mix of signed zeros
        g = rng.normal(size=lead + (k,))
        g[3, 1, :4] = 0.0                    # zero upstream gradients
        if swap:
            x, y = y, x

        z = x * y
        pooled = z.reshape(lead + (k, p)).sum(axis=-1)
        s = pooled * (pooled ** 2 + 1e-8) ** -0.25
        norm = np.sqrt((s * s).sum(axis=-1, keepdims=True) + 1e-24)
        c = (-g * s / norm ** 2).sum(axis=-1, keepdims=True) * 0.5 / norm
        g_z = np.repeat((g / norm + c * s + c * s)
                        * (0.5 * pooled ** 2 + 1e-8)
                        * (pooled ** 2 + 1e-8) ** -1.25, p, axis=-1)
        g_x, g_y = g_z * y, g_z * x
        if swap:
            g_x = g_x.sum(axis=1, keepdims=True)
        else:
            g_y = g_y.sum(axis=1, keepdims=True)
        want = [s / norm, g_x, g_y]

        tx, ty = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
        (mfb_pool(tx, ty, p) * Tensor(g)).sum().backward()
        got = [mfb_pool(Tensor(x), Tensor(y), p).data, tx.grad, ty.grad]
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_same_factor_gradient_sums_both_terms(self):
        """`mfb_pool(x, x, p)`: x's gradient is its two factors' terms."""
        rng = np.random.default_rng(5)
        x = parameter(rng.normal(size=(3, 2, 8)))
        g = rng.normal(size=(3, 2, 4))
        (mfb_pool(x, x, 2) * Tensor(g)).sum().backward()
        twin = parameter(x.data.copy())
        (mfb_pool(Tensor(x.data), twin, 2) * Tensor(g)).sum().backward()
        np.testing.assert_array_equal(x.grad, twin.grad + twin.grad)

    def test_vanishing_row_maps_to_zero(self):
        out = mfb_pool(Tensor(np.zeros((2, 4))), Tensor(np.ones((2, 4))), 2)
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    @pytest.mark.parametrize("call, error", [
        (lambda x, w: mfb_pool(x, x, 4), DimensionError),
        (lambda x, w: mfb_pool(x, x, 0), DomainError),
        (lambda x, w: mfb_pool(x, x, 1.5), DomainError),
        (lambda x, w: mfb_pool(x, Tensor(np.ones((2, 4))), 2), DimensionError),
        (lambda x, w: mfb(x, x, w, w, 0), DomainError),
        (lambda x, w: mfb(x, x, w, w, -2), DomainError),
        (lambda x, w: mfb(x, x, w, w, 4), DimensionError),
    ], ids=["width_not_divisible", "p_zero", "p_float", "widths_differ",
            "mfb_p_zero", "mfb_p_negative", "mfb_width_not_divisible"])
    def test_bad_factor_or_widths_rejected(self, call, error):
        """The factor rule lives in `mfb_pool`; `fusion.mfb` reaches it."""
        x, w = Tensor(np.ones((2, 6))), Tensor(np.ones((6, 6)))
        with pytest.raises(error, match="mfb_pool"):
            call(x, w)


class TestAttentionPool:
    SHAPES = [(6, 4), (5, 6, 4), (2, 3, 6, 4)]   # 0, 1 and 2 leading axes
    IDS = ["no_lead", "one_lead", "two_lead"]

    @pytest.mark.parametrize("shape", SHAPES, ids=IDS)
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(13)
        alpha = parameter(rng.normal(size=shape[:-1]))
        rows = parameter(rng.normal(size=shape))
        c = rng.normal(size=shape[:-2] + shape[-1:])
        report = grad_check(lambda: (attention_pool(alpha, rows) * c).sum(),
                            [("alpha", alpha), ("rows", rows)],
                            h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("shape", SHAPES + [
        (8, 6, 32), (128, 8, 32), (44, 8, 1024), (351, 8, 64)])
    def test_bit_equal_to_row_matrix_products(self, shape):
        """Forward and both gradients are the `np.matmul` products of the
        (..., 1, K) weight row that the training graph always used; an
        einsum version gives other bits on these shapes."""
        rng = np.random.default_rng(14)
        alpha = parameter(rng.dirichlet(np.ones(shape[-2]), size=shape[:-2]))
        rows = parameter(rng.normal(size=shape))
        g = rng.normal(size=shape[:-2] + shape[-1:])
        out = attention_pool(alpha, rows)
        (out * g).sum().backward()

        a = alpha.data.reshape(shape[:-2] + (1, shape[-2]))
        g_row = g.reshape(shape[:-2] + (1, shape[-1]))
        want_alpha = np.matmul(g_row, rows.data.swapaxes(-1, -2))
        np.testing.assert_array_equal(
            out.data, np.matmul(a, rows.data).reshape(g.shape))
        np.testing.assert_array_equal(alpha.grad,
                                      want_alpha.reshape(alpha.shape))
        np.testing.assert_array_equal(rows.grad,
                                      np.matmul(a.swapaxes(-1, -2), g_row))

    @pytest.mark.parametrize("shape", SHAPES + [(351, 8, 64), (44, 8, 1024)])
    def test_rows_gradient_keeps_the_matmul_zero_signs(self, shape):
        """The rows gradient, an outer product since the inner dimension
        is 1, has the bits of the `np.matmul` it replaced, signed zeros
        too: a matmul sums from +0.0, so a -0.0 product comes out +0.0."""
        rng = np.random.default_rng(15)
        a = rng.dirichlet(np.ones(shape[-2]), size=shape[:-2])
        a[..., 0], a[..., 1] = 0.0, -0.0
        g = rng.normal(size=shape[:-2] + shape[-1:])
        g[..., 0], g[..., 1] = 0.0, -0.0
        g[..., 2] *= 1e-300                 # products that underflow
        alpha, rows = Tensor(a), parameter(rng.normal(size=shape))
        (attention_pool(alpha, rows) * Tensor(g)).sum().backward()
        a_row = a.reshape(shape[:-2] + (1, shape[-2]))
        g_row = g.reshape(shape[:-2] + (1, shape[-1]))
        want = np.matmul(a_row.swapaxes(-1, -2), g_row)
        assert np.signbit(a_row.swapaxes(-1, -2) * g_row).sum() > np.signbit(
            want).sum()   # the case occurs: a bare product keeps -0.0
        np.testing.assert_array_equal(rows.grad.view(np.uint64),
                                      want.view(np.uint64))

    @pytest.mark.parametrize("alpha_shape, rows_shape", [
        ((3,), (3,)), ((2, 4), (2, 3, 5)), ((4,), (2, 4, 5)),
        ((2, 1, 4), (2, 4, 5))], ids=["1d_rows", "k", "batch", "extra_axis"])
    def test_shape_mismatch_rejected(self, alpha_shape, rows_shape):
        with pytest.raises(DimensionError, match="attention_pool"):
            attention_pool(Tensor(np.ones(alpha_shape)),
                           Tensor(np.ones(rows_shape)))


@pytest.mark.parametrize("axis", [(0, 1), (-1, -2)],
                         ids=["leading", "trailing"])
def test_mean_over_axis_tuple_matches_numpy(axis):
    x = np.random.default_rng(9).normal(size=(2, 3, 4))
    np.testing.assert_allclose(Tensor(x).mean(axis=axis).data,
                               np.mean(x, axis=axis), rtol=1e-15, atol=0)


class TestGradients:
    """Tape gradients of each differentiable primitive vs central FD
    at h = 1e-3 * max(1, |p|), rel err < 1e-4 (smooth compositions)."""

    def _check(self, make_loss, shape, seed=0):
        rng = np.random.default_rng(seed)
        p = parameter(rng.normal(size=shape))
        report = grad_check(lambda: make_loss(p), [("p", p)],
                            h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

    def test_softmax(self):
        self._check(lambda p: (softmax(p)
                               * Tensor(np.arange(6.0).reshape(2, 3))).sum(),
                    (2, 3))

    def test_tanh_mul(self):
        self._check(lambda p: (p.tanh() * p * (p * p + 2.0)).sum(), (3, 3))

    def test_sum_mean_reshape(self):
        self._check(lambda p: (p.reshape(4, 3).reshape(12).mean()
                               + p.sum(axis=0).sum()), (3, 4))

    def test_mean_over_axis_tuples(self):
        w, v = Tensor(np.arange(4.0)), Tensor(np.array([1.0, -2.0]))
        self._check(lambda p: (p.mean(axis=(0, 1)).tanh() * w).sum()
                    + (p.mean(axis=(-1, -2)).tanh() * v).sum(), (2, 3, 4))

    def test_concat_slices(self):
        def loss(p):
            c = concat([p, p * 2.0], axis=-1)   # (3, 4)
            flat = c.reshape(12)   # c[0, ::2] and c[2, 1::2] below
            return ((take_rows(c, [1, 2]) * take_rows(c, [0, 1])).sum()
                    + (take_rows(flat, [0, 2])
                       * take_rows(flat, [9, 11])).sum())
        self._check(loss, (3, 2))

    def test_role_cosines_of_one_stack(self):
        w = Tensor(np.random.default_rng(2).normal(size=(3, 3, 2)))
        self._check(lambda p: (role_cosines(p, p) * w).sum(), (3, 2, 4))

    def test_role_cosines_of_two_stacks(self):
        rng = np.random.default_rng(3)
        p = parameter(rng.normal(size=(3, 2, 4)))
        q = parameter(rng.normal(size=(3, 2, 4)))
        w = Tensor(rng.normal(size=(3, 3, 2)))
        report = grad_check(lambda: (role_cosines(p, q) * w).sum(),
                            [("p", p), ("q", q)], h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("x_shape, y_shape", [
        ((2, 3), (2, 1)),    # region rows against one broadcast text row
        ((2,), (2,)),        # the final merge of two vectors per item
    ], ids=["merge", "final"])
    def test_mfb_pool(self, x_shape, y_shape, p):
        """Both operands, with a pooled entry at 0, where the signed root's
        slope is 1e-8 ** -0.25 = 100 and its curvature is steep: steps of
        1e-7 stay on its linear part."""
        rng = np.random.default_rng(12)
        x = parameter(rng.normal(size=x_shape + (3 * p,)))
        y = parameter(rng.normal(size=y_shape + (3 * p,)))
        x.data[(0,) * len(x_shape)][:p] = 0.0
        w = Tensor(rng.normal(size=x_shape + (3,)))
        report = grad_check(lambda: (mfb_pool(x, y, p) * w).sum(),
                            [("x", x), ("y", y)], h_scale=1e-7, rel_tol=1e-4)
        assert report.passed, str(report)

    def test_pool_rows(self):
        self._check(lambda p: (pool_rows(p) * pool_rows(p)).sum(), (5, 3))

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((5, 2, 4), (3, 4)),       # batched @ transposed 2-D weight
        ((6, 4), (3, 4)),          # 2-D @ transposed 2-D weight
    ], ids=["batched_at_weight_t", "2d_at_weight_t"])
    def test_matmul_operand_gradients(self, a_shape, b_shape):
        rng = np.random.default_rng(5)
        a = parameter(rng.normal(size=a_shape))
        b = parameter(rng.normal(size=b_shape))
        c = rng.normal(size=linear(a, b).shape)
        loss = lambda: (linear(a, b) * c).sum()
        report = grad_check(loss, [("a", a), ("b", b)],
                            h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

        ref_a, ref_b = per_sample_grads(a.data, b.data.T, c)
        ref_b = ref_b.T
        # a strided weight gradient once doubled the d=512 Adam step
        for got, ref in ((a.grad, ref_a), (b.grad, ref_b)):
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(6, 4), (2, 3, 4)],
                             ids=["2d", "batched"])
    def test_matches_matmul_on_transposed_weight(self, x_shape):
        rng = np.random.default_rng(9)
        x = parameter(rng.normal(size=x_shape))
        w = parameter(rng.normal(size=(5, 4)))
        c = rng.normal(size=x_shape[:-1] + (5,))
        report = grad_check(lambda: (linear(x, w) * c).sum(),
                            [("x", x), ("w", w)], h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

        x.zero_grad()
        w.zero_grad()
        out = linear(x, w)
        (out * c).sum().backward()
        rows, g = x.data.reshape(-1, 4), c.reshape(-1, 5)
        np.testing.assert_allclose(out.data, x.data @ w.data.T,
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(x.grad, c @ w.data, rtol=1e-13, atol=0)
        np.testing.assert_allclose(w.grad, g.T @ rows, rtol=1e-13, atol=0)
        # the weight gradient is one GEMM in the weight's own layout, adopted
        # by the leaf without a copy
        assert w.grad.flags.c_contiguous
        assert w.grad.base is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="linear"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        with pytest.raises(DimensionError, match="linear"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 2, 3))))

    @pytest.mark.parametrize("fusion", FUSION_KINDS)
    def test_training_graph_has_no_weight_transposes(self, fusion):
        """Every learned map is `linear(x, W)`, and the type-pair spaces are
        one `grouped_projection`: no other node reads a weight matrix, so
        no weight's gradient passes through a transposed copy."""
        model, loss = tiny_training_loss(fusion)
        weights = {id(t) for name, t in model.parameters()
                   if t.ndim == 2 and not name.endswith(".b_s")}
        readers = {n._backward.__qualname__.split(".")[0]
                   for n in graph_nodes(loss)
                   if any(id(p) in weights for p in n._parents)}
        assert readers <= {"linear", "grouped_projection"}
        assert "linear" in readers


def tiny_training_loss(fusion):
    """A d_g=6 model of `fusion` and its training loss on two triplets."""
    dims = ModelDims(d_g=6, d_c=5, h=4, hops=2, mfb_factor=2,
                     region_dim=3, word_dim=4)
    model = init_model(fusion, dims, {("tops", "shoes")}, seed=0)
    rng = np.random.default_rng(10)
    groups = {("shoes", "tops"): np.array([[0, 1], [1, 2], [2, 0]])}
    return model, training_loss(model, rng.normal(size=(3, 2, 3)),
                                rng.normal(size=(3, 3, 4)), groups,
                                LossWeights())


def test_every_tape_op_is_reached_by_a_training_graph():
    """Each function or method of tensor.py that calls `Tensor._result`
    records its backward closure in some fuser's training graph, or in the
    graph of `triplet_loss`, the per-triplet loss the acceptance oracle
    reads (since `loss_head` computes the training terms, `role_cosines`
    and `Tensor.relu` are reached only there): an op that no graph
    reaches is dead code and should be deleted."""
    def records(fn):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "_result"
                   and isinstance(n.func.value, ast.Name)
                   and n.func.value.id == "Tensor" for n in ast.walk(fn))

    body = ast.parse(Path(tensor.__file__).read_text()).body
    defs = [(f.name, f) for f in body if isinstance(f, ast.FunctionDef)]
    defs += [(f"{c.name}.{f.name}", f) for c in body
             if isinstance(c, ast.ClassDef) for f in c.body
             if isinstance(f, ast.FunctionDef)]
    recorders = {name for name, fn in defs if records(fn)}
    assert {"Tensor.__add__", "linear", "mfb_pool"} <= recorders
    roles = np.random.default_rng(11).normal(size=(3, 2, 4))
    roots = [tiny_training_loss(fusion)[1] for fusion in FUSION_KINDS]
    roots.append(triplet_loss(*map(parameter, roles), 0.2))
    reached = {n._backward.__qualname__.split(".<locals>.")[0]
               for root in roots for n in graph_nodes(root)
               if n._backward is not None}
    assert not recorders - reached, sorted(recorders - reached)


def as_tensor_callers(tree, scope=""):
    """Qualified names of the scopes under `tree` that call `as_tensor`."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= as_tensor_callers(node, f"{scope}{node.name}.")
        elif any(isinstance(n, ast.Call)
                 and "as_tensor" in (getattr(n.func, "id", None),
                                     getattr(n.func, "attr", None))
                 for n in ast.walk(node)):
            found.add(scope.rstrip(".") or "<module>")
    return found


def test_numpy_becomes_a_tensor_only_at_the_model_entry():
    """Tape ops take Tensors. `as_tensor` runs only where numpy enters the
    model (`item_features`) and where `+` and `*` take a plain number."""
    calls = {(path.name, name)
             for path in Path(tensor.__file__).parent.glob("*.py")
             for name in as_tensor_callers(ast.parse(path.read_text()))}
    assert calls == {("tensor.py", "Tensor.__add__"),
                     ("tensor.py", "Tensor.__mul__"),
                     ("model.py", "item_features")}


def per_sample_grads(a, b, g):
    """Loop oracle for the operand gradients of `a @ b` with upstream `g`:
    one product per batch index, summed into each operand's broadcast slot."""
    ga, gb = np.zeros_like(a), np.zeros_like(b)
    for idx in np.ndindex(*g.shape[:-2]):
        ia, ib = operand_index(idx, a.shape), operand_index(idx, b.shape)
        ga[ia] += g[idx] @ b[ib].T
        gb[ib] += a[ia].T @ g[idx]
    return ga, gb


def operand_index(idx, shape):
    """Index of the operand slice that numpy broadcasts to batch index `idx`."""
    lead = shape[:-2]
    tail = idx[len(idx) - len(lead):]
    return tuple(i if s != 1 else 0 for i, s in zip(tail, lead))


def graph_nodes(root):
    """Every node reachable from `root` through recorded parents."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        if all(node is not n for n in nodes):
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("make_loss", [
    lambda p, q: (p + q).sum(),
    lambda p, q: (p.reshape(6) + q.reshape(6)).sum(),
    lambda p, q: concat([p, q], axis=0).sum(),
    lambda p, q: p.sum() + q.sum(),
    lambda p, q: take_rows(concat([p, q], axis=0), [3, 1, 0, 2]).sum(),
    lambda p, q: grouped_projection(
        concat([p, q], axis=0).reshape(2, 2, 3), [Tensor(np.eye(3))] * 2,
        [1, 1]).sum(),
    # a zero-weighted table: its gradients add nothing to the sums' ones
    lambda p, q: p.sum() + q.sum() + role_cosines(p, q).sum() * 0.0,
    lambda p, q: p.sum() + q.sum() + mfb_pool(p, q, 3).sum() * 0.0,
    lambda p, q: (p.sum() + q.sum()
                  + attention_pool(p, q.reshape(2, 3, 1)).sum() * 0.0),
], ids=["add", "reshape", "concat", "sum", "take_rows",
        "grouped_projection", "role_cosines", "mfb_pool", "attention_pool"])
def test_gradient_buffers_are_private(make_loss):
    p = parameter(np.arange(6.0).reshape(2, 3))
    q = parameter(-np.arange(6.0).reshape(2, 3))
    loss = make_loss(p, q)
    loss.backward()
    nodes = graph_nodes(loss)
    assert all(n.grad is None for n in nodes if n is not p and n is not q)
    np.testing.assert_array_equal(p.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(q.grad, np.ones((2, 3)))
    data = [n.data.copy() for n in nodes]
    p.grad += 1.0
    np.testing.assert_array_equal(q.grad, np.ones((2, 3)))
    for node, before in zip(nodes, data):
        np.testing.assert_array_equal(node.data, before)


def test_second_backward_adds_one_more_gradient():
    p = parameter([1.0, -2.0])
    loss = (p * 3.0).sum()
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(p.grad, [6.0, 6.0])


@pytest.mark.parametrize("make_operands", [
    # `linear` folds the batch axes of a strided view into one GEMM
    lambda r: (Tensor(r.normal(size=(5, 4, 2)).swapaxes(-1, -2)),
               Tensor(r.normal(size=(3, 4)))),
], ids=["batched_view_at_weight_t"])
def test_folded_matmul_matches_per_sample_loop(make_operands):
    a, b = make_operands(np.random.default_rng(6))
    got = linear(a, b).data
    ref = np.zeros(got.shape)
    for idx in np.ndindex(*got.shape[:-2]):
        ref[idx] = np.matmul(a.data[operand_index(idx, a.shape)], b.data.T)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestTakeRows:
    INDEX = np.array([2, 0, 2, 2, 4])   # row 2 three times; rows 1 and 3 unused
    STACK = np.array([[1, 4], [4, 0], [3, 2]])   # (3, 2); row 4 twice

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        p = parameter(rng.normal(size=(5, 3)))
        c = rng.normal(size=(self.INDEX.size, 3))
        loss = lambda: (take_rows(p, self.INDEX).tanh() * c).sum()
        report = grad_check(loss, [("p", p)], h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

    def test_matches_add_at_reference(self):
        rng = np.random.default_rng(8)
        p = parameter(rng.normal(size=(5, 2, 3)))
        g = rng.normal(size=(self.INDEX.size, 2, 3))
        out = take_rows(p, self.INDEX)
        np.testing.assert_array_equal(out.data, p.data[self.INDEX])
        (out * g).sum().backward()
        ref = np.zeros(p.shape)
        np.add.at(ref, self.INDEX, g)
        np.testing.assert_array_equal(p.grad, ref)

    def test_2d_index_gathers_a_stack(self):
        """A (3, 2) index gives a (3, 2, ...) stack; its backward matches
        `np.add.at` bit for bit and finite differences."""
        rng = np.random.default_rng(9)
        p = parameter(rng.normal(size=(5, 2, 3)))
        g = rng.normal(size=self.STACK.shape + (2, 3))
        out = take_rows(p, self.STACK)
        assert out.shape == (3, 2, 2, 3)
        np.testing.assert_array_equal(out.data, p.data[self.STACK])
        (out * g).sum().backward()
        ref = np.zeros(p.shape)
        np.add.at(ref, self.STACK, g)
        np.testing.assert_array_equal(p.grad, ref)
        loss = lambda: (take_rows(p, self.STACK).tanh() * g).sum()
        report = grad_check(loss, [("p", p)], h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("index", [
        np.array([0, 5]), np.array([-1]), np.array([0.0, 1.0]),
        np.array([[0, 1], [2, 5]]),
    ], ids=["past_end", "negative", "float", "past_end_2d"])
    def test_malformed_index_rejected(self, index):
        with pytest.raises(DimensionError, match="take_rows"):
            take_rows(parameter(np.zeros((5, 3))), index)


def hinges_chain(cos, negative_rows, positive_rows, margin):
    """Each triplet's mean margin hinge over a role-cosine table's entries,
    op by op, as `triplet_loss` computes its one entry: the table as R * R
    rows, one `take_rows` per side, `negative - positive + margin` (the
    subtraction as `+ positive * -1.0`), `relu` and the mean over the
    entries."""
    rows = cos.reshape((cos.shape[0] ** 2,) + cos.shape[2:])
    negative = take_rows(rows, negative_rows)
    positive = take_rows(rows, positive_rows)
    return (negative + positive * -1.0 + margin).relu().mean(axis=0)


class TestMarginHinges:
    """The margin hinges of one `loss_head` term for each row table: bits
    against `hinges_chain` and finite differences over a single stack (the
    comp and sim case), and the row tables and stacks a term rejects."""
    # row 2 is a negative of one entry and the positive of another
    CROSSED = np.array([[1, 2, 5], [2, 0, 2]])
    TABLES = [COMP, SIM, VSE, CROSSED]
    IDS = ["comp", "sim", "vse", "crossed"]

    @pytest.mark.parametrize("table", TABLES, ids=IDS)
    @pytest.mark.parametrize("tail", [(), (7,), (2, 5)])
    def test_bits_match_op_by_op_chain(self, table, tail):
        """Value and stack gradient, signed zeros included, with the first
        entry's hinge exactly at 0 in the first column."""
        stack = np.random.default_rng(17).normal(size=(3,) + tail + (4,))
        first = role_cosines(*[Tensor(stack)] * 2).data.reshape(9, -1)[:, 0]
        neg, pos = table
        margin = -(first[neg[0]] + first[pos[0]] * -1.0)
        head, chain = parameter(stack), parameter(stack)
        total, _ = loss_head([head], [(1.0, 0, 0, table)], margin)
        want = hinges_chain(role_cosines(chain, chain), neg, pos,
                            margin).mean()
        assert same_bits(total.data, want.data)
        (total * 0.75).backward()
        (want * 0.75).backward()
        assert same_bits(head.grad, chain.grad)

    def test_one_node(self):
        stack = parameter(np.random.default_rng(18).normal(size=(3, 4, 2)))
        total, _ = loss_head([stack], [(1.0, 0, 0, VSE)], 0.2)
        assert total._parents == (stack,) and total.shape == ()

    @pytest.mark.parametrize("table", TABLES, ids=IDS)
    def test_gradients_match_finite_differences(self, table):
        stack = parameter(np.random.default_rng(18).normal(size=(3, 5, 4)))
        report = grad_check(
            lambda: loss_head([stack], [(1.0, 0, 0, table)], 0.2)[0],
            [("stack", stack)], h_scale=1e-6, rel_tol=1e-6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("shapes, table", [
        (((3, 4, 2),) * 2, np.array([[1, 9], [0, 0]])),
        (((3, 4, 2),) * 2, np.array([[1, 2], [0, -1]])),
        (((3, 4, 2),) * 2, np.array([[1.0, 2.0], [0, 0]])),
        (((3, 4, 2),) * 2, np.array([[[1, 2]], [[0, 0]]])),
        (((3, 4, 2),) * 2, (np.array([1, 2]), np.array([0]))),
        (((3, 4, 2),) * 2, np.zeros((2, 0), dtype=np.intp)),
        (((3, 4, 2),) * 2, [[1, 2], [0, 0]]),
        (((3, 4, 2), (2, 4, 2)), np.array([[1], [0]])),
        (((3,),) * 2, np.array([[1], [0]])),
    ], ids=["past_end", "negative", "float", "2d", "lengths_differ", "empty",
            "list", "not_square", "1d_cos"])
    def test_malformed_row_table_rejected(self, shapes, table):
        stacks = [parameter(np.ones(shape)) for shape in shapes]
        with pytest.raises(DimensionError, match="loss_head"):
            loss_head(stacks, [(1.0, 0, 1, table)], 0.2)


# The four terms of `training_loss` over (proj, img, txt) stacks.
WEIGHTS = LossWeights(lambda_vsim=0.5, lambda_tsim=0.25, lambda_vse=2.0)
TERMS = [(1.0, 0, 0, COMP), (WEIGHTS.lambda_vsim, 1, 1, SIM),
         (WEIGHTS.lambda_tsim, 2, 2, SIM), (WEIGHTS.lambda_vse, 1, 2, VSE)]


def loss_chain(proj, img, txt, w=WEIGHTS):
    """The op-by-op graph `loss_head` replaced: a `role_cosines` table per
    term, its `hinges_chain` and `.mean()`, then the weighted total as
    `total_loss` added it. Returns the total and the four terms."""
    terms = [hinges_chain(role_cosines(a, b), *table, w.margin).mean()
             for a, b, table in ((proj, proj, COMP), (img, img, SIM),
                                 (txt, txt, SIM), (img, txt, VSE))]
    comp, vsim, tsim, vse = terms
    return (comp + w.lambda_vsim * vsim + w.lambda_tsim * tsim
            + w.lambda_vse * vse), terms


def same_bits(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestLossHead:
    # item 0 is the anchor of triplet 0, the positive of triplet 1 and the
    # negative of triplet 2; triplet 3 repeats triplet 0's items
    ROLES = np.array([[0, 1, 2, 0], [1, 0, 3, 1], [2, 4, 0, 2]])

    def stacks(self, seed, widths=(5, 4, 4)):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(5, d))[self.ROLES] for d in widths]

    def compare(self, values, upstream=1.0):
        """Values, terms and the stacks' gradients, bit for bit; returns
        the terms and the gradients."""
        head = [parameter(v) for v in values]
        chain = [parameter(v) for v in values]
        total, terms = loss_head(head, TERMS, WEIGHTS.margin)
        want, want_terms = loss_chain(*chain)
        assert same_bits(total.data, want.data)
        assert all(same_bits(got, t.data) for got, t in zip(terms, want_terms))
        (total * upstream).backward()
        (want * upstream).backward()
        for got, ref in zip(head, chain):
            assert same_bits(got.grad, ref.grad)
        return terms, [t.grad for t in head]

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_match_op_by_op_chain(self, seed):
        self.compare(self.stacks(seed))

    @pytest.mark.parametrize("upstream", [1.0, -1.0, 0.0, -0.0])
    def test_bits_match_with_every_hinge_at_zero(self, upstream):
        """Anchors orthogonal to positives and negatives, positives and
        negatives at cosine 0.7 and a comp space where the positive is the
        anchor and the negative its opposite: every hinge is inactive, so
        each gradient is a sum of signed zeros, and +0.0 in every entry, as
        the einsum contraction over the full tables gave it."""
        a, p = np.eye(4)[0], np.eye(4)[1]
        n = 0.7 * p + np.sqrt(1.0 - 0.49) * np.eye(4)[2]
        scale = np.random.default_rng(19).uniform(0.5, 2.0, size=(3, 3, 6, 1))
        img, txt = (np.stack([np.tile(v, (6, 1)) for v in (a, p, n)]) * s
                    for s in scale[:2])
        comp = np.stack([np.tile(v, (6, 1)) for v in (a, a, -a)]) * scale[2]
        terms, grads = self.compare([comp, img, txt], upstream)
        assert terms == [0.0] * 4
        for grad in grads:
            assert same_bits(grad, np.zeros(grad.shape))

    def test_gradients_reach_items_through_take_rows_in_chain_order(self):
        """Stacks gathered from item leaves: each item's gradient sums its
        roles' gradients in the same order as the op-by-op chain's."""
        rng = np.random.default_rng(20)
        values = [rng.normal(size=(5, d)) for d in (5, 4, 4)]
        grads = []
        for make in (lambda s: loss_head(s, TERMS, WEIGHTS.margin)[0],
                     lambda s: loss_chain(*s)[0]):
            items = [parameter(v) for v in values]
            make([take_rows(t, self.ROLES) for t in items]).backward()
            grads.append([t.grad for t in items])
        for got, want in zip(*grads):
            assert same_bits(got, want)

    def test_one_node_over_the_three_stacks(self):
        stacks = [parameter(v) for v in self.stacks(21)]
        total, terms = loss_head(stacks, TERMS, WEIGHTS.margin)
        assert total._parents == tuple(stacks) and total.shape == ()
        assert len(terms) == 4 and all(isinstance(t, float) for t in terms)

    def test_gradients_match_finite_differences(self):
        stacks = [parameter(v) for v in self.stacks(22)]
        report = grad_check(
            lambda: loss_head(stacks, TERMS, WEIGHTS.margin)[0],
            list(zip(("proj", "img", "txt"), stacks)),
            h_scale=1e-6, rel_tol=1e-6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("shapes, table", [
        (((3, 4, 5), (3, 4, 4)), VSE), (((3, 4, 5), (3, 4, 5)), COMP[0]),
        (((3, 4, 5), (3, 4, 5)), np.array([[0], [9]])),
        (((3, 4, 5), (3, 4, 5)), np.array([[-1], [0]])),
        (((3, 4, 5), (3, 4, 5)), COMP.astype(float)),
        (((4,), (4,)), np.array([[0], [0]])),
    ], ids=["widths_differ", "one_dim_table", "past_end", "negative",
            "float_table", "one_dim_stacks"])
    def test_malformed_term_rejected(self, shapes, table):
        stacks = [parameter(np.ones(shape)) for shape in shapes]
        with pytest.raises(DimensionError, match="loss_head"):
            loss_head(stacks, [(1.0, 0, 1, table)], 0.2)

    def test_zero_row_rejected(self):
        stack = np.ones((3, 2, 4))
        stack[1, 0] = 0.0
        with pytest.raises(DomainError, match="zero vector"):
            loss_head([parameter(stack)], [(1.0, 0, 0, COMP)], 0.2)


def test_role_cosines_backward_is_the_role_contraction():
    """`role_cosines`' backward adds each role's terms as the einsum
    contraction over the other role does, bit for bit: the order that lets
    `loss_head` leave out entries whose gradient is 0."""
    rng = np.random.default_rng(23)
    a, b = parameter(rng.normal(size=(3, 7, 37))), parameter(
        rng.normal(size=(3, 7, 37)))
    g = rng.normal(size=(3, 3, 7)) * rng.integers(0, 2, size=(3, 3, 7))
    cos = role_cosines(a, b)
    (cos * Tensor(g)).sum().backward()
    norm_a, norm_b = (np.sqrt((x.data * x.data).sum(-1)) for x in (a, b))
    g_dot = g / (norm_a[:, None] * norm_b[None])
    g_cos = g * cos.data
    want_a = (np.einsum("ij...,j...d->i...d", g_dot, b.data)
              - (g_cos.sum(1) / norm_a ** 2)[..., None] * a.data)
    want_b = (np.einsum("ij...,i...d->j...d", g_dot, a.data)
              - (g_cos.sum(0) / norm_b ** 2)[..., None] * b.data)
    assert same_bits(a.grad, want_a) and same_bits(b.grad, want_b)


@pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3), (1, 3)])
def test_pool_rows_is_one_node_with_the_bits_of_mean(shape):
    rng = np.random.default_rng(24)
    x = parameter(rng.normal(size=shape))
    y = parameter(x.data)
    g = Tensor(rng.normal(size=shape[:-2] + shape[-1:]))
    out, ref = pool_rows(x), y.mean(axis=-2)
    assert out._parents == (x,)
    assert same_bits(out.data, ref.data)
    (out * g).sum().backward()
    (ref * g).sum().backward()
    assert same_bits(x.grad, y.grad)


def test_backward_requires_scalar():
    with pytest.raises(DomainError):
        parameter(np.zeros((2, 2))).backward()


def test_backward_visits_shared_nodes_once():
    # a diamond-shaped graph: gradient of p through two paths sums exactly once
    p = parameter([2.0])
    shared = p * 3.0
    loss = (shared + shared).sum()
    loss.backward()
    assert p.grad[0] == pytest.approx(6.0)
