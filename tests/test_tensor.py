"""Tensor primitives against independent oracles and their invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outfitrec.errors import DimensionError, DomainError
from outfitrec.optim import grad_check
from outfitrec.tensor import (Tensor, concat, cosine_similarity, matmul,
                              parameter, pool_rows, signed_sqrt, softmax,
                              take_rows)


def naive_matmul(a, b):
    """Triple-loop matrix product oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        v = np.arange(3.0).reshape(3, 1)
        out = matmul(Tensor(np.eye(3)), Tensor(v))
        np.testing.assert_array_equal(out.data, v)

    def test_hand_2x2(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[3.0], [7.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data,
                                   naive_matmul(a, b), rtol=0, atol=1e-12)

    def test_random_shapes_up_to_16(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, k, m = rng.integers(1, 17, size=3)
            a = rng.normal(size=(n, k))
            b = rng.normal(size=(k, m))
            np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data,
                                       naive_matmul(a, b), rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3, 5))
        w = rng.normal(size=(5, 2))
        out = matmul(Tensor(a), Tensor(w)).data
        for i in range(4):
            np.testing.assert_allclose(out[i], naive_matmul(a[i], w), atol=1e-12)


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


class TestCosine:
    def test_identity(self):
        v = Tensor([1.0, 2.0, -3.0])
        assert cosine_similarity(v, v).item() == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(Tensor([1.0, 0.0]),
                                 Tensor([0.0, 1.0])).item() == pytest.approx(0.0)
        assert cosine_similarity(Tensor([1.0, 1.0]),
                                 Tensor([1.0, -1.0])).item() == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 100), st.floats(0.01, 100))
    def test_symmetry_bound_and_scale_invariance(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=5) + 0.01
        y = rng.normal(size=5) + 0.01
        c_xy = cosine_similarity(Tensor(x), Tensor(y)).item()
        c_yx = cosine_similarity(Tensor(y), Tensor(x)).item()
        assert c_xy == pytest.approx(c_yx, abs=1e-12)
        assert abs(c_xy) <= 1.0 + 1e-12
        scaled = cosine_similarity(Tensor(alpha * x), Tensor(beta * y)).item()
        assert scaled == pytest.approx(c_xy, abs=1e-9)


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
        for out in (x.tanh(), x.relu(), softmax(x, axis=-1), signed_sqrt(x)):
            assert np.all(np.isfinite(out.data))


class TestGradients:
    """Tape gradients of each differentiable primitive vs central FD
    at h = 1e-3 * max(1, |p|), rel err < 1e-4 (smooth compositions)."""

    def _check(self, make_loss, shape, seed=0):
        rng = np.random.default_rng(seed)
        p = parameter(rng.normal(size=shape))
        report = grad_check(lambda: make_loss(p), [("p", p)],
                            h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

    def test_matmul(self):
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        self._check(lambda p: (matmul(p, w) * matmul(p, w)).sum(), (5, 4))

    def test_softmax(self):
        self._check(lambda p: (softmax(p, axis=-1)
                               * Tensor(np.arange(6.0).reshape(2, 3))).sum(),
                    (2, 3))

    def test_tanh_mul_div(self):
        self._check(lambda p: (p.tanh() * p / (p * p + 2.0)).sum(), (3, 3))

    def test_sum_mean_reshape_transpose(self):
        self._check(lambda p: (p.transpose_last().reshape(12).mean()
                               + p.sum(axis=0).sum()), (3, 4))

    def test_concat_slices(self):
        def loss(p):
            c = concat([p, p * 2.0], axis=-1)
            return (c[1:] * c[:2]).sum() + (c[0, ::2] * c[2, 1::2]).sum()
        self._check(loss, (3, 2))

    def test_cosine(self):
        y = Tensor(np.random.default_rng(2).normal(size=4))
        self._check(lambda p: cosine_similarity(p, y), (4,))

    def test_signed_sqrt_away_from_zero(self):
        self._check(lambda p: signed_sqrt(p * p + 1.0).sum(), (3, 2))

    def test_pool_rows(self):
        self._check(lambda p: (pool_rows(p) * pool_rows(p)).sum(), (5, 3))

    @pytest.mark.parametrize("a_shape, b_shape, transpose_b", [
        ((3, 4), (5, 6, 4), True),         # 2-D @ batched view: per-sample path
        ((5, 2, 4), (3, 4), True),         # batched @ transposed 2-D weight
        ((6, 4), (3, 4), True),            # 2-D @ transposed 2-D weight
        ((2, 3, 2, 4), (4, 3), False),     # 4-D batched @ 2-D weight
        ((1, 3, 4), (5, 4, 2), False),     # broadcast batch: per-sample path
    ], ids=["weight_at_batched", "batched_at_weight_t", "2d_at_weight_t",
            "4d_at_weight", "broadcast_batch"])
    def test_matmul_operand_gradients(self, a_shape, b_shape, transpose_b):
        rng = np.random.default_rng(5)
        a = parameter(rng.normal(size=a_shape))
        b = parameter(rng.normal(size=b_shape))

        def rhs():
            return b.transpose_last() if transpose_b else b

        c = rng.normal(size=matmul(a, rhs()).shape)
        loss = lambda: (matmul(a, rhs()) * c).sum()
        report = grad_check(loss, [("a", a), ("b", b)],
                            h_scale=1e-3, rel_tol=1e-4)
        assert report.passed, str(report)

        ref_a, ref_b = per_sample_grads(a.data, rhs().data, c)
        if transpose_b:
            ref_b = ref_b.swapaxes(-1, -2)
        # a strided weight gradient once doubled the d=512 Adam step
        for got, ref in ((a.grad, ref_a), (b.grad, ref_b)):
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


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
], ids=["add", "reshape", "concat", "sum", "take_rows"])
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
    # a batched right operand takes the per-sample path; the rest fold
    lambda r: (Tensor(r.normal(size=(3, 4))),
               Tensor(r.normal(size=(5, 6, 4))).transpose_last()),
    lambda r: (Tensor(r.normal(size=(5, 4, 2))).transpose_last(),
               Tensor(r.normal(size=(3, 4))).transpose_last()),
    lambda r: (Tensor(r.normal(size=(2, 3, 2, 4))), Tensor(r.normal(size=(4, 3)))),
    lambda r: (Tensor(r.normal(size=(5, 1, 4))), Tensor(r.normal(size=(4, 3)))),
], ids=["weight_at_batched_view", "batched_view_at_weight_t", "4d_at_weight",
        "row_batch_at_weight"])
def test_folded_matmul_matches_per_sample_loop(make_operands):
    a, b = make_operands(np.random.default_rng(6))
    got = matmul(a, b).data
    ref = np.zeros(got.shape)
    for idx in np.ndindex(*got.shape[:-2]):
        ref[idx] = np.matmul(a.data[operand_index(idx, a.shape)],
                             b.data[operand_index(idx, b.shape)])
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("key", [np.array([0, 1]), [0, 1], True,
                                 (slice(None), np.array([0]))],
                         ids=["array", "list", "bool", "mixed"])
def test_indexing_is_basic_only(key):
    with pytest.raises(DimensionError, match="ints and slices"):
        Tensor(np.zeros((2, 3)))[key]


class TestTakeRows:
    INDEX = np.array([2, 0, 2, 2, 4])   # row 2 three times; rows 1 and 3 unused

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

    @pytest.mark.parametrize("index", [
        np.array([[0, 1]]), np.array([0, 5]), np.array([-1]),
        np.array([0.0, 1.0]),
    ], ids=["2d", "past_end", "negative", "float"])
    def test_malformed_index_rejected(self, index):
        with pytest.raises(DimensionError, match="take_rows"):
            take_rows(parameter(np.zeros((5, 3))), index)


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
