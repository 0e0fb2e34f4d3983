"""Common-space projection and pooling."""

import numpy as np
import pytest

from outfitrec.embedding import (CommonSpaceProjector, init_projector,
                                 project_regions, project_words)
from outfitrec.errors import DimensionError, DomainError
from outfitrec.tensor import Tensor, parameter, pool_rows


def identity_projector(d):
    return CommonSpaceProjector(w_img=parameter(np.eye(d)),
                                w_txt=parameter(np.eye(d)))


def test_identity_projection_returns_input():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    out = project_regions(Tensor(x), identity_projector(3))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_single_region_matches_matmul_oracle():
    rng = np.random.default_rng(1)
    proj = init_projector(rng, d_g=5, d_i=3, d_t=4)
    x = rng.normal(size=(1, 3))
    out = project_regions(Tensor(x), proj).data
    expected = np.array([[sum(proj.w_img.data[r, c] * x[0, c]
                              for c in range(3)) for r in range(5)]])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_zero_regions_give_zero_output():
    proj = init_projector(np.random.default_rng(2), d_g=4, d_i=3, d_t=3)
    out = project_regions(Tensor(np.zeros((2, 3))), proj)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_word_projection_linearity():
    rng = np.random.default_rng(3)
    proj = init_projector(rng, d_g=4, d_i=3, d_t=6)
    y = rng.normal(size=(2, 6))
    one = project_words(Tensor(y), proj).data
    two = project_words(Tensor(2.0 * y), proj).data
    np.testing.assert_allclose(two, 2.0 * one, atol=1e-12)


def test_projection_dim_mismatch():
    proj = init_projector(np.random.default_rng(4), d_g=4, d_i=3, d_t=6)
    with pytest.raises(DimensionError):
        project_regions(Tensor(np.zeros((2, 7))), proj)


def test_word_projection_dim_mismatch():
    proj = init_projector(np.random.default_rng(4), d_g=4, d_i=3, d_t=6)
    with pytest.raises(DimensionError, match="word dim 3"):
        project_words(Tensor(np.zeros((2, 3))), proj)


class TestPoolAverage:
    def test_single_row_is_identity(self):
        row = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(pool_rows(Tensor(row)).data, row[0])

    def test_opposite_rows_cancel(self):
        v = np.array([1.0, 2.0, 3.0])
        out = pool_rows(Tensor(np.stack([v, -v]))).data
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_49_rows_match_loop_sum_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(49, 7))
        total = np.zeros(7)
        for r in rows:
            total = total + r
        np.testing.assert_allclose(pool_rows(Tensor(rows)).data,
                                   total / 49.0, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(8, 4))
        perm = rng.permutation(8)
        np.testing.assert_allclose(pool_rows(Tensor(rows)).data,
                                   pool_rows(Tensor(rows[perm])).data,
                                   atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            pool_rows(Tensor(np.zeros((0, 3))))

    def test_single_vector_rejected(self):
        with pytest.raises(DimensionError, match="pool_rows needs ndim >= 2"):
            pool_rows(Tensor(np.zeros(3)))
