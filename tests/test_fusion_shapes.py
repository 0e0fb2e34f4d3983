"""The fusers' shape contract: (..., K, d) rows in, the same leading axes out.

Each entry point takes one item, a batch, or any other leading axes on
one code path; input without a row axis or without rows is refused, and
so is a second input whose leading axes or width differ.
"""

import numpy as np
import pytest

from outfitrec.errors import DimensionError, DomainError
from outfitrec.fusion import (attend_text, fuse_coattention, fuse_dot_product,
                              fuse_stacked, init_coattention_params,
                              init_stacked_params)
from outfitrec.tensor import Tensor

DG, K, OTHER = 4, 5, 2

_rng = np.random.default_rng(0)
STACKED = init_stacked_params(_rng, DG, 3, 2)
COATT = init_coattention_params(_rng, DG, 2, 2)


def ones(*shape):
    return Tensor(np.ones(shape + (DG,)))


# Each case calls an entry point on the row input under test, with its other
# input (a text vector, or OTHER rows) on the given leading axes. Expected
# is the output width and the row count of each attention, in call order.
CASES = {
    "dot_product": (
        lambda rows, lead, w: fuse_dot_product(rows, ones(*lead), w),
        2 * DG, [K]),
    "stacked": (
        lambda rows, lead, w: fuse_stacked(rows, ones(*lead), STACKED, w),
        2 * DG, [K, K]),
    "attend_text": (
        lambda rows, lead, w: attend_text(rows, COATT.text_attn, w),
        DG, [K]),
    "coattention_regions": (
        lambda rows, lead, w: fuse_coattention(rows, ones(*lead, OTHER),
                                               COATT, w),
        2 * DG, [OTHER, K, K]),
    "coattention_words": (
        lambda rows, lead, w: fuse_coattention(ones(*lead, OTHER), rows,
                                               COATT, w),
        2 * DG, [K, OTHER, OTHER]),
}


@pytest.mark.parametrize("case", CASES)
def test_rows_without_a_row_axis_raise_dimension_error(case):
    call, _, _ = CASES[case]
    with pytest.raises(DimensionError):
        call(ones(), (), None)


@pytest.mark.parametrize("case", CASES)
def test_a_batch_of_zero_rows_raises_domain_error(case):
    call, _, _ = CASES[case]
    with pytest.raises(DomainError):
        call(ones(3, 0), (3,), None)


# (row input's leading axes, other input's leading axes)
MISMATCHED = {
    "one_item_with_batch": ((), (3,)),
    "batch_with_one_item": ((3,), ()),
    "batch_with_other_batch": ((3,), (2,)),
}


@pytest.mark.parametrize("mismatch", MISMATCHED)
@pytest.mark.parametrize("case", [c for c in CASES if c != "attend_text"])
def test_other_input_on_other_leading_axes_raises_dimension_error(case,
                                                                  mismatch):
    call, _, _ = CASES[case]
    rows_lead, other_lead = MISMATCHED[mismatch]
    with pytest.raises(DimensionError, match="do not match"):
        call(ones(*rows_lead, K), other_lead, None)


@pytest.mark.parametrize("fuse", [
    fuse_dot_product, lambda rows, text: fuse_stacked(rows, text, STACKED),
], ids=["dot_product", "stacked"])
def test_text_of_another_width_raises_dimension_error(fuse):
    with pytest.raises(DimensionError, match="do not match"):
        fuse(ones(K), Tensor(np.ones(DG - 1)))


@pytest.mark.parametrize("lead", [(3,), (), (2, 3)],
                         ids=["batch", "one_item", "two_leading_axes"])
@pytest.mark.parametrize("case", CASES)
def test_output_and_weights_take_the_input_leading_shape(case, lead):
    call, width, counts = CASES[case]
    rows = Tensor(np.random.default_rng(1).normal(size=lead + (K, DG)))
    weights = []
    out = call(rows, lead, weights)
    assert out.shape == lead + (width,)
    assert [w.shape for w in weights] == [lead + (k,) for k in counts]
