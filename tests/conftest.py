import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import numpy as np
import pytest

from hdrmask import tensor as T


@pytest.fixture()
def row_blocks(monkeypatch):
    """``cut(convs, rows)`` sets the conv forward's block budget to ``rows``
    output rows per block for the first of ``convs`` (each an ``(x_shape,
    w_shape, stride, padding)``) and asserts that under it every listed
    convolution runs several row blocks, the last one shorter."""
    def per_row(x_shape, w_shape, stride, padding):
        # Stacked tap windows plus the output, per output row.
        n, co, (ci, kh, kw) = x_shape[0], w_shape[0], w_shape[1:]
        ow = T.conv_output_extent(x_shape[3], kw, stride, padding)
        return n * (kh * kw * ci + co) * ow

    def cut(convs, rows):
        budget = rows * per_row(*convs[0])
        for x_shape, w_shape, stride, padding in convs:
            r = max(1, budget // per_row(x_shape, w_shape, stride, padding))
            oh = T.conv_output_extent(x_shape[2], w_shape[2], stride, padding)
            assert oh > r and oh % r, (x_shape, w_shape, oh, r)
        monkeypatch.setattr(T, "_BLOCK_ELEMS", budget)

    return cut


@pytest.fixture()
def in_place():
    """``check(fresh, into)``: ``into(slot)``, handed a view of rows of a
    longer buffer of noise shaped like ``fresh``, must return that view
    holding ``fresh`` bit for bit and leave the buffer's other rows as they
    were."""
    rng = np.random.default_rng(0)

    def check(fresh, into):
        n, c, h, w = fresh.shape
        buf = rng.normal(size=(n, c, h + 5, w)).astype(fresh.dtype)
        before, slot = buf.copy(), buf[:, :, 3:3 + h]
        got = into(slot)
        assert got is slot and np.array_equal(got, fresh)
        for rows in (slice(0, 3), slice(3 + h, None)):
            assert np.array_equal(buf[:, :, rows], before[:, :, rows])

    return check
