import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

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
