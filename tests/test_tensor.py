import weakref

import numpy as np
import pytest

from hdrmask import tensor as T
from hdrmask.errors import ContractError, DimensionError, GraphError, NumericError

from oracles import adam_first_step, avg_pool_loops, conv2d_loops


def rnd(seed):
    return np.random.default_rng(seed)


class TestConv2d:
    def test_all_ones_box(self):
        x = T.constant(np.ones((1, 1, 5, 5)))
        w = T.parameter(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, T.parameter(np.zeros(1)))
        assert out.data.shape == (1, 1, 3, 3)
        assert np.allclose(out.data, 9.0)

    def test_identity_kernel(self):
        x = T.constant(rnd(0).normal(size=(2, 3, 6, 6)))
        w = np.zeros((3, 3, 1, 1), dtype=np.float64)
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = T.conv2d(x, T.constant(w), None)
        assert np.array_equal(out.data, x.data)

    def test_shape_formula_stride2(self):
        x = T.constant(np.zeros((1, 1, 4, 4)))
        w = T.constant(np.zeros((1, 1, 3, 3)))
        out = T.conv2d(x, w, None, stride=2, padding=1)
        assert out.data.shape == (1, 1, 2, 2)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            T.conv2d(T.constant(np.zeros((1, 2, 4, 4))),
                     T.constant(np.zeros((1, 3, 3, 3))), None)

    # The product overflows on purpose, and numpy's matmul warns as it does.
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_nonfinite_result(self):
        x = T.constant(np.full((1, 1, 3, 3), 1e300))
        w = T.constant(np.full((1, 1, 3, 3), 1e300))
        with pytest.raises(NumericError):
            T.conv2d(x, w, None)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_loop_oracle_f64(self, seed):
        rng = rnd(seed)
        n, ci, co = rng.integers(1, 3), rng.integers(1, 5), rng.integers(1, 5)
        h = int(rng.integers(3, 9))
        k = int(rng.choice([1, 3]))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        x = rng.normal(size=(n, ci, h, h))
        w = rng.normal(size=(co, ci, k, k))
        b = rng.normal(size=co)
        got = T.conv2d(T.constant(x), T.constant(w), T.constant(b), stride, padding).data
        want = conv2d_loops(x, w, b, stride, padding)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_polyphase_taps_forward_and_gradients(self, stride, k, padding):
        # Odd and even, non-square extents leave a different remainder in
        # every polyphase plane; the weighted sum is linear in each input,
        # so central differences are exact up to rounding.
        rng = rnd(100 + 9 * stride + 3 * k + padding)
        for h, wd in ((7, 9), (11, 6)):
            x = T.parameter(rng.normal(size=(2, 2, h, wd)))
            w = T.parameter(rng.normal(size=(3, 2, k, k)))
            b = T.parameter(rng.normal(size=3))
            want = conv2d_loops(x.data, w.data, b.data, stride, padding)
            got = T.conv2d(x, w, b, stride, padding).data
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            weights = T.constant(rng.normal(size=want.shape))

            def fn(x, w, b):
                return T.tsum(T.conv2d(x, w, b, stride, padding) * weights)

            err = T.check_gradients(fn, [x, w, b], epsilon=1e-3, max_coords=32,
                                    rng=rnd(stride * k + padding))
            assert err < 1e-6, (h, wd)


    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("top", [0, 1, 2])
    @pytest.mark.parametrize("bottom", [0, 1, 2])
    def test_row_padding_forward(self, stride, top, bottom):
        # A window of an image's rows pads only where it meets the image's
        # edge; the columns keep the symmetric padding. The graph op pads
        # with 0 only.
        rng = rnd(200 + 9 * stride + 3 * top + bottom)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
            for pad_value in (0.0, 1.0):
                for h, wd in ((7, 9), (10, 6)):
                    x = rng.normal(size=(2, 2, h, wd)).astype(dtype)
                    w = rng.normal(size=(3, 2, 3, 3)).astype(dtype)
                    b = rng.normal(size=3).astype(dtype)
                    want = conv2d_loops(x, w, b, stride, 1, pad_value, (top, bottom))
                    got, _ = T.conv2d_raw(x, w, b, stride, 1, pad_value, (top, bottom))
                    assert got.dtype == dtype and got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))
                    if pad_value == 0.0:
                        tensor = T.conv2d(T.constant(x), T.constant(w), T.constant(b), stride,
                                          1, pad_rows=(top, bottom)).data
                        assert np.array_equal(tensor, got)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad_rows", [(0, 2), (2, 0), (1, 2)])
    def test_row_padding_gradients(self, stride, pad_rows):
        rng = rnd(300 + 7 * stride + sum(pad_rows))
        x = T.parameter(rng.normal(size=(2, 2, 9, 7)))
        w = T.parameter(rng.normal(size=(3, 2, 3, 3)))
        b = T.parameter(rng.normal(size=3))
        want = conv2d_loops(x.data, w.data, b.data, stride, 1, pad_rows=pad_rows)
        weights = T.constant(rng.normal(size=want.shape))

        def fn(x, w, b):
            return T.tsum(T.conv2d(x, w, b, stride, 1, pad_rows) * weights)

        err = T.check_gradients(fn, [x, w, b], epsilon=1e-3, max_coords=32, rng=rnd(stride))
        assert err < 1e-6

    def test_negative_row_padding_rejected(self):
        with pytest.raises(DimensionError):
            T.conv2d_raw(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 3, 3)), padding=1,
                         pad_rows=(1, -1))


def padded_phase_split(x, stride, padding, pad_value):
    """``np.pad`` out to the planes' extent, then every phase's rows and
    columns picked out by strided slicing."""
    n, c, h, w = x.shape
    s, p = stride, padding
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    xp = np.pad(x, ((0, 0), (0, 0), (p, hq * s - h - p), (p, wq * s - w - p)),
                constant_values=pad_value)
    return np.stack([xp[:, :, a::s, b::s].reshape(n, c, hq * wq)
                     for a in range(s) for b in range(s)])


class TestPhasePlanes:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad_value", [0.0, 1.0])
    def test_equal_padded_input_split_by_phase(self, stride, pad_value):
        rng = rnd(40 + stride)
        for dtype in (np.float64, np.float32):
            for h, w in ((7, 5), (5, 9), (1, 3), (11, 1)):
                for padding in (0, 1, 2):
                    x = rng.normal(size=(2, 3, h, w)).astype(dtype)
                    got = T._phase_planes(x, stride, padding, pad_value)
                    want = padded_phase_split(x, stride, padding, pad_value)
                    assert got.dtype == dtype
                    assert np.array_equal(got, want), (h, w, padding)


def transposed_phase_dx(g, x_shape, w, stride, padding, rows, dx_scale):
    """A strided convolution's dx by the polyphase transpose: the output
    gradient laid on the planes' row pitch, the tap GEMMs scattered into
    zeroed planes, the planes interleaved back into the padded input by one
    transposed copy, cropped, then scaled in place."""
    n, c, h, wd = x_shape
    co, ci, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    s, p, top = stride, padding, rows[0]
    hq, wq = -(-(h + rows[0] + rows[1]) // s), -(-(wd + 2 * p) // s)
    gq = np.zeros((n, co, oh, wq), dtype=g.dtype)
    gq[:, :, :, :ow] = g
    span = (oh - 1) * wq + ow
    g = gq.reshape(n, co, oh * wq)[:, :, :span]
    dplanes = np.zeros((s * s, n, c, hq * wq), dtype=gq.dtype)
    wt = T._tap_major(w)
    for i, j, k, dy, dx in T._conv_taps(kh, kw, s):
        off = dy * wq + dx
        dplanes[k, :, :, off:off + span] += wt[i, j].T @ g
    dxp = dplanes.reshape(s, s, n, c, hq, wq).transpose(2, 3, 4, 0, 5, 1)
    dx = dxp.reshape(n, c, hq * s, wq * s)[:, :, top:top + h, p:p + wd]
    if dx_scale is not None:
        np.multiply(dx, dx_scale, out=dx)
    return dx


class TestStridedInputGradient:
    @pytest.mark.parametrize("stride", [2, 3])
    @pytest.mark.parametrize("pad_rows", [(1, 1), (0, 1), (2, 0), (1, 2)])
    def test_equal_to_the_transposed_planes(self, stride, pad_rows):
        # Odd extents leave each phase plane a different count of rows and
        # columns inside the input; the row padding shifts which plane
        # holds the input's first row.
        rng = rnd(60 + 7 * stride + 3 * pad_rows[0] + pad_rows[1])
        for dtype in (np.float64, np.float32):
            for h, wd in ((7, 9), (9, 5), (2, 3)):
                for scaled in (False, True):
                    x_shape, w = (2, 3, h, wd), rng.normal(size=(4, 3, 3, 3)).astype(dtype)
                    oh = T.conv_output_extent(h + sum(pad_rows), 3, stride, 0)
                    ow = T.conv_output_extent(wd, 3, stride, 1)
                    g = rng.normal(size=(2, 4, oh, ow)).astype(dtype)
                    scale = rng.random(x_shape).astype(dtype) if scaled else None
                    dx, dw = T._conv_grads(g, x_shape, w, None, stride, 1, pad_rows, scale, True)
                    want = transposed_phase_dx(g, x_shape, w, stride, 1, pad_rows, scale)
                    assert dw is None and dx.dtype == dtype and dx.shape == x_shape
                    assert np.array_equal(dx, want), (dtype, h, wd, scaled)


class TestRowBlocks:
    """The forward over several blocks of output rows, the last one ragged,
    against the loop oracle: batch 2, Ci = Co = 3."""
    TOL = {np.float64: 1e-12, np.float32: 1e-6}

    def check(self, row_blocks, x, w, stride, padding, rows, rng):
        row_blocks([(x.shape, w.shape, stride, padding)], rows)
        tol = self.TOL[x.dtype.type]
        for pad_value in (0.0, 1.0):
            for b in (None, rng.normal(size=w.shape[0]).astype(x.dtype)):
                got, _ = T.conv2d_raw(x, w, b, stride, padding, pad_value)
                want = conv2d_loops(x, w, b, stride, padding, pad_value)
                assert got.flags.c_contiguous and got.dtype == np.result_type(x, w)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_loop_oracle(self, row_blocks, dtype, stride, k):
        rng = rnd(50 + 4 * stride + k)
        padding = k // 2
        # The smallest height from 9 up whose output row count is odd, so
        # blocks of two rows leave a one-row remainder.
        h = next(h for h in range(9, 20)
                 if T.conv_output_extent(h, k, stride, padding) % 2)
        x = rng.normal(size=(2, 3, h, 7)).astype(dtype)
        w = rng.normal(size=(3, 3, k, k)).astype(dtype)
        self.check(row_blocks, x, w, stride, padding, 2, rng)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [3, 5])
    def test_phase_kernels(self, row_blocks, dtype, k):
        # The (4*Co, Ci, k//2 + 1, k//2 + 1) kernels of a conv over a 2x upsample.
        rng = rnd(60 + k)
        x = rng.normal(size=(2, 3, 8, 5)).astype(dtype)
        w = T.upsample_kernels(rng.normal(size=(3, 3, k, k)).astype(dtype))
        self.check(row_blocks, x, w, 1, k // 2, 4, rng)

    def test_mixed_precision_output_dtype(self, row_blocks):
        rng = rnd(70)
        x = rng.normal(size=(2, 3, 9, 6)).astype(np.float32)
        w = rng.normal(size=(3, 3, 3, 3))
        row_blocks([(x.shape, w.shape, 1, 1)], 2)
        got, _ = T.conv2d_raw(x, w, None, 1, 1)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        want = conv2d_loops(x, w, None, 1, 1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestActivation:
    def test_relu_negative(self):
        assert T.activation(T.constant(np.array([-1.5])), "relu").data[0] == 0.0

    def test_leaky_negative(self):
        out = T.activation(T.constant(np.array([-1.0])), "leaky_relu", 0.2)
        assert np.isclose(out.data[0], -0.2)

    def test_identity(self):
        x = rnd(1).normal(size=(4, 3))
        assert np.array_equal(T.activation(T.constant(x), "identity").data, x)

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            T.activation(T.constant(np.zeros(2)), "gelu")

    @pytest.mark.parametrize("slope", [0.0, 0.1, 0.2, 1.0, 3.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_is_the_factor_product(self, slope, dtype):
        x = rnd(2).normal(size=(3, 50)).astype(dtype)
        x[0, :4] = [0.0, -0.0, np.finfo(dtype).tiny, -np.finfo(dtype).tiny]
        factor = np.where(x > 0, dtype(1.0), dtype(slope))
        out = T.activation(T.parameter(x), "leaky_relu", slope)
        assert out.data.dtype == dtype and out.data.tobytes() == (x * factor).tobytes()
        g = rnd(3).normal(size=x.shape).astype(dtype)
        assert out._vjp(g)[0].tobytes() == (g * factor).tobytes()
        # The graph holds no array beyond the input's own data.
        cells = [c.cell_contents for c in out._vjp.__closure__]
        assert not any(isinstance(c, np.ndarray) for c in cells)


def upsample2(a):
    return np.repeat(np.repeat(a, 2, axis=2), 2, axis=3)


class TestUpsampleAndPool:
    def test_phase_kernels_of_3x3_are_row_and_column_sums(self):
        w = rnd(2).normal(size=(2, 3, 3, 3))
        got = T.upsample_kernels(w).reshape(2, 2, 2, 3, 2, 2)
        rows = [np.stack([w[:, :, 0], w[:, :, 1] + w[:, :, 2]], axis=2),
                np.stack([w[:, :, 0] + w[:, :, 1], w[:, :, 2]], axis=2)]
        for r in (0, 1):
            cols = [np.stack([rows[r][..., 0], rows[r][..., 1] + rows[r][..., 2]], axis=-1),
                    np.stack([rows[r][..., 0] + rows[r][..., 1], rows[r][..., 2]], axis=-1)]
            for c in (0, 1):
                assert np.allclose(got[r, c], cols[c], rtol=0, atol=1e-15 * np.abs(w).max())

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("pad_value", [0.0, 1.0])
    def test_phase_conv_matches_conv_of_upsample(self, k, pad_value):
        rng = rnd(3)
        x = rng.normal(size=(2, 3, 5, 3))
        w = rng.normal(size=(4, 3, k, k))
        p = k // 2
        phases, _ = T.conv2d_raw(x, T.upsample_kernels(w), padding=p, pad_value=pad_value)
        got = T.add_phases(np.zeros((2, 4, 10, 6)), phases, p)
        want = conv2d_loops(upsample2(x), w, padding=p, pad_value=pad_value)
        assert got.shape == want.shape == (2, 4, 10, 6)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_phase_grads_is_the_adjoint_of_add_phases(self, p):
        # <add_phases(0, x), g> == <x, _phase_grads(g)> for every x and g,
        # and the gradient is zero outside each phase's crop.
        rng = rnd(5 + p)
        x = rng.normal(size=(2, 12, 3 + p, 4 + p))
        g = rng.normal(size=(2, 3, 6, 8))
        dx = T._phase_grads(g, p)
        assert dx.shape == x.shape
        lhs = np.sum(T.add_phases(np.zeros_like(g), x, p) * g)
        assert np.isclose(lhs, np.sum(x * dx), rtol=1e-12)
        inside = T.add_phases(np.zeros_like(g), np.ones_like(x), p)
        assert np.array_equal(inside, np.ones_like(g))
        assert np.count_nonzero(dx) == g.size

    def test_phase_ops_gradients(self):
        # The phase path of a decoder node: x's 2x upsample convolved with
        # w's first two input channels, the skip with the third.
        rng = rnd(4)
        x = T.parameter(rng.normal(size=(1, 2, 3, 4)))
        skip = T.parameter(rng.normal(size=(1, 1, 6, 8)))
        w = T.parameter(rng.normal(size=(2, 3, 3, 3)))
        probe = T.constant(rng.normal(size=(1, 2, 6, 8)))

        def fn(x, skip, w):
            out = T.conv2d(x, w, padding=1, skip=skip)
            return T.tsum(out * out * probe)

        assert T.check_gradients(fn, [x, skip, w], epsilon=1e-6, max_coords=24,
                                 rng=rnd(5)) < 1e-6

    def test_phase_kernels_need_odd_square_kernel(self):
        with pytest.raises(DimensionError):
            T.upsample_kernels(np.zeros((1, 1, 2, 2)))

    def test_avg_pool_constant(self):
        out = T.avg_pool(T.constant(np.full((1, 2, 4, 4), 3.25)), 2)
        assert np.allclose(out.data, 3.25)

    def test_avg_pool_direct_mean(self):
        x = np.array([[0.0, 2.0], [4.0, 6.0]]).reshape(1, 1, 2, 2)
        assert T.avg_pool(T.constant(x), 2).data.reshape(()) == 3.0

    def test_avg_pool_window_one_identity(self):
        x = T.constant(rnd(3).normal(size=(1, 1, 3, 3)))
        assert T.avg_pool(x, 1) is x

    def test_avg_pool_indivisible(self):
        with pytest.raises(DimensionError):
            T.avg_pool(T.constant(np.zeros((1, 1, 5, 5))), 2)

    def test_avg_pool_matches_loops(self):
        x = rnd(4).normal(size=(2, 3, 6, 6))
        got = T.avg_pool(T.constant(x), 3).data
        assert np.allclose(got, avg_pool_loops(x, 3), atol=1e-12)


class TestLayerRaw:
    """A decoder read over inputs already padded by the kernel's half-width,
    at conv padding 0, is the same-padded read bit for bit: mask
    propagation's gathered tiles carry their padding that way."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("pad_value", [0.0, 1.0])
    @pytest.mark.parametrize("edge", ["top", "bottom"])
    def test_prepadded_inputs_at_padding_0_equal_same_padding(self, edge, pad_value, k, dtype):
        # A window of rows padded only at one edge: 4 source rows and
        # 8 - p skip rows give 8 - 2p output rows.
        p = k // 2
        rows = (p, 0) if edge == "top" else (0, p)
        rng = rnd(400 + k)
        x = rng.normal(size=(2, 3, 4, 3)).astype(dtype)
        skip = rng.normal(size=(2, 2, 8 - p, 6)).astype(dtype)
        w = rng.normal(size=(4, 5, k, k)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        want, _, _ = T.layer_raw(x, w, b, 1, p, pad_value, rows, skip=skip, skip_pad_rows=rows)

        def pad(a):
            return np.pad(a, ((0, 0), (0, 0), rows, (p, p)), constant_values=pad_value)

        got, _, _ = T.layer_raw(pad(x), w, b, 1, 0, pad_value, skip=pad(skip))
        assert want.shape == (2, 4, 8 - 2 * p, 6) and got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_decoder_read_has_stride_1(self):
        with pytest.raises(DimensionError):
            T.layer_raw(np.zeros((1, 1, 2, 2)), np.zeros((1, 2, 3, 3)), stride=2, padding=1,
                        skip=np.zeros((1, 1, 4, 4)))


def _phase_interleave(x, padding):
    """The unfused decoder's interleave node: (N, 4*Co, h+p, w+p) phase outputs
    of a convolution over a 2x upsample as its (N, Co, 2h, 2w) output."""
    n, c4, hp, wp = x.data.shape
    h, w = hp - padding, wp - padding
    crops = [(r, c, (padding + r) // 2, (padding + c) // 2) for r in (0, 1) for c in (0, 1)]
    phases = x.data.reshape(n, 2, 2, c4 // 4, hp, wp)
    out = np.empty((n, c4 // 4, 2 * h, 2 * w), dtype=x.data.dtype)
    for r, c, oy, ox in crops:
        out[:, :, r::2, c::2] = phases[:, r, c, :, oy:oy + h, ox:ox + w]

    def vjp(g):
        dx = np.zeros(phases.shape, dtype=g.dtype)
        for r, c, oy, ox in crops:
            dx[:, r, c, :, oy:oy + h, ox:ox + w] = g[:, :, r::2, c::2]
        return (dx.reshape(x.data.shape),)

    return T._node(out, (x,), vjp)


def _composed_layer(x, m, w, b, stride, pad_rows, kind, slope, skip=None, ms=None,
                    skip_pad_rows=None):
    """One masked layer as separate nodes: the mask products, plain
    convolutions, the decoder's kernel map, phase interleave and sum, and the
    activation."""
    xm = x * T.constant(m)
    if skip is None:
        f = T.conv2d(xm, w, b, stride, 1, pad_rows=pad_rows)
    else:
        cu = x.data.shape[1]
        wu = w[:, :cu]
        kernels = T._node(T.upsample_kernels(wu.data), (wu,), lambda g: (
            T._upsample_kernels_grad(g, wu.data.shape[2], wu.data.dtype),))
        up = _phase_interleave(T.conv2d(xm, kernels, padding=1, pad_rows=pad_rows), 1)
        f = up + T.conv2d(skip * T.constant(ms), w[:, cu:], b, padding=1,
                          pad_rows=skip_pad_rows)
    return T.activation(f, kind, slope)


class TestMaskedLayerNode:
    """A masked layer is one conv2d node; its output and every gradient equal
    those of the same layer built from separate nodes, bit for bit."""

    @staticmethod
    def case(layer, dtype):
        rng = rnd({"stride1": 100, "stride2": 101, "decoder": 102}[layer])
        if layer == "decoder":
            # A window of rows padded only at its top: 4 source rows and 7
            # skip rows give 6 output rows.
            x, m = rng.normal(size=(2, 3, 4, 3)), rng.random((2, 3, 4, 3))
            s, ms = rng.normal(size=(2, 2, 7, 6)), rng.random((2, 2, 7, 6))
            w = rng.normal(size=(4, 5, 3, 3))
            extra = dict(skip=s, ms=ms, skip_pad_rows=(1, 0))
            stride, pad_rows, out_rows = 1, (1, 0), 6
        else:
            stride = 2 if layer == "stride2" else 1
            x, m = rng.normal(size=(2, 3, 9, 7)), rng.random((2, 3, 9, 7))
            w = rng.normal(size=(4, 3, 3, 3))
            extra, pad_rows = {}, (0, 1)
            out_rows = (9 + 1 - 3) // stride + 1
        m[:, :, 0, :2] = 0.0
        cast = {k: v.astype(dtype) if isinstance(v, np.ndarray) else v for k, v in extra.items()}
        return (x.astype(dtype), m.astype(dtype), w.astype(dtype),
                rng.normal(size=4).astype(dtype), stride, pad_rows, cast, out_rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer", ["stride1", "stride2", "decoder"])
    @pytest.mark.parametrize("kind,slope", [("relu", 0.2), ("leaky_relu", 0.2),
                                            ("leaky_relu", 0.0), ("leaky_relu", 1.5),
                                            ("identity", 0.2)])
    def test_equals_the_composed_nodes_bitwise(self, kind, slope, layer, dtype):
        x, m, w, b, stride, pad_rows, extra, out_rows = self.case(layer, dtype)
        runs = []
        for fused in (True, False):
            leaves = [T.parameter(a.copy()) for a in (x, w, b)]
            skip = T.parameter(extra["skip"].copy()) if extra else None
            X, W, B = leaves
            if fused:
                out = T.conv2d(X, W, B, stride, 1, pad_rows, m, skip, extra.get("ms"),
                               extra.get("skip_pad_rows"), kind, slope)
            else:
                out = _composed_layer(X, m, W, B, stride, pad_rows, kind, slope, skip,
                                      extra.get("ms"), extra.get("skip_pad_rows"))
            assert out.data.shape[2] == out_rows
            probe = rnd(7).normal(size=out.data.shape).astype(dtype)
            leaves += [skip] if skip is not None else []
            T.backward(T.tsum(out * T.constant(probe)), leaves)
            runs.append([out.data] + [t.grad for t in leaves])
        for name, got, want in zip(["out", "dx", "dW", "db", "dskip"], *runs):
            assert got.dtype == want.dtype == dtype, name
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_one_node_keeps_its_output_and_planes_only(self):
        x, m, w, b, stride, pad_rows, extra, _ = self.case("decoder", np.float32)
        X, W, B, skip = T.parameter(x), T.parameter(w), T.constant(b), T.parameter(extra["skip"])
        out = T.conv2d(X, W, B, 1, 1, pad_rows, m, skip, extra["ms"],
                       extra["skip_pad_rows"], "relu")
        assert out._parents == (X, W, B, skip)
        cells = [c.cell_contents for c in out._vjp.__closure__]
        big = [c for c in cells if isinstance(c, np.ndarray) and c.size >= x.size]
        # The output, the two convolutions' planes and the two masks.
        assert sum(c is out.data for c in big) == 1 and len(big) == 5

    @pytest.mark.parametrize("slope", [-0.1, np.nan, np.inf])
    def test_slope_the_output_cannot_invert_rejected(self, slope):
        with pytest.raises(ContractError):
            T.conv2d(T.constant(np.ones((1, 1, 3, 3))), T.constant(np.ones((1, 1, 3, 3))),
                     padding=1, activation_kind="leaky_relu", slope=slope)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = T.parameter(rnd(5).normal(size=(3, 4)))
        T.backward(T.tsum(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_square_gradient(self):
        w = T.parameter(rnd(6).normal(size=(5,)))
        T.backward(T.tsum(w * w))
        assert np.allclose(w.grad, 2 * w.data)

    def test_nonscalar_root_rejected(self):
        w = T.parameter(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            T.backward(w * 2.0)

    def test_unreachable_parameter_gets_zero(self):
        used = T.parameter(np.ones(3))
        unused = T.parameter(np.ones(4))
        T.backward(T.tsum(used), parameters=[used, unused])
        assert np.array_equal(unused.grad, np.zeros(4))

    def test_root_needing_no_gradient_zeroes_every_parameter(self):
        p, q = T.parameter(np.ones((2, 3))), T.parameter(np.ones(4))
        p.grad = np.full((2, 3), 7.0)  # a previous step's gradient
        root = T.tsum(T.constant(rnd(10).normal(size=(2, 3))) * 2.0)
        assert not root.requires_grad
        T.backward(root, parameters=[p, q])
        assert np.array_equal(p.grad, np.zeros((2, 3))) and np.array_equal(q.grad, np.zeros(4))

    def test_constant_factor_gets_no_gradient(self):
        rng = rnd(9)
        x = T.parameter(rng.normal(size=(2, 3, 4, 4)))
        m = T.constant(rng.random((2, 3, 4, 4)))
        g = rng.normal(size=(2, 3, 4, 4))
        T.backward(T.tsum(x * m * T.constant(g)), [x])
        assert np.array_equal(x.grad, g * m.data)
        assert m.grad is None
        # The product for the constant is never formed, not just dropped.
        gx, gm = (x * m)._vjp(g)
        assert np.array_equal(gx, g * m.data) and gm is None

    def test_cycle_detection(self):
        a = T.parameter(np.ones(1))
        b = a * 2.0
        b._parents = (b,)  # deliberately corrupt the graph
        with pytest.raises(GraphError):
            T.backward(T.tsum(b))

    def test_two_layer_masked_conv_net_matches_fd(self):
        # conv -> mask multiply -> conv -> scalar, float64 finite differences
        rng = rnd(7)
        mask = (rng.random((1, 2, 6, 6)) > 0.3).astype(np.float64)
        x = T.parameter(rng.normal(size=(1, 2, 6, 6)))
        w1 = T.parameter(rng.normal(size=(2, 2, 3, 3)))
        b1 = T.parameter(rng.normal(size=2))
        w2 = T.parameter(rng.normal(size=(1, 2, 3, 3)))

        def fn(x, w1, b1, w2):
            z = x * T.constant(mask)
            h = T.activation(T.conv2d(z, w1, b1, 1, 1), "leaky_relu")
            h = h * T.constant(mask[:, :1].repeat(2, axis=1))
            out = T.conv2d(h, w2, None, 2, 1)
            return T.tmean(T.absolute(out))

        err = T.check_gradients(fn, [x, w1, b1, w2], epsilon=1e-4, max_coords=10,
                                rng=rnd(8))
        assert err < 1e-3

    def test_gradient_linearity_in_loss_sum(self):
        rng = rnd(9)
        w = T.parameter(rng.normal(size=(4, 4)))

        def loss_a(t):
            return T.tmean(t * t)

        def loss_b(t):
            return T.tmean(T.absolute(t))

        w.zero_grad()
        T.backward(loss_a(w))
        ga = w.grad.copy()
        w.zero_grad()
        T.backward(loss_b(w))
        gb = w.grad.copy()
        w.zero_grad()
        T.backward(loss_a(w) + loss_b(w))
        assert np.allclose(w.grad, ga + gb, atol=1e-12)


def _conv_pool_graph():
    """A float32 conv / activation / pool / mask graph: its leaves, its interior
    nodes in forward order, and its scalar root."""
    rng = rnd(31)
    x = T.parameter(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
    w1 = T.parameter(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
    b1 = T.parameter(rng.normal(size=4).astype(np.float32))
    w2 = T.parameter(rng.normal(size=(2, 4, 3, 3)).astype(np.float32))
    mask = T.constant((rng.random((2, 4, 8, 8)) > 0.3).astype(np.float32))
    h = T.conv2d(x, w1, b1, padding=1)
    a = T.activation(h, "leaky_relu", 0.2)
    m = a * mask
    p = T.avg_pool(m, 2)
    c = T.conv2d(p, w2, None, stride=2, padding=1)
    r = T.activation(c, "relu")
    sq = r * r
    root = T.tmean(sq) + T.tmean(T.absolute(h))
    return [x, w1, b1, w2], [h, a, m, p, c, r, sq], root


def _retained_sweep(root):
    """Every node's gradient by the sweep that keeps them all: the reference
    the releasing sweep must reproduce bit for bit on the leaves."""
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(T._toposort(root)):
        if node._vjp is None:
            continue
        for parent, g in zip(node._parents, node._vjp(grads[id(node)])):
            if g is None or not parent.requires_grad:
                continue
            grads[id(parent)] = g if id(parent) not in grads else grads[id(parent)] + g
    return grads


class TestBackwardReleasesGradients:
    def test_leaf_gradients_match_the_retaining_sweep_bitwise(self):
        leaves, _, root = _conv_pool_graph()
        want = _retained_sweep(root)
        T.backward(root, leaves)
        for leaf in leaves:
            assert leaf.grad.dtype == want[id(leaf)].dtype
            assert leaf.grad.tobytes() == want[id(leaf)].tobytes()

    def test_only_leaves_keep_a_gradient(self):
        leaves, interior, root = _conv_pool_graph()
        T.backward(root, leaves)
        assert all(leaf.grad is not None for leaf in leaves)
        assert root.grad is None
        assert [n.grad for n in interior] == [None] * len(interior)

    def test_constant_weight_conv_keeps_no_planes(self):
        rng = rnd(32)
        x = T.parameter(rng.normal(size=(1, 3, 8, 8)))
        w = rng.normal(size=(2, 3, 3, 3))
        dx = []
        for weight, kept in ((T.constant(w), False), (T.parameter(w), True)):
            out = T.conv2d(x, weight, None, stride=2, padding=1)
            cells = [c.cell_contents for c in out._vjp.__closure__]
            assert any(isinstance(c, np.ndarray) and c.ndim == 4 for c in cells) == kept
            x.zero_grad()
            T.backward(T.tsum(out * out), [x])
            dx.append(x.grad)
        # The input gradient never read them.
        assert dx[0].tobytes() == dx[1].tobytes()

    def test_relu_conv_drops_its_incoming_gradient_before_its_conv_grads(self, monkeypatch):
        # backward hands a vjp the only reference to its node's gradient, so
        # a conv's vjp frees it once the activation's derivative is applied.
        rng = rnd(33)
        x = T.parameter(rng.normal(size=(1, 3, 8, 8)))
        w1 = T.parameter(rng.normal(size=(4, 3, 3, 3)))
        w2 = T.parameter(rng.normal(size=(2, 4, 3, 3)))
        hidden = T.conv2d(x, w1, None, padding=1, activation_kind="relu")
        out = T.conv2d(hidden, w2, None, padding=1, activation_kind="relu")
        received, alive = [], []
        activation_grad, conv_grads = T._activation_grad, T._conv_grads

        def spy_activation_grad(g, *args):
            received.append(weakref.ref(g))
            return activation_grad(g, *args)

        def spy_conv_grads(*args):
            alive.append(received[-1]() is not None)
            return conv_grads(*args)

        monkeypatch.setattr(T, "_activation_grad", spy_activation_grad)
        monkeypatch.setattr(T, "_conv_grads", spy_conv_grads)
        T.backward(T.tsum(out * out), [x, w1, w2])
        assert alive == [False, False]
        assert all(p.grad is not None for p in (x, w1, w2))


class TestCheckGradients:
    def test_linear_is_exact(self):
        x = T.parameter(np.array([1.7]))
        err = T.check_gradients(lambda t: T.tsum(t * 3.0), [x], epsilon=1e-4)
        assert err < 1e-10

    def test_square_taylor_bound(self):
        x = T.parameter(np.array([1.0]))
        err = T.check_gradients(lambda t: T.tsum(t * t), [x], epsilon=1e-4)
        assert err < 1e-8  # central differences are O(eps^2) exact here

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ContractError):
            T.check_gradients(lambda t: T.tsum(t), [T.parameter(np.ones(1))], epsilon=0)


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = rnd(10)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        runs = [T.conv2d(T.constant(x), T.constant(w), T.constant(b), 1, 1).data
                for _ in range(3)]
        assert all(np.array_equal(runs[0], r) for r in runs[1:])


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = {"w": T.parameter(np.array([1.5, -2.0], dtype=np.float32))}
        state = T.AdamState()
        before = p["w"].data.copy()
        T.adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, state, lr=2e-4)
        assert np.array_equal(p["w"].data, before)
        assert state.step == 1

    def test_first_step_closed_form(self):
        p = {"w": T.parameter(np.array([0.0], dtype=np.float64))}
        state = T.AdamState()
        T.adam_step(p, {"w": np.array([0.1])}, state, lr=2e-4)
        want = adam_first_step(0.1, 2e-4)
        assert np.isclose(p["w"].data[0], want, rtol=1e-9)
        assert np.isclose(p["w"].data[0], -2e-4, rtol=1e-4)

    def test_second_moment_positive_after_nonzero_grad(self):
        p = {"w": T.parameter(np.ones(3, dtype=np.float32))}
        state = T.AdamState()
        T.adam_step(p, {"w": np.array([0.1, -0.2, 0.3], dtype=np.float32)}, state, lr=1e-3)
        assert np.all(state.v["w"] > 0)

    def test_shape_mismatch(self):
        p = {"w": T.parameter(np.ones(3))}
        with pytest.raises(DimensionError):
            T.adam_step(p, {"w": np.ones(4)}, T.AdamState(), lr=1e-3)

    def test_missing_gradient_leaves_param(self):
        p = {"w": T.parameter(np.ones(2)), "b": T.parameter(np.ones(2))}
        state = T.AdamState()
        T.adam_step(p, {"w": np.full(2, 0.5)}, state, lr=1e-2)
        assert np.array_equal(p["b"].data, np.ones(2))
