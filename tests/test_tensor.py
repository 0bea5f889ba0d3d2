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
        pad_value = float(rng.choice([0.0, 1.0]))
        x = rng.normal(size=(n, ci, h, h))
        w = rng.normal(size=(co, ci, k, k))
        b = rng.normal(size=co)
        got = T.conv2d(T.constant(x), T.constant(w), T.constant(b),
                       stride, padding, pad_value).data
        want = conv2d_loops(x, w, b, stride, padding, pad_value)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_polyphase_taps_forward_and_gradients(self, stride, k, padding):
        # Odd and even, non-square extents leave a different remainder in
        # every polyphase plane; the weighted sum is linear in each input,
        # so central differences are exact up to rounding.
        rng = rnd(100 + 9 * stride + 3 * k + padding)
        for pad_value in (0.0, 1.0):
            for h, wd in ((7, 9), (11, 6)):
                x = T.parameter(rng.normal(size=(2, 2, h, wd)))
                w = T.parameter(rng.normal(size=(3, 2, k, k)))
                b = T.parameter(rng.normal(size=3))
                want = conv2d_loops(x.data, w.data, b.data, stride, padding, pad_value)
                got = T.conv2d(x, w, b, stride, padding, pad_value).data
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                weights = T.constant(rng.normal(size=want.shape))

                def fn(x, w, b):
                    return T.tsum(T.conv2d(x, w, b, stride, padding, pad_value) * weights)

                err = T.check_gradients(fn, [x, w, b], epsilon=1e-3, max_coords=32,
                                        rng=rnd(stride * k + padding))
                assert err < 1e-6, (pad_value, h, wd)


    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("top", [0, 1, 2])
    @pytest.mark.parametrize("bottom", [0, 1, 2])
    def test_row_padding_forward(self, stride, top, bottom):
        # A window of an image's rows pads only where it meets the image's
        # edge; the columns keep the symmetric padding.
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
                    tensor = T.conv2d(T.constant(x), T.constant(w), T.constant(b), stride, 1,
                                      pad_value, pad_rows=(top, bottom)).data
                    assert np.array_equal(tensor, got)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad_rows", [(0, 2), (2, 0), (1, 2)])
    def test_row_padding_gradients(self, stride, pad_rows):
        rng = rnd(300 + 7 * stride + sum(pad_rows))
        x = T.parameter(rng.normal(size=(2, 2, 9, 7)))
        w = T.parameter(rng.normal(size=(3, 2, 3, 3)))
        b = T.parameter(rng.normal(size=3))
        want = conv2d_loops(x.data, w.data, b.data, stride, 1, 1.0, pad_rows)
        weights = T.constant(rng.normal(size=want.shape))

        def fn(x, w, b):
            return T.tsum(T.conv2d(x, w, b, stride, 1, 1.0, pad_rows) * weights)

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
        w = T.upsample_kernels(T.constant(rng.normal(size=(3, 3, k, k)).astype(dtype))).data
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
        out = T.leaky_relu(T.parameter(x), slope)
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
        got = T.upsample_kernels(T.constant(w)).data.reshape(2, 2, 2, 3, 2, 2)
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
        phases, _ = T.conv2d_raw(x, T.upsample_kernels(T.constant(w)).data, padding=p,
                                 pad_value=pad_value)
        got = T.interleave_phases(T.constant(phases), p).data
        want = conv2d_loops(upsample2(x), w, padding=p, pad_value=pad_value)
        assert got.shape == want.shape == (2, 4, 10, 6)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_phase_ops_gradients(self):
        rng = rnd(4)
        x = T.parameter(rng.normal(size=(1, 2, 3, 4)))
        w = T.parameter(rng.normal(size=(2, 2, 3, 3)))
        probe = T.constant(rng.normal(size=(1, 2, 6, 8)))

        def fn(x, w):
            out = T.interleave_phases(T.conv2d(x, T.upsample_kernels(w), padding=1), 1)
            return T.tsum(out * out * probe)

        assert T.check_gradients(fn, [x, w], epsilon=1e-6, max_coords=24, rng=rnd(5)) < 1e-6

    def test_phase_kernels_need_odd_square_kernel(self):
        with pytest.raises(DimensionError):
            T.upsample_kernels(T.constant(np.zeros((1, 1, 2, 2))))

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
            h = T.leaky_relu(T.conv2d(z, w1, b1, 1, 1))
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
    a = T.leaky_relu(h, 0.2)
    m = a * mask
    p = T.avg_pool(m, 2)
    c = T.conv2d(p, w2, None, stride=2, padding=1)
    r = T.relu(c)
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
