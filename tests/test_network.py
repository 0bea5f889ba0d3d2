import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrmask import network as N
from hdrmask import tensor as T
from hdrmask.errors import CheckpointShapeError, DimensionError, DomainError

from oracles import (conv2d_loops, conv2d_terms, dirty_maps, masked_conv_loops,
                     upsample_concat_conv)


def rnd(seed):
    return np.random.default_rng(seed)


class TestExposureMask:
    def test_below_threshold_is_one(self):
        assert N.exposure_mask(np.array([[[0.5]]]), 0.96)[0, 0, 0] == 1.0

    def test_fully_saturated_is_zero(self):
        assert N.exposure_mask(np.array([[[1.0]]]), 0.96)[0, 0, 0] == 0.0

    def test_linear_ramp_midpoint(self):
        m = N.exposure_mask(np.array([[[0.98]]]), 0.96)
        assert np.isclose(m[0, 0, 0], 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            N.exposure_mask(np.array([[[1.2]]]))

    @pytest.mark.parametrize("alpha", [0.05, 0.9, 0.96, 0.999])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_equals_the_thresholded_ramp_bitwise(self, dtype, alpha):
        t = rnd(6).random((3, 40, 40)).astype(dtype)
        a, one = dtype(alpha), dtype(1.0)
        t[0, 0, :6] = [0.0, a, np.nextafter(a, one), np.nextafter(a, 0), 1.0, np.nan]
        t[1] = one - (one - a) * rnd(7).random((40, 40)).astype(dtype)
        want = np.where(t <= a, one, np.clip((one - t) / (one - a), 0.0, 1.0))
        got = N.exposure_mask(t, alpha)
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()

    def test_alpha_that_rounds_to_one_rejected(self):
        with pytest.raises(DomainError):
            N.exposure_mask(np.full((3, 1, 1), 0.5, dtype=np.float16), 0.9999)

    def test_result_is_the_only_image_sized_array(self):
        t = rnd(7).random((3, 256, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            out = N.exposure_mask(t, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The range check's boolean temporaries are freed before it exists.
        assert peak <= 1.25 * out.nbytes, peak / out.nbytes

    @given(st.floats(0.0, 1.0), st.floats(0.05, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_always_in_unit_interval(self, value, alpha):
        m = N.exposure_mask(np.full((3, 1, 1), value), alpha)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)


def masked(x, mask):
    """``x`` times ``mask`` as a masked layer forms it: ``scale`` of
    :func:`T.conv2d`, here with an identity 1x1 kernel."""
    eye = np.eye(x.shape[1]).reshape(x.shape[1], x.shape[1], 1, 1)
    return T.conv2d(T.constant(x), T.constant(eye), None, scale=mask).data


class TestMaskFeatures:
    def test_ones_mask_identity(self):
        x = rnd(0).normal(size=(1, 2, 3, 3))
        assert np.array_equal(masked(x, np.ones_like(x)), x)

    def test_zeros_mask_annihilates(self):
        x = rnd(1).normal(size=(1, 2, 3, 3))
        assert np.all(masked(x, np.zeros_like(x)) == 0)

    def test_elementwise_product(self):
        x = np.array([2.0, 4.0]).reshape(1, 1, 1, 2)
        m = np.array([0.5, 0.25]).reshape(1, 1, 1, 2)
        assert np.allclose(masked(x, m).ravel(), [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            masked(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))


class TestPropagateMask:
    def test_all_ones_interior(self):
        # normalized kernel sums to s/(s+eps), just below 1
        rng = rnd(2)
        w = rng.normal(size=(2, 1, 3, 3))
        m = np.ones((1, 1, 6, 6))
        out = N.propagate_mask(m, T.constant(w), padding=1)
        s = np.abs(w).sum(axis=(1, 2, 3))
        for o in range(2):
            expected = s[o] / (s[o] + 1e-6)
            assert np.allclose(out[0, o], expected, atol=1e-4)
            assert abs(out[0, o, 3, 3] - 1.0) < 1e-4

    def test_center_zero_spot_value(self):
        m = np.ones((1, 1, 5, 5))
        m[0, 0, 2, 2] = 0.0
        out = N.propagate_mask(m, T.constant(np.ones((1, 1, 3, 3))), padding=1)
        assert abs(out[0, 0, 2, 2] - 8.0 / (9.0 + 1e-6)) < 1e-12

    def test_zero_mask_stays_zero(self):
        out = N.propagate_mask(np.zeros((1, 1, 8, 8)),
                               T.constant(rnd(3).normal(size=(3, 1, 3, 3))), padding=0)
        assert np.all(out <= 1e-6)

    def test_all_zero_kernel_guarded(self):
        out = N.propagate_mask(np.ones((1, 1, 4, 4)), T.constant(np.zeros((1, 1, 3, 3))),
                               padding=1)
        assert np.all(out <= 1e-6)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, seed):
        rng = rnd(seed)
        w = T.constant(rng.normal(size=(2, 2, 3, 3)))
        a = rng.random((1, 2, 6, 6))
        b = np.clip(a + rng.random((1, 2, 6, 6)) * (1 - a), 0, 1)  # b >= a
        out_a = N.propagate_mask(a, w, padding=1)
        out_b = N.propagate_mask(b, w, padding=1)
        assert np.all(out_a >= 0) and np.all(out_a <= 1)
        assert np.all(out_b - out_a >= -1e-12)


class TestMaskedConvLayer:
    """A masked layer as the U-Net walk runs it: one :func:`T.conv2d` with
    the mask as ``scale``, then one :func:`N.propagate_mask`."""

    def test_ones_mask_equals_standard_conv(self):
        rng = rnd(4)
        x = rng.normal(size=(1, 2, 6, 6))
        w = T.parameter(rng.normal(size=(3, 2, 3, 3)))
        b = T.parameter(rng.normal(size=3))
        ones = np.ones_like(x)
        out = T.conv2d(T.constant(x), w, b, 1, 1, scale=ones)
        want = conv2d_loops(x, w.data, b.data, 1, 1, 0.0)
        assert np.allclose(out.data, want, atol=1e-10)
        assert np.all(N.propagate_mask(ones, w, 1, 1) > 1.0 - 1e-4)

    def test_center_zero_mask_drops_contribution(self):
        x = np.ones((1, 1, 5, 5))
        m = np.ones_like(x)
        m[0, 0, 2, 2] = 0.0
        out = T.conv2d(T.constant(x), T.constant(np.ones((1, 1, 3, 3))),
                       T.constant(np.zeros(1)), 1, 1, scale=m)
        assert np.isclose(out.data[0, 0, 2, 2], 8.0)

    def test_zero_features_give_bias(self):
        rng = rnd(5)
        b = rng.normal(size=3)
        out = T.conv2d(T.constant(np.zeros((1, 2, 4, 4))),
                       T.constant(rng.normal(size=(3, 2, 3, 3))), T.constant(b), 1, 1,
                       scale=rng.random((1, 2, 4, 4)))
        assert np.allclose(out.data, b.reshape(1, 3, 1, 1), atol=1e-12)

    def test_gradient_with_mask_held_constant(self):
        rng = rnd(6)
        mask = rng.random((1, 2, 6, 6))
        x = T.parameter(rng.normal(size=(1, 2, 6, 6)))
        w = T.parameter(rng.normal(size=(2, 2, 3, 3)))
        b = T.parameter(rng.normal(size=2))

        def fn(x, w, b):
            out = T.conv2d(x, w, b, 1, 1, scale=mask, activation_kind="leaky_relu")
            return T.tmean(T.absolute(out))

        err = T.check_gradients(fn, [x, w, b], epsilon=1e-5, max_coords=12, rng=rnd(7))
        assert err < 1e-3


def tiny_params(config, seed=0, scale=0.3):
    rng = rnd(seed)
    arrays = {}
    k = config.kernel_size
    for spec in N.layer_plan(config):
        arrays[f"{spec.name}.weight"] = rng.normal(
            0, scale, size=(spec.out_channels, spec.in_channels, k, k))
        arrays[f"{spec.name}.bias"] = rng.normal(0, 0.05, size=spec.out_channels)
    return N.UNetParameters.from_arrays(config, arrays)


def in_mode(params, mode):
    """The same arrays under the same config in masking ``mode``."""
    return replace(params, config=replace(params.config, mode=mode))


class TestParamManifest:
    def test_shape_mismatch_lists_layers(self):
        config = N.UNetConfig(levels=2, base_channels=4)
        arrays = {"enc0.weight": np.zeros((4, 3, 3, 3), dtype=np.float32)}
        with pytest.raises(CheckpointShapeError) as err:
            N.validate_param_manifest(arrays, config)
        message = str(err.value)
        assert "enc0.bias" in message and "missing" in message
        assert len(err.value.mismatches) > 0

    def test_wrong_level_count_flags_layers(self):
        from hdrmask.training import initialize_parameters

        params4 = initialize_parameters(N.UNetConfig(levels=4, base_channels=4), 0)
        with pytest.raises(CheckpointShapeError) as err:
            N.validate_param_manifest(params4.named_arrays(),
                                      N.UNetConfig(levels=5, base_channels=4))
        assert "enc4" in str(err.value)


E, UP = False, True  # an edge's ``up``: read as is, or the 2x upsample
PLAN_INPUTS = {
    1: [("enc0", ((0, 1, E),)), ("out", ((1, 1, E),))],
    2: [("enc0", ((0, 1, E),)), ("enc1", ((1, 2, E),)),
        ("dec0", ((2, 1, UP), (1, 1, E))), ("out", ((3, 1, E),))],
    3: [("enc0", ((0, 1, E),)), ("enc1", ((1, 2, E),)), ("enc2", ((2, 2, E),)),
        ("dec1", ((3, 1, UP), (2, 1, E))), ("dec0", ((4, 1, UP), (1, 1, E))),
        ("out", ((5, 1, E),))],
    4: [("enc0", ((0, 1, E),)), ("enc1", ((1, 2, E),)), ("enc2", ((2, 2, E),)),
        ("enc3", ((3, 2, E),)), ("dec2", ((4, 1, UP), (3, 1, E))),
        ("dec1", ((5, 1, UP), (2, 1, E))), ("dec0", ((6, 1, UP), (1, 1, E))),
        ("out", ((7, 1, E),))],
}


class TestOneDescription:
    """``layer_plan`` wires the network and ``param_shapes`` names its entries."""

    @pytest.mark.parametrize("levels", sorted(PLAN_INPUTS))
    def test_layer_inputs_are_the_unet_edges(self, levels):
        # Node 0 is the input and node j + 1 layer j: each encoder reads the
        # node before it, each decoder the upsampled node before it and its
        # encoder's skip; at one level there is no decoder.
        plan = N.layer_plan(N.UNetConfig(levels=levels, base_channels=2))
        assert [(spec.name, spec.inputs) for spec in plan] == PLAN_INPUTS[levels]

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_param_shapes_are_what_init_and_the_manifest_use(self, levels, kernel):
        from hdrmask.training import initialize_parameters

        config = N.UNetConfig(levels=levels, base_channels=2, kernel_size=kernel)
        shapes = N.param_shapes(config)
        arrays = initialize_parameters(config, 0).named_arrays()
        assert list(shapes) == list(arrays)
        assert all(arrays[name].shape == shape for name, shape in shapes.items())
        with pytest.raises(CheckpointShapeError) as err:
            N.validate_param_manifest({}, config)
        assert list(err.value.mismatches) == [f"{name}: missing (expected {shape})"
                                              for name, shape in shapes.items()]


class TestUNetForward:
    def test_output_shape_matches_input(self):
        cfg = N.UNetConfig(levels=3, base_channels=4)
        params = tiny_params(cfg)
        x = rnd(8).random((1, 3, 16, 16))
        y, stack = N.unet_forward(x, np.ones_like(x), params)
        assert y.data.shape == (1, 3, 16, 16)
        assert len(stack) == len(N.layer_plan(cfg)) + 1

    def test_indivisible_extent_rejected(self):
        cfg = N.UNetConfig(levels=3, base_channels=4)
        params = tiny_params(cfg)
        x = np.zeros((1, 3, 18, 18))
        with pytest.raises(DimensionError):
            N.unet_forward(x, np.ones_like(x), params)

    @pytest.mark.parametrize("walk", ["unet_forward", "predict"])
    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    @pytest.mark.parametrize("value", [-0.25, 1.5])
    def test_mask_outside_unit_interval_rejected(self, walk, mode, value):
        params = tiny_params(N.UNetConfig(levels=2, base_channels=2, mode=mode))
        x = rnd(8).random((1, 3, 8, 8))
        mask = np.ones_like(x)
        mask[0, 1, 3, 5] = value
        with pytest.raises(DomainError):
            getattr(N, walk)(x, mask, params)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            N.UNetConfig(mode="PConv")

    @pytest.mark.parametrize("slope", [-0.1, np.nan, np.inf])
    def test_slope_negative_or_not_finite_rejected(self, slope):
        # The leaky relu's derivative is read off its output, exact for slope >= 0.
        with pytest.raises(DomainError):
            N.UNetConfig(leaky_slope=slope)

    def test_all_valid_mask_matches_unmasked_network(self):
        cfg = N.UNetConfig(levels=3, base_channels=4)
        params = tiny_params(cfg, seed=9)
        x = rnd(10).random((2, 3, 16, 16)).astype(np.float32)
        ones = np.ones_like(x)
        y_masked, _ = N.unet_forward(x, ones, params)
        y_plain, _ = N.unet_forward(x, ones, in_mode(params, "SConv"))
        denom = max(float(np.max(np.abs(y_plain.data))), 1e-9)
        assert np.max(np.abs(y_masked.data - y_plain.data)) / denom < 1e-3

    def test_masks_stay_in_unit_interval(self):
        cfg = N.UNetConfig(levels=4, base_channels=4)
        params = tiny_params(cfg, seed=11)
        x = rnd(12).random((1, 3, 32, 32))
        mask = N.exposure_mask(x)
        _, stack = N.unet_forward(x, mask, params)
        for name, m in stack:
            assert np.all(m >= 0.0) and np.all(m <= 1.0), name

    def test_zero_information_interior_is_bias_only(self):
        # zero input features and zero mask: interior pre-activations carry
        # only biases; identity activations make them directly observable
        cfg = N.UNetConfig(levels=1, base_channels=4)
        params = tiny_params(cfg, seed=13)
        x = np.zeros((1, 3, 8, 8))
        layer = N.layer_plan(cfg)[0]
        w, b = params.tensors[f"{layer.name}.weight"], params.tensors[f"{layer.name}.bias"]
        zeros = np.zeros_like(x)
        out = T.conv2d(T.constant(x), w, b, 1, 1, scale=zeros)
        assert np.allclose(out.data, b.data.reshape(1, -1, 1, 1), atol=1e-12)
        # second layer sees constant features with a border-contaminated
        # mask; its interior is still bias-only
        nxt = T.conv2d(out, T.constant(rnd(14).normal(size=(2, 4, 3, 3))),
                       T.constant(np.array([0.5, -0.25])), 1, 1,
                       scale=N.propagate_mask(zeros, w, 1, 1))
        interior = nxt.data[:, :, 2:-2, 2:-2]
        assert np.allclose(interior[0, 0], 0.5, atol=1e-6)
        assert np.allclose(interior[0, 1], -0.25, atol=1e-6)

    def test_imask_multiplies_input_only(self):
        cfg = N.UNetConfig(levels=2, base_channels=4)
        params = tiny_params(cfg, seed=15)
        x = rnd(16).random((1, 3, 8, 8))
        mask = np.clip(rnd(17).random((1, 3, 8, 8)), 0, 1)
        y_imask, stack = N.unet_forward(x, mask, in_mode(params, "IMask"))
        y_manual, _ = N.unet_forward(x * mask, np.ones_like(mask), in_mode(params, "SConv"))
        assert np.allclose(y_imask.data, y_manual.data, atol=1e-12)
        for name, m in stack[1:]:
            assert np.all(m == 1.0)

    def test_frozen_masks_reproduce_stack(self):
        cfg = N.UNetConfig(levels=2, base_channels=4)
        params = tiny_params(cfg, seed=18)
        x = rnd(19).random((1, 3, 8, 8))
        mask = N.exposure_mask(x, 0.9)
        y1, stack = N.unet_forward(x, mask, params)
        y2, stack2 = N.unet_forward(x, mask, params, frozen_masks=dict(stack))
        assert np.array_equal(y1.data, y2.data)
        for (n1, m1), (n2, m2) in zip(stack, stack2):
            assert n1 == n2 and np.array_equal(m1, m2)


    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    def test_constant_parameters_record_no_graph(self, mode):
        params = tiny_params(N.UNetConfig(levels=3, base_channels=4, mode=mode), seed=20)
        x = rnd(21).random((1, 3, 16, 16)).astype(np.float32)
        mask = N.exposure_mask(x, 0.8)
        y_tape, stack_tape = N.unet_forward(x, mask, params)
        frozen = params.as_constants()
        y, stack = N.unet_forward(x, mask, frozen)
        assert y_tape._parents and not y._parents and not y.requires_grad
        assert np.array_equal(y.data, y_tape.data)
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(stack, stack_tape))
        for name, t in frozen.tensors.items():
            assert t.name == name and not t.requires_grad
            assert t.data is params.tensors[name].data


class TestMasklessModes:
    """IMask applies the mask to the input only and SConv not at all, so
    neither carries one through the layers: every conv2d gets no ``scale``
    and no mask is propagated; FMask, for contrast, does both."""

    @pytest.mark.parametrize("walk", ["unet_forward", "predict"])
    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    def test_only_fmask_layers_get_and_propagate_masks(self, monkeypatch, mode, walk):
        params = tiny_params(N.UNetConfig(levels=3, base_channels=2, mode=mode), seed=52)
        scales, propagated = [], []
        conv2d, propagate = T.conv2d, N.propagate_mask
        signature = inspect.signature(conv2d)

        def spy_conv(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            scales.append((bound["w"].name, bound.get("scale"), bound.get("skip_scale")))
            return conv2d(*args, **kwargs)

        def spy_propagate(*args, **kwargs):
            propagated.append(args[1].name)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(T, "conv2d", spy_conv)
        monkeypatch.setattr(N, "propagate_mask", spy_propagate)
        # predict in strips of a few rows, so that rows go through the row buffers
        monkeypatch.setattr(N, "_STRIP_ELEMS", 1)
        x = rnd(53).random((1, 3, 32, 16))
        getattr(N, walk)(x, N.exposure_mask(x, 0.8), params)
        layers = {f"{spec.name}.weight" for spec in N.layer_plan(params.config)}
        assert {name for name, _, _ in scales} == layers
        if mode == N.MODE_FEATURE_MASK:
            for name, scale, skip_scale in scales:
                assert scale is not None and (skip_scale is None) != name.startswith("dec")
            assert set(propagated) == (layers if walk == "unet_forward"
                                       else layers - {"out.weight"})
        else:
            assert all(scale is None and skip_scale is None for _, scale, skip_scale in scales)
            assert propagated == []

    @pytest.mark.parametrize("mode", [N.MODE_INPUT_MASK, N.MODE_STANDARD_CONV])
    def test_stack_reads_ones_from_views_that_allocate_nothing(self, mode):
        params = tiny_params(N.UNetConfig(levels=3, base_channels=2), seed=54)
        x = rnd(55).random((2, 3, 16, 8)).astype(np.float32)
        mask = N.exposure_mask(x, 0.8)
        _, want = N.unet_forward(x, mask, params)
        _, stack = N.unet_forward(x, mask, in_mode(params, mode))
        assert [name for name, _ in stack] == [name for name, _ in want]
        for (name, m), (_, w) in zip(stack, want):
            assert m.shape == w.shape and m.dtype == np.float32, name
            assert np.all(m == 1) and not m.flags.writeable and not any(m.strides), name


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestLayerGraphMemory:
    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    def test_one_conv2d_call_per_layer_with_its_whole_weight(self, monkeypatch, mode):
        params = tiny_params(N.UNetConfig(levels=3, base_channels=2, mode=mode), seed=48)
        calls, conv2d = [], T.conv2d

        def spy(x, w, *args, **kwargs):
            calls.append(w)
            return conv2d(x, w, *args, **kwargs)

        monkeypatch.setattr(T, "conv2d", spy)
        x = rnd(49).random((1, 3, 16, 16))
        N.unet_forward(x, N.exposure_mask(x, 0.8), params)
        assert [id(w) for w in calls] == [id(params.tensors[f"{s.name}.weight"])
                                          for s in N.layer_plan(params.config)]

    def test_graph_holds_each_layers_planes_and_output(self):
        # Each layer is one node that keeps its convolutions' planes and its
        # output; the masks it multiplies by are the stack unet_forward returns.
        config = N.UNetConfig(levels=2, base_channels=4)
        params = N.UNetParameters.from_arrays(config, {
            k: a.astype(np.float32) for k, a in tiny_params(config, seed=46).named_arrays().items()})
        rng = rnd(47)
        x = rng.random((2, 3, 16, 16)).astype(np.float32)
        # Saturation everywhere: every mask conv runs dense.
        mask = rng.random(x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            y, stack = N.unet_forward(x, mask, params)
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        finally:
            tracemalloc.stop()
        # The bytes of the numpy arrays still alive, less the returned masks.
        held = sum(s.size for s in arrays.statistics("filename"))
        held -= sum(m.nbytes for _, m in stack[1:])
        n, item, extents = x.shape[0], 4, {0: 16, 1: 8}

        def planes(c, level, stride=1):
            side = extents[level] + 2
            return n * c * stride ** 2 * (-(-side // stride)) ** 2 * item

        want = 0
        for spec in N.layer_plan(config):
            level = int(spec.name[3:]) if spec.name != "out" else 0
            out = n * spec.out_channels * extents[level] ** 2 * item
            if spec.name.startswith("dec"):
                skip = spec.out_channels  # a decoder outputs its skip's width
                want += planes(skip, level) + planes(spec.in_channels - skip, level + 1) + out
            else:
                stride = spec.inputs[0][1]
                source = level - 1 if stride == 2 else level
                want += planes(spec.in_channels, source, stride) + out
        assert y.data.dtype == np.float32
        assert held <= 1.1 * want, (held, want)


class TestDecoderLayer:
    TOL = {np.float64: 1e-12, np.float32: 1e-6}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_upsample_concat_conv(self, dtype):
        # batch 2 and odd 5x3 half-resolution extents
        rng = rnd(30)
        x, m = rng.normal(size=(2, 3, 5, 3)), rng.random((2, 3, 5, 3))
        s, ms = rng.normal(size=(2, 2, 10, 6)), rng.random((2, 2, 10, 6))
        w, b = rng.normal(size=(4, 5, 3, 3)), rng.normal(size=4)
        g = rng.normal(size=(2, 4, 10, 6))
        x, m, s, ms, w, b, g = (a.astype(dtype) for a in (x, m, s, ms, w, b, g))
        out, mask_out, dw, dx, ds = upsample_concat_conv(x, m, s, ms, w, b, 1, grad=g)
        X, S = T.parameter(x), T.parameter(s)
        W, B = T.parameter(w, name="dec0.weight"), T.parameter(b)
        got = T.conv2d(X, W, B, 1, 1, scale=m, skip=S, skip_scale=ms)
        got_mask = N.propagate_mask(m, W, 1, 1, skip=ms)
        T.backward(T.tsum(got * T.constant(g)), [X, S, W, B])
        tol = self.TOL[dtype]
        assert got.data.dtype == got_mask.dtype == dtype
        for name, a, want in [("out", got.data, out), ("mask", got_mask, mask_out),
                              ("dw", W.grad, dw), ("dx", X.grad, dx), ("dskip", S.grad, ds)]:
            assert rel_err(a, want) <= tol, name
        alone = N.propagate_mask(m[1:], W, padding=1, skip=ms[1:])
        assert np.array_equal(alone, got_mask[1:])


class TestRowBlockMasks:
    """Mask propagation and the decoder layer with the conv forward's block
    budget cut, so every convolution runs several row blocks, the last one
    shorter."""
    TOL = {np.float64: 1e-12, np.float32: 1e-6}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_propagate_mask(self, row_blocks, dtype, stride):
        rng = rnd(80 + stride)
        m = rng.random((2, 3, 11, 7)).astype(dtype)
        w = rng.normal(size=(3, 3, 3, 3)).astype(dtype)
        row_blocks([(m.shape, w.shape, stride, 1)], 4)
        _, want = masked_conv_loops(np.zeros_like(m), m, w, stride=stride, padding=1)
        got = N.propagate_mask(m, w, stride=stride, padding=1)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert rel_err(got, want) <= self.TOL[dtype]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decoder_layer(self, row_blocks, dtype):
        rng = rnd(90)
        x, m = rng.normal(size=(2, 3, 5, 3)), rng.random((2, 3, 5, 3))
        s, ms = rng.normal(size=(2, 2, 10, 6)), rng.random((2, 2, 10, 6))
        w, b = rng.normal(size=(3, 5, 3, 3)), rng.normal(size=3)
        g = rng.normal(size=(2, 3, 10, 6))
        x, m, s, ms, w, b, g = (a.astype(dtype) for a in (x, m, s, ms, w, b, g))
        # The half-resolution phase conv and the full-resolution skip conv.
        row_blocks([(x.shape, (12, 3, 2, 2), 1, 1), (s.shape, (3, 2, 3, 3), 1, 1)], 4)
        out, mask_out, dw, dx, ds = upsample_concat_conv(x, m, s, ms, w, b, 1, grad=g)
        X, S = T.parameter(x), T.parameter(s)
        W, B = T.parameter(w, name="dec0.weight"), T.parameter(b)
        got = T.conv2d(X, W, B, 1, 1, scale=m, skip=S, skip_scale=ms)
        got_mask = N.propagate_mask(m, W, 1, 1, skip=ms)
        T.backward(T.tsum(got * T.constant(g)), [X, S, W, B])
        for name, a, want in [("out", got.data, out), ("mask", got_mask, mask_out),
                              ("dw", W.grad, dw), ("dx", X.grad, dx), ("dskip", S.grad, ds)]:
            assert a.dtype == dtype, name
            assert rel_err(a, want) <= self.TOL[dtype], name


class TestMaskInPlace:
    """``propagate_mask`` written into a slice of a row buffer's rows, with
    :func:`~hdrmask.network.mask_operands` derived beforehand, is its fresh
    result bit for bit: the dense call over several row blocks, the last
    ragged, and the call gathered from a window's flagged tiles."""

    @staticmethod
    def tiles(n, rows, width, band, period, seed):
        """A window's tiles, about a third flagged and the first one clean."""
        flags = rnd(seed).random((n, -(-rows // band), -(-width // 8))) < 0.35
        flags[0, 0, 0] = False
        return N.CleanTiles(flags, 0, (rows, width), band, 8, period, [None])

    @staticmethod
    def layer(n, dtype, up):
        """An encoder's or a decoder's mask, weights and skip mask."""
        rng = rnd(100 + n + up)
        w = T.constant(rng.normal(size=(4, 5 if up else 3, 3, 3)).astype(dtype), name="l.weight")
        m = rng.random((n, 3, 10, 12) if up else (n, 3, 19, 24)).astype(dtype)
        skip = rng.random((n, 2, 20, 24)).astype(dtype) if up else None
        return m, w, skip

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("stride,up", [(1, False), (2, False), (1, True)])
    def test_dense(self, row_blocks, in_place, dtype, n, stride, up):
        m, w, skip = self.layer(n, dtype, up)
        if up:
            row_blocks([(m.shape, (16, 3, 2, 2), 1, 1), (skip.shape, (4, 2, 3, 3), 1, 1)], 5)
        else:
            row_blocks([(m.shape, w.data.shape, stride, 1)], 3)
        fresh = N.propagate_mask(m, w, stride, 1, skip=skip)
        ops = N.mask_operands(w.data, 3 if up else 0, dtype)
        for operands in (None, ops):
            in_place(fresh, lambda slot: N.propagate_mask(m, w, stride, 1, skip=skip, out=slot,
                                                          operands=operands))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("up", [False, True])
    def test_gathered(self, monkeypatch, in_place, dtype, n, up):
        m, w, skip = self.layer(n, dtype, up)
        gathers = []
        gather = N._gather
        monkeypatch.setattr(N, "_gather", lambda *args: gathers.append(1) or gather(*args))
        # Bands of 8 rows over 19 or 20, the last one ragged, and a decoder's
        # pattern repeating every 2 rows and columns.
        rows, period = (20, 2) if up else (19, 1)
        fresh = N.propagate_mask(m, w, 1, 1, skip=skip,
                                 tiles=self.tiles(n, rows, 24, 8, period, n))
        assert gathers
        ops = N.mask_operands(w.data, 3 if up else 0, dtype)
        for operands in (None, ops):
            in_place(fresh, lambda slot: N.propagate_mask(
                m, w, 1, 1, skip=skip, tiles=self.tiles(n, rows, 24, 8, period, n), out=slot,
                operands=operands))


def reference_unet(x, mask, arrays, config, mode):
    """The masked U-Net the long way: loop convolutions, and every decoder
    input built as the upsample of the level below concatenated with its skip."""
    acts = {"leaky_relu": lambda v: np.where(v > 0, v, config.leaky_slope * v),
            "relu": lambda v: np.maximum(v, 0.0), "identity": lambda v: v}
    pad = config.kernel_size // 2
    if mode == N.MODE_INPUT_MASK:
        x = x * mask
    if mode != N.MODE_FEATURE_MASK:
        mask = np.ones_like(mask)
    f, m, stack, skips = x, mask, [("input", mask)], []
    for i, spec in enumerate(N.layer_plan(config)):
        w, b = arrays[f"{spec.name}.weight"], arrays[f"{spec.name}.bias"]
        if spec.name.startswith("dec"):
            f, m_out = upsample_concat_conv(f, m, *skips.pop(), w, b, pad)
        else:
            f, m_out = masked_conv_loops(f, m, w, b, spec.inputs[0][1], pad)
        f = acts[spec.activation](f)
        m = m_out if mode == N.MODE_FEATURE_MASK else np.ones_like(f)
        stack.append((spec.name, m))
        if i < config.levels - 1:
            skips.append((f, m))
    return f, stack


class TestUNetAgainstReference:
    # 40x24 at four levels: the bottom level is 5x3, so every decoder
    # upsamples odd extents.
    CFG = N.UNetConfig(levels=4, base_channels=1)
    # Eight float32 layers in a row: rounding alone puts the output about
    # 1e-6 from the float64 reference (the upsample-then-conv decoder read
    # up to 1.2e-6 here too), so float32 gets twice the per-layer bound.
    TOL = {np.float64: 1e-12, np.float32: 2e-6}

    @pytest.fixture(scope="class")
    def case(self):
        # Inputs exactly representable in float32, so that the float32 runs
        # differ from the reference by their arithmetic alone.
        def f32(a):
            return a.astype(np.float32).astype(np.float64)

        rng = rnd(31)
        x = f32(rng.random((2, 3, 40, 24)))
        mask = f32(N.exposure_mask(np.clip(x + 0.3, 0.0, 1.0), 0.9))
        arrays = {k: f32(a) for k, a in
                  tiny_params(self.CFG, seed=32, scale=0.5).named_arrays().items()}
        return x, mask, arrays, {mode: reference_unet(x, mask, arrays, self.CFG, mode)
                                 for mode in N.MASKING_MODES}

    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_modes_match_reference(self, case, mode, dtype):
        x, mask, arrays, refs = case
        params = N.UNetParameters.from_arrays(
            replace(self.CFG, mode=mode), {k: a.astype(dtype) for k, a in arrays.items()})
        y, stack = N.unet_forward(x.astype(dtype), mask.astype(dtype), params)
        want_y, want_stack = refs[mode]
        assert y.data.dtype == dtype
        assert rel_err(y.data, want_y) <= self.TOL[dtype]
        assert [n for n, _ in stack] == [n for n, _ in want_stack]
        for (name, got), (_, want) in zip(stack, want_stack):
            assert got.shape == want.shape and rel_err(got, want) <= self.TOL[dtype], name

    def test_frozen_masks_match_reference(self, case):
        x, mask, arrays, refs = case
        params = N.UNetParameters.from_arrays(self.CFG, arrays)
        want_y, want_stack = refs[N.MODE_FEATURE_MASK]
        y, stack = N.unet_forward(x, mask, params, frozen_masks=dict(want_stack))
        assert rel_err(y.data, want_y) <= self.TOL[np.float64]
        assert all(got is want for (_, got), (_, want) in zip(stack[1:], want_stack[1:]))


class TestPredict:
    """``predict`` advances every layer a strip of output rows at a time. One
    strip runs exactly unet_forward's operations; across strips a GEMM over
    fewer columns may round differently, so several strips agree within the
    bounds of TestUNetAgainstReference."""
    CFG = N.UNetConfig(levels=4, base_channels=2)
    TOL = {np.float64: 1e-12, np.float32: 2e-6}

    def run(self, monkeypatch, h, w, dtype, mode, rows=None):
        """predict and unet_forward at batch 2; ``rows`` cuts the strip budget
        to that many rows at the deepest level. Returns both and the strip count."""
        rng = rnd(40 + h + w)
        x = rng.random((2, 3, h, w))
        mask = N.exposure_mask(np.clip(x + 0.3, 0.0, 1.0), 0.9)
        params = N.UNetParameters.from_arrays(replace(self.CFG, mode=mode), {
            k: a.astype(dtype) for k, a in
            tiny_params(self.CFG, seed=41, scale=0.5).named_arrays().items()})
        factor = self.CFG.downsample_factor
        if rows is not None:
            monkeypatch.setattr(N, "_STRIP_ELEMS",
                                rows * 2 * self.CFG.base_channels * w * factor)
        want, _ = N.unet_forward(x.astype(dtype), mask.astype(dtype), params)
        strips = []
        advance = N._Frontier.advance
        monkeypatch.setattr(N._Frontier, "advance",
                            lambda walk, end: strips.append(end) or advance(walk, end))
        got = N.predict(x.astype(dtype), mask.astype(dtype), params)
        return got, want.data, len(strips)

    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_strip_is_exact(self, monkeypatch, mode, dtype):
        got, want, strips = self.run(monkeypatch, 64, 64, dtype, mode)
        assert strips == 1
        assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("extent", [(136, 40), (200, 24)])
    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_strips_agree(self, monkeypatch, extent, rows, mode, dtype):
        # Two deepest rows per strip leave a one-row last strip at both extents.
        h, w = extent
        got, want, strips = self.run(monkeypatch, h, w, dtype, mode, rows)
        step = rows * self.CFG.downsample_factor
        assert strips == -(-h // step) and (rows == 1 or h % step)
        assert got.dtype == dtype and got.shape == want.shape
        assert rel_err(got, want) <= self.TOL[dtype]

    def test_output_mask_never_propagated(self, monkeypatch):
        layers = []
        propagate = N.propagate_mask

        def spy(mask, weights, *args, **kwargs):
            layers.append(weights.name)
            return propagate(mask, weights, *args, **kwargs)

        monkeypatch.setattr(N, "propagate_mask", spy)
        monkeypatch.setattr(N, "_STRIP_ELEMS", 1)
        x = rnd(42).random((1, 3, 32, 16))
        N.predict(x, N.exposure_mask(x, 0.8), tiny_params(self.CFG, seed=43))
        names = {f"{s.name}.weight" for s in N.layer_plan(self.CFG)}
        assert set(layers) == names - {"out.weight"}

    @pytest.mark.parametrize("kernel,levels", [(3, 4), (5, 3), (1, 3)])
    def test_fmask_reads_each_input_row_once(self, monkeypatch, kernel, levels):
        # FMask's table of saturated pixels grows as node 0 reads the source,
        # and no window looks up a table row that node 0 has not read yet.
        config = N.UNetConfig(levels=levels, base_channels=2, kernel_size=kernel)
        x = rnd(74).random((1, 3, 72, 24))
        array_source, shape = N._array_source(x, N.exposure_mask(x, 0.8), config)
        calls = []

        def source(a, b):
            calls.append((a, b))
            return array_source(a, b)

        tiles = N._Frontier._tiles

        def read_first(walk, v, a, b):
            assert walk.bounds[v][0][1][b - 1] <= walk.done[0], (v, a, b)
            return tiles(walk, v, a, b)

        monkeypatch.setattr(N._Frontier, "_tiles", read_first)
        monkeypatch.setattr(N, "_STRIP_ELEMS", 1)
        strips = list(N.predict_strips(source, shape, tiny_params(config, seed=75)))
        assert len(strips) > 1
        assert sorted(r for a, b in calls for r in range(a, b)) == list(range(72))

    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    def test_layers_write_into_their_row_buffers(self, monkeypatch, mode):
        # From the second strip on, each layer's conv and mask propagation
        # write their rows straight into the node's row buffers, right where
        # its consumers read them; the output's strips are the caller's.
        config = replace(self.CFG, mode=mode)
        x = rnd(76).random((2, 3, 48, 24))
        source, shape = N._array_source(x, N.exposure_mask(x, 0.8), config)
        written, conv2d, propagate = [], T.conv2d, N.propagate_mask

        def conv_spy(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            written.append((args[1].name, 0, out.data))
            return out

        def mask_spy(m, weights, *args, **kwargs):
            out = propagate(m, weights, *args, **kwargs)
            written.append((weights.name, 1, out))
            return out

        monkeypatch.setattr(T, "conv2d", conv_spy)
        monkeypatch.setattr(N, "propagate_mask", mask_spy)
        monkeypatch.setattr(N, "_STRIP_ELEMS", 1)  # strips of eight rows
        walk = N._Frontier(source, shape, tiny_params(config, seed=77).as_constants(),
                           out_mask=False)
        top, names = len(walk.plan), [f"{spec.name}.weight" for spec in walk.plan]
        checked = set()
        for row in range(0, 48, walk.strip):
            written.clear()
            walk.advance(row + walk.strip)
            if row:
                for name, k, rows in written:
                    v = names.index(name) + 1
                    assert v == top or np.shares_memory(rows, walk.buffers[v][k]), name
                    checked.add((v, k))
                for v in range(top):
                    held = (walk.features[v].data, walk.masks[v])
                    assert walk.done[v] == walk.keep[v] or all(
                        np.shares_memory(a, buf) for a, buf in zip(held, walk.buffers[v])), v
        masked = mode == N.MODE_FEATURE_MASK
        assert checked == {(v, k) for v in range(1, top + 1) for k in range(1 + masked)
                           if v < top or k == 0}
        assert walk.buffers[top] is None

    def test_each_walk_derives_its_own_weights(self, monkeypatch):
        # Two walks of different parameters advanced in lock step, and a walk
        # after the parameters changed, give the strips of walks run alone.
        monkeypatch.setattr(N, "_STRIP_ELEMS", 1)
        x = rnd(78).random((1, 3, 48, 24))
        mask = N.exposure_mask(x, 0.8)
        params = [tiny_params(self.CFG, seed=s) for s in (79, 80)]

        def strips(p):
            return N.predict_strips(*N._array_source(x, mask, self.CFG), p)

        alone = [list(strips(p)) for p in params]
        walks = [strips(p) for p in params]
        for step in zip(*alone):
            for walk, (row, y) in zip(walks, step):
                got_row, got = next(walk)
                assert got_row == row and np.array_equal(got, y)
        changed = params[0]
        for name, t in changed.tensors.items():
            t.data = t.data * 1.5
        fresh = N.UNetParameters.from_arrays(self.CFG, changed.named_arrays())
        assert np.array_equal(N.predict(x, mask, changed), N.predict(x, mask, fresh))
        assert not np.array_equal(N.predict(x, mask, changed), np.concatenate(
            [y for _, y in alone[0]], axis=2))

    def test_peak_allocation_not_above_the_copying_walk(self):
        # The same walk with each strip's rows computed into new arrays and
        # then copied into the row buffers peaked at 32328183 bytes with
        # numpy 2.4 on CPython 3.11: the rows written in place, and held
        # rows freed once moved, leave room for each layer's weights derived
        # once per walk.
        config = N.UNetConfig()
        params = N.UNetParameters.from_arrays(config, {
            k: a.astype(np.float32) for k, a in tiny_params(config, seed=44).named_arrays().items()})
        x = rnd(45).random((1, 3, 512, 512)).astype(np.float32)
        mask = N.exposure_mask(x)
        tracemalloc.start()
        try:
            N.predict(x, mask, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32328183, peak

    def test_peak_allocation_a_quarter_of_unet_forward(self):
        # tracemalloc counts numpy's buffers, so the peaks are deterministic.
        config = N.UNetConfig()
        params = N.UNetParameters.from_arrays(config, {
            k: a.astype(np.float32) for k, a in tiny_params(config, seed=44).named_arrays().items()})
        x = rnd(45).random((1, 3, 512, 512)).astype(np.float32)
        mask = N.exposure_mask(x)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        whole = peak(lambda: N.unet_forward(x, mask, params.as_constants()))
        streamed = peak(lambda: N.predict(x, mask, params))
        assert streamed <= whole / 4, (streamed, whole)


class TestMaskStrips:
    """``mask_strips`` yields each layer's finished mask rows, channel 0 of the
    first image, from predict's walk; joined, they are unet_forward's stack."""

    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    def test_rows_join_to_the_stack(self, monkeypatch, mode):
        config = N.UNetConfig(levels=3, base_channels=2, mode=mode)
        params = tiny_params(config, seed=72)
        x = rnd(73).random((2, 3, 44, 24))
        mask = N.exposure_mask(x, 0.8)
        _, stack = N.unet_forward(x, mask, params)
        monkeypatch.setattr(N, "_STRIP_ELEMS", 1)  # strips of four rows
        got = {}
        for name, row, rows in N.mask_strips(*N._array_source(x, mask, config), params):
            parts = got.setdefault(name, [])
            assert row == sum(len(p) for p in parts), name
            parts.append(np.array(rows))
        assert list(got) == [name for name, _ in stack]
        assert len(got["out"]) == 11
        for name, m in stack:
            joined = np.concatenate(got[name])
            assert joined.shape == m.shape[2:] and rel_err(joined, m[0, 0]) <= 1e-12, name


def dense_masks(mask, params):
    """Every layer's mask by :func:`N.propagate_mask` over the whole image, untiled."""
    config = params.config
    pad, m, masks, skips = config.kernel_size // 2, mask, {}, []
    for i, spec in enumerate(N.layer_plan(config)):
        w = params.tensors[f"{spec.name}.weight"]
        if spec.name.startswith("dec"):
            m = N.propagate_mask(m, w, padding=pad, skip=skips.pop())
        else:
            m = N.propagate_mask(m, w, spec.inputs[0][1], pad)
        masks[spec.name] = m
        if i < config.levels - 1:
            skips.append(m)
    return masks


class TestCleanTiles:
    """predict's walk runs each mask conv on the tiles saturation reaches and
    fills the others with the layer's all-valid pattern. Under a convolution
    that rounds every output alike (``conv2d_terms``) its masks equal the
    dense ones bit for bit, so a pixel wrongly taken for clean, or a pattern
    laid a row or a column off, shows as a changed bit."""
    CFG = N.UNetConfig(levels=4, base_channels=2)
    TOL = {np.float64: 1e-12, np.float32: 2e-6}

    @pytest.fixture()
    def exact_conv(self, monkeypatch):
        monkeypatch.setattr(T, "conv2d_raw", conv2d_terms)

    def walk_masks(self, monkeypatch, x, mask, params, rows=None):
        """predict's masks per layer, joined from the windows it propagates;
        ``rows`` cuts the strips to that many rows at the deepest level."""
        got = {}
        propagate, strip = N.propagate_mask, N._STRIP_ELEMS

        def spy(m, weights, *args, **kwargs):
            out = propagate(m, weights, *args, **kwargs)
            got.setdefault(weights.name[:-len(".weight")], []).append(np.array(out))
            return out

        monkeypatch.setattr(N, "propagate_mask", spy)
        if rows is not None:
            config = params.config
            monkeypatch.setattr(N, "_STRIP_ELEMS", rows * x.shape[0] * config.base_channels
                                * x.shape[3] * config.downsample_factor)
        N.predict(x, mask, params)
        monkeypatch.setattr(N, "propagate_mask", propagate)
        monkeypatch.setattr(N, "_STRIP_ELEMS", strip)
        return {name: np.concatenate(parts, axis=2) for name, parts in got.items()}

    def params(self, dtype, config=None):
        config = config or self.CFG
        return N.UNetParameters.from_arrays(config, {
            k: a.astype(dtype) for k, a in tiny_params(config, seed=71).named_arrays().items()})

    @staticmethod
    def case(name, h=64, w=96):
        """An input and its mask: all valid, all saturated, one pixel below 1
        in the interior, on a tile corner or one pixel from the edge, or a
        photo's exposure mask."""
        x = rnd(70).random((1, 3, h, w))
        mask = np.ones_like(x)
        if name == "saturated":
            mask[:] = 0.0
        elif name == "interior":
            mask[0, 1, 37, 45] = 0.25
        elif name == "corner":
            mask[0, 0, 24, 40] = 0.5
        elif name == "border":
            mask[0, 2, 1, 50] = 0.0
        elif name == "photo":
            mask = N.exposure_mask(np.clip(x + 0.25 * (x > 0.8), 0.0, 1.0), 0.9)
        return x, mask

    @pytest.mark.parametrize("rows", [None, 1])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", ["valid", "saturated", "interior", "corner", "border",
                                      "photo"])
    def test_walk_masks_equal_dense_masks(self, monkeypatch, exact_conv, name, dtype, rows):
        x, mask = (a.astype(dtype) for a in self.case(name))
        params = self.params(dtype)
        want = dense_masks(mask, params)
        got = self.walk_masks(monkeypatch, x, mask, params, rows)
        assert set(got) == set(want) - {"out"}
        for layer, m in got.items():
            assert m.dtype == dtype and np.array_equal(m, want[layer]), layer

    @pytest.mark.parametrize("kernel,levels", [(1, 3), (5, 3), (3, 2)])
    @pytest.mark.parametrize("name", ["valid", "photo"])
    def test_other_kernels_and_depths(self, monkeypatch, exact_conv, kernel, levels, name):
        # A 1x1 kernel reads no padding, so an all-valid photo has no dirty tile.
        config = N.UNetConfig(levels=levels, base_channels=2, kernel_size=kernel)
        params = self.params(np.float64, config)
        x, mask = self.case(name)
        want = dense_masks(mask, params)
        for layer, m in self.walk_masks(monkeypatch, x, mask, params, 1).items():
            assert np.array_equal(m, want[layer]), layer

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_odd_extents_through_the_reflect_pad(self, monkeypatch, exact_conv, dtype):
        # reconstruct's pad: the bottom and right edges reflected up to the factor.
        x, mask = self.case("photo", 45, 61)
        pad = ((0, 0), (0, 0), (0, 3), (0, 3))
        x, mask = (np.pad(a, pad, mode="reflect").astype(dtype) for a in (x, mask))
        params = self.params(dtype)
        want = dense_masks(mask, params)
        for layer, m in self.walk_masks(monkeypatch, x, mask, params, 1).items():
            assert np.array_equal(m, want[layer]), layer

    @pytest.mark.parametrize("rows", [None, 1])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gemm_masks_within_predict_tolerance(self, monkeypatch, dtype, rows):
        # With the GEMM convolution a gathered tile may round apart from the
        # dense pass, never by more than predict's own bounds.
        x, mask = (a.astype(dtype) for a in self.case("photo"))
        params = self.params(dtype)
        want = dense_masks(mask, params)
        for layer, m in self.walk_masks(monkeypatch, x, mask, params, rows).items():
            assert rel_err(m, want[layer]) <= self.TOL[dtype], layer

    @staticmethod
    def coarsen(dirty, tiles):
        """The (N, H, W) pixel map ``dirty`` over the tiles of ``tiles``' window."""
        (rows, width), (n, bands, across) = tiles.shape, tiles.flags.shape
        cells = np.zeros((n, bands * tiles.band, across * tiles.side), dtype=bool)
        cells[:, :rows, :width] = dirty[:, tiles.row:tiles.row + rows, :width]
        return cells.reshape(n, bands, tiles.band, across, tiles.side).any(axis=(2, 4))

    @pytest.mark.parametrize("kernel,levels", [(3, 4), (3, 3), (5, 3), (5, 2), (1, 3)])
    @pytest.mark.parametrize("walk", ["unet_forward", "predict", "predict-1-row"])
    def test_tile_flags_match_the_oracle(self, monkeypatch, kernel, levels, walk):
        # The flags come from input rectangles, the oracle from the layers'
        # receptive fields pixel by pixel. They agree wherever a receptive
        # field is a rectangle; a stride-2 1x1 conv reads every other row and
        # column, so with kernel 1 the rectangle may flag a few tiles more.
        config = N.UNetConfig(levels=levels, base_channels=2, kernel_size=kernel)
        params = self.params(np.float64, config)
        cases = [self.case(name) for name in ("valid", "interior", "corner", "border")]
        x, mask = (np.concatenate(parts) for parts in zip(*cases))
        mask[3, 0, 60, 7] = 0.5
        want = dirty_maps((mask < 1).any(axis=1), levels, kernel)
        windows = []
        propagate = N.propagate_mask

        def spy(m, weights, *args, **kwargs):
            windows.append((weights.name[:-len(".weight")], kwargs["tiles"]))
            return propagate(m, weights, *args, **kwargs)

        monkeypatch.setattr(N, "propagate_mask", spy)
        if walk == "unet_forward":
            N.unet_forward(x, mask, params)
        else:
            if walk == "predict-1-row":
                monkeypatch.setattr(N, "_STRIP_ELEMS", x.shape[0] * config.base_channels
                                    * x.shape[3] * config.downsample_factor)
            N.predict(x, mask, params)
        layers = {spec.name for spec in N.layer_plan(config)}
        assert {name for name, _ in windows} == (
            layers if walk == "unet_forward" else layers - {"out"})
        clean = 0
        for name, tiles in windows:
            oracle = self.coarsen(want[name], tiles)
            if kernel == 1:
                assert np.all(tiles.flags >= oracle), name
            else:
                assert np.array_equal(tiles.flags, oracle), (name, tiles.row)
            clean += np.count_nonzero(~tiles.flags)
        assert clean

    def test_all_valid_photo_computes_only_the_border_band(self, monkeypatch):
        # Masks pad with 1 but a receptive field past the edge flags its tile,
        # so on an all-valid photo a layer's flagged tiles hold the ring its
        # receptive field reaches past the edge: one pixel at every encoder,
        # 2r + 1 at a decoder over a ring of r. Each layer computes the tiles
        # on that ring, and one more the first time a window has a clean tile,
        # to take its pattern from.
        config = N.UNetConfig()
        params = tiny_params(config, seed=72)
        h, w = 192, 256
        x = rnd(73).random((1, 3, h, w)) * 0.5
        mask = N.exposure_mask(x)
        assert np.all(mask == 1)
        state, seen = {}, {}
        propagate, gather = N.propagate_mask, N._gather

        def spy_propagate(m, weights, *args, **kwargs):
            state.update(layer=weights.name[:-len(".weight")], tiles=kwargs["tiles"])
            return propagate(m, weights, *args, **kwargs)

        def spy_gather(a, pad_rows, padding, runs, step, rows, widths, tail):
            tiles = state["tiles"]
            for _, i, first, end in zip(*runs):
                for j in range(first, end):
                    seen.setdefault(state["layer"], set()).add(
                        (tiles.row + i * tiles.band, tiles.band, j))
            return gather(a, pad_rows, padding, runs, step, rows, widths, tail)

        monkeypatch.setattr(N, "propagate_mask", spy_propagate)
        monkeypatch.setattr(N, "_gather", spy_gather)
        N.predict(x, mask, params)
        side = config.downsample_factor
        ring = {f"enc{i}": 1 for i in range(config.levels)}
        for i in range(config.levels - 2, -1, -1):
            ring[f"dec{i}"] = 2 * ring[f"dec{i + 1}" if i < config.levels - 2 else
                                       f"enc{config.levels - 1}"] + 1
        assert set(seen) == set(ring)
        for layer, tiles in seen.items():
            level = int(layer[3:])
            rows, cols = h >> level, w >> level
            edge = -(-ring[layer] // side) * side
            inner = [(r, j) for r, band, j in tiles
                     if edge <= r and r + band <= rows - edge
                     and edge <= j * side and (j + 1) * side <= cols - edge]
            assert len(inner) <= 1, (layer, inner)
            assert len(tiles) < -(-rows // side) * -(-cols // side), layer


class TestPropagatedMaskRange:
    """Layers no longer re-validate their masks; propagation alone must keep
    them in [0,1], whatever the weights' signs and scale."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_layer_mask_in_unit_interval(self, dtype, seed):
        cfg = N.UNetConfig(levels=3, base_channels=3)
        params = N.UNetParameters.from_arrays(cfg, {
            k: a.astype(dtype) for k, a in
            tiny_params(cfg, seed=50 + seed, scale=[0.1, 1.0, 10.0, 100.0][seed])
            .named_arrays().items()})
        rng = rnd(60 + seed)
        x = rng.random((2, 3, 24, 16)).astype(dtype)
        mask = rng.choice([0.0, 0.5, 1.0], size=x.shape).astype(dtype)
        _, stack = N.unet_forward(x, mask, params)
        for name, m in stack:
            assert m.dtype == dtype and np.all(m >= 0) and np.all(m <= 1), name
