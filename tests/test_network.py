import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrmask import network as N
from hdrmask import tensor as T
from hdrmask.errors import DimensionError, DomainError

from oracles import conv2d_loops


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

    def test_smoothstep_variant_endpoints(self):
        t = np.array([[[0.96, 0.98, 1.0]]])
        m = N.exposure_mask(t, 0.96, ramp="smoothstep")
        assert m[0, 0, 0] == 1.0 and m[0, 0, 2] == 0.0
        assert 0.0 < m[0, 0, 1] < 1.0

    @given(st.floats(0.0, 1.0), st.floats(0.05, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_always_in_unit_interval(self, value, alpha):
        m = N.exposure_mask(np.full((3, 1, 1), value), alpha)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)


class TestMaskFeatures:
    def test_ones_mask_identity(self):
        x = rnd(0).normal(size=(1, 2, 3, 3))
        out = N.mask_features(T.constant(x), np.ones_like(x))
        assert np.array_equal(out.features.data, x)

    def test_zeros_mask_annihilates(self):
        x = rnd(1).normal(size=(1, 2, 3, 3))
        out = N.mask_features(T.constant(x), np.zeros_like(x))
        assert np.all(out.features.data == 0)

    def test_elementwise_product(self):
        x = np.array([2.0, 4.0]).reshape(1, 1, 1, 2)
        m = np.array([0.5, 0.25]).reshape(1, 1, 1, 2)
        out = N.mask_features(T.constant(x), m)
        assert np.allclose(out.features.data.ravel(), [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            N.mask_features(T.constant(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 2, 3)))


class TestPropagateMask:
    def test_all_ones_interior(self):
        # normalized kernel sums to s/(s+eps), just below 1
        rng = rnd(2)
        w = rng.normal(size=(2, 1, 3, 3))
        m = np.ones((1, 6, 6))
        out = N.propagate_mask(m, w, padding=1)
        s = np.abs(w).sum(axis=(1, 2, 3))
        for o in range(2):
            expected = s[o] / (s[o] + 1e-6)
            assert np.allclose(out[o], expected, atol=1e-4)
            assert abs(out[o, 3, 3] - 1.0) < 1e-4

    def test_center_zero_spot_value(self):
        m = np.ones((1, 5, 5))
        m[0, 2, 2] = 0.0
        out = N.propagate_mask(m, np.ones((1, 1, 3, 3)), padding=1)
        assert abs(out[0, 2, 2] - 8.0 / (9.0 + 1e-6)) < 1e-12

    def test_zero_mask_stays_zero(self):
        out = N.propagate_mask(np.zeros((1, 8, 8)), rnd(3).normal(size=(3, 1, 3, 3)),
                               padding=0)
        assert np.all(out <= 1e-6)

    def test_all_zero_kernel_guarded(self):
        out = N.propagate_mask(np.ones((1, 4, 4)), np.zeros((1, 1, 3, 3)), padding=1)
        assert np.all(out <= 1e-6)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, seed):
        rng = rnd(seed)
        w = rng.normal(size=(2, 2, 3, 3))
        a = rng.random((2, 6, 6))
        b = np.clip(a + rng.random((2, 6, 6)) * (1 - a), 0, 1)  # b >= a
        out_a = N.propagate_mask(a, w, padding=1)
        out_b = N.propagate_mask(b, w, padding=1)
        assert np.all(out_a >= 0) and np.all(out_a <= 1)
        assert np.all(out_b - out_a >= -1e-12)


class TestMaskedConvLayer:
    def test_ones_mask_equals_standard_conv(self):
        rng = rnd(4)
        x = rng.normal(size=(1, 2, 6, 6))
        w = T.parameter(rng.normal(size=(3, 2, 3, 3)))
        b = T.parameter(rng.normal(size=3))
        inp = N.MaskedFeature(T.constant(x), np.ones_like(x))
        out = N.masked_conv_layer(inp, w, b, 1, 1, "identity")
        want = conv2d_loops(x, w.data, b.data, 1, 1, 0.0)
        assert np.allclose(out.features.data, want, atol=1e-10)
        assert np.all(out.mask > 1.0 - 1e-4)

    def test_center_zero_mask_drops_contribution(self):
        x = np.ones((1, 1, 5, 5))
        m = np.ones_like(x)
        m[0, 0, 2, 2] = 0.0
        inp = N.MaskedFeature(T.constant(x), m)
        out = N.masked_conv_layer(inp, T.constant(np.ones((1, 1, 3, 3))),
                                  T.constant(np.zeros(1)), 1, 1, "identity")
        assert np.isclose(out.features.data[0, 0, 2, 2], 8.0)

    def test_zero_features_give_bias(self):
        rng = rnd(5)
        b = rng.normal(size=3)
        inp = N.MaskedFeature(T.constant(np.zeros((1, 2, 4, 4))),
                              rng.random((1, 2, 4, 4)))
        out = N.masked_conv_layer(inp, T.constant(rng.normal(size=(3, 2, 3, 3))),
                                  T.constant(b), 1, 1, "identity")
        assert np.allclose(out.features.data, b.reshape(1, 3, 1, 1), atol=1e-12)

    def test_gradient_with_mask_held_constant(self):
        rng = rnd(6)
        mask = rng.random((1, 2, 6, 6))
        x = T.parameter(rng.normal(size=(1, 2, 6, 6)))
        w = T.parameter(rng.normal(size=(2, 2, 3, 3)))
        b = T.parameter(rng.normal(size=2))

        def fn(x, w, b):
            out = N.masked_conv_layer(N.MaskedFeature(x, mask), w, b, 1, 1,
                                      "leaky_relu")
            return T.tmean(T.absolute(out.features))

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


class TestUNetForward:
    def test_output_shape_matches_input(self):
        cfg = N.UNetConfig(levels=3, base_channels=4)
        params = tiny_params(cfg)
        x = rnd(8).random((1, 3, 16, 16))
        y, stack = N.unet_forward(x, np.ones_like(x), params, cfg)
        assert y.data.shape == (1, 3, 16, 16)
        assert len(stack) == len(N.layer_plan(cfg)) + 1

    def test_indivisible_extent_rejected(self):
        cfg = N.UNetConfig(levels=3, base_channels=4)
        params = tiny_params(cfg)
        x = np.zeros((1, 3, 18, 18))
        with pytest.raises(DimensionError):
            N.unet_forward(x, np.ones_like(x), params, cfg)

    def test_all_valid_mask_matches_unmasked_network(self):
        cfg = N.UNetConfig(levels=3, base_channels=4)
        params = tiny_params(cfg, seed=9)
        x = rnd(10).random((2, 3, 16, 16)).astype(np.float32)
        ones = np.ones_like(x)
        y_masked, _ = N.unet_forward(x, ones, params, cfg, mode="FMask")
        y_plain, _ = N.unet_forward(x, ones, params, cfg, mode="SConv")
        denom = max(float(np.max(np.abs(y_plain.data))), 1e-9)
        assert np.max(np.abs(y_masked.data - y_plain.data)) / denom < 1e-3

    def test_masks_stay_in_unit_interval(self):
        cfg = N.UNetConfig(levels=4, base_channels=4)
        params = tiny_params(cfg, seed=11)
        x = rnd(12).random((1, 3, 32, 32))
        mask = N.exposure_mask(x)
        _, stack = N.unet_forward(x, mask, params, cfg)
        for name, m in stack:
            assert np.all(m >= 0.0) and np.all(m <= 1.0), name

    def test_zero_information_interior_is_bias_only(self):
        # zero input features and zero mask: interior pre-activations carry
        # only biases; identity activations make them directly observable
        cfg = N.UNetConfig(levels=1, base_channels=4)
        params = tiny_params(cfg, seed=13)
        x = np.zeros((1, 3, 8, 8))
        layer = N.layer_plan(cfg)[0]
        w, b = params.layers[layer.name]
        out = N.masked_conv_layer(N.MaskedFeature(T.constant(x), np.zeros_like(x)),
                                  w, b, 1, 1, "identity")
        assert np.allclose(out.features.data, b.data.reshape(1, -1, 1, 1), atol=1e-12)
        # second layer sees constant features with a border-contaminated
        # mask; its interior is still bias-only
        nxt = N.masked_conv_layer(out, T.constant(rnd(14).normal(size=(2, 4, 3, 3))),
                                  T.constant(np.array([0.5, -0.25])),
                                  1, 1, "identity")
        interior = nxt.features.data[:, :, 2:-2, 2:-2]
        assert np.allclose(interior[0, 0], 0.5, atol=1e-6)
        assert np.allclose(interior[0, 1], -0.25, atol=1e-6)

    def test_imask_multiplies_input_only(self):
        cfg = N.UNetConfig(levels=2, base_channels=4)
        params = tiny_params(cfg, seed=15)
        x = rnd(16).random((1, 3, 8, 8))
        mask = np.clip(rnd(17).random((1, 3, 8, 8)), 0, 1)
        y_imask, stack = N.unet_forward(x, mask, params, cfg, mode="IMask")
        y_manual, _ = N.unet_forward(x * mask, np.ones_like(mask), params, cfg,
                                     mode="SConv")
        assert np.allclose(y_imask.data, y_manual.data, atol=1e-12)
        for name, m in stack[1:]:
            assert np.all(m == 1.0)

    def test_frozen_masks_reproduce_stack(self):
        cfg = N.UNetConfig(levels=2, base_channels=4)
        params = tiny_params(cfg, seed=18)
        x = rnd(19).random((1, 3, 8, 8))
        mask = N.exposure_mask(x, 0.9)
        y1, stack = N.unet_forward(x, mask, params, cfg)
        y2, stack2 = N.unet_forward(x, mask, params, cfg, frozen_masks=dict(stack))
        assert np.array_equal(y1.data, y2.data)
        for (n1, m1), (n2, m2) in zip(stack, stack2):
            assert n1 == n2 and np.array_equal(m1, m2)


    @pytest.mark.parametrize("mode", N.MASKING_MODES)
    def test_constant_parameters_record_no_graph(self, mode):
        cfg = N.UNetConfig(levels=3, base_channels=4)
        params = tiny_params(cfg, seed=20)
        x = rnd(21).random((1, 3, 16, 16)).astype(np.float32)
        mask = N.exposure_mask(x, 0.8)
        y_tape, stack_tape = N.unet_forward(x, mask, params, cfg, mode=mode)
        frozen = params.as_constants()
        y, stack = N.unet_forward(x, mask, frozen, cfg, mode=mode)
        assert y_tape._parents and not y._parents and not y.requires_grad
        assert np.array_equal(y.data, y_tape.data)
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(stack, stack_tape))
        for name, t in frozen.named_tensors().items():
            assert t.name == name and not t.requires_grad
            assert t.data is params.named_tensors()[name].data


class TestExportMaskImages:
    def test_extreme_values_map_to_byte_range(self):
        stack = [("a", np.ones((1, 2, 3, 3))), ("b", np.zeros((1, 2, 3, 3)))]
        images = N.export_mask_images(stack)
        assert np.all(images[("a", 0)] == 255)
        assert np.all(images[("b", 0)] == 0)

    def test_quantization_rule(self):
        values = np.array([0.0, 0.2, 0.4, 0.997]).reshape(1, 1, 2, 2)
        images = N.export_mask_images([("x", values)])
        assert np.array_equal(images[("x", 0)],
                              np.rint(255 * values[0, 0]).astype(np.uint8))
