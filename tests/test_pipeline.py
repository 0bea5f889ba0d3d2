import math
import tracemalloc

import numpy as np
import pytest

from hdrmask import pipeline as P
from hdrmask.errors import DimensionError, DomainError, NumericError


def rnd(seed):
    return np.random.default_rng(seed)


class TestCameraCurve:
    def test_gamma_round_trip(self):
        curve = P.CameraCurve()
        x = rnd(0).random((3, 4, 4))
        assert np.allclose(curve.linearize(curve.apply(x)), x, atol=1e-12)

    def test_sigmoid_round_trip(self):
        curve = P.CameraCurve(kind="sigmoid", n=0.9, sigma=0.6)
        x = np.linspace(0.001, 1.0, 64).reshape(1, 8, 8)
        assert np.allclose(curve.linearize(curve.apply(x)), x, atol=1e-9)

    def test_invalid_kind(self):
        with pytest.raises(DomainError):
            P.CameraCurve(kind="log")


class TestSimulateLdr:
    def test_gamma_encoding_of_quarter(self):
        # most pixels sit at luminance 1, so the pivot is exactly 1 and the
        # exposure scale is the identity; 0.25 then encodes to 0.5
        h = np.full((3, 10, 10), 1.0)
        h[:, 5, 5] = 0.25
        ldr = P.simulate_ldr(h, 50.0, quantize_bits=0)
        assert np.isclose(ldr.pixels[0, 5, 5], 0.5, atol=1e-6)

    def test_values_clip_at_one(self):
        h = np.full((3, 8, 8), 1.0)
        h[:, :4] = 100.0
        ldr = P.simulate_ldr(h, 50.0, quantize_bits=0)
        assert ldr.pixels.max() == 1.0

    def test_quantization_of_half(self):
        h = np.full((3, 8, 8), 1.0)
        h[:, 4, 4] = 0.25  # encodes to 0.5 before quantization
        ldr = P.simulate_ldr(h, 50.0, quantize_bits=8)
        assert np.isclose(ldr.pixels[0, 4, 4], 128 / 255, atol=1e-7)

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            P.simulate_ldr(np.zeros((3, 4, 4)))

    def test_relinearization_recovers_clipped_radiance(self):
        h = rnd(1).random((3, 16, 16)).astype(np.float64) * 3.0
        scale = P.exposure_scale(h, 93.0)
        ldr = P.simulate_ldr(h, 93.0, quantize_bits=0)
        recovered = np.power(ldr.pixels, 2.0)
        assert np.allclose(recovered, np.clip(h * scale, 0, 1), atol=1e-12)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sorted_scales_equal_exposure_scale(self, dtype):
        h = (rnd(2).random((3, 13, 11)) ** 3 * 40).astype(dtype)
        h[:, :5] = 0.0
        scale_at = P.exposure_scales(h)
        for pct in [0.0, 1.0, 30.0, 50.0, 85.0, 93.0, 96.9, 99.99, 100.0]:
            got, want = scale_at(pct), P.exposure_scale(h, pct)
            assert got == want and type(got) is type(want), pct

    def test_sorted_scales_reject_out_of_range_percentile(self):
        with pytest.raises(DomainError):
            P.exposure_scales(np.ones((3, 4, 4)))(100.5)


class TestApplyExposure:
    @pytest.mark.parametrize("kind", P.CURVE_KINDS)
    @pytest.mark.parametrize("bits", [0, 8, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_clipping_before_the_curve(self, kind, bits, dtype):
        # Radiance from -1 to 3 at scale 1.7 reaches both sides of [0, 1].
        h = (rnd(3).random((3, 9, 7)) * 4 - 1).astype(dtype)
        curve = P.CameraCurve(kind=kind)
        want = curve.apply(np.clip(h * h.dtype.type(1.7), 0.0, 1.0)).astype(dtype, copy=False)
        if bits:
            levels = (1 << bits) - 1
            want = (np.rint(want * levels) / levels).astype(dtype, copy=False)
        got = P.apply_exposure(h, 1.7, curve, bits).pixels
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bits", [-1, 17])
    @pytest.mark.parametrize("expose", [lambda h, bits: P.apply_exposure(h, 1.7, None, bits),
                                        lambda h, bits: P.encode_exposed(h, None, bits)],
                             ids=["apply_exposure", "encode_exposed"])
    def test_quantize_bits_outside_the_range_rejected(self, expose, bits):
        with pytest.raises(DomainError, match="quantize bits"):
            expose(np.full((3, 2, 2), 0.5), bits)


def _hdr_verdict(px):
    """The error ``HdrImage`` raises for ``px``, as comparisons over every
    value decide it: finiteness first, then the sign."""
    if not np.all(np.isfinite(px)):
        return NumericError
    return DomainError if np.any(px < 0) else None


def _unit_verdict(px):
    """The error of a [0, 1] range check, as comparisons over every value
    decide it: a NaN lies outside nothing."""
    return DomainError if np.any(px < 0) or np.any(px > 1) else None


def _raised(make):
    try:
        make()
    except (DomainError, NumericError) as exc:
        return type(exc)
    return None


class TestRangeChecks:
    nan, inf = float("nan"), float("inf")
    CASES = {"in-range": [0.0, 0.5, 1.0], "minus-zero": [-0.0, 0.5], "above-1": [0.5, 1.5],
             "negative": [-0.25, 0.5], "nan": [0.5, nan], "all-nan": [nan, nan],
             "nan-and-above-1": [nan, 1.5], "nan-and-negative": [-0.5, nan],
             "inf": [0.5, inf], "minus-inf": [-inf, 0.5], "empty": []}

    @pytest.mark.parametrize("values", CASES.values(), ids=CASES.keys())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_verdicts_as_the_comparisons(self, values, dtype):
        px = np.repeat(np.array(values, dtype=dtype).reshape(1, 1, -1), 3, axis=0)
        assert _raised(lambda: P.HdrImage(px)) is _hdr_verdict(px)
        assert _raised(lambda: P.LdrImage(px)) is _unit_verdict(px)
        assert _raised(lambda: P.exposure_mask(px)) is _unit_verdict(px)
        # A NaN that passes compose_hdr's check fails its HdrImage result.
        composed = _raised(lambda: P.compose_hdr(px, np.ones_like(px), np.zeros_like(px)))
        assert (composed is DomainError) == (_unit_verdict(px) is DomainError)

    def test_messages_unchanged(self):
        with pytest.raises(NumericError, match="HdrImage contains non-finite values"):
            P.HdrImage(np.full((3, 1, 2), -np.inf))
        with pytest.raises(DomainError, match="HdrImage radiance must be non-negative"):
            P.HdrImage(np.full((3, 1, 2), -1.0))
        with pytest.raises(DomainError, match=r"LdrImage values must lie in \[0,1\]"):
            P.LdrImage(np.full((3, 1, 2), 2.0))
        with pytest.raises(DomainError, match=r"exposure_mask input must lie in \[0,1\]"):
            P.exposure_mask(np.full((3, 1, 2), -1.0))


class TestComposeHdr:
    def test_valid_everywhere_is_linearized_input(self):
        t = np.full((3, 4, 4), 0.5)
        out = P.compose_hdr(t, np.ones_like(t), np.zeros_like(t))
        assert np.allclose(out.pixels, 0.25)

    def test_saturated_with_zero_prediction(self):
        t = np.full((3, 4, 4), 0.5)
        out = P.compose_hdr(t, np.zeros_like(t), np.zeros_like(t))
        assert np.allclose(out.pixels, 0.0)

    def test_mixed_blend_value(self):
        t = np.ones((3, 1, 1))
        m = np.full_like(t, 0.5)
        y = np.full_like(t, math.log(3.0))
        out = P.compose_hdr(t, m, y)
        assert np.allclose(out.pixels, 1.5, atol=1e-12)

    def test_exp_overflow_reports_coordinate(self):
        t = np.full((3, 2, 2), 0.5)
        y = np.zeros_like(t)
        y[1, 1, 0] = 1e4
        with pytest.raises(NumericError) as err:
            P.compose_hdr(t, np.zeros_like(t), y)
        assert "(1, 1, 0)" in str(err.value)
        # A band of rows from image row 7 reports the image's coordinate.
        with pytest.raises(NumericError) as err:
            P.compose_hdr(t, np.zeros_like(t), y, row=7)
        assert "(1, 8, 0)" in str(err.value)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            P.compose_hdr(np.zeros((3, 2, 2)), np.zeros((3, 2, 3)), np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("dtypes", [(np.float32,) * 3, (np.float64,) * 3,
                                        (np.float32, np.float64, np.float32),
                                        (np.float64, np.float32, np.float32),
                                        (np.float32, np.float32, np.float64),
                                        (np.float32, np.float16, np.float32)])
    def test_equals_the_out_of_place_blend_bitwise(self, dtypes):
        rng = np.random.default_rng(4)
        t, m, y = (a.astype(d) for a, d in zip(
            (rng.random((3, 9, 7)), rng.random((3, 9, 7)), rng.normal(0, 2, (3, 9, 7))),
            dtypes))
        m[0, :3] = 1.0
        m[1, :3] = 0.0
        want = np.maximum(m * np.power(t, 2.0) + (1.0 - m) * (np.exp(y) - 1.0), 0.0)
        got = P.compose_hdr(t, m, y, gamma=2.0).pixels
        assert got.dtype == want.dtype == np.result_type(*dtypes)
        assert got.tobytes() == want.tobytes()

    def test_peak_is_three_images(self):
        rng = np.random.default_rng(5)
        t = rng.random((3, 256, 256)).astype(np.float32)
        m = rng.random(t.shape).astype(np.float32)
        y = rng.normal(size=t.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out = P.compose_hdr(t, m, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The output included.
        assert peak <= 3 * out.pixels.nbytes, peak / out.pixels.nbytes


class TestMseGamma:
    def test_identical_images_score_zero(self):
        h = rnd(2).random((3, 8, 8)) * 5
        assert P.mse_gamma_scores(h, h, np.zeros_like(h)) == (0.0, 0.0)

    def test_always_non_negative(self):
        rng = rnd(3)
        a, b = rng.random((3, 6, 6)), rng.random((3, 6, 6)) + 0.1
        mse, masked = P.mse_gamma_scores(a, b, rng.random((3, 6, 6)))
        assert mse >= 0.0 and masked >= 0.0

    def test_full_scale_difference_is_one(self):
        truth = np.ones((3, 8, 8))
        pred = np.zeros((3, 8, 8))
        assert np.allclose(P.mse_gamma_scores(pred, truth, np.zeros_like(truth)), 1.0)

    def test_degenerate_truth_rejected(self):
        with pytest.raises(DomainError):
            P.mse_gamma_scores(np.ones((3, 4, 4)), np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            P.mse_gamma_scores(np.ones((3, 4, 4)), np.ones((3, 4, 4)), np.ones((3, 4, 5)))

    def test_masked_variant_ignores_valid_region(self):
        truth = np.ones((3, 8, 8))
        pred = truth.copy()
        pred[:, :4] = 0.2
        mask = np.ones((3, 8, 8))
        mask[:, :4] = 0.0  # errors live exactly where the mask is zero
        mse, full = P.mse_gamma_scores(pred, truth, mask)
        assert full > mse > 0
        assert P.mse_gamma_scores(truth, truth, mask)[1] == 0.0
        mse_valid, masked_valid = P.mse_gamma_scores(pred, truth, np.ones_like(mask))
        assert mse_valid == mse
        assert math.isnan(masked_valid)


class TestWellExposedRecovery:
    def test_compose_recovers_scaled_radiance_where_valid(self):
        from hdrmask.network import exposure_mask

        h = rnd(4).random((3, 16, 16)).astype(np.float64) + 0.05
        scale = P.exposure_scale(h, 93.0)
        ldr = P.simulate_ldr(h, 93.0, quantize_bits=0)
        mask = exposure_mask(ldr.pixels)
        out = P.compose_hdr(ldr, mask, np.zeros_like(ldr.pixels))
        valid = mask == 1.0
        assert np.allclose(out.pixels[valid], (h * scale)[valid], rtol=1e-10)
