import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrmask import pipeline as P
from hdrmask import sampler as S
from hdrmask.errors import DimensionError, DomainError
from hdrmask.pipeline import HdrImage
from hdrmask.synthetic import hdr_scene, make_hdr_corpus

from oracles import (bilateral_shifts, gaussian_blur_loops, gaussian_blur_shifts,
                     patch_metric_steps, sobel_padded, sobel_shifts)


def rnd(seed):
    return np.random.default_rng(seed)


class TestRgbToGray:
    def test_gray_input_unchanged(self):
        img = np.full((3, 4, 4), 0.37)
        assert np.allclose(S.rgb_to_gray(img), 0.37)

    def test_pure_green_weight(self):
        img = np.zeros((3, 2, 2))
        img[1] = 1.0
        assert np.allclose(S.rgb_to_gray(img), 0.7152)

    def test_zero_image(self):
        assert np.all(S.rgb_to_gray(np.zeros((3, 3, 3))) == 0)

    def test_wrong_channel_count(self):
        with pytest.raises(DimensionError):
            S.rgb_to_gray(np.zeros((4, 3, 3)))


class TestBilateralFilter:
    # Centred on its midrange, a constant image blurs to exact zeros.
    @pytest.mark.parametrize("shape", [(7, 7), (1, 1), (1, 9), (64, 64)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_image_unchanged(self, shape, dtype):
        c = np.full(shape, 2.7, dtype=dtype)
        got = S.bilateral_filter(c, 2.0)
        assert got.dtype == dtype and np.array_equal(got, c)

    def test_output_within_window_bounds(self):
        img = rnd(1).random((10, 10)) * 5
        out = S.bilateral_filter(img, 2.0, radius=2)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_oracle(self, seed):
        rng = rnd(seed)
        img = rng.random((6, 6)) * rng.uniform(0.5, 4.0)
        ss = rng.uniform(0.8, 3.0)
        r = int(rng.integers(1, 4))
        got = S.bilateral_filter(img, ss, radius=r)
        want = gaussian_blur_loops(img, ss, r)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_tiny_space_sigma_is_near_identity(self):
        img = rnd(7).random((8, 8))
        out = S.bilateral_filter(img, 1e-3, radius=1)
        assert np.max(np.abs(out - img)) < 1e-6

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            S.bilateral_filter(np.zeros((3, 4, 4)), 1.0)

    # The sampler's regime: log-luminance, radius 20. A 16x16 image
    # reflects more than once inside the window; a 1-pixel axis reflects
    # onto itself.
    @pytest.mark.parametrize("shape", [(24, 24), (16, 16), (1, 24), (24, 1)])
    def test_production_regime_matches_loop_oracle(self, shape):
        img = np.log1p(rnd(sum(shape)).random(shape) * 50.0)
        want = gaussian_blur_loops(img, 10.0, 20)
        got64 = S.bilateral_filter(img, 10.0)
        got32 = S.bilateral_filter(img.astype(np.float32), 10.0)
        assert got32.dtype == np.float32
        assert np.max(np.abs(got64 - want)) <= 1e-12
        assert np.max(np.abs(got32 - want)) <= 1e-6

    def test_sampler_crop_matches_shift_oracle(self):
        # The sampler's own 64x64 crop extent, against the loop's sums.
        img = np.log1p(rnd(64).random((64, 64)) * 50.0)
        want = gaussian_blur_shifts(img, 10.0, 20)
        assert np.max(np.abs(S.bilateral_filter(img) - want)) <= 1e-12
        assert np.max(np.abs(S.bilateral_filter(img.astype(np.float32)) - want)) <= 1e-6

    # A NaN or an infinity would reach every output through the blur
    # matrices' zero entries (0 * inf), so it is refused, with no warning.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_image_is_a_domain_error(self, bad, dtype):
        img = rnd(10).random((9, 9)).astype(dtype)
        img[4, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="finite"):
                S.bilateral_filter(img, 1.0, radius=1)

    # Near float64's limit the midrange is formed without overflow, and an
    # image whose blur products could overflow is refused, with no warning.
    def test_range_near_the_float64_limit(self):
        big = np.full((5, 5), 1e307)
        big[2, 2] = 1.7e308
        near = np.full((5, 5), 1.7e308)
        near[2, 2] = 1.7e308 - 1e305
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="overflow"):
                S.bilateral_filter(big, 1.0)
            got = S.bilateral_filter(near, 1.0)
        assert np.all(np.isfinite(got))
        assert near.min() <= got.min() and got.max() <= near.max()
        # The same blur, scaled down by an exact power of two.
        scale = 2.0 ** -1000
        assert np.allclose(got * scale, S.bilateral_filter(near * scale, 1.0), rtol=1e-12)


# The oracle the corpus tests use: the loop's sums in the loop's order.
@pytest.mark.parametrize("shape,radius", [((6, 6), 2), ((5, 9), 7), ((1, 6), 3), ((7, 1), 2)])
def test_blur_shift_oracle_bit_identical_to_the_loop_oracle(shape, radius):
    img = np.log1p(rnd(sum(shape)).random(shape) * 50.0)
    assert np.array_equal(gaussian_blur_shifts(img, 2.5, radius),
                          gaussian_blur_loops(img, 2.5, radius))


@pytest.fixture()
def fresh_blur_cache():
    S._reflect_blur_matrix.cache_clear()
    yield
    S._reflect_blur_matrix.cache_clear()


def uncached_blur_matrix(n, radius, space_sigma):
    """The reflect-bordered Gaussian blur matrix built from scratch: the
    padded index window of every output, its taps summed per input index."""
    d = np.arange(-radius, radius + 1)
    taps = np.exp(-(d * d) * (1.0 / (2.0 * space_sigma * space_sigma)))
    cols = np.lib.stride_tricks.sliding_window_view(
        np.pad(np.arange(n), radius, mode="reflect"), taps.size)
    rows = np.arange(n)[:, None]
    flat = np.bincount((rows * n + cols).ravel(),
                       weights=np.broadcast_to(taps, cols.shape).ravel(), minlength=n * n)
    return flat.reshape(n, n)


class TestBlurMatrixMemory:
    """The blur operators fold their taps onto one reflection period, so
    building one costs memory by extent, not by radius."""

    def test_bit_identical_to_the_padded_window_up_to_radius_n_minus_2(self):
        # There each entry sums at most two taps, in either order the same.
        for n in range(1, 40):
            for radius in range(1, n - 1):
                for sigma in (0.7, 2.5, 10.0):
                    got = S._reflect_blur_matrix.__wrapped__(n, radius, sigma)
                    assert np.array_equal(got, uncached_blur_matrix(n, radius, sigma)), \
                        (n, radius, sigma)

    # Radius n - 1 and past it, where taps fold together: criterion 1's
    # tolerance against the loop oracle.
    @pytest.mark.parametrize("shape,radius", [((5, 7), 9), ((3, 4), 10), ((2, 9), 8),
                                              ((1, 6), 3), ((6, 6), 5)])
    def test_wide_radius_matches_loop_oracle(self, shape, radius):
        img = np.log1p(rnd(sum(shape)).random(shape) * 50.0)
        want = gaussian_blur_loops(img, 2.5, radius)
        assert np.max(np.abs(S.bilateral_filter(img, 2.5, radius) - want)) <= 1e-12
        got32 = S.bilateral_filter(img.astype(np.float32), 2.5, radius)
        assert np.max(np.abs(got32 - want)) <= 1e-6

    def test_radius_100_matches_loop_oracle(self):
        # 201 taps per axis fold onto periods of 4 and 6: criterion 1's
        # tolerances against the loop oracle's 40401 shifts.
        img = rnd(14).random((3, 4)) * 4
        want = gaussian_blur_loops(img, 50.0, 100)
        got64 = S.bilateral_filter(img, 50.0, radius=100)
        got32 = S.bilateral_filter(img.astype(np.float32), 50.0, radius=100)
        assert got32.dtype == np.float32
        assert np.max(np.abs(got64 - want)) <= 1e-12
        assert np.max(np.abs(got32 - want)) <= 1e-6

    @pytest.mark.parametrize("space_sigma", [1e4, 1e6])
    def test_wide_space_sigma_peak_is_bounded(self, space_sigma):
        # The padded index window peaked at 42 MB at 1e4 and would need
        # about 4 GB at 1e6; folded, a 64x64 call stays under 2 MB.
        img = np.log1p(rnd(3).random((64, 64)) * 50.0)
        S._reflect_blur_matrix.cache_clear()
        tracemalloc.start()
        try:
            out = S.bilateral_filter(img, space_sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            S._reflect_blur_matrix.cache_clear()
        assert np.isfinite(out).all() and peak < 2 << 20, peak

@pytest.mark.usefixtures("fresh_blur_cache")
class TestBlurMatrixCache:
    def test_read_only_and_shared_per_key(self):
        a = S._blur_matrix(12, 5, 2.0)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        assert S._blur_matrix(12, 5, 2.0) is a
        others = [S._blur_matrix(13, 5, 2.0), S._blur_matrix(12, 4, 2.0),
                  S._blur_matrix(12, 5, 2.5)]
        assert all(o is not a for o in others)
        assert not np.array_equal(others[2], a)
        assert np.array_equal(a, uncached_blur_matrix(12, 5, 2.0))

    def test_size_stays_bounded_over_a_sweep(self):
        info = S._reflect_blur_matrix.cache_info
        assert info().maxsize == S._BLUR_CACHE_SIZE
        for n in range(1, 3 * S._BLUR_CACHE_SIZE):
            for radius in (1, 4):
                S._blur_matrix(n, radius, 1.5)
                assert info().currsize <= S._BLUR_CACHE_SIZE
        # Worst case, every entry at the largest cached extent: 16 MB.
        assert S._BLUR_CACHE_SIZE * 8 * S._BLUR_CACHE_EXTENT ** 2 <= 16 << 20

    def test_extent_past_the_limit_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(S, "_BLUR_CACHE_EXTENT", 8)
        first = S._blur_matrix(9, 3, 1.5)
        assert S._reflect_blur_matrix.cache_info().currsize == 0
        assert S._blur_matrix(9, 3, 1.5) is not first
        assert np.array_equal(first, uncached_blur_matrix(9, 3, 1.5))
        S._blur_matrix(8, 3, 1.5)
        assert S._reflect_blur_matrix.cache_info().currsize == 1

    # Square and non-square, a radius past both extents (repeated
    # reflection), and both dtypes: the cached operators give the same
    # bits as ones built per call, on a first call and a repeat.
    @pytest.mark.parametrize("shape,radius", [((16, 16), None), ((12, 20), None),
                                              ((5, 7), 9), ((1, 6), 3), ((6, 1), 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_filter_bit_identical_to_uncached_builder(self, monkeypatch, shape, radius, dtype):
        img = np.log1p(rnd(sum(shape)).random(shape) * 50.0).astype(dtype)
        cached = [S.bilateral_filter(img, 2.5, radius) for _ in range(2)]
        monkeypatch.setattr(S, "_blur_matrix", S._reflect_blur_matrix.__wrapped__)
        want = S.bilateral_filter(img, 2.5, radius)
        assert want.dtype == dtype
        for got in cached:
            assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.usefixtures("fresh_blur_cache")
class TestSigmaDomain:
    @pytest.mark.parametrize("space_sigma", [0.0, -2.0, math.nan, math.inf, 1e-200])
    def test_filter_rejects_before_the_cache(self, space_sigma):
        img = rnd(11).random((6, 6))
        for radius in (None, 2):
            with pytest.raises(DomainError):
                S.bilateral_filter(img, space_sigma, radius)
        assert S._reflect_blur_matrix.cache_info().currsize == 0

    @pytest.mark.parametrize("field,value", [("space_sigma", math.nan),
                                             ("space_sigma", math.inf)])
    def test_config_rejects(self, field, value):
        with pytest.raises(DomainError, match=field):
            S.SamplerConfig(**{field: value})

    def test_config_has_no_color_sigma(self):
        with pytest.raises(TypeError, match="color_sigma"):
            S.SamplerConfig(color_sigma=100.0)


class TestPatchMetric:
    def test_constant_image_scores_zero(self):
        h = np.full((3, 16, 16), 5.0)
        assert S.patch_metric(h, np.zeros_like(h)) == 0.0

    def test_fully_valid_mask_scores_zero(self):
        h = rnd(2).random((3, 16, 16)) * 20
        assert S.patch_metric(h, np.ones_like(h)) == 0.0

    def test_checkerboard_fixture_positive_and_pinned(self):
        blocks = (np.indices((16, 16)) // 4).sum(0) % 2
        h = np.where(blocks[None] == 1, 20.0, 1.0) * np.ones((3, 1, 1))
        m = np.zeros_like(h)
        score = S.patch_metric(h, m)
        oracle = patch_metric_steps(h, m)
        assert score > 0
        assert np.isclose(score, oracle, rtol=1e-9)
        assert np.isclose(score, 5.7329427326, rtol=1e-6)  # regression pin

    def test_log_domain_shift_invariance(self):
        rng = rnd(3)
        h = rng.random((3, 16, 16)) * 10
        m = (rng.random((3, 16, 16)) > 0.5).astype(float)
        base = S.patch_metric(h, m)
        shifted = S.patch_metric(3.0 * (h + 1.0) - 1.0, m)
        assert abs(base - shifted) < 1e-9

    def test_matches_step_oracle_on_random_input(self):
        rng = rnd(4)
        h = rng.random((3, 12, 12)) * 8
        m = rng.random((3, 12, 12))
        assert np.isclose(S.patch_metric(h, m), patch_metric_steps(h, m), rtol=1e-9)

    @pytest.mark.parametrize("shape", [(3, 16, 12), (3, 9, 20)])
    def test_sobel_matches_step_oracle_to_rounding(self, shape):
        # The oracle runs the production blur, so the two differ only in
        # the Sobel pair (separable here, a 2-D tap loop there) and rounding.
        rng = rnd(shape[2])
        h = rng.random(shape) * 8
        m = rng.random(shape)
        want = patch_metric_steps(h, m, base=S.bilateral_filter)
        assert abs(S.patch_metric(h, m) - want) <= 1e-12 * want

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (2, 2), (2, 7), (9, 13),
                                       (64, 64)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sobel_bit_identical_to_the_padded_copy(self, shape, dtype):
        img = rnd(shape[0] * 100 + shape[1]).normal(size=shape).astype(dtype)
        got = S._sobel_magnitude(img)
        want = sobel_padded(img)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_channel_max_weight(self, dtype):
        # Rounding is monotonic, so 1 - min(m) over channels is the max of 1 - m.
        rng = rnd(12)
        h = (rng.random((3, 24, 20)) * 30).astype(dtype)
        m = np.clip(rng.random((3, 24, 20)) * 1.5 - 0.25, 0, 1).astype(dtype)
        log_lum = np.log1p(P.rgb_to_gray(h))
        detail = log_lum - S.bilateral_filter(log_lum)
        want = float(np.mean(sobel_padded(detail) * (1.0 - m).max(axis=0)))
        assert S.patch_metric(h, m) == want

    def test_criterion5_corpus_keeps_the_same_crops(self):
        # Criterion 5's corpus: every saturated crop scored by the production
        # metric in float64 and by the step oracle (production blur, 2-D
        # Sobel taps); the sampler's float32 scoring at the default threshold
        # keeps exactly the oracle's crops. The detail layer cancels most of
        # the log-luminance, which lifts the two paths' gray/log rounding to
        # about 3e-9 of the score on these smooth scenes, with either Sobel.
        corpus = make_hdr_corpus(50, seed=151, size=(96, 96))
        cfg = S.SamplerConfig(patch_size=64, patches_per_image=4)
        every = S.SamplerConfig(patch_size=64, patches_per_image=4, metric_threshold=0.0)
        scored, kept = [], []
        for i, scene in enumerate(corpus):
            scored += S.sample_patches(scene, every, seed=i, image_id=f"c{i}")
            kept += S.sample_patches(scene, cfg, seed=i, image_id=f"c{i}")
        hdr64 = [r.hdr.pixels.astype(np.float64) for r in scored]
        got = [S.patch_metric(h, r.mask) for h, r in zip(hdr64, scored)]
        want = [patch_metric_steps(h, r.mask, base=S.bilateral_filter, sobel=sobel_shifts)
                for h, r in zip(hdr64, scored)]
        assert max(abs(g - w) / w for g, w in zip(got, want)) <= 1e-8
        assert len(scored) > len(kept) > 0
        assert [(r.image_id, r.offset) for r in kept] == \
            [(r.image_id, r.offset) for r, w in zip(scored, want) if w > cfg.metric_threshold]

    def test_criterion5_corpus_keeps_what_the_range_kernel_keeps(self):
        # The base layer was a bilateral filter with a range sigma of 100 on
        # log1p luminance, whose range within a crop is at most about 4.34,
        # so every range weight lay in [0.99906, 1]. Scored with that
        # bilateral, criterion 5's corpus keeps exactly the crops that the
        # shipped blur keeps.
        corpus = make_hdr_corpus(50, seed=151, size=(96, 96))
        every = S.SamplerConfig(patch_size=64, patches_per_image=4, metric_threshold=0.0)
        scored = [r for i, scene in enumerate(corpus)
                  for r in S.sample_patches(scene, every, seed=i, image_id=f"c{i}")]

        def ranged(log_lum, space_sigma, radius):
            return bilateral_shifts(log_lum, 100.0, space_sigma, radius)

        want = [patch_metric_steps(r.hdr.pixels, r.mask, base=ranged, sobel=sobel_shifts)
                for r in scored]
        threshold = S.SamplerConfig().metric_threshold
        kept = [r.score > threshold for r in scored]
        assert 0 < sum(kept) < len(scored)
        assert kept == [w > threshold for w in want]
        assert max(abs(r.score - w) / w for r, w in zip(scored, want)) < 1e-3


def sample_patches_exposing_twice(hdr, config, seed, curve):
    """``sample_patches`` as it was written with two exposure products per
    crop: one inside ``apply_exposure`` and one for the record's radiance."""
    rng = np.random.default_rng(seed)
    ps, records = config.patch_size, []
    for _ in range(config.patches_per_image):
        oy = int(rng.integers(0, hdr.shape[1] - ps + 1))
        ox = int(rng.integers(0, hdr.shape[2] - ps + 1))
        lo, hi = config.percentile_range
        scale = P.exposure_scale(hdr, float(rng.uniform(lo, hi)), curve)
        patch = hdr[:, oy:oy + ps, ox:ox + ps]
        ldr = P.apply_exposure(patch, scale, curve=curve, quantize_bits=config.quantize_bits)
        mask = P.exposure_mask(ldr.pixels, config.alpha)
        if mask.min() == 1:
            continue
        scaled = HdrImage(patch * patch.dtype.type(scale))
        score = S.patch_metric(scaled, mask, config)
        if score > config.metric_threshold:
            records.append(S.PatchRecord(scaled, ldr, mask, score, "", (oy, ox)))
    return sorted(records, key=lambda r: r.offset)


class TestSamplePatches:
    @pytest.mark.parametrize("kind", ["gamma", "sigmoid"])
    @pytest.mark.parametrize("bits", [0, 8, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_records_bit_identical_to_exposing_twice(self, kind, bits, dtype):
        scene = hdr_scene(7, size=(96, 80)).pixels.astype(dtype)
        curve = P.CameraCurve(kind=kind, exposure=1.5)
        cfg = S.SamplerConfig(patch_size=32, patches_per_image=24, metric_threshold=0.0,
                              quantize_bits=bits)
        got = S.sample_patches(scene, cfg, seed=3, curve=curve)
        want = sample_patches_exposing_twice(scene, cfg, 3, curve)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert (a.offset, a.score) == (b.offset, b.score)
            for x, y in [(a.hdr.pixels, b.hdr.pixels), (a.ldr.pixels, b.ldr.pixels),
                         (a.mask, b.mask)]:
                assert x.dtype == y.dtype == dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_crop_scale_is_exposure_scale(self, monkeypatch, dtype):
        scene = hdr_scene(7, size=(96, 80)).pixels.astype(dtype)
        curve = P.CameraCurve(exposure=1.5)
        cfg = S.SamplerConfig(patch_size=32, patches_per_image=24)
        calls = []
        sorted_scales = S.exposure_scales

        def spy(hdr, curve=None):
            scale_at = sorted_scales(hdr, curve)

            def scale(pct):
                calls.append((pct, scale_at(pct)))
                return calls[-1][1]
            return scale

        monkeypatch.setattr(S, "exposure_scales", spy)
        S.sample_patches(scene, cfg, seed=3, curve=curve)
        assert len(calls) == cfg.patches_per_image
        for pct, got in calls:
            want = P.exposure_scale(scene, pct, curve)
            assert got == want and type(got) is type(want), pct

    def test_corpus_records_byte_identical_to_per_crop_scales(self, monkeypatch):
        named = [(f"c{i}", s) for i, s in enumerate(make_hdr_corpus(4, seed=23, size=(96, 96)))]
        cfg = S.SamplerConfig(metric_threshold=0.0)
        fast = S.sample_corpus(named, cfg, seed=5)
        # The long way: a full exposure_scale per crop.
        monkeypatch.setattr(S, "exposure_scales",
                            lambda hdr, curve=None: lambda pct: P.exposure_scale(hdr, pct, curve))
        slow = S.sample_corpus(named, cfg, seed=5)
        assert len(fast) == len(slow) > 0
        for a, b in zip(fast, slow):
            assert (a.image_id, a.offset, a.score) == (b.image_id, b.offset, b.score)
            for x, y in [(a.hdr.pixels, b.hdr.pixels), (a.ldr.pixels, b.ldr.pixels),
                         (a.mask, b.mask)]:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_dim_exposure_keeps_nothing(self):
        scene = hdr_scene(0, size=(64, 64))
        cfg = S.SamplerConfig(patch_size=32, patches_per_image=8)
        curve = P.CameraCurve(exposure=1e-4)
        assert S.sample_patches(scene, cfg, seed=1, curve=curve) == []

    def test_smooth_saturated_image_rejected_by_threshold(self):
        flat = HdrImage(np.full((3, 64, 64), 25.0))
        cfg = S.SamplerConfig(patch_size=32, patches_per_image=8)
        assert S.sample_patches(flat, cfg, seed=2) == []

    def test_deterministic_per_seed(self):
        scene = hdr_scene(5, size=(96, 96))
        cfg = S.SamplerConfig(patch_size=64, patches_per_image=8,
                              metric_threshold=0.0)
        a = S.sample_patches(scene, cfg, seed=9, image_id="x")
        b = S.sample_patches(scene, cfg, seed=9, image_id="x")
        assert len(a) == len(b) > 0
        for ra, rb in zip(a, b):
            assert ra.offset == rb.offset and ra.score == rb.score
            assert np.array_equal(ra.ldr.pixels, rb.ldr.pixels)

    def test_postconditions_hold_for_every_record(self):
        cfg = S.SamplerConfig(patch_size=64, patches_per_image=6)
        from hdrmask.network import exposure_mask
        for i in range(4):
            for rec in S.sample_patches(hdr_scene(40 + i, size=(96, 96)), cfg,
                                        seed=i, image_id=f"s{i}"):
                assert rec.score > cfg.metric_threshold
                assert (rec.mask < 1).any()
                assert np.array_equal(rec.mask, exposure_mask(rec.ldr.pixels, cfg.alpha))

    def test_corpus_kept_set_and_rank_order_match_direct_reference(self):
        # Every saturated crop with a positive score, scored by the production
        # metric and by the shift-sum Gaussian reference: the default
        # threshold keeps the same crops and the scores rank the same.
        cfg = S.SamplerConfig()
        named = [(f"c{i}", s) for i, s in
                 enumerate(make_hdr_corpus(3, seed=151, size=(96, 96)))]
        scored = S.sample_corpus(named, S.SamplerConfig(metric_threshold=0.0), seed=0)
        kept = S.sample_corpus(named, cfg, seed=0)
        got = np.array([r.score for r in scored])
        want = np.array([patch_metric_steps(r.hdr.pixels, r.mask, cfg.space_sigma,
                                            base=gaussian_blur_shifts)
                         for r in scored])
        assert len(scored) > len(kept) > 0
        assert [(r.image_id, r.offset) for r in kept] == \
            [(r.image_id, r.offset) for r, score in zip(scored, want)
             if score > cfg.metric_threshold]
        assert np.array_equal(np.argsort(got), np.argsort(want))
        assert np.max(np.abs(got - want) / want) < 1e-6

    def test_image_smaller_than_patch_rejected(self):
        with pytest.raises(DimensionError):
            S.sample_patches(HdrImage(np.ones((3, 16, 16))),
                             S.SamplerConfig(patch_size=32))


class TestInpaintingMasks:
    @pytest.mark.parametrize("seed", range(12))
    def test_coverage_within_bounds(self, seed):
        mask = S.generate_inpainting_mask((48, 48), seed=seed)
        hole_frac = 1.0 - mask.mean()
        assert 0.05 <= hole_frac <= 0.45

    def test_values_exactly_binary(self):
        mask = S.generate_inpainting_mask((3, 32, 32), seed=3)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_deterministic(self):
        a = S.generate_inpainting_mask((32, 32), seed=11)
        b = S.generate_inpainting_mask((32, 32), seed=11)
        assert np.array_equal(a, b)

    def test_channels_replicated(self):
        mask = S.generate_inpainting_mask((3, 24, 24), seed=4)
        assert np.array_equal(mask[0], mask[1]) and np.array_equal(mask[0], mask[2])

    def test_impossible_bounds_raise(self):
        with pytest.raises(DomainError):
            S.generate_inpainting_mask((8, 8), seed=0, coverage=(0.449, 0.45),
                                       max_attempts=2)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_random_seeds_satisfy_contract(self, seed):
        mask = S.generate_inpainting_mask((32, 32), seed=seed)
        frac = 1.0 - mask.mean()
        assert 0.05 <= frac <= 0.45
        assert set(np.unique(mask)) <= {0.0, 1.0}
