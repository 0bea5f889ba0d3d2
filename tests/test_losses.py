import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrmask import losses as L
from hdrmask import tensor as T
from hdrmask.errors import ContractError, DimensionError, DomainError

from oracles import gram_loops, mu_law_scalar


def rnd(seed):
    return np.random.default_rng(seed)


@pytest.fixture(scope="module")
def extractor():
    return L.FeatureExtractor(channels=(4, 8), seed=1)


def mu_law(x, **kw):
    return L.mu_law_compress(T.constant(np.array(x)), **kw).item()


class TestMuLaw:
    def test_fixes_zero_and_one(self):
        assert mu_law(0.0) == 0.0
        assert np.isclose(mu_law(1.0), 1.0, atol=1e-15)

    def test_spot_value(self):
        got = mu_law(0.002, mu=500)
        want = math.log(2.0) / math.log(501.0)
        assert abs(got - want) < 1e-12
        assert abs(got - mu_law_scalar(0.002)) < 1e-12
        assert abs(got - 0.111499) < 1e-6

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            L.mu_law_compress(T.constant(np.array([-0.1])))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_monotone(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-12:
            return
        assert mu_law(hi) > mu_law(lo)


class TestReconstructionLoss:
    def test_exact_log_prediction_scores_zero(self):
        h = rnd(0).random((1, 3, 4, 4)) * 3
        y = T.constant(np.log1p(h))
        out = L.reconstruction_loss(y, h, np.zeros_like(h))
        assert out.item() == 0.0

    def test_fully_valid_mask_ignores_prediction(self):
        h = rnd(1).random((1, 3, 4, 4))
        y = T.constant(rnd(2).normal(size=(1, 3, 4, 4)) * 10)
        assert L.reconstruction_loss(y, h, np.ones_like(h)).item() == 0.0

    def test_single_coordinate_value(self):
        h = np.full((1, 3, 1, 1), math.e - 1.0)
        m = np.ones_like(h)
        m[0, 0, 0, 0] = 0.0
        y = T.constant(np.zeros_like(h))
        got = L.reconstruction_loss(y, h, m).item()
        assert np.isclose(got, 1.0 / 3.0, atol=1e-12)  # one |residual|=1 of 3 entries

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            L.reconstruction_loss(T.constant(np.zeros((1, 3, 2, 2))),
                                  np.zeros((1, 3, 2, 3)), np.zeros((1, 3, 2, 2)))

    def test_unbatched_prediction_rejected(self):
        h = np.zeros((3, 2, 2))
        with pytest.raises(DimensionError):
            L.reconstruction_loss(T.constant(h), h, h)


class TestBlend:
    def test_fully_valid_returns_truth(self):
        h = rnd(3).random((1, 3, 4, 4)) * 2
        out = L.blend_with_ground_truth(h, T.constant(np.zeros_like(h)), np.ones_like(h))
        assert np.allclose(out.data, h)

    def test_inverse_pair_returns_truth(self):
        h = rnd(4).random((1, 3, 4, 4)) * 2
        out = L.blend_with_ground_truth(h, T.constant(np.log1p(h)), np.zeros_like(h))
        assert np.allclose(out.data, h, atol=1e-12)

    def test_scalar_mix(self):
        h = np.full((1, 3, 1, 1), 2.0)
        m = np.full_like(h, 0.5)
        out = L.blend_with_ground_truth(h, T.constant(np.zeros_like(h)), m)
        assert np.allclose(out.data, 1.0)

    def test_matches_the_expm1_blend(self):
        rng = rnd(5)
        h = rng.random((1, 3, 4, 4)) * 3
        y = rng.normal(size=(1, 3, 4, 4))
        m = rng.random((1, 3, 4, 4))
        via_node = L.blend_with_ground_truth(h, T.parameter(y), m).data
        via_constant = L.blend_with_ground_truth(h, T.constant(y), m).data
        assert np.array_equal(via_node, via_constant)
        assert np.allclose(via_node, m * h + (1.0 - m) * np.expm1(y), atol=1e-12)


class TestGramMatrix:
    def test_zero_features(self):
        assert np.all(L.gram_matrix(T.constant(np.zeros((1, 3, 2, 3)))).data == 0)

    def test_identity_case(self):
        got = L.gram_matrix(T.constant(np.eye(2).reshape(1, 2, 1, 2))).data
        assert got.shape == (1, 2, 2)
        assert np.allclose(got[0], 0.25 * np.eye(2), atol=1e-15)

    def test_symmetry_and_psd(self):
        g = L.gram_matrix(T.constant(rnd(6).normal(size=(2, 4, 3, 4)))).data
        for gi in g:
            assert np.allclose(gi, gi.T, atol=1e-12)
            assert np.linalg.eigvalsh(gi).min() >= -1e-8

    def test_matches_loop_oracle(self):
        x = rnd(7).normal(size=(2, 3, 2, 3))
        got = L.gram_matrix(T.constant(x)).data
        for gi, sample in zip(got, x):
            # gram_loops reads the sample's features laid out as (HW, C).
            assert np.allclose(gi, gram_loops(sample.reshape(3, -1).T), atol=1e-12)

    def test_rejects_unbatched_features(self):
        with pytest.raises(DimensionError):
            L.gram_matrix(T.constant(np.eye(2)))

    def test_tensor_variant_gradients(self):
        phi = T.parameter(rnd(8).normal(size=(1, 3, 2, 3)))
        err = T.check_gradients(lambda p: T.tsum(T.absolute(L.gram_matrix(p))),
                                [phi], epsilon=1e-5, max_coords=8)
        assert err < 1e-6


class TestPerceptualLoss:
    def test_identical_inputs_score_zero(self, extractor):
        h = rnd(9).random((1, 3, 8, 8)) * 4
        vgg, style = L.perceptual_loss(T.constant(h), h, extractor)
        assert vgg.item() == 0.0 and style.item() == 0.0

    def test_non_negative(self, extractor):
        rng = rnd(10)
        a, b = rng.random((1, 3, 8, 8)) * 2, rng.random((1, 3, 8, 8)) * 2
        vgg, style = L.perceptual_loss(T.constant(a), b, extractor)
        assert vgg.item() >= 0 and style.item() >= 0

    def test_swap_symmetry(self, extractor):
        # Both maxima are 1, so each order divides by the same scale.
        rng = rnd(11)
        a, b = rng.random((1, 3, 8, 8)), rng.random((1, 3, 8, 8))
        a, b = a / a.max(), b / b.max()
        assert a.max() == b.max() == 1.0
        v1, s1 = L.perceptual_loss(T.constant(a), b, extractor)
        v2, s2 = L.perceptual_loss(T.constant(b), a, extractor)
        assert np.isclose(v1.item(), v2.item(), rtol=1e-12)
        assert np.isclose(s1.item(), s2.item(), rtol=1e-12)

    def test_all_zero_truth_gives_finite_terms(self, extractor):
        # A zero maximum cannot normalize; the images are divided by 1 instead.
        a = rnd(12).random((1, 3, 8, 8))
        zero = np.zeros_like(a)
        vgg, style = L.perceptual_loss(T.parameter(a), zero, extractor)

        def compressed(x):
            return L.mu_law_compress(T.activation(T.constant(x), "relu") / 1.0)

        want = L._feature_terms([compressed(a)], compressed(zero).data, extractor)
        assert np.isfinite(vgg.item()) and np.isfinite(style.item()) and vgg.item() > 0
        assert (vgg.item(), style.item()) == tuple(t.item() for t in want)
        terms = L.perceptual_loss(T.constant(zero), zero, extractor)
        assert [t.item() for t in terms] == [0.0, 0.0]

    def test_channel_mismatch(self, extractor):
        with pytest.raises(DimensionError):
            extractor.features(T.constant(np.zeros((1, 4, 8, 8))))


class TestExtractorReluNode:
    """Each extractor stage's relu is applied inside its conv2d node; the
    loss values and the input gradient equal those of a separate relu node."""

    @staticmethod
    def separate_relu_features(extractor, t):
        taps = []
        for w, b in extractor.stages:
            wt = T.constant(w.astype(t.data.dtype, copy=False))
            bt = T.constant(b.astype(t.data.dtype, copy=False))
            t = T.avg_pool(T.activation(T.conv2d(t, wt, bt, padding=extractor.kernel_size // 2),
                                         "relu"), 2)
            taps.append(t)
        return taps

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_losses_and_gradient_bit_identical(self, monkeypatch, extractor, dtype):
        rng = rnd(16)
        h = (rng.random((2, 3, 16, 16)) * 4).astype(dtype)
        blend = (h + rng.normal(size=h.shape) * 0.5).astype(dtype)
        runs = []
        for separate in (False, True):
            if separate:
                monkeypatch.setattr(L.FeatureExtractor, "features", self.separate_relu_features)
            a = T.parameter(blend.copy())
            vgg, style = L.perceptual_loss(a, h, extractor)
            T.backward(vgg + style, [a])
            runs.append((vgg.data.tobytes(), style.data.tobytes(), a.grad.tobytes()))
        assert runs[0] == runs[1]


class TestTotalLoss:
    def test_perfect_prediction_in_saturated_region(self, extractor):
        h = rnd(12).random((1, 3, 8, 8)) * 3
        y = T.constant(np.log1p(h))
        rep = L.total_loss(y, h, np.zeros_like(h), extractor)
        # the blend goes through exp(log1p(h)) - 1, exact only up to rounding
        assert rep.components["reconstruction"] == 0.0
        assert rep.total < 1e-12

    def test_zero_perceptual_weight_reduces_to_weighted_l1(self, extractor):
        rng = rnd(13)
        h = rng.random((1, 3, 8, 8)) * 3
        y = T.constant(rng.normal(size=(1, 3, 8, 8)))
        m = rng.random((1, 3, 8, 8))
        weights = L.LossWeights(perceptual=0.0)
        rep = L.total_loss(y, h, m, extractor, weights)
        rec = L.reconstruction_loss(y, h, m).item()
        assert np.isclose(rep.total, 6.0 * rec, rtol=1e-12)

    def test_recomposition_identity(self, extractor):
        rng = rnd(14)
        h = rng.random((1, 3, 8, 8)) * 3
        y = T.constant(rng.normal(size=(1, 3, 8, 8)))
        m = rng.random((1, 3, 8, 8))
        w = L.LossWeights()
        rep = L.total_loss(y, h, m, extractor, w)
        c = rep.components
        recomposed = (w.reconstruction * c["reconstruction"] +
                      w.perceptual * (w.vgg * c["vgg"] + w.style * c["style"]))
        assert abs(rep.total - recomposed) <= 1e-6 * max(abs(rep.total), 1e-12)
        assert abs(rep.total - sum(rep.weighted.values())) <= 1e-6 * abs(rep.total)

    def test_gradient_against_finite_differences(self, extractor):
        rng = rnd(15)
        h = rng.random((1, 3, 8, 8)) * 3
        m = rng.random((1, 3, 8, 8))
        y = T.parameter(rng.normal(size=(1, 3, 8, 8)))

        def fn(t):
            return L.total_loss(t, h, m, extractor).node

        err = T.check_gradients(fn, [y], epsilon=1e-5, max_coords=10, rng=rnd(16))
        assert err < 1e-3

    def test_valid_region_prediction_invariance(self, extractor):
        # reconstruction term must ignore prediction where the mask is 1
        rng = rnd(17)
        h = rng.random((1, 3, 8, 8)) * 2
        m = np.ones_like(h)
        m[:, :, :2] = 0.0
        y1 = rng.normal(size=(1, 3, 8, 8))
        y2 = y1.copy()
        y2[:, :, 4:] += 100.0  # valid region only
        r1 = L.reconstruction_loss(T.constant(y1), h, m).item()
        r2 = L.reconstruction_loss(T.constant(y2), h, m).item()
        assert np.isclose(r1, r2, rtol=1e-12)


class TestInpaintingLoss:
    def test_perfect_prediction(self, extractor):
        # 24x24 makes C*H*W of every tap a non-power of two, where a Gram
        # normalized differently on the two sides would leave a residue.
        for size in (8, 24):
            img = rnd(18).random((1, 3, size, size))
            mask = np.ones_like(img)
            mask[:, :, 3:5, 2:6] = 0.0
            rep = L.inpainting_loss(T.constant(img), img, mask, extractor)
            assert rep.total == 0.0, size

    def test_no_holes_means_zero_hole_term(self, extractor):
        rng = rnd(19)
        img = rng.random((1, 3, 8, 8))
        pred = rng.random((1, 3, 8, 8))
        rep = L.inpainting_loss(T.constant(pred), img, np.ones_like(img), extractor)
        assert rep.components["hole"] == 0.0

    def test_single_hole_pixel_weighting(self, extractor):
        img = np.full((1, 3, 4, 4), 0.25)
        mask = np.ones_like(img)
        mask[:, :, 1, 1] = 0.0
        pred = img.copy()
        pred[0, 0, 1, 1] += 0.5  # residual confined to the hole
        n = img.size
        weights = L.InpaintingLossWeights(valid=0.0, vgg=0.0, style=0.0, tv=0.0)
        rep = L.inpainting_loss(T.constant(pred), img, mask, extractor, weights)
        assert np.isclose(rep.total, 6.0 * 0.5 / n, rtol=1e-12)

    def test_rejects_soft_mask(self, extractor):
        img = rnd(20).random((1, 3, 4, 4))
        with pytest.raises(DomainError):
            L.inpainting_loss(T.constant(img), img, np.full_like(img, 0.5), extractor)

    def test_gradient_against_finite_differences(self, extractor):
        rng = rnd(21)
        img = rng.random((1, 3, 8, 8))
        mask = np.ones_like(img)
        mask[:, :, 2:5, 3:7] = 0.0
        pred = T.parameter(rng.random((1, 3, 8, 8)))

        def fn(t):
            return L.inpainting_loss(t, img, mask, extractor).node

        err = T.check_gradients(fn, [pred], epsilon=1e-5, max_coords=10, rng=rnd(22))
        assert err < 1e-3


class TestFeatureExtractor:
    def test_weights_frozen(self):
        ex = L.FeatureExtractor(channels=(4,), seed=0)
        with pytest.raises(ValueError):
            ex.stages[0][0][0, 0, 0, 0] = 1.0

    def test_deterministic_construction(self):
        a = L.FeatureExtractor(channels=(4, 8), seed=5)
        b = L.FeatureExtractor(channels=(4, 8), seed=5)
        for (wa, ba), (wb, bb) in zip(a.stages, b.stages):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_gradients_reach_input_not_weights(self):
        ex = L.FeatureExtractor(channels=(4,), seed=2)
        x = T.parameter(rnd(23).random((1, 3, 8, 8)))
        taps = ex.features(x)
        T.backward(T.tmean(T.absolute(taps[-1])))
        assert x.grad is not None

    def test_tap_shapes_halve(self):
        ex = L.FeatureExtractor(channels=(4, 8, 16), seed=3)
        taps = ex.features(T.constant(np.ones((1, 3, 16, 16))))
        assert [t.data.shape for t in taps] == [(1, 4, 8, 8), (1, 8, 4, 4), (1, 16, 2, 2)]

    @pytest.mark.parametrize("tamper, error", [
        (lambda a: a.pop("extractor.stage0.bias"), ContractError),
        (lambda a: a.update({"extractor.stage3.weight": np.zeros((4, 8, 3, 3), np.float32),
                             "extractor.stage3.bias": np.zeros(4, np.float32)}), ContractError),
        (lambda a: a.update({"extractor.stage0.weight": np.zeros((4, 27), np.float32)}),
         DimensionError),
        (lambda a: a.update({"extractor.stage1.weight": np.zeros((8, 5, 3, 3), np.float32)}),
         DimensionError),
    ], ids=["stage-without-bias", "stage-numbers-gap", "weight-not-rank-4",
            "stage-misreads-channels"])
    def test_loaded_arrays_must_be_whole_chained_stages(self, tamper, error):
        arrays = L.FeatureExtractor(channels=(4, 8), seed=0).to_arrays()
        assert L.FeatureExtractor(arrays=dict(arrays)).channels == (4, 8)
        tamper(arrays)
        with pytest.raises(error):
            L.FeatureExtractor(arrays=arrays)
