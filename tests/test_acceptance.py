"""Acceptance suite: one test per release criterion, printed pass/fail.

Each criterion runs at its stated tolerance. Criterion 6, the desk-scale
masking/pre-training ablation, is absent: at desk scale the paper's
ordering does not reproduce (ROADMAP item 2).
"""

import math
import time
from dataclasses import replace

import numpy as np

from hdrmask import formats as F
from hdrmask import losses as L
from hdrmask import network as N
from hdrmask import sampler as S
from hdrmask import tensor as T
from hdrmask.errors import HdrMaskError
from hdrmask.network import UNetConfig, UNetParameters, exposure_mask, unet_forward
from hdrmask.losses import mu_law_compress
from hdrmask.pipeline import compose_hdr, mse_gamma_scores
from hdrmask.sampler import SamplerConfig, sample_patches
from hdrmask.synthetic import hdr_scene, make_hdr_corpus
from hdrmask.training import initialize_parameters

from oracles import bilateral_loops, conv2d_loops, patch_metric_steps


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def float64_params(config, seed):
    arrays = {k: v.astype(np.float64) for k, v in
              initialize_parameters(config, seed).named_arrays().items()}
    return UNetParameters.from_arrays(config, arrays)


class TestCriterion1OracleEquivalence:
    def test_conv_and_bilateral_match_brute_force(self):
        t0 = time.monotonic()
        worst32 = worst64 = 0.0
        rng = np.random.default_rng(101)
        for i in range(200):
            n = int(rng.integers(1, 3))
            ci = int(rng.integers(1, 5))
            co = int(rng.integers(1, 5))
            h = int(rng.integers(3, 9))
            k = int(rng.choice([1, 3]))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            pad_value = float(rng.choice([0.0, 1.0]))
            x64 = rng.normal(size=(n, ci, h, h))
            w64 = rng.normal(size=(co, ci, k, k))
            b64 = rng.normal(size=co)
            want = conv2d_loops(x64, w64, b64, stride, padding, pad_value)
            scale = max(1.0, float(np.max(np.abs(want))))
            got64, _ = T.conv2d_raw(x64, w64, b64, stride, padding, pad_value)
            worst64 = max(worst64, float(np.max(np.abs(got64 - want))) / scale)
            got32, _ = T.conv2d_raw(x64.astype(np.float32), w64.astype(np.float32),
                                    b64.astype(np.float32), stride, padding, pad_value)
            worst32 = max(worst32, float(np.max(np.abs(got32 - want))) / scale)
        b_worst32 = b_worst64 = 0.0
        for i in range(200):
            h = int(rng.integers(4, 9))
            img64 = rng.random((h, h)) * rng.uniform(0.5, 4.0)
            sc = float(rng.uniform(0.2, 50.0))
            ss = float(rng.uniform(0.8, 3.0))
            r = int(rng.integers(1, 4))
            want = bilateral_loops(img64, sc, ss, r)
            got64 = S.bilateral_filter(img64, sc, ss, radius=r)
            b_worst64 = max(b_worst64, float(np.max(np.abs(got64 - want))))
            got32 = S.bilateral_filter(img64.astype(np.float32), sc, ss, radius=r)
            b_worst32 = max(b_worst32, float(np.max(np.abs(got32 - want))))
        elapsed = time.monotonic() - t0
        ok = (worst64 <= 1e-12 and worst32 <= 1e-6 and
              b_worst64 <= 1e-12 and b_worst32 <= 1e-6 and elapsed < 60)
        report(1, ok,
               f"conv rel err 64/32: {worst64:.2e}/{worst32:.2e}; "
               f"bilateral 64/32: {b_worst64:.2e}/{b_worst32:.2e}; {elapsed:.1f}s")


class TestCriterion2GradientSuite:
    def test_every_loss_term_and_masked_unet(self):
        t0 = time.monotonic()
        extractor = L.FeatureExtractor(channels=(4, 8), seed=2)
        worst = {}
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            h = rng.random((1, 3, 8, 8)) * 3.0
            m = rng.random((1, 3, 8, 8))
            hole = (rng.random((1, 3, 8, 8)) > 0.4).astype(np.float64)
            img = rng.random((1, 3, 8, 8))
            kw = dict(epsilon=1e-4, max_coords=4,
                      rng=np.random.default_rng(900 + seed))

            y = T.parameter(rng.normal(size=(1, 3, 8, 8)))
            checks = {
                "total": lambda t: L.total_loss(t, h, m, extractor).node,
                "reconstruction": lambda t: L.reconstruction_loss(t, h, m),
                "vgg+style": lambda t: sum(
                    L.perceptual_loss(L.blend_with_ground_truth(h, t, m), h,
                                      extractor)),
                "blend": lambda t: T.tmean(T.absolute(
                    L.blend_with_ground_truth(h, t, m))),
                "mu_law": lambda t: T.tmean(mu_law_compress(T.activation(t, "relu"), mu=500.0)),
                "gram": lambda t: T.tsum(T.absolute(L.gram_matrix(t))),
                "inpainting": lambda t: L.inpainting_loss(
                    T.activation(t, "relu"), img, hole, extractor).node,
            }
            for name, fn in checks.items():
                y.zero_grad()
                err = T.check_gradients(fn, [y], **kw)
                worst[name] = max(worst.get(name, 0.0), err)

            config = UNetConfig(levels=2, base_channels=4)
            params = float64_params(config, seed)
            x = rng.random((1, 3, 8, 8))
            mask = exposure_mask(x, 0.9)
            _, stack = unet_forward(x, mask, params)
            frozen = dict(stack)

            def unet_loss(*tensors):
                yy, _ = unet_forward(x, mask, params, frozen_masks=frozen)
                return L.total_loss(yy, h, mask, extractor).node

            # epsilon 1e-5 for the composite network: at 1e-4 the secant can
            # straddle a relu kink (seen on ~3 of 20 seeds), which says
            # nothing about the analytic gradient; 1e-5 still sits 6 digits
            # above float64 roundoff.
            tensors = list(params.tensors.values())
            err = T.check_gradients(unet_loss, tensors, epsilon=1e-5, max_coords=2,
                                    rng=np.random.default_rng(700 + seed))
            worst["masked_unet"] = max(worst.get("masked_unet", 0.0), err)
        elapsed = time.monotonic() - t0
        peak = max(worst.values())
        ok = peak < 1e-3 and elapsed < 300
        detail = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
        report(2, ok, f"max rel err {peak:.2e} ({detail}); {elapsed:.1f}s")


class TestCriterion3MaskingIdentity:
    def test_identity_boundedness_monotonicity(self):
        t0 = time.monotonic()
        config = UNetConfig(levels=3, base_channels=8)
        rng = np.random.default_rng(31)
        arrays = {}
        for spec in N.layer_plan(config):
            arrays[f"{spec.name}.weight"] = rng.normal(
                0, 0.25, size=(spec.out_channels, spec.in_channels, 3, 3)).astype(np.float32)
            arrays[f"{spec.name}.bias"] = rng.normal(0, 0.05, size=spec.out_channels).astype(np.float32)
        params = UNetParameters.from_arrays(config, arrays)
        x = rng.random((2, 3, 16, 16), dtype=np.float32)
        ones = np.ones_like(x)
        y_masked, stack = unet_forward(x, ones, params)
        y_plain, _ = unet_forward(x, ones, replace(params, config=replace(config, mode="SConv")))
        denom = max(float(np.max(np.abs(y_plain.data))), 1e-9)
        rel = float(np.max(np.abs(y_masked.data - y_plain.data))) / denom
        min_kernel_sum = min(float(np.abs(w.data).sum(axis=(1, 2, 3)).min())
                             for w in (params.tensors[f"{s.name}.weight"]
                                       for s in N.layer_plan(config)))
        bound = 1.0 - len(stack) * 1e-6 / min_kernel_sum
        masks_ok = all(m.min() >= bound for _, m in stack[1:])

        mono_ok = True
        bounded_ok = True
        for i in range(1000):
            r = np.random.default_rng(4000 + i)
            w = T.constant(r.normal(size=(2, 2, 3, 3)))
            a = r.random((1, 2, 5, 5))
            b = np.clip(a + r.random((1, 2, 5, 5)) * (1 - a), 0, 1)
            out_a = N.propagate_mask(a, w, padding=1)
            out_b = N.propagate_mask(b, w, padding=1)
            bounded_ok &= bool(np.all(out_a >= 0) and np.all(out_a <= 1))
            mono_ok &= bool(np.all(out_b - out_a >= -1e-12))
        elapsed = time.monotonic() - t0
        ok = rel < 1e-3 and masks_ok and mono_ok and bounded_ok and elapsed < 120
        report(3, ok, f"identity rel {rel:.2e}, masks>=bound {masks_ok}, "
                      f"monotone {mono_ok}, bounded {bounded_ok}; {elapsed:.1f}s")


class TestCriterion4AnalyticalSpotValues:
    def test_pinned_values(self):
        m = np.ones((1, 1, 5, 5))
        m[0, 0, 2, 2] = 0.0
        got_mask = N.propagate_mask(m, T.constant(np.ones((1, 1, 3, 3))), padding=1)[0, 0, 2, 2]
        want_mask = 8.0 / (9.0 + 1e-6)

        got_mu = mu_law_compress(T.constant(np.array(0.002)), mu=500).item()
        want_mu = math.log(2.0) / math.log(501.0)

        got_blend = compose_hdr(np.ones((3, 1, 1)), np.full((3, 1, 1), 0.5),
                                np.full((3, 1, 1), math.log(3.0))).pixels[0, 0, 0]

        got_gram = L.gram_matrix(T.constant(np.eye(2).reshape(1, 2, 1, 2))).data[0]

        checks = [
            ("mask", abs(got_mask - want_mask)),
            ("mu_law", abs(got_mu - want_mu)),
            ("compose", abs(got_blend - 1.5)),
            ("gram", float(np.max(np.abs(got_gram - 0.25 * np.eye(2))))),
        ]
        ok = all(err < 1e-9 for _, err in checks)
        assert abs(want_mu - 0.111499) < 1e-6
        report(4, ok, ", ".join(f"{name} err {err:.1e}" for name, err in checks))


class TestCriterion5PatchMetricBehavior:
    def test_algorithm_behavior(self):
        t0 = time.monotonic()
        const = np.full((3, 16, 16), 7.0)
        zero_const = S.patch_metric(const, np.zeros_like(const))
        rng = np.random.default_rng(51)
        textured = rng.random((3, 16, 16)) * 20
        zero_valid = S.patch_metric(textured, np.ones_like(textured))

        blocks = (np.indices((16, 16)) // 4).sum(0) % 2
        checker = np.where(blocks[None] == 1, 20.0, 1.0) * np.ones((3, 1, 1))
        mask0 = np.zeros_like(checker)
        score = S.patch_metric(checker, mask0)
        oracle = patch_metric_steps(checker, mask0)

        h = rng.random((3, 16, 16)) * 10
        m = (rng.random((3, 16, 16)) > 0.5).astype(float)
        shift = abs(S.patch_metric(h, m) - S.patch_metric(3.0 * (h + 1.0) - 1.0, m))

        kept = 0
        audited = True
        total = 0
        corpus = make_hdr_corpus(50, seed=151, size=(96, 96))
        cfg = SamplerConfig(patch_size=64, patches_per_image=4)
        for i, scene in enumerate(corpus):
            for rec in sample_patches(scene, cfg, seed=i, image_id=f"c{i}"):
                kept += 1
                audited &= rec.score > 0.85
                audited &= bool((rec.mask < 1).any())
            total += cfg.patches_per_image
        elapsed = time.monotonic() - t0
        ok = (zero_const == 0.0 and zero_valid == 0.0 and score > 0 and
              abs(score - oracle) < 1e-9 * max(1.0, oracle) and shift < 1e-9 and
              kept > 0 and audited and elapsed < 120)
        report(5, ok,
               f"const {zero_const}, valid {zero_valid}, checker {score:.3f} "
               f"(oracle {oracle:.3f}), shift {shift:.1e}, corpus kept {kept}/{total} "
               f"audited {audited}; {elapsed:.1f}s")


class TestCriterion7PipelineIdentity:
    def test_oracle_injection_is_exact(self):
        recs = []
        cfg = SamplerConfig(patch_size=32, patches_per_image=6,
                            metric_threshold=0.0, quantize_bits=0)
        for i, scene in enumerate(make_hdr_corpus(4, seed=71, size=(64, 64))):
            recs.extend(sample_patches(scene, cfg, seed=i, image_id=f"p{i}"))
        assert recs
        worst = 0.0
        for rec in recs:
            recon = compose_hdr(rec.ldr, rec.mask, np.log1p(rec.hdr.pixels))
            worst = max(worst, mse_gamma_scores(recon.pixels, rec.hdr.pixels, rec.mask)[0])
        report(7, worst < 1e-10, f"worst mse_gamma {worst:.2e} over {len(recs)} records")


class TestCriterion8FormatIntegrity:
    def test_round_trips_and_fuzz(self):
        t0 = time.monotonic()
        import io as _io
        import tempfile, os
        rng = np.random.default_rng(81)
        ok = True
        with tempfile.TemporaryDirectory() as tmp:
            img = (rng.random((3, 9, 7)) * 100).astype(np.float32)
            p = os.path.join(tmp, "i.pfm")
            F.write_pfm(p, img)
            ok &= bool(np.array_equal(F.read_pfm(p), img))
            ldr = (rng.integers(0, 256, size=(3, 6, 6)) / 255).astype(np.float32)
            q = os.path.join(tmp, "i.ppm")
            F.write_ldr(q, ldr)
            ok &= bool(np.array_equal(F.read_ldr(q).pixels, ldr))
            arrays = {"enc0.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                      "enc0.bias": np.zeros(4, dtype=np.float32)}
            c = os.path.join(tmp, "i.ckpt")
            F.save_checkpoint(c, arrays)
            loaded = F.load_checkpoint(c)
            ok &= all(np.array_equal(loaded[k], v) for k, v in arrays.items())
            recs = sample_patches(hdr_scene(85, size=(96, 96)),
                                  SamplerConfig(patch_size=32, patches_per_image=8,
                                                metric_threshold=0.0),
                                  seed=3, image_id="fz")
            s = os.path.join(tmp, "i.mds")
            F.write_dataset_shard(s, recs)
            back = F.read_dataset_shard(s)
            ok &= len(back) == len(recs) and all(
                np.array_equal(np.float32(a.hdr.pixels), b.hdr.pixels)
                for a, b in zip(recs, back))

            valid_samples = {
                F.read_pfm: F.encode_pfm(img),
                F.read_ldr: F.encode_ppm(ldr),
                F.load_checkpoint: open(c, "rb").read(),
                F.read_dataset_shard: open(s, "rb").read(),
            }
        crashes = 0
        cases_per_reader = 10000
        readers = [F.read_pfm, F.read_ldr, F.read_rgbe, F.load_checkpoint,
                   F.read_dataset_shard]
        for reader in readers:
            base = valid_samples.get(reader, b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 2 +X 2\n" + bytes(16))
            for i in range(cases_per_reader):
                r = np.random.default_rng(i * 7 + 1)
                if i % 2 == 0:
                    blob = r.bytes(int(r.integers(0, 120)))
                else:
                    raw = bytearray(base)
                    for _ in range(int(r.integers(1, 4))):
                        raw[int(r.integers(0, len(raw)))] = int(r.integers(0, 256))
                    blob = bytes(raw)
                try:
                    reader(blob)
                except HdrMaskError:
                    pass
                except Exception:
                    crashes += 1
        elapsed = time.monotonic() - t0
        ok &= crashes == 0 and elapsed < 120
        report(8, bool(ok), f"round trips ok, {crashes} crashes over "
                            f"{cases_per_reader * len(readers)} fuzz cases; {elapsed:.1f}s")
