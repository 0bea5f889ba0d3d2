"""Training-data curation: textured-patch scoring and hole-mask synthesis.

Most saturated regions in HDR material are smooth (skies, bare lights) and
teach the network nothing about texture. The patch metric separates the
wheat from the chaff: split log-luminance into a bilateral-filtered base
layer and a detail residual, then average the detail layer's Sobel
gradients over the saturated support. Smooth-bright patches score near
zero regardless of how bright they are; textured highlights score high.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import DimensionError, DomainError
from .network import exposure_mask
from .pipeline import (HdrImage, LdrImage, apply_exposure,
                       exposure_scale, rgb_to_gray, saturation_percentage)

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


@dataclass(frozen=True)
class SamplerConfig:
    color_sigma: float = 100.0
    space_sigma: float = 10.0
    metric_threshold: float = 0.85
    patch_size: int = 64          # 512 at paper scale
    patches_per_image: int = 32   # 250 at paper scale
    alpha: float = 0.96
    percentile_range: tuple = (85.0, 97.0)
    fixed_percentile: float | None = None  # set for deterministic exposures
    quantize_bits: int = 8

    def __post_init__(self):
        if self.color_sigma <= 0 or self.space_sigma <= 0:
            raise DomainError("bilateral sigmas must be positive")
        if self.metric_threshold < 0:
            raise DomainError("metric threshold must be non-negative")
        if self.patch_size < 1 or self.patches_per_image < 1:
            raise DomainError("patch size and count must be positive")


@dataclass
class PatchRecord:
    """One training example, plus where it came from."""

    hdr: HdrImage
    ldr: LdrImage
    mask: np.ndarray
    score: float
    image_id: str = ""
    offset: tuple = (0, 0)


def correlate2d_reflect(arr, kernel):
    """Same-size 2-D correlation with reflected borders (used for Sobel)."""
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    p = np.pad(arr, ((ry, ry), (rx, rx)), mode="reflect")
    out = np.zeros_like(arr, dtype=np.result_type(arr, kernel))
    h, w = arr.shape
    for dy in range(kh):
        for dx in range(kw):
            k = kernel[dy, dx]
            if k != 0.0:
                out += k * p[dy:dy + h, dx:dx + w]
    return out


def bilateral_filter(luminance, color_sigma=100.0, space_sigma=10.0, radius=None):
    """Edge-preserving smoothing of a single-channel image.

    Each output pixel is the weighted mean of its window, with weights that
    fall off both with spatial distance (``space_sigma``) and with
    luminance difference (``color_sigma``). Borders reflect. The window
    radius defaults to ceil(2 * space_sigma).
    """
    l = np.asarray(luminance)
    if l.ndim != 2:
        raise DimensionError(f"bilateral_filter wants a 2-D image, got {l.shape}")
    if radius is None:
        radius = int(ceil(2.0 * space_sigma))
    if radius < 1:
        raise DomainError("bilateral radius must be >= 1")
    h, w = l.shape
    p = np.pad(l, radius, mode="reflect")
    inv_2ss = 1.0 / (2.0 * space_sigma * space_sigma)
    inv_2cs = 1.0 / (2.0 * color_sigma * color_sigma)
    acc = np.zeros_like(l, dtype=np.float64)
    norm = np.zeros_like(l, dtype=np.float64)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            shifted = p[radius + dy:radius + dy + h, radius + dx:radius + dx + w]
            diff = shifted - l
            wgt = np.exp(-(dy * dy + dx * dx) * inv_2ss) * np.exp(-diff * diff * inv_2cs)
            acc += wgt * shifted
            norm += wgt
    return (acc / norm).astype(l.dtype, copy=False)


def patch_metric(hdr, mask, config=None):
    """Mean detail-layer gradient magnitude over the saturated support.

    Works in the log domain, so the score ignores absolute brightness:
    multiplying (radiance + 1) by a constant shifts the log image and the
    bilateral base layer by the same constant and leaves the detail layer
    untouched.
    """
    config = config or SamplerConfig()
    h = hdr.pixels if isinstance(hdr, HdrImage) else np.asarray(hdr)
    m = np.asarray(mask)
    if m.shape != h.shape:
        raise DimensionError(f"mask shape {m.shape} != image shape {h.shape}")
    log_lum = np.log1p(rgb_to_gray(h))
    base = bilateral_filter(log_lum, config.color_sigma, config.space_sigma)
    detail = log_lum - base
    grad = np.abs(correlate2d_reflect(detail, SOBEL_X)) + \
        np.abs(correlate2d_reflect(detail, SOBEL_Y))
    weight = (1.0 - m).max(axis=0)
    return float(np.mean(grad * weight))


def sample_patches(hdr, config=None, seed=0, image_id="", curve=None, exposure=None):
    """Crop, expose, and filter training patches from one HDR image.

    Each crop gets its own randomized exposure: a saturation percentile is
    drawn per patch (unless the config pins one, or an explicit
    ``exposure`` multiplier is given) and anchored to the full image's
    luminance distribution, so crops of dark content stay unsaturated and
    are discarded. The remaining crops are kept when their texture score
    exceeds the threshold. Deterministic per seed; results are sorted by
    offset. Each record's ground truth is the exposure-scaled radiance, so
    input and target describe the same virtual camera.
    """
    config = config or SamplerConfig()
    h = hdr.pixels if isinstance(hdr, HdrImage) else np.asarray(hdr)
    ps = config.patch_size
    if h.shape[1] < ps or h.shape[2] < ps:
        raise DimensionError(f"image {h.shape} smaller than patch size {ps}")
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(config.patches_per_image):
        oy = int(rng.integers(0, h.shape[1] - ps + 1))
        ox = int(rng.integers(0, h.shape[2] - ps + 1))
        if exposure is not None:
            scale = float(exposure)
        else:
            if config.fixed_percentile is not None:
                pct = config.fixed_percentile
            else:
                lo, hi = config.percentile_range
                pct = float(rng.uniform(lo, hi))
            scale = exposure_scale(h, pct, curve)
        patch = h[:, oy:oy + ps, ox:ox + ps]
        ldr = apply_exposure(patch, scale, curve=curve,
                             quantize_bits=config.quantize_bits)
        if saturation_percentage(ldr, config.alpha) == 0.0:
            continue
        mask = exposure_mask(ldr.pixels, config.alpha)
        scaled = HdrImage(patch * patch.dtype.type(scale))
        score = patch_metric(scaled, mask, config)
        if score > config.metric_threshold:
            records.append(PatchRecord(scaled, ldr, mask, score, image_id, (oy, ox)))
    records.sort(key=lambda r: r.offset)
    return records


def sample_corpus(named_images, config=None, seed=0):
    """``sample_patches`` over ``(name, hdr)`` pairs, concatenated in order.

    Image ``i`` is sampled with ``seed + i`` and its records carry its name
    as ``image_id``.
    """
    records = []
    for i, (name, hdr) in enumerate(named_images):
        records.extend(sample_patches(hdr, config, seed=seed + i, image_id=name))
    return records


def generate_inpainting_mask(shape, seed=0, coverage=(0.05, 0.45), max_attempts=32):
    """Binary validity mask of random streaks and elliptical holes.

    0 marks holes, 1 valid pixels; the hole fraction lands inside
    ``coverage``. Raises DomainError when the bounds cannot be met within
    the attempt budget. Deterministic per seed.
    """
    if len(shape) == 2:
        channels, (h, w) = 1, shape
    elif len(shape) == 3:
        channels, h, w = shape
    else:
        raise DimensionError(f"mask shape must be (H,W) or (C,H,W), got {shape}")
    lo, hi = coverage
    if not (0 < lo < hi < 1):
        raise DomainError(f"coverage bounds must satisfy 0 < lo < hi < 1, got {coverage}")
    rng = np.random.default_rng(seed)
    target = rng.uniform(lo, hi)
    for _ in range(max_attempts):
        hole = np.zeros((h, w), dtype=bool)
        guard = 0
        while hole.mean() < target and guard < 256:
            if rng.random() < 0.6:
                _draw_stroke(hole, rng)
            else:
                _draw_ellipse(hole, rng)
            guard += 1
        frac = hole.mean()
        if lo <= frac <= hi:
            mask = (~hole).astype(np.float32)
            if channels > 1:
                mask = np.broadcast_to(mask, (channels, h, w)).copy()
            return mask
        target = rng.uniform(lo, hi)
    raise DomainError(f"could not reach hole coverage in {coverage} after {max_attempts} attempts")


def _draw_stroke(hole, rng, thickness_range=(3, 15)):
    h, w = hole.shape
    y, x = rng.uniform(0, h), rng.uniform(0, w)
    angle = rng.uniform(0, 2 * np.pi)
    thickness = int(rng.integers(thickness_range[0], thickness_range[1] + 1))
    steps = int(rng.integers(4, 16))
    step_len = max(2.0, thickness * 0.8)
    for _ in range(steps):
        _stamp_disc(hole, y, x, thickness / 2.0)
        angle += rng.normal(0.0, 0.5)
        y += step_len * np.sin(angle)
        x += step_len * np.cos(angle)
        if not (-thickness < y < h + thickness and -thickness < x < w + thickness):
            break


def _draw_ellipse(hole, rng):
    h, w = hole.shape
    cy, cx = rng.uniform(0, h), rng.uniform(0, w)
    ay = rng.uniform(2, max(3.0, h / 6))
    ax = rng.uniform(2, max(3.0, w / 6))
    yy, xx = np.ogrid[:h, :w]
    hole |= ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0


def _stamp_disc(hole, cy, cx, radius):
    h, w = hole.shape
    y0, y1 = max(0, int(cy - radius - 1)), min(h, int(cy + radius + 2))
    x0, x1 = max(0, int(cx - radius - 1)), min(w, int(cx + radius + 2))
    if y0 >= y1 or x0 >= x1:
        return
    yy, xx = np.ogrid[y0:y1, x0:x1]
    hole[y0:y1, x0:x1] |= (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
