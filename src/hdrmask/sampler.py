"""Training-data curation: textured-patch scoring and hole-mask synthesis.

Most saturated regions in HDR material are smooth (skies, bare lights) and
teach the network nothing about texture. The patch metric separates the
wheat from the chaff: split log-luminance into a smooth base layer and a
detail residual (Durand & Dorsey, SIGGRAPH 2002), then average the detail
layer's Sobel gradients over the saturated support. Smooth-bright patches
score near zero regardless of how bright they are; textured highlights
score high.

The base layer is a reflect-bordered Gaussian blur, the bilateral filter's
limit at a range sigma wider than a crop's log-luminance range
(:func:`bilateral_filter`): one pair of products with blur matrices cached
per axis extent, window radius and space_sigma.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from .errors import DimensionError, DomainError
from .pipeline import (DEFAULT_SATURATION_THRESHOLD, HdrImage, LdrImage, encode_exposed,
                       exposure_mask, exposure_scales, rgb_to_gray)


@dataclass(frozen=True)
class SamplerConfig:
    space_sigma: float = 10.0
    metric_threshold: float = 0.85
    patch_size: int = 64          # 512 at paper scale
    patches_per_image: int = 32   # 250 at paper scale
    alpha: float = DEFAULT_SATURATION_THRESHOLD
    percentile_range: tuple = (85.0, 97.0)
    fixed_percentile: float | None = None  # set for deterministic exposures
    quantize_bits: int = 8

    def __post_init__(self):
        _check_space_sigma(self.space_sigma)
        if self.metric_threshold < 0:
            raise DomainError("metric threshold must be non-negative")
        if self.patch_size < 1 or self.patches_per_image < 1:
            raise DomainError("patch size and count must be positive")


def _check_space_sigma(space_sigma):
    """Raise DomainError unless space_sigma is finite and positive with a
    positive 2 space_sigma**2."""
    s = float(space_sigma)
    if not (s > 0 and 2.0 * s * s > 0 and isfinite(s)):
        raise DomainError(f"bilateral space_sigma must be finite and positive, got {space_sigma}")


@dataclass
class PatchRecord:
    """One training example, plus where it came from."""

    hdr: HdrImage
    ldr: LdrImage
    mask: np.ndarray
    score: float
    image_id: str = ""
    offset: tuple = (0, 0)


def _sobel_magnitude(img):
    """|Gx| + |Gy| of the 3x3 Sobel pair with reflected borders.

    Both kernels are separable, Gx = [1,2,1]^T x [-1,0,1] and Gy its
    transpose, so each is a 3-tap pass along one axis of one padded copy
    followed by a 3-tap pass along the other. The copy is np.pad's
    'reflect' border of width 1, written in place: an extent of 1 reflects
    to itself.
    """
    h, w = img.shape
    p = np.empty((h + 2, w + 2), img.dtype)
    p[1:-1, 1:-1] = img
    p[0, 1:-1], p[-1, 1:-1] = img[min(1, h - 1)], img[max(h - 2, 0)]
    p[:, 0], p[:, -1] = p[:, min(2, w)], p[:, max(w - 1, 1)]
    diff_x = p[:, 2:] - p[:, :-2]
    smooth_x = p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]
    gx = diff_x[:-2] + 2.0 * diff_x[1:-1] + diff_x[2:]
    gy = smooth_x[2:] - smooth_x[:-2]
    gx = np.abs(gx, out=gx)
    gx += np.abs(gy, out=gy)
    return gx


# The blur-matrix cache: at most _BLUR_CACHE_SIZE float64 (n, n) matrices,
# each of extent n <= _BLUR_CACHE_EXTENT, so it holds at most 16 MB (8 n**2
# bytes each: 32 KB at n = 64). Larger extents, whole images, build theirs
# per call and keep nothing. Keys are typed: a numpy float32 space_sigma
# rounds the taps otherwise than the equal Python float.
_BLUR_CACHE_SIZE = 8
_BLUR_CACHE_EXTENT = 512

# Gaussian taps are generated this many at a time, so a wide window costs
# time but no memory.
_TAP_BLOCK = 1 << 14


def _reflect(index, n):
    """Where positions ``index`` (any integers) of an n-long axis land under
    np.pad's 'reflect' border, which repeats with period 2(n - 1)."""
    period = max(1, 2 * (n - 1))
    q = np.asarray(index) % period
    return np.where(q < n, q, period - q)


def _folded_taps(n, radius, inv_2ss):
    """The Gaussian taps exp(-d**2 inv_2ss), |d| <= radius, summed per
    residue of d modulo an n-long axis's reflection period P = 2(n - 1):
    shifts a period apart read the same reflected positions. Generated in
    blocks of ``_TAP_BLOCK``, so memory is O(P) whatever the radius."""
    period = max(1, 2 * (n - 1))
    folded = np.zeros(period)
    for lo in range(-radius, radius + 1, _TAP_BLOCK):
        d = np.arange(lo, min(lo + _TAP_BLOCK, radius + 1))
        taps = np.exp(-(d * d) * inv_2ss)
        folded += np.bincount(d % period, weights=taps, minlength=period)
    return folded


@functools.lru_cache(maxsize=_BLUR_CACHE_SIZE, typed=True)
def _reflect_blur_matrix(n, radius, space_sigma):
    """(n, n) matrix of a 1-D correlation with the Gaussian taps
    exp(-d**2 / (2 space_sigma**2)), |d| <= radius, under np.pad's 'reflect'
    border, repeated reflection for radius >= n included. Read-only: every
    call with the same arguments (of the same types) shares it.

    The taps are first folded onto one reflection period P = 2(n - 1), so
    the work arrays are (n, P) whatever the radius. Up to radius n - 2 no
    two taps share a residue and each entry sums at most two taps, which
    is the sum a padded index window gives, bit for bit; past it, taps
    that fold together are summed in another order, equal to rounding.
    """
    folded = _folded_taps(n, radius, 1.0 / (2.0 * space_sigma * space_sigma))
    period = folded.size
    # Output i reads, with residue r's folded tap, padded position i + r.
    rows = np.arange(n)[:, None]
    cols = _reflect(rows + np.arange(period), n)
    flat = np.bincount((rows * n + cols).ravel(),
                       weights=np.broadcast_to(folded, cols.shape).ravel(),
                       minlength=n * n)
    flat.setflags(write=False)
    return flat.reshape(n, n)


def _blur_matrix(n, radius, space_sigma):
    """:func:`_reflect_blur_matrix`, from the cache for ``n`` up to
    ``_BLUR_CACHE_EXTENT``."""
    if n <= _BLUR_CACHE_EXTENT:
        return _reflect_blur_matrix(n, radius, space_sigma)
    return _reflect_blur_matrix.__wrapped__(n, radius, space_sigma)


def bilateral_filter(luminance, space_sigma=10.0, radius=None):
    """The base layer of a single-channel image: its reflect-bordered
    Gaussian blur, weights exp(-d**2 / (2 space_sigma**2)) over a window of
    radius ``radius`` (default ceil(2 space_sigma)), computed in float64 and
    returned in the input's dtype.

    This is the bilateral filter's limit at a range sigma wider than the
    image's range. The former range sigma of 100 on a crop's log1p
    luminance, whose range is at most about 4.34, sat about 20 times past
    it: every range weight lay in [0.99906, 1]. The name stays because the
    benchmark's tracer and the check of one call per scored crop are keyed
    on ``sampler.bilateral_filter``.

    The image, centred on its midrange so that a constant one comes back
    exactly, goes through one pair of products with the two axes' cached
    blur matrices and is divided by the window's tap sum. Raises
    DomainError for a ``space_sigma`` that is not finite and positive, for
    an image holding a NaN or an infinity, which the products would spread
    over the whole image, and for one whose range times the window's tap
    sum passes float64's largest value, where the products would overflow.
    """
    l = np.asarray(luminance)
    if l.ndim != 2:
        raise DimensionError(f"bilateral_filter wants a 2-D image, got {l.shape}")
    _check_space_sigma(space_sigma)
    if radius is None:
        radius = int(ceil(2.0 * space_sigma))
    if radius < 1:
        raise DomainError("bilateral radius must be >= 1")
    lo, hi = float(l.min()), float(l.max())
    if not (isfinite(lo) and isfinite(hi)):  # a NaN or an infinity reaches an extreme
        raise DomainError("bilateral_filter wants a finite image")
    rows, cols = (_blur_matrix(n, radius, space_sigma) for n in l.shape)
    # Reflection sends every tap of a window somewhere, so each row of a
    # blur matrix sums to that axis's whole tap sum, and no partial sum of
    # the products passes the range times the two. Python floats go to inf
    # past the largest value, without a warning.
    taps = float(rows[0].sum()) * float(cols[0].sum())
    if (hi - lo) * taps > sys.float_info.max:
        raise DomainError(f"bilateral_filter's blur of an image ranging over [{lo}, {hi}] "
                          "would overflow float64")
    # Halved first, the two ends cannot overflow; halving is exact but for
    # subnormals, so this is 0.5 * (lo + hi) wherever that is finite.
    mid = 0.5 * lo + 0.5 * hi
    out = rows @ (l.astype(np.float64) - mid) @ cols.T
    out /= taps
    out += mid
    return out.astype(l.dtype, copy=False)


def patch_metric(hdr, mask, config=None):
    """Mean detail-layer gradient magnitude over the saturated support.

    Works in the log domain, so the score ignores absolute brightness:
    multiplying (radiance + 1) by a constant shifts the log image and its
    base layer by the same constant and leaves the detail layer untouched.
    """
    config = config or SamplerConfig()
    h = hdr.pixels if isinstance(hdr, HdrImage) else np.asarray(hdr)
    m = np.asarray(mask)
    if m.shape != h.shape:
        raise DimensionError(f"mask shape {m.shape} != image shape {h.shape}")
    log_lum = np.log1p(rgb_to_gray(h))
    grad = _sobel_magnitude(log_lum - bilateral_filter(log_lum, config.space_sigma))
    weight = 1.0 - m.min(axis=0)
    return float(np.mean(grad * weight))


def sample_patches(hdr, config=None, seed=0, image_id="", curve=None):
    """Crop, expose, and filter training patches from one HDR image.

    Each crop gets its own randomized exposure: a saturation percentile is
    drawn per patch (unless the config pins one) and anchored to the full
    image's luminance distribution, times ``curve``'s exposure, so crops of
    dark content stay unsaturated (their mask is all ones) and are
    discarded. The remaining crops are kept when their texture score
    exceeds the threshold. Deterministic per seed; results are sorted by
    offset. Each record's ground truth is the exposure-scaled radiance, the
    one product its LDR is encoded from, so input and target describe the
    same virtual camera.
    """
    config = config or SamplerConfig()
    h = hdr.pixels if isinstance(hdr, HdrImage) else np.asarray(hdr)
    ps = config.patch_size
    if h.shape[1] < ps or h.shape[2] < ps:
        raise DimensionError(f"image {h.shape} smaller than patch size {ps}")
    rng = np.random.default_rng(seed)
    scale_at = exposure_scales(h, curve)
    records = []
    for _ in range(config.patches_per_image):
        oy = int(rng.integers(0, h.shape[1] - ps + 1))
        ox = int(rng.integers(0, h.shape[2] - ps + 1))
        if config.fixed_percentile is not None:
            pct = config.fixed_percentile
        else:
            lo, hi = config.percentile_range
            pct = float(rng.uniform(lo, hi))
        scale = scale_at(pct)
        patch = h[:, oy:oy + ps, ox:ox + ps]
        exposed = patch * patch.dtype.type(scale)
        ldr = encode_exposed(exposed, curve, config.quantize_bits)
        mask = exposure_mask(ldr.pixels, config.alpha)
        if mask.min() == 1:
            continue
        scaled = HdrImage(exposed)
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
    if min(channels, h, w) < 1:
        raise DimensionError(f"mask channels, height and width must be >= 1, got {shape}")
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
