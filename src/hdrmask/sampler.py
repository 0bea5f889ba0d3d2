"""Training-data curation: textured-patch scoring and hole-mask synthesis.

Most saturated regions in HDR material are smooth (skies, bare lights) and
teach the network nothing about texture. The patch metric separates the
wheat from the chaff: split log-luminance into a bilateral-filtered base
layer and a detail residual, then average the detail layer's Sobel
gradients over the saturated support. Smooth-bright patches score near
zero regardless of how bright they are; textured highlights score high.

The bilateral base layer is exact but not a window loop: the Gaussian range
kernel is expanded as a Taylor series in the product of the two pixels'
centred luminances, so the filter becomes K + 2 reflect-bordered Gaussian
blurs of powers of the image. K is the smallest order whose truncation bound
is at most 2**-53, about 4 on log-luminance at color_sigma = 100. Where no K
up to ``_MAX_SERIES_TERMS`` meets the bound (a color_sigma narrow for the
image's range) or the image is not finite, the direct window sum runs.
The blur matrices depend only on an axis's extent, the window radius and
space_sigma, so each is built once and cached: the sampler's 64-pixel crops
share one 32 KB matrix, and the cache holds at most 16 MB
(``_BLUR_CACHE_SIZE`` matrices of extent up to ``_BLUR_CACHE_EXTENT``).
Building a matrix, like the direct sum, takes memory bounded by the
extent, not by the window radius; the direct sum's shifts fold onto each
axis's reflection period, so its time is bounded by the extent too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import ceil, exp, isfinite, ldexp

import numpy as np

from .errors import DimensionError, DomainError
from .pipeline import (DEFAULT_SATURATION_THRESHOLD, HdrImage, LdrImage, apply_exposure,
                       exposure_mask, exposure_scales, rgb_to_gray)


@dataclass(frozen=True)
class SamplerConfig:
    color_sigma: float = 100.0
    space_sigma: float = 10.0
    metric_threshold: float = 0.85
    patch_size: int = 64          # 512 at paper scale
    patches_per_image: int = 32   # 250 at paper scale
    alpha: float = DEFAULT_SATURATION_THRESHOLD
    percentile_range: tuple = (85.0, 97.0)
    fixed_percentile: float | None = None  # set for deterministic exposures
    quantize_bits: int = 8

    def __post_init__(self):
        _check_sigmas(self.color_sigma, self.space_sigma)
        if self.metric_threshold < 0:
            raise DomainError("metric threshold must be non-negative")
        if self.patch_size < 1 or self.patches_per_image < 1:
            raise DomainError("patch size and count must be positive")


def _check_sigmas(color_sigma, space_sigma):
    """Raise DomainError unless both sigmas are positive with a positive
    2 sigma**2, and space_sigma is finite. color_sigma = inf is the
    Gaussian-blur limit and stays valid; NaN never is."""
    for name, sigma in (("color_sigma", color_sigma), ("space_sigma", space_sigma)):
        s = float(sigma)
        if not (s > 0 and 2.0 * s * s > 0):
            raise DomainError(f"bilateral {name} must be positive, got {sigma}")
    if not isfinite(space_sigma):
        raise DomainError(f"bilateral space_sigma must be finite, got {space_sigma}")


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


# Largest series order the fast bilateral path uses. It caps the range
# argument x = 2cR^2 near 0.76, where the series' cancellation costs at
# most a factor e^{2x} < 5 in rounding error; wider ranges run the loop.
_MAX_SERIES_TERMS = 16


def _series_terms(x):
    """Smallest K with x**(K+1)/(K+1)! * e**(2x) <= 2**-53, or None.

    That bound is the relative error of the range weight e**(2c v_p v_q),
    |2c v_p v_q| <= x, cut after its K-th Taylor term. None when no K up to
    ``_MAX_SERIES_TERMS`` meets it (or x is not finite).
    """
    bound = ldexp(exp(-2.0 * x), -53)
    remainder = x                      # x**(K+1)/(K+1)! at K = 0
    for k in range(_MAX_SERIES_TERMS + 1):
        if remainder <= bound:
            return k
        remainder *= x / (k + 2)
    return None


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


def bilateral_filter(luminance, color_sigma=100.0, space_sigma=10.0, radius=None):
    """Edge-preserving smoothing of a single-channel image.

    Each output pixel is the weighted mean of its window, with weights that
    fall off both with spatial distance (``space_sigma``) and with
    luminance difference (``color_sigma``). Borders reflect. The window
    radius defaults to ceil(2 * space_sigma).

    Computed in float64 by expanding the range kernel (Porikli, CVPR 2008;
    Chaudhury, Sage & Unser, IEEE TIP 2011). With c = 1/(2 color_sigma**2),
    the midrange m, v = L - m and the half-range R,
    exp(-c (v_p - v_q)**2) = e**(-c v_p**2) e**(-c v_q**2)
    sum_k (2c v_p v_q)**k / k!, and the e**(-c v_p**2) factor cancels, so

        out = m + sum_k a_k G[E v**(k+1)] / sum_k a_k G[E v**k],
        a_k = (2c v)**k / k!,  E = e**(-c v**2),

    where G is the reflect-bordered spatial Gaussian of the window, run as
    one pair of matrix products on all K + 2 layers. K is the smallest
    order whose remainder bound x**(K+1)/(K+1)! e**(2x), x = 2c R**2, is
    at most 2**-53, so the result equals the direct sum up to rounding
    (K is about 4 at the sampler's defaults). When no K up to
    ``_MAX_SERIES_TERMS`` meets the bound (a narrow ``color_sigma`` for
    the image's range) or the image is not finite, the direct window sum
    runs instead. G's two blur matrices are cached per extent, radius and
    ``space_sigma``, in a cache that holds at most 16 MB; an extent over
    ``_BLUR_CACHE_EXTENT`` builds its matrix per call. Building one takes
    O(extent**2) memory whatever the radius, and the direct sum runs at
    most min(2 radius + 1, 2(extent - 1)) shifts per axis.

    Raises DomainError for a ``color_sigma`` that is NaN or not positive
    and a ``space_sigma`` that is not finite and positive;
    ``color_sigma = inf`` is the Gaussian blur.
    """
    l = np.asarray(luminance)
    if l.ndim != 2:
        raise DimensionError(f"bilateral_filter wants a 2-D image, got {l.shape}")
    _check_sigmas(color_sigma, space_sigma)
    if radius is None:
        radius = int(ceil(2.0 * space_sigma))
    if radius < 1:
        raise DomainError("bilateral radius must be >= 1")
    inv_2ss = 1.0 / (2.0 * space_sigma * space_sigma)
    inv_2cs = 1.0 / (2.0 * color_sigma * color_sigma)
    l64 = l.astype(np.float64)
    lo, hi = float(l64.min()), float(l64.max())
    terms = None
    if isfinite(lo) and isfinite(hi):  # a NaN or an infinity reaches an extreme
        mid, half_range = 0.5 * (lo + hi), 0.5 * (hi - lo)
        terms = _series_terms(2.0 * inv_2cs * half_range * half_range)
    if terms is None:
        return _bilateral_direct(l, radius, inv_2ss, inv_2cs)
    h, w = l.shape
    v = np.subtract(l64, mid, out=l64)
    layers = np.empty((terms + 2, h, w))
    e = np.multiply(v, -inv_2cs, out=layers[0])
    e *= v
    np.exp(e, out=e)
    for k in range(1, terms + 2):
        np.multiply(layers[k - 1], v, out=layers[k])
    blurred = (_blur_matrix(h, radius, space_sigma) @ layers
               @ _blur_matrix(w, radius, space_sigma).T)
    # The sums start at their k = 0 terms, 0 + 1 x = x, and the next
    # coefficient is 1 (step / 1) = step. num is blurred[1] itself, which
    # den's k = 1 term reads before num first changes.
    den, num = blurred[0], blurred[1]
    step = np.multiply(v, 2.0 * inv_2cs, out=v)
    coef = step.copy()
    scratch = np.empty_like(v)
    for k in range(1, terms + 1):
        den += np.multiply(coef, blurred[k], out=scratch)
        num += np.multiply(coef, blurred[k + 1], out=scratch)
        if k < terms:
            coef *= np.divide(step, k + 1, out=scratch)
    out = np.divide(num, den, out=scratch)
    out += mid
    return out.astype(l.dtype, copy=False)


def _bilateral_direct(l, radius, inv_2ss, inv_2cs):
    """The bilateral filter as a sum over the window's shifts.

    Shifts a reflection period P = 2(n - 1) apart read the same pixels, so
    each axis's shifts are folded onto one period and their spatial weights
    summed (:func:`_folded_taps`, as in :func:`_reflect_blur_matrix`): at
    most min(2 radius + 1, P) shifts per axis (one for n = 1), whatever the
    radius. A shift's spatial weight is the product of its two axes' folded
    taps. Each shift gathers its reflected rows and columns from ``l``
    itself instead of slicing a padded copy, so memory stays a few images
    (and two index maps shorter than extent + P) whatever the radius.
    """
    h, w = l.shape
    axes = []
    for n in (h, w):
        taps = _folded_taps(n, radius, inv_2ss)
        period = taps.size
        shifts = np.arange(-radius, radius + 1) if 2 * radius + 1 < period else np.arange(period)
        axes.append((_reflect(np.arange(shifts[0], shifts[-1] + n), n), taps[shifts % period]))
    (ys, gy), (xs, gx) = axes
    acc = np.zeros_like(l, dtype=np.float64)
    norm = np.zeros_like(l, dtype=np.float64)
    for i in range(gy.size):
        rows = l[ys[i:i + h]]
        for j in range(gx.size):
            shifted = rows[:, xs[j:j + w]]
            diff = shifted - l
            wgt = gy[i] * gx[j] * np.exp(-diff * diff * inv_2cs)
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
    grad = _sobel_magnitude(log_lum - base)
    weight = 1.0 - m.min(axis=0)
    return float(np.mean(grad * weight))


def sample_patches(hdr, config=None, seed=0, image_id="", curve=None):
    """Crop, expose, and filter training patches from one HDR image.

    Each crop gets its own randomized exposure: a saturation percentile is
    drawn per patch (unless the config pins one) and anchored to the full
    image's luminance distribution, times ``curve``'s exposure, so crops of
    dark content stay unsaturated (their mask is all ones) and are
    discarded. The remaining crops are kept when their texture score
    exceeds the threshold. Deterministic
    per seed; results are sorted by offset. Each record's ground truth is the exposure-scaled radiance, so
    input and target describe the same virtual camera.
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
        ldr = apply_exposure(patch, scale, curve=curve,
                             quantize_bits=config.quantize_bits)
        mask = exposure_mask(ldr.pixels, config.alpha)
        if mask.min() == 1:
            continue
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
