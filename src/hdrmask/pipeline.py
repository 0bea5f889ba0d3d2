"""Domain conversions between linear radiance and display-referred images.

LDR simulation from HDR ground truth, the per-pixel well-exposedness mask
that the network, the sampler and the masked score all read, composition of
the final HDR image from the well-exposed input content and the network's
log-domain prediction, and the display-referred error scores used for
evaluation. Plain numpy: nothing here loads the autodiff engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError

LUMA_WEIGHTS = np.array([0.2126, 0.7152, 0.0722])  # BT.709

DEFAULT_GAMMA = 2.0
DEFAULT_SATURATION_PERCENTILE = 93.0
# Display value above which a channel counts as saturated (the mask's alpha).
DEFAULT_SATURATION_THRESHOLD = 0.96
MSE_NORM_PERCENTILE = 99.9
MSE_DISPLAY_EXPONENT = 1.0 / 2.2


def rgb_to_gray(image):
    """BT.709 luma of a (3,H,W) image, shape (H,W)."""
    px = image.pixels if hasattr(image, "pixels") else np.asarray(image)
    if px.ndim != 3 or px.shape[0] != 3:
        raise DimensionError(f"expected a (3,H,W) image, got shape {px.shape}")
    return np.einsum("c,chw->hw", LUMA_WEIGHTS.astype(px.dtype), px)


def _outside_unit_range(a):
    """``np.any(a < 0) or np.any(a > 1)``, from a min and a max reduction
    instead of two comparison temporaries: the NaN-skipping ``fmin`` and
    ``fmax`` leave a NaN outside nothing, as the comparisons do."""
    return a.size > 0 and bool(np.fmin.reduce(a, axis=None) < 0
                               or np.fmax.reduce(a, axis=None) > 1)


def exposure_mask(image, alpha=DEFAULT_SATURATION_THRESHOLD):
    """Per-channel well-exposedness score for a display-referred image.

    1 up to the threshold ``alpha``, then a linear ramp down to 0 at full
    saturation.
    """
    t = image.pixels if hasattr(image, "pixels") else np.asarray(image)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if _outside_unit_range(t):
        raise DomainError("exposure_mask input must lie in [0,1]")
    # Evaluate in the input's precision so float32 masks reproduce exactly
    # across processes and file round-trips, and in place: the result is
    # the only image-sized array (integer input divides into a float one).
    a = t.dtype.type(alpha)
    one = t.dtype.type(1.0)
    if not a < one:
        raise DomainError(f"alpha {alpha} rounds to 1 in {t.dtype}")
    # Rounding is monotonic, so the ramp is at least 1 wherever t <= a and
    # the clip alone sets the well-exposed pixels to exactly 1.
    v = one - t
    v = np.divide(v, one - a, out=v if v.dtype.kind == "f" else None)
    return np.clip(v, 0.0, 1.0, out=v).astype(t.dtype, copy=False)


@dataclass
class HdrImage:
    """Linear-radiance RGB image, channels first."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 3 or self.pixels.shape[0] != 3:
            raise DimensionError(f"HdrImage wants (3,H,W), got {self.pixels.shape}")
        if self.pixels.size:
            # A NaN or an infinity reaches an extreme; NaN fails every comparison.
            lo, hi = self.pixels.min(), self.pixels.max()
            if not -np.inf < lo <= hi < np.inf:
                raise NumericError("HdrImage contains non-finite values")
            if lo < 0:
                raise DomainError("HdrImage radiance must be non-negative")


@dataclass
class LdrImage:
    """Display-referred RGB image in [0,1], channels first."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 3 or self.pixels.shape[0] != 3:
            raise DimensionError(f"LdrImage wants (3,H,W), got {self.pixels.shape}")
        if _outside_unit_range(self.pixels):
            raise DomainError("LdrImage values must lie in [0,1]")


CURVE_KINDS = ("gamma", "sigmoid")
MAX_QUANTIZE_BITS = 16


def _require_positive(name, value):
    if not 0 < value < np.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class CameraCurve:
    """Mapping between linear values in [0,1] and display values in [0,1].

    "gamma" uses t = x**(1/gamma); "sigmoid" uses the s-shaped
    t = (1+sigma) * x**n / (x**n + sigma), which is invertible on [0,1].
    """

    kind: str = "gamma"
    gamma: float = DEFAULT_GAMMA
    n: float = 0.9
    sigma: float = 0.6
    exposure: float = 1.0

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise DomainError(f"unknown camera curve {self.kind!r}")
        for name in ("gamma", "n", "sigma", "exposure"):
            _require_positive(f"camera curve {name}", getattr(self, name))

    def apply(self, linear):
        x = np.clip(linear, 0.0, 1.0)
        if self.kind == "gamma":
            return np.power(x, 1.0 / self.gamma)
        xn = np.power(x, self.n)
        return (1.0 + self.sigma) * xn / (xn + self.sigma)

    def linearize(self, display):
        t = np.clip(display, 0.0, 1.0)
        if self.kind == "gamma":
            return np.power(t, self.gamma)
        # Invert t = (1+s) x^n / (x^n + s)  =>  x = (s t / (1+s-t))^(1/n)
        return np.power(self.sigma * t / (1.0 + self.sigma - t), 1.0 / self.n)


def apply_exposure(hdr, scale, curve=None, quantize_bits=8):
    """Expose radiance at a known multiplier: clip, encode (``curve.apply``
    clips), quantize to ``quantize_bits`` (0 or None: not at all; at most 16)."""
    curve = curve or CameraCurve()
    h = hdr.pixels if isinstance(hdr, HdrImage) else np.asarray(hdr)
    if scale <= 0:
        raise DomainError("exposure multiplier must be positive")
    if not 0 <= (quantize_bits or 0) <= MAX_QUANTIZE_BITS:
        raise DomainError(f"quantize bits must lie in [0,{MAX_QUANTIZE_BITS}], "
                          f"got {quantize_bits}")
    t = curve.apply(h * h.dtype.type(scale)).astype(h.dtype, copy=False)
    if quantize_bits:
        levels = (1 << quantize_bits) - 1
        t = (np.rint(t * levels) / levels).astype(h.dtype, copy=False)
    return LdrImage(t)


def simulate_ldr(hdr, saturation_percentile=DEFAULT_SATURATION_PERCENTILE,
                 curve=None, quantize_bits=8):
    """Virtual camera: expose, clip, apply the camera curve, quantize.

    The image is scaled so the given luminance percentile lands at 1.0;
    everything brighter saturates. ``quantize_bits`` of 0 (or None)
    disables quantization.
    """
    curve = curve or CameraCurve()
    h = hdr.pixels if isinstance(hdr, HdrImage) else HdrImage(np.asarray(hdr)).pixels
    if not 0 < saturation_percentile < 100:
        raise DomainError("saturation percentile must lie in (0,100)")
    if h.max() <= 0:
        raise DomainError("cannot simulate an LDR exposure of an all-zero image")
    return apply_exposure(h, exposure_scale(h, saturation_percentile, curve),
                          curve, quantize_bits)


def exposure_scale(hdr, saturation_percentile=DEFAULT_SATURATION_PERCENTILE, curve=None):
    """The multiplier simulate_ldr applies before clipping (for pairing targets)."""
    h = hdr.pixels if isinstance(hdr, HdrImage) else np.asarray(hdr)
    lum = rgb_to_gray(h)
    return _scale_at_pivot(np.percentile(lum, saturation_percentile), lum.max(), curve)


def exposure_scales(hdr, curve=None):
    """``pct -> exposure_scale(hdr, pct, curve)``, bit for bit, for many
    percentiles of one image.

    The luminance is computed and sorted once; each call then interpolates
    between two order statistics as np.percentile's default ("linear")
    method does, instead of copying and partitioning the image again.
    """
    h = hdr.pixels if isinstance(hdr, HdrImage) else np.asarray(hdr)
    lum = np.sort(rgb_to_gray(h), axis=None)
    last = lum.size - 1

    def scale(saturation_percentile):
        if not 0 <= saturation_percentile <= 100:
            raise DomainError(f"percentile must lie in [0,100], got {saturation_percentile}")
        v = last * (saturation_percentile / 100)
        i = int(v)
        t = v - i
        lo, hi = lum[i], lum[min(i + 1, last)]
        step = hi - lo
        pivot = hi - step * (1 - t) if t >= 0.5 else lo + step * t
        return _scale_at_pivot(pivot, lum[last], curve)

    return scale


def _scale_at_pivot(pivot, peak, curve):
    """Exposure that maps luminance ``pivot`` (``peak`` if that is not positive) to 1."""
    curve = curve or CameraCurve()
    if pivot <= 0:
        pivot = peak
    if pivot <= 0:
        raise DomainError("cannot expose an all-zero image")
    return curve.exposure / pivot


def compose_hdr(ldr, mask, y_hat, gamma=DEFAULT_GAMMA, row=0):
    """Blend linearized input with the prediction into the final HDR image.

    Well-exposed pixels (mask 1) take the linearized input; saturated ones
    (mask 0) take exp(prediction) - 1. Clamped at zero from below.
    ``gamma`` must be positive and finite. The inputs may be a band of an
    image's rows that starts at image row ``row``, which an error's index
    counts from.
    """
    _require_positive("gamma", gamma)
    t = ldr.pixels if isinstance(ldr, LdrImage) else np.asarray(ldr)
    y = np.asarray(y_hat)
    m = np.asarray(mask)
    if t.shape != m.shape or t.shape != y.shape:
        raise DimensionError(f"shape mismatch: ldr {t.shape}, mask {m.shape}, prediction {y.shape}")
    if _outside_unit_range(t):
        raise DomainError("compose_hdr input image must lie in [0,1]")
    with np.errstate(over="ignore"):
        e = np.exp(y)
    if not np.all(np.isfinite(e)):
        bad = np.argwhere(~np.isfinite(e))[0]
        bad[1] += row
        raise NumericError(f"exp overflow in prediction at index {tuple(int(i) for i in bad)}")
    # m * t**gamma + (1 - m) * (e - 1), evaluated in place: each buffer is
    # first widened to the result type of its operation, so every step
    # rounds and promotes as the out-of-place expression does.
    e -= 1.0
    keep = 1.0 - m
    e = e.astype(np.result_type(e, keep), copy=False)
    e *= keep
    del keep
    hdr = np.power(t, gamma)
    hdr = hdr.astype(np.result_type(hdr, m), copy=False)
    hdr *= m
    hdr = hdr.astype(np.result_type(hdr, e), copy=False)
    hdr += e
    return HdrImage(np.maximum(hdr, 0.0, out=hdr))


def mse_gamma_scores(predicted, truth, mask):
    """Mean squared errors between display-encoded images: ``(mse, masked_mse)``.

    Both images are normalized by the truth's 99.9th-percentile luminance,
    clipped to [0,1], and encoded with exponent 1/2.2, once for both
    scores. ``mse`` is the mean square over all pixels and channels;
    ``masked_mse`` weights it by (1 - mask), the saturated content, and is
    NaN when the mask is all ones (no saturated support).
    """
    p = predicted.pixels if isinstance(predicted, HdrImage) else np.asarray(predicted)
    g = truth.pixels if isinstance(truth, HdrImage) else np.asarray(truth)
    w = 1.0 - np.asarray(mask)
    if p.shape != g.shape or p.shape != w.shape:
        raise DimensionError(f"shape mismatch: predicted {p.shape}, truth {g.shape}, "
                             f"mask {w.shape}")
    a, b = _display_encode_pair(p, g)
    sq = np.square(a - b)
    total = w.sum()
    masked = float((w * sq).sum() / total) if total > 0 else float("nan")
    return float(np.mean(sq)), masked


def _display_encode_pair(p, g):
    norm = np.percentile(rgb_to_gray(g), MSE_NORM_PERCENTILE)
    if norm <= 0:
        raise DomainError("degenerate truth image: normalization luminance is zero")
    a = np.power(np.clip(p / norm, 0.0, 1.0), MSE_DISPLAY_EXPONENT)
    b = np.power(np.clip(g / norm, 0.0, 1.0), MSE_DISPLAY_EXPONENT)
    return a, b
