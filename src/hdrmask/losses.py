"""Training objectives: reconstruction, perceptual, style, and inpainting.

The perceptual terms compare feature activations of a small frozen
convolution pyramid (a stand-in for pretrained VGG taps; real weights can
be loaded from a checkpoint) on mu-law range-compressed images
(:func:`mu_law_compress`). Features are taken after each stage's
pooling. All l1 terms are mean-reduced so the weights are independent of
resolution.

Every loss takes the prediction as the network's (N,C,H,W) Tensor and
the truth and masks as arrays of that shape, which it casts to the
prediction's dtype. The terms are scalar Tensors; call ``.item()`` for the
float value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, DomainError
from .tensor import Tensor

DEFAULT_MU = 500.0


@dataclass(frozen=True)
class LossWeights:
    reconstruction: float = 6.0
    perceptual: float = 1.0
    vgg: float = 1.0
    style: float = 120.0
    mu: float = DEFAULT_MU

    def __post_init__(self):
        for name in ("reconstruction", "perceptual", "vgg", "style", "mu"):
            if getattr(self, name) < 0:
                raise DomainError(f"loss weight {name} must be non-negative")


@dataclass(frozen=True)
class InpaintingLossWeights:
    """Term weights for the inpainting pre-training objective."""

    valid: float = 1.0
    hole: float = 6.0
    vgg: float = 0.05
    style: float = 120.0
    tv: float = 0.1


@dataclass
class LossReport:
    """Scalar summary of one objective evaluation.

    ``components`` holds the raw per-term values, ``weighted`` the
    weight-scaled contributions; their sum reproduces ``total``.
    ``node`` is the differentiable total for the backward pass.
    """

    total: float
    components: dict
    weighted: dict
    node: Tensor | None = field(default=None, repr=False)


class FeatureExtractor:
    """Frozen convolution pyramid: per stage conv 3x3 -> relu -> avg_pool(2).

    Weights are fixed at construction (seeded random by default, or loaded
    arrays) and never updated; gradients flow through to the input only.
    """

    def __init__(self, channels=(16, 32, 64), kernel_size=3, in_channels=3,
                 seed=0, arrays=None):
        self.stages = []
        if arrays is not None:
            n_stages = len(arrays) // 2
            names = {f"extractor.stage{i}.{kind}" for i in range(n_stages)
                     for kind in ("weight", "bias")}
            if not names or arrays.keys() != names:
                raise ContractError(f"extractor arrays {sorted(arrays)} are not whole "
                                    f"stages numbered from 0")
            for i in range(n_stages):
                w = np.array(arrays[f"extractor.stage{i}.weight"], dtype=np.float64)
                b = np.array(arrays[f"extractor.stage{i}.bias"], dtype=np.float64)
                if w.ndim != 4 or b.shape != w.shape[:1] or \
                        (self.stages and w.shape[1] != self.stages[-1][0].shape[0]):
                    raise DimensionError(f"extractor stage{i} has weight {w.shape} and "
                                         f"bias {b.shape}, which do not fit")
                self._add_stage(w, b)
            self.channels = tuple(w.shape[0] for w, _ in self.stages)
            self.kernel_size = self.stages[0][0].shape[2]
            self.in_channels = self.stages[0][0].shape[1]
        else:
            self.channels = tuple(channels)
            self.kernel_size = kernel_size
            self.in_channels = in_channels
            rng = np.random.default_rng(seed)
            fan_prev = in_channels
            for out in self.channels:
                scale = np.sqrt(2.0 / (fan_prev * kernel_size * kernel_size))
                w = rng.normal(0.0, scale, size=(out, fan_prev, kernel_size, kernel_size))
                b = np.zeros(out)
                self._add_stage(w, b)
                fan_prev = out

    def _add_stage(self, w, b):
        for arr in (w, b):
            arr.setflags(write=False)
        self.stages.append((w, b))

    def to_arrays(self):
        out = {}
        for i, (w, b) in enumerate(self.stages):
            out[f"extractor.stage{i}.weight"] = w.astype(np.float32)
            out[f"extractor.stage{i}.bias"] = b.astype(np.float32)
        return out

    def features(self, t):
        """Tap activations of an (N,C,H,W) Tensor after each stage's pooling,
        outermost first."""
        if t.data.ndim != 4 or t.data.shape[1] != self.in_channels:
            raise DimensionError(
                f"extractor expects (N,{self.in_channels},H,W), got {t.data.shape}")
        pad = (self.kernel_size - 1) // 2
        taps = []
        for w, b in self.stages:
            wt = T.constant(w.astype(t.data.dtype, copy=False))
            bt = T.constant(b.astype(t.data.dtype, copy=False))
            t = T.conv2d(t, wt, bt, padding=pad, activation_kind="relu")
            t = T.avg_pool(t, 2)
            taps.append(t)
        return taps


def _like(pred, *arrays):
    """The truth and mask ``arrays`` cast to the dtype of the (N,C,H,W)
    prediction Tensor ``pred``, whose shape each must have."""
    out = [np.asarray(a).astype(pred.data.dtype, copy=False) for a in arrays]
    if pred.data.ndim != 4 or any(a.shape != pred.data.shape for a in out):
        raise DimensionError(f"a prediction of shape {pred.data.shape} needs an (N,C,H,W) "
                             f"batch and arrays of its shape, got {[a.shape for a in out]}")
    return out


def mu_law_compress(x, mu=DEFAULT_MU):
    """Logarithmic range compressor log(1+mu*x)/log(1+mu) of a non-negative
    Tensor, mapping [0,1] onto [0,1]: a differentiable Tensor.
    """
    if np.any(x.data < 0):
        raise DomainError("mu-law input must be non-negative")
    return (x * mu + 1.0).log() * (1.0 / np.log1p(mu))


def reconstruction_loss(y_hat, hdr, mask):
    """Mean l1 distance to log radiance, restricted to saturated content."""
    h, m = _like(y_hat, hdr, mask)
    return T.tmean(T.absolute((y_hat - np.log1p(h)) * (1.0 - m)))


def blend_with_ground_truth(hdr, y_hat, mask):
    """Ground truth where valid, prediction where saturated, as a Tensor.

    The prediction is mapped back to linear radiance with exp(y) - 1
    before blending. May be slightly negative where the prediction is;
    callers clamp as needed.
    """
    h, m = _like(y_hat, hdr, mask)
    return m * h + (1.0 - m) * (y_hat.exp() - 1.0)


def gram_matrix(features):
    """Channel Gram matrices of an (N,C,H,W) feature Tensor, normalized by
    the feature count C*H*W: an (N,C,C) Tensor, one matrix per sample.

    A constant target and a prediction with equal features go through the
    same operations, so their Grams are bit-identical.
    """
    if features.data.ndim != 4:
        raise DimensionError(f"gram_matrix wants (N,C,H,W), got {features.data.shape}")
    n, c, h, w = features.data.shape
    flat = T.reshape(features, (n, c, h * w))
    return T.matmul(flat, T.transpose(flat, (0, 2, 1))) / (c * h * w)


def _feature_terms(images, truth, extractor):
    """Feature and style distances of each image's taps to the truth's.

    Per tap, the feature term is the mean l1 distance of the activations
    and the style term that of their Gram matrices. The truth array's taps
    and Grams are computed once, as constants; the terms are summed image
    by image in the given order, outermost tap first. Returns (vgg, style)
    as scalar Tensors.
    """
    targets = [(f.data, gram_matrix(f).data) for f in extractor.features(T.constant(truth))]
    vgg = style = None
    for img in images:
        for fa, (fb, gram_b) in zip(extractor.features(img), targets):
            dv = T.tmean(T.absolute(fa - fb))
            ds = T.tmean(T.absolute(gram_matrix(fa) - gram_b))
            vgg = dv if vgg is None else vgg + dv
            style = ds if style is None else style + ds
    return vgg, style


def perceptual_loss(blend, hdr, extractor, mu=DEFAULT_MU):
    """Feature and style distances between a blend and its ground truth.

    ``blend`` is an (N,C,H,W) Tensor and ``hdr`` an array of its shape.
    Both images are divided by the ground truth's maximum (by 1 where that
    is not positive) and compressed by :func:`mu_law_compress` with ``mu``
    before feature extraction, the blend as a Tensor and the truth as a
    constant through the same ops. The blend is clamped at zero first so
    the compressor stays in domain. Returns (vgg, style) as scalar Tensors.
    """
    (h,) = _like(blend, hdr)
    scale = float(h.max())
    if scale <= 0:
        scale = 1.0
    ca = mu_law_compress(T.activation(blend, "relu") / scale, mu)
    # Same operation sequence as the graph path, the division by the scale
    # included, so that identical images produce bit-identical compressed
    # inputs (and an exactly zero loss).
    cb = mu_law_compress(T.constant(np.clip(h, 0.0, None)) / scale, mu).data
    return _feature_terms([ca], cb, extractor)


def total_loss(y_hat, hdr, mask, extractor, weights=None):
    """The fine-tuning objective: weighted reconstruction plus perceptual.

    Perceptual terms are skipped (reported as zero) when their combined
    weight is zero, which is the pure-l1 ablation.
    """
    weights = weights or LossWeights()
    rec = reconstruction_loss(y_hat, hdr, mask)
    if weights.perceptual > 0:
        blend = blend_with_ground_truth(hdr, y_hat, mask)
        vgg, style = perceptual_loss(blend, hdr, extractor, weights.mu)
        node = rec * weights.reconstruction + (vgg * weights.vgg + style * weights.style) * weights.perceptual
        components = {"reconstruction": rec.item(), "vgg": vgg.item(), "style": style.item()}
    else:
        node = rec * weights.reconstruction
        components = {"reconstruction": rec.item(), "vgg": 0.0, "style": 0.0}
    weighted = {
        "reconstruction": weights.reconstruction * components["reconstruction"],
        "vgg": weights.perceptual * weights.vgg * components["vgg"],
        "style": weights.perceptual * weights.style * components["style"],
    }
    return LossReport(total=node.item(), components=components, weighted=weighted, node=node)


def _dilate_binary(mask2d):
    """3x3 binary dilation of a (N,H,W) {0,1} array."""
    p = np.pad(mask2d, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros_like(mask2d)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            np.maximum(out, p[:, dy:dy + mask2d.shape[1], dx:dx + mask2d.shape[2]], out=out)
    return out


def inpainting_loss(predicted, truth, hole_mask, extractor, weights=None):
    """Pre-training objective: masked l1, perceptual, style, and smoothness.

    ``hole_mask`` is binary: 0 marks holes, 1 valid pixels. The perceptual
    and style terms are evaluated for both the raw prediction and the
    composite (truth outside holes, prediction inside); total variation is
    charged on the composite over a one-pixel dilation of the hole region.
    """
    weights = weights or InpaintingLossWeights()
    p = predicted
    g, m = _like(p, truth, hole_mask)
    if not np.all((m == 0) | (m == 1)):
        raise DomainError("inpainting hole mask must be binary")

    residual = p - g
    valid = T.tmean(T.absolute(residual * m))
    hole = T.tmean(T.absolute(residual * (1.0 - m)))
    comp = m * g + (1.0 - m) * p

    vgg, style = _feature_terms([p, comp], g, extractor)

    # Smoothness is charged on the composite's deviation from truth so the
    # term vanishes exactly when the prediction matches the ground truth.
    hole2d = (m.min(axis=1) < 1).astype(p.data.dtype)
    region = _dilate_binary(hole2d)[:, None, :, :]
    dev = comp - g
    dx = dev[:, :, :, 1:] - dev[:, :, :, :-1]
    dy = dev[:, :, 1:, :] - dev[:, :, :-1, :]
    total_count = float(np.prod(g.shape))
    tv = (T.tsum(T.absolute(dx * region[:, :, :, :-1])) +
          T.tsum(T.absolute(dy * region[:, :, :-1, :]))) / total_count

    node = (valid * weights.valid + hole * weights.hole + vgg * weights.vgg +
            style * weights.style + tv * weights.tv)
    components = {"valid": valid.item(), "hole": hole.item(), "vgg": vgg.item(),
                  "style": style.item(), "tv": tv.item()}
    weighted = {k: getattr(weights, k) * v for k, v in components.items()}
    return LossReport(total=node.item(), components=components, weighted=weighted, node=node)

