"""Feature masking and the masked U-Net forward pass.

Every convolutional layer multiplies its incoming features by a soft
validity mask in [0,1], convolves as usual, and carries the mask forward
by convolving it with the kernel's normalized magnitudes. Well-exposed
pixels keep mask 1; fully saturated pixels get 0 and contribute nothing
to the features. Masks are bookkeeping, not signal: they are held constant
during differentiation.

Masks pad with 1 at image borders (outside counts as valid) while features
pad with 0, so a network fed an all-valid mask behaves exactly like its
unmasked twin.

A decoder layer's input is the 2x nearest upsample of the level below
concatenated with an encoder skip, but it is never built: because
``upsample(f) * upsample(m) == upsample(f * m)``, the level below is masked
and convolved at its own resolution with the four phase kernels of its
weight slice, the skip with the rest, and the outputs are summed; masks take
the same path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DimensionError, DomainError
from .formats import validate_param_manifest
from .tensor import Tensor

MASK_NORM_EPS = 1e-6
DEFAULT_SATURATION_THRESHOLD = 0.96

MODE_FEATURE_MASK = "FMask"
MODE_INPUT_MASK = "IMask"
MODE_STANDARD_CONV = "SConv"
MASKING_MODES = (MODE_FEATURE_MASK, MODE_INPUT_MASK, MODE_STANDARD_CONV)


def exposure_mask(image, alpha=DEFAULT_SATURATION_THRESHOLD):
    """Per-channel well-exposedness score for a display-referred image.

    1 up to the threshold ``alpha``, then a linear ramp down to 0 at full
    saturation.
    """
    t = image.pixels if hasattr(image, "pixels") else np.asarray(image)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if np.any(t < 0) or np.any(t > 1):
        raise DomainError("exposure_mask input must lie in [0,1]")
    # Evaluate in the input's precision so float32 masks reproduce exactly
    # across processes and file round-trips.
    a = t.dtype.type(alpha)
    one = t.dtype.type(1.0)
    v = np.clip((one - t) / (one - a), 0.0, 1.0).astype(t.dtype, copy=False)
    return np.where(t <= a, one, v)


@dataclass
class MaskedFeature:
    """A feature tensor paired with its aligned validity mask."""

    features: Tensor
    mask: np.ndarray

    def __post_init__(self):
        if self.features.data.shape != self.mask.shape:
            raise DimensionError(
                f"feature shape {self.features.data.shape} != mask shape {self.mask.shape}")
        validate_mask(self.mask)


def validate_mask(mask):
    if np.any(mask < 0) or np.any(mask > 1):
        raise DomainError("mask values must lie in [0,1]")


def mask_features(x, mask):
    """Attenuate features by their mask elementwise (mask is not differentiated)."""
    x = x if isinstance(x, Tensor) else T.constant(x)
    if x.data.shape != mask.shape:
        raise DimensionError(f"feature shape {x.data.shape} != mask shape {mask.shape}")
    return MaskedFeature(x * T.constant(mask.astype(x.data.dtype, copy=False)), mask)


def propagate_mask(mask, weights, stride=1, padding=0, eps=MASK_NORM_EPS, skip=None):
    """Carry a validity mask through a convolution.

    The kernel magnitudes are normalized per output channel to sum to
    (just under) one, so the result is a weighted average of mask values in
    each receptive field. Borders pad with 1; output is clamped to [0,1].

    With ``skip`` the layer is a decoder layer (see
    :func:`masked_conv_layer`): its input mask is the 2x nearest upsample of
    ``mask`` followed by the channels of ``skip``.
    """
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    w = np.abs(w)
    norm = w.sum(axis=(1, 2, 3), keepdims=True) + w.dtype.type(eps)
    wn = w / norm
    m = np.asarray(mask)
    squeeze = m.ndim == 3
    if squeeze:
        m = m[None]
    if skip is None:
        out, _ = T.conv2d_raw(m, wn, None, stride=stride, padding=padding, pad_value=1.0)
    else:
        s = np.asarray(skip)
        s = s[None] if squeeze else s
        cu = m.shape[1]
        kernels = T.upsample_kernels(T.constant(wn[:, :cu])).data
        phases, _ = T.conv2d_raw(m, kernels, None, padding=padding, pad_value=1.0)
        out = T.interleave_phases(T.constant(phases), padding).data
        out += T.conv2d_raw(s, wn[:, cu:], None, padding=padding, pad_value=1.0)[0]
    out = np.clip(out, 0.0, 1.0)
    return out[0] if squeeze else out


def _masked(inp):
    return inp.features * T.constant(inp.mask.astype(inp.features.data.dtype, copy=False))


def _named(t, name):
    """``t`` under the layer weight's name, which per-layer profiles key on."""
    t.name = name
    return t


def masked_conv_layer(inp, weights, bias, stride=1, padding=0,
                      activation_kind="relu", slope=0.2, mask_out=None, skip=None):
    """One masked convolution: mask the features, convolve, update the mask.

    Masks never enter the differentiation graph. ``mask_out`` overrides the
    propagated mask (used by gradient checks that hold the masks of a
    previous forward pass fixed while weights are perturbed).

    With ``skip`` the layer is a decoder layer whose input is the 2x nearest
    upsample of ``inp`` concatenated with ``skip`` along channels. Neither is
    built: masking commutes with the upsample, so ``inp`` is masked at its
    own resolution and convolved with the phase kernels of its slice of
    ``weights`` (:func:`~hdrmask.tensor.upsample_kernels`), ``skip`` with the
    rest, and the two outputs are summed.
    """
    if skip is None:
        f = T.conv2d(_masked(inp), weights, bias, stride=stride, padding=padding)
    else:
        cu = inp.mask.shape[1]
        kernels = _named(T.upsample_kernels(weights[:, :cu]), weights.name)
        up = T.interleave_phases(T.conv2d(_masked(inp), kernels, padding=padding), padding)
        f = up + T.conv2d(_masked(skip), _named(weights[:, cu:], weights.name), bias,
                          padding=padding)
    f = T.activation(f, activation_kind, slope)
    m = mask_out if mask_out is not None else propagate_mask(
        inp.mask, weights, stride=stride, padding=padding,
        skip=None if skip is None else skip.mask)
    return MaskedFeature(f, m)


@dataclass(frozen=True)
class UNetConfig:
    levels: int = 4
    base_channels: int = 16
    kernel_size: int = 3
    in_channels: int = 3
    out_channels: int = 3
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.levels < 1:
            raise DomainError("levels must be >= 1")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise DomainError("kernel_size must be odd and positive")

    @property
    def downsample_factor(self):
        return 2 ** (self.levels - 1)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    in_channels: int
    out_channels: int
    stride: int
    activation: str


def layer_plan(config):
    """Topology-ordered conv layers for the given configuration.

    Encoder halves resolution with stride-2 convolutions. Decoder layer
    ``dec{i}`` reads the 2x nearest upsample of the level below (its first
    ``widths[i+1]`` input channels) and encoder ``enc{i}``'s output (the
    rest), features and masks alike.
    """
    widths = [config.base_channels * (2 ** i) for i in range(config.levels)]
    layers = [LayerSpec("enc0", config.in_channels, widths[0], 1, "leaky_relu")]
    for i in range(1, config.levels):
        layers.append(LayerSpec(f"enc{i}", widths[i - 1], widths[i], 2, "leaky_relu"))
    for i in range(config.levels - 2, -1, -1):
        layers.append(LayerSpec(f"dec{i}", widths[i + 1] + widths[i], widths[i], 1, "relu"))
    layers.append(LayerSpec("out", widths[0], config.out_channels, 1, "identity"))
    return layers


@dataclass
class UNetParameters:
    """Ordered convolution weights and biases, as graph leaf tensors."""

    config: UNetConfig
    layers: dict = field(default_factory=dict)  # name -> (weight Tensor, bias Tensor)

    def named_arrays(self):
        out = {}
        for name, (w, b) in self.layers.items():
            out[f"{name}.weight"] = w.data
            out[f"{name}.bias"] = b.data
        return out

    def named_tensors(self):
        out = {}
        for name, (w, b) in self.layers.items():
            out[f"{name}.weight"] = w
            out[f"{name}.bias"] = b
        return out

    def as_constants(self):
        """The same arrays as constant tensors under the same names.

        A forward pass through them records no differentiation graph, so
        inference holds no per-layer buffers for a backward that never runs.
        """
        return UNetParameters(self.config, {
            name: (T.constant(w.data, name=w.name), T.constant(b.data, name=b.name))
            for name, (w, b) in self.layers.items()})

    def copy(self):
        dup = {}
        for name, (w, b) in self.layers.items():
            dup[name] = (T.parameter(w.data.copy(), name=f"{name}.weight"),
                         T.parameter(b.data.copy(), name=f"{name}.bias"))
        return UNetParameters(self.config, dup)

    @classmethod
    def from_arrays(cls, config, arrays):
        """Build parameters from ``{layer.weight / layer.bias: array}``.

        Raises CheckpointShapeError listing every missing, misshapen or
        unexpected array.
        """
        validate_param_manifest(arrays, config)
        params = cls(config, {})
        for spec in layer_plan(config):
            wk, bk = f"{spec.name}.weight", f"{spec.name}.bias"
            params.layers[spec.name] = (T.parameter(np.array(arrays[wk]), name=wk),
                                        T.parameter(np.array(arrays[bk]), name=bk))
        return params


def _as_batched(arr, channels, what):
    a = np.asarray(arr)
    if a.ndim == 3:
        a = a[None]
    if a.ndim != 4 or a.shape[1] != channels:
        raise DimensionError(f"{what} must be ({channels},H,W) or (N,{channels},H,W), got {a.shape}")
    return a


def unet_forward(ldr, mask, params, config=None, mode=MODE_FEATURE_MASK,
                 frozen_masks=None):
    """Run the masked U-Net; returns the log-domain prediction and mask stack.

    ``mode`` selects the masking ablation: "FMask" threads the soft mask
    through every layer, "IMask" multiplies it into the input only, and
    "SConv" ignores masking entirely (plain convolutions). The returned
    stack holds one (name, mask array) entry per layer for visualization.

    ``frozen_masks`` (a ``{layer name: mask}`` dict from a previous FMask
    run's stack) replaces mask propagation, pinning the masks while weights
    change; finite-difference audits need this because the analytic
    gradient treats masks as constants. The other modes ignore it.
    """
    config = config or params.config
    if mode not in MASKING_MODES:
        raise DomainError(f"unknown masking mode {mode!r}")
    x = ldr if isinstance(ldr, Tensor) else T.constant(
        _as_batched(ldr.pixels if hasattr(ldr, "pixels") else ldr, config.in_channels, "input"))
    if x.data.ndim == 3:
        x = T.reshape(x, (1,) + x.data.shape)
    m = _as_batched(mask, config.in_channels, "mask").astype(x.data.dtype, copy=False)
    if m.shape != x.data.shape:
        raise DimensionError(f"mask shape {m.shape} != input shape {x.data.shape}")
    validate_mask(m)
    h, w = x.data.shape[2], x.data.shape[3]
    factor = config.downsample_factor
    if h % factor or w % factor:
        raise DimensionError(f"spatial extents {h}x{w} must be divisible by {factor}")

    # The mode decides only the masks: IMask applies the mask to the input,
    # then IMask and SConv run the same layers with every mask held at one.
    if mode == MODE_INPUT_MASK:
        x = x * T.constant(m)
    if mode == MODE_FEATURE_MASK:
        frozen = frozen_masks or {}

        def pin(spec, mask):
            return frozen.get(spec.name)
    else:
        m = np.ones_like(m)
        pin = _ones_after

    pad = (config.kernel_size - 1) // 2
    plan = layer_plan(config)
    stack = [("input", m)]
    cur = MaskedFeature(x, m)
    skips = []

    def run_layer(spec, inp, skip=None):
        wt, bt = params.layers[spec.name]
        out = masked_conv_layer(inp, wt, bt, spec.stride, pad, spec.activation,
                                config.leaky_slope, skip=skip,
                                mask_out=pin(spec, (inp if skip is None else skip).mask))
        stack.append((spec.name, out.mask))
        return out

    for spec in plan[:config.levels]:
        cur = run_layer(spec, cur)
        skips.append(cur)
    skips.pop()
    for spec in plan[config.levels:-1]:
        cur = run_layer(spec, cur, skips.pop())
    cur = run_layer(plan[-1], cur)
    return cur.features, stack


def _ones_after(spec, mask):
    """All-ones mask shaped like the output of layer ``spec`` on ``mask``."""
    n, _, h, w = mask.shape
    s = spec.stride
    return np.ones((n, spec.out_channels, -(-h // s), -(-w // s)), dtype=mask.dtype)


def export_mask_images(mask_stack, channels=(0,)):
    """8-bit grayscale renderings of selected mask channels per layer.

    Returns ``{(layer_name, channel): uint8 (H,W) array}`` with values
    mapped as round(255 * v).
    """
    images = {}
    for name, mask in mask_stack:
        m = mask[0] if mask.ndim == 4 else mask
        for c in channels:
            if c < m.shape[0]:
                images[(name, c)] = np.rint(255.0 * m[c]).astype(np.uint8)
    return images
