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

Every layer can run on a window of its input's rows, padded only where the
window meets the image's edge, so the forward is a walk over row frontiers
(depth-first, fused-layer execution; Alwani et al., MICRO 2016). Each layer
advances just far enough for the next strip of output rows and keeps only
the rows its consumers (the next conv, a decoder's skip or phase conv) still
read. :func:`unet_forward`, which training and the mask export use, is the
one-strip walk: every layer over the whole image at once, differentiable,
with the full mask stack. :func:`predict` walks strips of constant
parameters for inference, so its memory grows with the image's width rather
than with its area times the number of layers; it agrees with
:func:`unet_forward` to rounding, and exactly when one strip covers the
image.
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

# Elements of one strip of enc0's output, N * base_channels * rows * W.
# predict() advances the output by the most rows, a multiple of the
# downsample factor, whose strip fits (one factor at least): 64 rows of a
# 512-wide photo, 2 MB at float32.
_STRIP_ELEMS = 1 << 19

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
class MaskedFeature:
    """A feature tensor paired with its aligned validity mask."""

    features: Tensor
    mask: np.ndarray

    def __post_init__(self):
        # Masks are validated where they enter (unet_forward, predict,
        # mask_features); propagate_mask's are clipped to [0,1] already.
        if self.features.data.shape != self.mask.shape:
            raise DimensionError(
                f"feature shape {self.features.data.shape} != mask shape {self.mask.shape}")


def validate_mask(mask):
    if np.any(mask < 0) or np.any(mask > 1):
        raise DomainError("mask values must lie in [0,1]")


def mask_features(x, mask):
    """Attenuate features by their mask elementwise (mask is not differentiated)."""
    x = x if isinstance(x, Tensor) else T.constant(x)
    if x.data.shape != mask.shape:
        raise DimensionError(f"feature shape {x.data.shape} != mask shape {mask.shape}")
    validate_mask(mask)
    return MaskedFeature(x * T.constant(mask.astype(x.data.dtype, copy=False)), mask)


def propagate_mask(mask, weights, stride=1, padding=0, skip=None, pad_rows=None,
                   skip_pad_rows=None):
    """Carry a validity mask through a convolution.

    The kernel magnitudes are normalized per output channel to sum to
    (just under) one, so the result is a weighted average of mask values in
    each receptive field. Borders pad with 1; output is clamped to [0,1].

    With ``skip`` the layer is a decoder layer (see
    :func:`masked_conv_layer`): its input mask is the 2x nearest upsample of
    ``mask`` followed by the channels of ``skip``. ``pad_rows`` and
    ``skip_pad_rows`` are ``(top, bottom)`` row paddings of ``mask`` and
    ``skip`` (:func:`~hdrmask.tensor.conv2d_raw`).
    """
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    w = np.abs(w)
    norm = w.sum(axis=(1, 2, 3), keepdims=True) + w.dtype.type(MASK_NORM_EPS)
    wn = w / norm
    m = np.asarray(mask)
    squeeze = m.ndim == 3
    if squeeze:
        m = m[None]
    if skip is None:
        out, _ = T.conv2d_raw(m, wn, None, stride, padding, 1.0, pad_rows)
    else:
        s = np.asarray(skip)
        s = s[None] if squeeze else s
        cu = m.shape[1]
        out, _ = T.conv2d_raw(s, wn[:, cu:], None, 1, padding, 1.0, skip_pad_rows)
        kernels = T.upsample_kernels(T.constant(wn[:, :cu])).data
        T.add_phases(out, T.conv2d_raw(m, kernels, None, 1, padding, 1.0, pad_rows)[0], padding)
    np.clip(out, 0.0, 1.0, out=out)
    return out[0] if squeeze else out


def _masked(inp):
    return inp.features * T.constant(inp.mask.astype(inp.features.data.dtype, copy=False))


def _named(t, name):
    """``t`` under the layer weight's name, which per-layer profiles key on."""
    t.name = name
    return t


def masked_conv(inp, weights, bias, stride=1, padding=0, activation_kind="relu", slope=0.2,
                skip=None, pad_rows=None, skip_pad_rows=None):
    """The output features of :func:`masked_conv_layer`, with no mask carried on."""
    if skip is None:
        f = T.conv2d(_masked(inp), weights, bias, stride, padding, pad_rows=pad_rows)
    else:
        cu = inp.mask.shape[1]
        kernels = _named(T.upsample_kernels(weights[:, :cu]), weights.name)
        up = T.interleave_phases(T.conv2d(_masked(inp), kernels, padding=padding,
                                          pad_rows=pad_rows), padding)
        f = up + T.conv2d(_masked(skip), _named(weights[:, cu:], weights.name), bias,
                          padding=padding, pad_rows=skip_pad_rows)
    return T.activation(f, activation_kind, slope)


def masked_conv_layer(inp, weights, bias, stride=1, padding=0, activation_kind="relu",
                      slope=0.2, mask_out=None, skip=None, pad_rows=None, skip_pad_rows=None):
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

    ``pad_rows`` and ``skip_pad_rows`` are ``(top, bottom)`` row paddings of
    ``inp`` and ``skip`` in place of ``padding``, for a window of rows that
    is padded only where it meets the image's edge.
    """
    f = masked_conv(inp, weights, bias, stride, padding, activation_kind, slope, skip,
                    pad_rows, skip_pad_rows)
    m = mask_out if mask_out is not None else propagate_mask(
        inp.mask, weights, stride, padding, skip=None if skip is None else skip.mask,
        pad_rows=pad_rows, skip_pad_rows=skip_pad_rows)
    return MaskedFeature(f, m)


@dataclass(frozen=True)
class UNetConfig:
    """The whole description of a model: its shape, slope and masking mode.

    ``mode`` selects the masking ablation: "FMask" threads the soft mask
    through every layer, "IMask" multiplies it into the input only, and
    "SConv" ignores masking entirely (plain convolutions).
    """

    levels: int = 4
    base_channels: int = 16
    kernel_size: int = 3
    in_channels: int = 3
    out_channels: int = 3
    leaky_slope: float = 0.2
    mode: str = MODE_FEATURE_MASK

    def __post_init__(self):
        if self.mode not in MASKING_MODES:
            raise DomainError(f"unknown masking mode {self.mode!r}")
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


def _prepare(ldr, mask, config, frozen_masks=None):
    """The batched input tensor and mask, checked, and the mode's mask pin.

    ``pin(spec, shape)`` gives the mask a layer's output of ``shape`` takes
    instead of propagating one, or None to propagate.
    """
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
    if config.mode == MODE_INPUT_MASK:
        x = x * T.constant(m)
    if config.mode == MODE_FEATURE_MASK:
        frozen = frozen_masks or {}

        def pin(spec, shape):
            return frozen.get(spec.name)
    else:
        m = np.ones_like(m)

        def pin(spec, shape):
            return np.ones(shape, dtype=m.dtype)
    return x, m, pin


def _edge_rows(edge, a, b, pad):
    """Rows ``[lo, hi)`` of an edge's source that output rows ``[a, b)`` read.

    Rows before 0 or past the source's end are padding. An upsampled edge is
    read by the phase convolution, a (pad+1)-tap kernel at the source's
    resolution whose output rows ``[a/2, b/2 + pad)`` interleave into
    ``[a, b)`` (``a`` and ``b`` even; see :func:`~hdrmask.tensor.interleave_phases`).
    """
    _, stride, up = edge
    if up:
        return a // 2 - pad, b // 2 + pad
    return stride * a - pad, stride * (b - 1) + pad + 1


class _Frontier:
    """Each layer's computed rows in one U-Net pass, advanced on demand.

    Node 0 is the input and node ``j + 1`` layer ``j`` of :func:`layer_plan`.
    A node reads ``(source node, stride, up)`` edges: the node before it (2x
    upsampled when ``up``, into a decoder) and a decoder's encoder skip. Each
    node holds its features and mask for rows ``[keep, done)`` only.
    :meth:`advance` first drops the rows no consumer reads again, then works
    out from the last layer backwards how far each layer must get for the
    requested output rows, and runs the layers forwards that far. A layer
    reads a window of its source's rows, padded only where it meets the
    image's edge; a window that is all of the source is the source itself,
    so one advance over the whole image runs the whole-image operations and
    records the same graph. Several advances concatenate and slice arrays
    outside the differentiation graph, so they are for constant parameters
    only.
    """

    def __init__(self, x, m, params, pin, out_mask=True):
        self.config = config = params.config
        self.params, self.pin, self.out_mask = params, pin, out_mask
        self.plan = layer_plan(config)
        self.pad = (config.kernel_size - 1) // 2
        n, _, h, w = x.data.shape
        self.batch = n
        self.edges, self.extents = [()], [(h, w)]
        for j, spec in enumerate(self.plan):
            rows, cols = self.extents[j]
            if config.levels <= j < len(self.plan) - 1:
                self.edges.append(((j, 1, True), (2 * config.levels - 1 - j, 1, False)))
                self.extents.append((2 * rows, 2 * cols))
            else:
                s = spec.stride
                self.edges.append(((j, s, False),))
                self.extents.append((-(-rows // s), -(-cols // s)))
        self.keep = [0] * len(self.edges)
        self.done = [h] + [0] * len(self.plan)
        self.features = [x] + [None] * len(self.plan)
        self.masks = [m] + [None] * len(self.plan)

    def advance(self, rows):
        """Compute the output rows before ``rows``; returns the new ones."""
        top = len(self.plan)
        self._drop()
        need = list(self.done)
        need[top] = min(rows, self.extents[top][0])
        for v in range(top, 0, -1):
            if need[v] > self.done[v]:
                if self.edges[v][0][2]:
                    need[v] += need[v] % 2  # a decoder writes whole row pairs
                for edge in self.edges[v]:
                    hi = _edge_rows(edge, self.done[v], need[v], self.pad)[1]
                    need[edge[0]] = max(need[edge[0]], min(hi, self.extents[edge[0]][0]))
        for v in range(1, top + 1):
            if need[v] > self.done[v]:
                self._compute(v, need[v])
        return self.features[top]

    def _drop(self):
        """Forget each layer's rows below the first one a consumer reads next."""
        low = [rows for rows, _ in self.extents]
        for v, edges in enumerate(self.edges):
            if self.done[v] < self.extents[v][0]:
                for edge in edges:
                    lo = _edge_rows(edge, self.done[v], self.done[v] + 1, self.pad)[0]
                    low[edge[0]] = min(low[edge[0]], max(lo, 0))
        for v in range(1, len(self.edges)):
            cut = min(low[v], self.done[v]) - self.keep[v]
            if cut > 0:
                self.features[v] = T.constant(self.features[v].data[:, :, cut:])
                if self.masks[v] is not None:
                    self.masks[v] = self.masks[v][:, :, cut:]
                self.keep[v] += cut

    def _compute(self, v, b):
        """Run node ``v``'s layer for rows ``[done, b)`` and append them."""
        spec, a = self.plan[v - 1], self.done[v]
        inputs = []
        for edge in self.edges[v]:
            src = edge[0]
            lo, hi = _edge_rows(edge, a, b, self.pad)
            r0, r1 = max(lo, 0), min(hi, self.extents[src][0])
            f, m = self.features[src], self.masks[src]
            if (r0, r1) != (self.keep[src], self.done[src]):
                rows = (slice(None), slice(None), slice(r0 - self.keep[src], r1 - self.keep[src]))
                f, m = f[rows], m[rows]
            inputs.append((MaskedFeature(f, m), (r0 - lo, hi - r1)))
        (inp, pad_rows), (skip, skip_pad_rows) = inputs[0], (inputs[1:] or [(None, None)])[0]
        weights, bias = self.params.layers[spec.name]
        args = (inp, weights, bias, spec.stride, self.pad, spec.activation,
                self.config.leaky_slope)
        if v == len(self.plan) and not self.out_mask:
            f, m = masked_conv(*args, skip, pad_rows, skip_pad_rows), None
        else:
            shape = (self.batch, spec.out_channels, b - a, self.extents[v][1])
            out = masked_conv_layer(*args, self.pin(spec, shape), skip, pad_rows, skip_pad_rows)
            f, m = out.features, out.mask
        if self.done[v] > self.keep[v]:
            f = T.constant(np.concatenate([self.features[v].data, f.data], axis=2))
            m = np.concatenate([self.masks[v], m], axis=2)
        self.features[v], self.masks[v], self.done[v] = f, m, b


def unet_forward(ldr, mask, params, frozen_masks=None):
    """Run the masked U-Net; returns the log-domain prediction and mask stack.

    ``params.config`` gives the shape, slope and masking mode. The returned
    stack holds one (name, mask array) entry per layer for visualization.

    ``frozen_masks`` (a ``{layer name: mask}`` dict from a previous FMask
    run's stack) replaces mask propagation, pinning the masks while weights
    change; finite-difference audits need this because the analytic
    gradient treats masks as constants. The other modes ignore it.

    Every layer runs once over the whole image, so the result is
    differentiable; :func:`predict` bounds the memory of inference instead.
    """
    x, m, pin = _prepare(ldr, mask, params.config, frozen_masks)
    walk = _Frontier(x, m, params, pin)
    y = walk.advance(x.data.shape[2])
    return y, [("input", m)] + [(spec.name, mask)
                                for spec, mask in zip(walk.plan, walk.masks[1:])]


def predict(ldr, mask, params):
    """The log-domain prediction of :func:`unet_forward`, as an array.

    Runs on constant parameters a strip of output rows at a time, each layer
    advanced just far enough for the strip and holding only the rows its
    consumers still read, so memory grows with the image's width and not
    with its area times the number of layers. The output layer's mask, which
    nothing reads, is never computed. A batch whose strip covers the whole
    image runs the same operations as :func:`unet_forward`; across strip
    boundaries results agree to rounding.
    """
    config = params.config
    x, m, pin = _prepare(ldr, mask, config)
    n, _, h, w = x.data.shape
    factor = config.downsample_factor
    strip = factor * max(1, _STRIP_ELEMS // (n * config.base_channels * w * factor))
    walk = _Frontier(x, m, params.as_constants(), pin, out_mask=False)
    first = walk.advance(strip).data
    if first.shape[2] == h:
        return first
    y = np.empty(first.shape[:2] + (h, w), dtype=first.dtype)
    y[:, :, :strip] = first
    for start in range(strip, h, strip):
        y[:, :, start:start + strip] = walk.advance(start + strip).data
    return y


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
