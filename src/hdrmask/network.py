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

Where no saturated pixel is in reach, a mask conv only repeats the layer's
all-valid mask. So in FMask the walk cuts each window of a layer's output
into tiles and reads off the input which of them saturation reaches: a
tile's rows and columns map down the layer graph to the input rectangle its
receptive field covers, a summed-area table of the input's saturated pixels
tells whether that rectangle holds one, and a tile whose receptive field
passes the image's edge counts as reached too. A mask conv runs on the
reached tiles only, gathered side by side into one convolution, and fills
the others with the all-valid mask (the gather and scatter of SBNet, Ren et
al., CVPR 2018, with the block mask exact instead of thresholded). That mask
repeats every 2**k pixels, one for an encoder and doubling at each decoder's
upsample, and the first clean tile a walk computes gives it. The masks are
the dense ones: bit for bit where the GEMM rounds a gathered output as it
rounds the dense one (float32 here), within rounding otherwise.
"""

from __future__ import annotations

import math
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

# A gathered tile's mask conv costs about 1.5 times its share of the dense
# one (halo columns, the gather and the fill; measured on 512x512 photos and
# 64x64 training batches), so a window with more than two thirds of its
# tiles dirty makes the dense call.
_DENSE_SHARE = 2 / 3

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


@dataclass(frozen=True)
class CleanTiles:
    """Where a layer's mask conv may be skipped, for one window of its output rows.

    The window is ``shape`` (rows, columns) from image row ``row``, cut into
    tiles: bands of ``band`` rows from its first row, and columns of
    ``side`` from the image's origin. ``flags`` is the (N, bands, columns)
    map of the tiles whose receptive field, as the input rectangle that
    bounds it, holds a saturated pixel or passes the image's edge; every
    other tile takes the layer's all-valid mask, which repeats every
    ``period`` image rows and columns. ``pattern`` holds that (Co, period,
    period) mask, indexed by image row and column modulo ``period``, once
    one clean tile has been computed: a one-element list the caller keeps
    for every window of one layer.
    """

    flags: np.ndarray
    row: int
    shape: tuple
    band: int
    side: int
    period: int
    pattern: list


def _gather(a, pad_rows, padding, runs, step, rows, widths, tail):
    """The input rectangles of runs of output tiles, side by side in one image.

    Run ``k`` reads ``rows`` rows from padded input row ``band[k] * step[0]``
    and ``widths[k]`` columns from padded column ``first[k] * step[1]`` of
    image ``n[k]``; ``a`` holds the padded input from row ``pad_rows[0]``
    and column ``padding``. The pad, and whatever lies past ``a`` (only
    outputs outside the window read it), is 1, and so are ``tail`` more
    columns. One wide image keeps the convolution's row copies long and its
    GEMMs as wide as the dense ones, so that they round alike; the tail,
    never read, takes the narrower kernel of a GEMM's last columns.
    """
    n, band, first, _ = runs
    h, w = a.shape[2:]
    img = np.ones((1, a.shape[1], rows, int(widths.sum()) + tail), dtype=a.dtype)
    x = 0
    for k, width in enumerate(widths.tolist()):
        r0, c0 = int(band[k]) * step[0] - pad_rows[0], int(first[k]) * step[1] - padding
        r1, c1, r2, c2 = max(r0, 0), max(c0, 0), min(r0 + rows, h), min(c0 + width, w)
        img[0, :, r1 - r0:r2 - r0, x + c1 - c0:x + c2 - c0] = a[n[k], :, r1:r2, c1:c2]
        x += width
    return img


def _sparse_mask(m, wn, stride, padding, skip, pad_rows, skip_pad_rows, tiles):
    """The window's propagated mask from its flagged tiles only, or None for a
    window left to the dense call (see :func:`propagate_mask`)."""
    todo, (rows, width) = tiles.flags, tiles.shape
    n, bands, across = todo.shape
    h, side, period, up = tiles.band, tiles.side, tiles.period, skip is not None
    if todo.mean() > _DENSE_SHARE:
        return None
    pattern, sample = tiles.pattern[0], None
    if pattern is None:
        # One clean tile wholly in the window, to take the pattern from.
        inside = np.zeros((bands, across), dtype=bool)
        if min(h, side) >= period:
            inside[:rows // h, :width // side] = True
        clean = np.flatnonzero(~todo & inside)
        if not clean.size:
            return None
        sample = np.unravel_index(clean[0], todo.shape)
        todo = todo.copy()
        todo[sample] = True
    # Runs of consecutive tiles to compute along each band: (n, band, first, end).
    padded = np.zeros((n, bands, across + 2), dtype=np.int8)
    padded[:, :, 1:-1] = todo
    edges = padded[:, :, 1:] - padded[:, :, :-1]
    runs = np.nonzero(edges == 1) + (np.nonzero(edges == -1)[2],)
    cols = (runs[3] - runs[2]) * side
    ks, tail = wn.shape[2], 16
    if up:
        # The skip runs 4p columns apart and the phase runs half that, so one
        # add_phases interleaves every run at once.
        cu, p = m.shape[1], padding
        kernels = T.upsample_kernels(T.constant(wn[:, :cu])).data
        img = _gather(skip, skip_pad_rows, p, runs, (h, side), h + 2 * p, cols + 4 * p, tail)
        out, _ = T.conv2d_raw(img, wn[:, cu:], None, 1, 0, 1.0)
        img = _gather(m, pad_rows, p, runs, (h // 2, side // 2), h // 2 + 2 * p,
                      cols // 2 + 2 * p, tail // 2 + p)
        T.add_phases(out, T.conv2d_raw(img, kernels, None, 1, 0, 1.0)[0], p)
        pitch = cols + 4 * p
    else:
        extra = -(-(ks - stride) // stride)
        img = _gather(m, pad_rows, padding, runs, (stride * h, stride * side),
                      stride * (h - 1) + ks, stride * (cols + extra), stride * tail)
        out, _ = T.conv2d_raw(img, wn, None, stride, 0, 1.0)
        pitch = cols + extra
    np.clip(out, 0.0, 1.0, out=out)
    starts = (np.cumsum(pitch) - pitch).tolist()
    if sample is not None:
        k = int(np.flatnonzero((runs[0] == sample[0]) & (runs[1] == sample[1])
                               & (runs[2] <= sample[2]) & (sample[2] < runs[3]))[0])
        x = starts[k] + (sample[2] - runs[2][k]) * side
        shift = ((tiles.row + sample[1] * h) % period, (sample[2] * side) % period)
        pattern = tiles.pattern[0] = np.roll(out[0, :, :period, x:x + period], shift, axis=(1, 2))
    # Fill whole periods of rows from the image's origin, cut the window out
    # and put the computed runs in.
    co, offset, full_cols = out.shape[1], tiles.row % period, across * side
    periods = -(-(offset + bands * h) // period)
    full = np.empty((n, co, periods, period, full_cols), dtype=out.dtype)
    full[:] = np.tile(pattern, -(-full_cols // period))[None, :, None, :, :full_cols]
    window = full.reshape(n, co, periods * period, full_cols)[:, :, offset:offset + bands * h]
    for k, x in enumerate(starts):
        i, j = int(runs[1][k]) * h, int(runs[2][k]) * side
        window[runs[0][k], :, i:i + h, j:j + cols[k]] = out[0, :, :, x:x + cols[k]]
    return window[:, :, :rows, :width]


def propagate_mask(mask, weights, stride=1, padding=0, skip=None, pad_rows=None,
                   skip_pad_rows=None, tiles=None):
    """Carry a validity mask through a convolution.

    The kernel magnitudes are normalized per output channel to sum to
    (just under) one, so the result is a weighted average of mask values in
    each receptive field. Borders pad with 1; output is clamped to [0,1].

    With ``skip`` the layer is a decoder layer (see
    :func:`masked_conv_layer`): its input mask is the 2x nearest upsample of
    ``mask`` followed by the channels of ``skip``. ``pad_rows`` and
    ``skip_pad_rows`` are ``(top, bottom)`` row paddings of ``mask`` and
    ``skip`` (:func:`~hdrmask.tensor.conv2d_raw`).

    ``tiles`` (:class:`CleanTiles`) computes only where saturation reaches.
    Each run of adjacent flagged tiles along a band, with its halo, is
    copied into one image side by side with the others and goes through the
    same convolutions as the dense call; every other tile is filled from the
    layer's all-valid pattern, which the first clean tile the caller's walk
    computes gives. A window whose flagged tiles are more than two thirds of
    it makes the dense call. Each output is the same sum over its own
    receptive field either way, so the two agree bit for bit wherever the
    GEMM rounds an output alike in both, and to rounding elsewhere.
    """
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights)
    w = np.abs(w)
    norm = w.sum(axis=(1, 2, 3), keepdims=True) + w.dtype.type(MASK_NORM_EPS)
    wn = w / norm
    m = np.asarray(mask)
    squeeze = m.ndim == 3
    if squeeze:
        m = m[None]
    s = None if skip is None else np.asarray(skip)
    if squeeze and s is not None:
        s = s[None]
    if tiles is not None:
        rows, skip_rows = ((padding, padding) if p is None else p
                           for p in (pad_rows, skip_pad_rows))
        out = _sparse_mask(m, wn, stride, padding, s, rows, skip_rows, tiles)
        if out is not None:
            return out[0] if squeeze else out
    if s is None:
        out, _ = T.conv2d_raw(m, wn, None, stride, padding, 1.0, pad_rows)
    else:
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
                      slope=0.2, mask_out=None, skip=None, pad_rows=None, skip_pad_rows=None,
                      tiles=None):
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
    is padded only where it meets the image's edge. ``tiles`` restricts the
    mask conv to where saturation reaches (:func:`propagate_mask`).
    """
    f = masked_conv(inp, weights, bias, stride, padding, activation_kind, slope, skip,
                    pad_rows, skip_pad_rows)
    m = mask_out if mask_out is not None else propagate_mask(
        inp.mask, weights, stride, padding, skip=None if skip is None else skip.mask,
        pad_rows=pad_rows, skip_pad_rows=skip_pad_rows, tiles=tiles)
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


def _prepare(ldr, mask, config):
    """The batched input tensor and mask, checked; IMask applies the mask to
    the input, and IMask and SConv then hold every mask at one."""
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
    if config.mode == MODE_INPUT_MASK:
        x = x * T.constant(m)
    if config.mode != MODE_FEATURE_MASK:
        m = np.ones_like(m)
    return x, m


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
    records the same graph. Later advances write into row buffers outside
    the differentiation graph, so they are for constant parameters only.

    ``frozen`` (``{layer name: mask}``) pins FMask layers' masks; IMask and
    SConv pin every mask to ones. Where FMask masks propagate, every other
    pixel's mask is its layer's all-valid mask, which repeats with the
    node's ``period``: 1 for an encoder, doubled by each decoder's upsample.
    The walk then keeps a summed-area ``table`` of the input's saturated
    pixels and, per node, the input bound of every row and every column
    (:meth:`_bounds`), so that each window's :class:`CleanTiles` is a few
    lookups; each layer keeps its pattern once it has computed it.
    """

    def __init__(self, x, m, params, frozen=None, out_mask=True):
        self.config = config = params.config
        self.params, self.frozen, self.out_mask = params, frozen or {}, out_mask
        self.plan = layer_plan(config)
        self.pad = (config.kernel_size - 1) // 2
        n, _, h, w = x.data.shape
        self.batch = n
        self.edges, self.extents, self.period = [()], [(h, w)], [1]
        for j, spec in enumerate(self.plan):
            rows, cols = self.extents[j]
            if config.levels <= j < len(self.plan) - 1:
                self.edges.append(((j, 1, True), (2 * config.levels - 1 - j, 1, False)))
                self.extents.append((2 * rows, 2 * cols))
            else:
                s = spec.stride
                self.edges.append(((j, s, False),))
                self.extents.append((-(-rows // s), -(-cols // s)))
            self.period.append(math.lcm(*(
                2 * self.period[src] if up else self.period[src] // math.gcd(self.period[src], s)
                for src, s, up in self.edges[-1])))
        # A tile holds whole periods of every layer's pattern (the longest is
        # the downsample factor); 8 ran faster than 16 or 32 on 512x512 photos.
        self.side = max(8, config.downsample_factor)
        nodes = len(self.edges)
        self.patterns = [[None] for _ in range(nodes)]
        self.keep = [0] * nodes
        self.done = [h] + [0] * len(self.plan)
        self.features = [x] + [None] * len(self.plan)
        self.masks = [m] + [None] * len(self.plan)
        self.buffers, self.start = [None] * nodes, [None] * nodes
        self.table = None
        if config.mode == MODE_FEATURE_MASK and not self.frozen:
            table = self.table = np.zeros((n, h + 1, w + 1),
                                          dtype=np.int32 if h * w < 2 ** 31 else np.int64)
            np.cumsum((m < 1).any(axis=1), axis=1, dtype=table.dtype, out=table[:, 1:, 1:])
            np.cumsum(table[:, 1:, 1:], axis=2, out=table[:, 1:, 1:])
            self.bounds = [[(np.arange(e), np.arange(1, e + 1), np.zeros(e, dtype=bool))
                            for e in (h, w)]]
            for v in range(1, nodes):
                self.bounds.append([self._bounds(v, axis) for axis in (0, 1)])

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
                if self.start[v] is not None:
                    self.start[v] += cut

    def _bounds(self, v, axis):
        """For each output row (``axis`` 0) or column (1) of node ``v``, the
        input bound ``[lo, hi)`` it reads and whether the reading passes a
        source's edge on the way. Every map on the way is monotone in the
        position, so a range of a source's positions is bounded by its ends."""
        i, p, out = np.arange(self.extents[v][axis]), self.pad, None
        for src, stride, up in self.edges[v]:
            # A decoder's k x k kernel reads the 2x upsample of its source, whose
            # rows [lo, hi) repeat the source's [lo // 2, (hi + 1) // 2).
            limit = self.extents[src][axis] * (2 if up else 1)
            lo, hi = stride * i - p, stride * i + p + 1
            past = (lo < 0) | (hi > limit)
            lo, hi = np.maximum(lo, 0), np.minimum(hi, limit)
            if up:
                lo, hi = lo // 2, (hi + 1) // 2
            src_lo, src_hi, src_past = self.bounds[src][axis]
            past |= src_past[lo] | src_past[hi - 1]
            lo, hi = src_lo[lo], src_hi[hi - 1]
            out = (lo, hi, past) if out is None else (
                np.minimum(out[0], lo), np.maximum(out[1], hi), out[2] | past)
        return out

    def _tiles(self, v, a, b):
        """Node ``v``'s :class:`CleanTiles` for rows ``[a, b)``.

        Bands start at ``a`` and, for a decoder, whose phase convolutions
        read whole row pairs, hold an even number of rows.
        """
        rows, (width, side) = b - a, (self.extents[v][1], self.side)
        bands = -(-rows // side)
        band = -(-rows // bands)
        if self.edges[v][0][2]:
            band += band % 2
        top, left = np.arange(a, b, band), np.arange(0, width, side)
        bottom, right = np.minimum(top + band, b) - 1, np.minimum(left + side, width) - 1
        (lo, hi, past), (clo, chi, cpast) = self.bounds[v]
        r0, r1, c0, c1 = lo[top, None], hi[bottom, None], clo[left], chi[right]
        t = self.table
        count = t[:, r1, c1] - t[:, r0, c1] - t[:, r1, c0] + t[:, r0, c0]
        flags = (count > 0) | (past[top] | past[bottom])[:, None] | cpast[left] | cpast[right]
        return CleanTiles(flags, a, (rows, width), band, side, self.period[v], self.patterns[v])

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
            pinned = self.frozen.get(spec.name) if self.config.mode == MODE_FEATURE_MASK else \
                np.ones((self.batch, spec.out_channels, b - a, self.extents[v][1]),
                        dtype=self.masks[0].dtype)
            tiles = None if self.table is None else self._tiles(v, a, b)
            out = masked_conv_layer(*args, pinned, skip, pad_rows, skip_pad_rows, tiles)
            f, m = out.features, out.mask
        self._store(v, f, m)
        self.done[v] = b

    def _store(self, v, f, m):
        """Hold node ``v``'s new rows after its rows ``[keep, done)``.

        Rows that follow none are held as computed, so a one-strip walk keeps
        its graph. Otherwise they go to the node's row buffers (features and
        mask), which move the held rows to their front only when the new ones
        do not fit behind them: no strip allocates.
        """
        held = self.done[v] - self.keep[v]
        if held == 0:
            self.features[v], self.masks[v], self.start[v] = f, m, None
            return
        new = (f.data, m)
        total = held + m.shape[2]
        buf, start = self.buffers[v], self.start[v]
        if buf is None or buf[0].shape[2] < total:
            buf = self.buffers[v] = [np.empty(a.shape[:2] + (total,) + a.shape[3:], a.dtype)
                                     for a in new]
            start = None
        if start is None or start + total > buf[0].shape[2]:
            for to, a in zip(buf, (self.features[v].data, self.masks[v])):
                to[:, :, :held] = a
            start = 0
        for to, a in zip(buf, new):
            to[:, :, start + held:start + total] = a
        f, m = (to[:, :, start:start + total] for to in buf)
        self.features[v], self.masks[v], self.start[v] = T.constant(f), m, start


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
    x, m = _prepare(ldr, mask, params.config)
    walk = _Frontier(x, m, params, frozen_masks)
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
    x, m = _prepare(ldr, mask, config)
    n, _, h, w = x.data.shape
    factor = config.downsample_factor
    strip = factor * max(1, _STRIP_ELEMS // (n * config.base_channels * w * factor))
    walk = _Frontier(x, m, params.as_constants(), out_mask=False)
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
