"""Feature masking and the masked U-Net forward pass.

In the FMask mode every convolutional layer multiplies its incoming
features by a soft validity mask in [0,1], convolves as usual, and carries
the mask forward by convolving it with the kernel's normalized magnitudes:
one :func:`~hdrmask.tensor.conv2d` call with the mask as its ``scale``,
then one :func:`propagate_mask` call. Well-exposed pixels keep mask 1;
fully saturated pixels get 0 and contribute nothing to the features. Masks
are bookkeeping, not signal: they are held constant during
differentiation. IMask multiplies the mask into the input only and SConv
ignores it, so their layers carry no mask at all.

Masks pad with 1 at image borders (outside counts as valid) while features
pad with 0, so a network fed an all-valid mask behaves exactly like its
unmasked twin.

A decoder layer's input is the 2x nearest upsample of the level below
concatenated with an encoder skip, but it is never built: because
``upsample(f) * upsample(m) == upsample(f * m)``, the level below is masked
and convolved at its own resolution with the four phase kernels of its
weight slice, the skip with the rest, and the phases are interleaved into
the sum: :func:`~hdrmask.tensor.layer_raw`, for features and masks alike.

Every layer can run on a window of its input's rows, padded only where the
window meets the image's edge, so the forward is a walk over row frontiers
(depth-first, fused-layer execution; Alwani et al., MICRO 2016). Each layer
advances just far enough for the next strip of output rows and keeps only
the rows its consumers (the next conv, a decoder's skip or phase conv) still
read. The input is a node like the others: its rows come from a row source,
``source(a, b)``, which returns rows ``[a, b)`` of the input and its mask,
and it too keeps only the rows the first layer still reads. A whole array is
the trivial source. :func:`unet_forward`, which training uses, is the
one-strip walk: every layer over the whole image at once, differentiable,
with the full mask stack. :func:`predict_strips` walks strips of constant
parameters for inference and yields each finished strip, so with a source
that reads a file (``hdrmask reconstruct``) its memory grows with the
image's width rather than with its area; :func:`predict` is the
concatenation of its strips over a whole array. :func:`mask_strips` is the
same walk yielding each layer's finished mask rows instead (``hdrmask
mask``). They agree with :func:`unet_forward` to rounding, and exactly when
one strip covers the image.

Where no saturated pixel is in reach, a mask conv only repeats the layer's
all-valid mask. So in FMask the walk cuts each window of a layer's output
into tiles and reads off the input which of them saturation reaches: a
tile's rows and columns map down the layer graph to the input rectangle its
receptive field covers, a summed-area table of the input's saturated pixels
(grown as the walk reads the source's rows; at 4 bytes a pixel, the one
structure of the image's area that inference keeps) tells whether that
rectangle holds one, and a tile whose receptive field passes the image's
edge counts as reached too. A mask conv runs on the reached tiles only,
gathered side by side into one convolution, and fills the others with the
all-valid mask (the gather and scatter of SBNet, Ren et
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
from .errors import CheckpointShapeError, DimensionError, DomainError
# Re-exported: perfbench's tracer times the mask as network.exposure_mask,
# and tools/digests.py and the tests call it from here.
from .pipeline import exposure_mask  # noqa: F401

MASK_NORM_EPS = 1e-6

# Elements of one strip of enc0's output, N * base_channels * rows * W.
# A strip walk advances the output by the most rows, a multiple of the
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
    ks, tail, img_skip = wn.shape[2], 16, None
    if up:
        # The skip runs 4p columns apart and the phase runs half that, so one
        # interleave puts every run in place at once.
        p = padding
        img_skip = _gather(skip, skip_pad_rows, p, runs, (h, side), h + 2 * p, cols + 4 * p, tail)
        img = _gather(m, pad_rows, p, runs, (h // 2, side // 2), h // 2 + 2 * p,
                      cols // 2 + 2 * p, tail // 2 + p)
        pitch = cols + 4 * p
    else:
        extra = -(-(ks - stride) // stride)
        img = _gather(m, pad_rows, padding, runs, (stride * h, stride * side),
                      stride * (h - 1) + ks, stride * (cols + extra), stride * tail)
        pitch = cols + extra
    out = T.layer_raw(img, wn, None, stride, 0, 1.0, skip=img_skip)[0]
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
    """Carry an (N,C,H,W) validity mask through the conv of weight Tensor ``weights``.

    The kernel magnitudes are normalized per output channel to sum to
    (just under) one, so the result is a weighted average of mask values in
    each receptive field. Borders pad with 1; output is clamped to [0,1].
    The convolution is the layer's own, :func:`~hdrmask.tensor.layer_raw`:
    with ``skip`` the layer is a decoder layer, whose input mask is the 2x
    nearest upsample of ``mask`` followed by the channels of ``skip``.
    ``pad_rows`` and ``skip_pad_rows`` are ``(top, bottom)`` row paddings
    of ``mask`` and ``skip``.

    ``tiles`` (:class:`CleanTiles`) computes only where saturation reaches.
    Each run of adjacent flagged tiles along a band, with its halo, is
    copied into one image side by side with the others and goes through the
    same convolution at padding 0, its halo as the padding; every other tile
    is filled from the layer's all-valid pattern, which the first clean tile
    the caller's walk computes gives. A window whose flagged tiles are more
    than two thirds of it makes the dense call. Each output is the same sum
    over its own receptive field either way, so the two agree bit for bit
    wherever the GEMM rounds an output alike in both, and to rounding elsewhere.
    """
    w = np.abs(weights.data)
    wn = w / (w.sum(axis=(1, 2, 3), keepdims=True) + w.dtype.type(MASK_NORM_EPS))
    if tiles is not None:
        rows, skip_rows = ((padding, padding) if p is None else p
                           for p in (pad_rows, skip_pad_rows))
        out = _sparse_mask(mask, wn, stride, padding, skip, rows, skip_rows, tiles)
        if out is not None:
            return out
    out = T.layer_raw(mask, wn, None, stride, padding, 1.0, pad_rows, skip=skip,
                      skip_pad_rows=skip_pad_rows)[0]
    return np.clip(out, 0.0, 1.0, out=out)


@dataclass(frozen=True)
class UNetConfig:
    """The whole description of a model: its shape, slope and masking mode.

    ``mode`` selects the masking ablation: "FMask" threads the soft mask
    through every layer, "IMask" multiplies it into the input only, and
    "SConv" ignores masking entirely (plain convolutions). ``leaky_slope``
    must be finite and >= 0.
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
        for name in ("base_channels", "in_channels", "out_channels"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name.replace('_', ' ')} must be >= 1, "
                                  f"got {getattr(self, name)}")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise DomainError("kernel_size must be odd and positive")
        # The encoders' leaky relu takes its derivative from its output,
        # which keeps the input's sign only for a slope >= 0.
        if not 0.0 <= self.leaky_slope < math.inf:
            raise DomainError(f"leaky_slope must be finite and >= 0, got {self.leaky_slope}")

    @property
    def downsample_factor(self):
        return 2 ** (self.levels - 1)


@dataclass(frozen=True)
class LayerSpec:
    """One conv layer: its name, widths, activation and ``inputs``, the
    ``(node, stride, up)`` edges it reads. Node 0 is the input and node
    ``j + 1`` layer ``j`` of :func:`layer_plan`; ``up`` marks the 2x nearest
    upsample of that node."""

    name: str
    in_channels: int
    out_channels: int
    inputs: tuple
    activation: str


def layer_plan(config):
    """Topology-ordered conv layers for the given configuration.

    Encoder halves resolution with stride-2 convolutions. Decoder layer
    ``dec{i}`` reads the 2x nearest upsample of the level below (its first
    ``widths[i+1]`` input channels) and encoder ``enc{i}``'s output (the
    rest), features and masks alike.
    """
    widths = [config.base_channels * (2 ** i) for i in range(config.levels)]
    layers = [LayerSpec("enc0", config.in_channels, widths[0], ((0, 1, False),), "leaky_relu")]
    for i in range(1, config.levels):
        layers.append(LayerSpec(f"enc{i}", widths[i - 1], widths[i], ((i, 2, False),),
                                "leaky_relu"))
    for i in range(config.levels - 2, -1, -1):
        layers.append(LayerSpec(f"dec{i}", widths[i + 1] + widths[i], widths[i],
                                ((len(layers), 1, True), (i + 1, 1, False)), "relu"))
    layers.append(LayerSpec("out", widths[0], config.out_channels, ((len(layers), 1, False),),
                            "identity"))
    return layers


def param_shapes(config):
    """``{entry name: shape}`` of the parameters, in :func:`layer_plan` order,
    each layer's ``<name>.weight`` before its ``<name>.bias``."""
    k = config.kernel_size
    shapes = {}
    for spec in layer_plan(config):
        shapes[f"{spec.name}.weight"] = (spec.out_channels, spec.in_channels, k, k)
        shapes[f"{spec.name}.bias"] = (spec.out_channels,)
    return shapes


def validate_param_manifest(arrays, config):
    """Check named arrays against a UNetConfig; raise listing mismatches."""
    problems = []
    shapes = param_shapes(config)
    for key, expected in shapes.items():
        if key not in arrays:
            problems.append(f"{key}: missing (expected {expected})")
        elif tuple(arrays[key].shape) != expected:
            problems.append(f"{key}: shape {tuple(arrays[key].shape)} != expected {expected}")
    for key in sorted(set(arrays) - set(shapes)):
        problems.append(f"{key}: unexpected entry")
    if problems:
        raise CheckpointShapeError(
            "checkpoint does not fit the target configuration:\n  " + "\n  ".join(problems),
            mismatches=problems)


@dataclass
class UNetParameters:
    """The convolution weights and biases as graph leaf tensors:
    ``tensors`` maps each entry name to its Tensor, in :func:`param_shapes` order."""

    config: UNetConfig
    tensors: dict = field(default_factory=dict)

    def named_arrays(self):
        return {name: t.data for name, t in self.tensors.items()}

    def as_constants(self):
        """The same arrays as constant tensors under the same names.

        A forward pass through them records no differentiation graph, so
        inference holds no per-layer buffers for a backward that never runs.
        """
        return UNetParameters(self.config, {name: T.constant(t.data, name=name)
                                            for name, t in self.tensors.items()})

    def copy(self):
        return UNetParameters(self.config, {name: T.parameter(t.data.copy(), name=name)
                                            for name, t in self.tensors.items()})

    @classmethod
    def from_arrays(cls, config, arrays):
        """Build parameters from ``{layer.weight / layer.bias: array}``.

        Raises CheckpointShapeError listing every missing, misshapen or
        unexpected array.
        """
        validate_param_manifest(arrays, config)
        return cls(config, {name: T.parameter(np.array(arrays[name]), name=name)
                            for name in param_shapes(config)})


def _as_batched(arr, channels, what):
    a = np.asarray(arr)
    if a.ndim != 4 or a.shape[1] != channels:
        raise DimensionError(f"{what} must be (N,{channels},H,W), got {a.shape}")
    return a


def _array_source(ldr, mask, config):
    """The (N,C,H,W) input and mask, checked, as a row source and its shape."""
    x = T.constant(_as_batched(ldr, config.in_channels, "input")).data
    m = _as_batched(mask, config.in_channels, "mask").astype(x.dtype, copy=False)
    if m.shape != x.shape:
        raise DimensionError(f"mask shape {m.shape} != input shape {x.shape}")
    if np.any(m < 0) or np.any(m > 1):
        raise DomainError("mask values must lie in [0,1]")
    return (lambda a, b: (x[:, :, a:b], m[:, :, a:b])), x.shape


def _edge_rows(edge, a, b, pad):
    """Rows ``[lo, hi)`` of an edge's source that output rows ``[a, b)`` read.

    Rows before 0 or past the source's end are padding. An upsampled edge is
    read by the phase convolution, a (pad+1)-tap kernel at the source's
    resolution whose output rows ``[a/2, b/2 + pad)`` interleave into
    ``[a, b)`` (``a`` and ``b`` even; see :func:`~hdrmask.tensor.layer_raw`).
    """
    _, stride, up = edge
    if up:
        return a // 2 - pad, b // 2 + pad
    return stride * a - pad, stride * (b - 1) + pad + 1


class _Frontier:
    """Each layer's computed rows in one U-Net pass, advanced on demand.

    Node 0 is the input and node ``j + 1`` layer ``j`` of :func:`layer_plan`.
    The input's rows come from ``source(a, b)``, which returns rows ``[a, b)``
    of the (N,C,H,W) input of extent ``shape`` and of its mask; IMask
    multiplies each band of them, and only FMask carries the mask on. A node
    reads its layer's :attr:`LayerSpec.inputs`, ``(source node, stride, up)``
    edges: the node before it (2x upsampled when ``up``, into a decoder) and
    a decoder's encoder skip; its extent follows from the first. Each
    node, the input included, holds its features, and its mask if it has
    one, for rows ``[keep, done)`` only. :meth:`advance` first drops the rows
    no consumer reads again, then works out from the last layer backwards how
    far each layer must get for the requested output rows, reads that far
    into the source and runs the layers forwards that far. A layer reads a
    window of its source's rows, padded only where it meets the image's
    edge; a window that is all of the source is the source itself, so one
    advance over the whole image runs the whole-image operations and records
    the same graph. Later advances write
    into row buffers outside the differentiation graph, so they are for
    constant parameters only.

    A layer is one :func:`~hdrmask.tensor.conv2d` call, which scales its
    inputs by their masks, and then, in FMask, one :func:`propagate_mask`
    call, unless ``frozen`` (``{layer name: mask}``) pins that layer's mask.
    In IMask and SConv no node has a mask. Where FMask masks propagate,
    every other pixel's mask is its layer's all-valid mask, which repeats
    with the node's ``period``: 1 for an encoder, doubled by each decoder's
    upsample. The walk then keeps a summed-area ``table`` of the input's
    saturated pixels, grown as node 0 reads (a window looks up only rows its
    inputs were computed from), and, per node, the input bound of every row
    and every column (:meth:`_bounds`), so that each window's
    :class:`CleanTiles` is a few lookups; each layer keeps its pattern once
    it has computed it. At 4 bytes a pixel the table is the one structure
    that grows with the input's area.
    """

    def __init__(self, source, shape, params, frozen=None, out_mask=True):
        self.config = config = params.config
        self.params, self.frozen, self.out_mask = params, frozen or {}, out_mask
        self.plan = layer_plan(config)
        self.pad = (config.kernel_size - 1) // 2
        n, _, h, w = shape
        factor = config.downsample_factor
        if h % factor or w % factor:
            raise DimensionError(f"spatial extents {h}x{w} must be divisible by {factor}")
        self.strip = factor * max(1, _STRIP_ELEMS // (n * config.base_channels * w * factor))
        self.source = source
        self.edges, self.extents, self.period = [()], [(h, w)], [1]
        for spec in self.plan:
            src, s, up = spec.inputs[0]
            rows, cols = self.extents[src]
            self.edges.append(spec.inputs)
            self.extents.append((2 * rows, 2 * cols) if up else (-(-rows // s), -(-cols // s)))
            self.period.append(math.lcm(*(
                2 * self.period[src] if up else self.period[src] // math.gcd(self.period[src], s)
                for src, s, up in self.edges[-1])))
        # A tile holds whole periods of every layer's pattern (the longest is
        # the downsample factor); 8 ran faster than 16 or 32 on 512x512 photos.
        self.side = max(8, config.downsample_factor)
        nodes = len(self.edges)
        self.patterns = [[None] for _ in range(nodes)]
        self.keep, self.done = [0] * nodes, [0] * nodes
        self.features, self.masks = [None] * nodes, [None] * nodes
        self.buffers, self.start = [None] * nodes, [None] * nodes
        self.table = None
        if config.mode == MODE_FEATURE_MASK and not self.frozen:
            self.table = np.zeros((n, h + 1, w + 1),
                                  dtype=np.int32 if h * w < 2 ** 31 else np.int64)
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
        if need[0] > self.done[0]:
            self._read(need[0])
        for v in range(1, top + 1):
            if need[v] > self.done[v]:
                self._compute(v, need[v])
        return self.features[top]

    def _read(self, b):
        """Append the input's rows ``[done, b)`` to node 0, and in FMask their
        saturated pixels to the table: an integer running sum, exact however
        the rows come in bands."""
        a = self.done[0]
        x, m = self.source(a, b)
        x = T.constant(x)
        m = m.astype(x.data.dtype, copy=False)
        t = self.table
        if t is not None:
            rows = np.cumsum((m < 1).any(axis=1), axis=2, dtype=t.dtype)
            np.cumsum(rows, axis=1, out=rows)
            np.add(rows, t[:, a:a + 1, 1:], out=t[:, a + 1:b + 1, 1:])
        if self.config.mode == MODE_INPUT_MASK:
            x = x * T.constant(m)
        self._store(0, x, m if self.config.mode == MODE_FEATURE_MASK else None)
        self.done[0] = b

    def _drop(self):
        """Forget each layer's rows below the first one a consumer reads next."""
        low = [rows for rows, _ in self.extents]
        for v, edges in enumerate(self.edges):
            if self.done[v] < self.extents[v][0]:
                for edge in edges:
                    lo = _edge_rows(edge, self.done[v], self.done[v] + 1, self.pad)[0]
                    low[edge[0]] = min(low[edge[0]], max(lo, 0))
        for v in range(len(self.edges)):
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
                f, m = f[rows], None if m is None else m[rows]
            inputs.append((f, m, (r0 - lo, hi - r1)))
        (f, m, pad_rows), (skip, skip_m, skip_pad_rows) = \
            inputs[0], (inputs[1:] or [(None, None, None)])[0]
        tensors, stride = self.params.tensors, self.edges[v][0][1]
        weights, bias = tensors[f"{spec.name}.weight"], tensors[f"{spec.name}.bias"]
        out = T.conv2d(f, weights, bias, stride, self.pad, pad_rows=pad_rows, scale=m,
                       skip=skip, skip_scale=skip_m, skip_pad_rows=skip_pad_rows,
                       activation_kind=spec.activation, slope=self.config.leaky_slope)
        mask = None
        if m is not None and (v < len(self.plan) or self.out_mask):
            mask = self.frozen.get(spec.name)
            if mask is None:
                tiles = None if self.table is None else self._tiles(v, a, b)
                mask = propagate_mask(m, weights, stride, self.pad, skip=skip_m,
                                      pad_rows=pad_rows, skip_pad_rows=skip_pad_rows,
                                      tiles=tiles)
        self._store(v, out, mask)
        self.done[v] = b

    def _store(self, v, f, m):
        """Hold node ``v``'s new rows after its rows ``[keep, done)``.

        Rows that follow none are held as computed, so a one-strip walk keeps
        its graph. Otherwise they go to the node's row buffers (features and,
        when there is one, mask), which move the held rows to their front
        only when the new ones do not fit behind them: no strip allocates.
        """
        held = self.done[v] - self.keep[v]
        if held == 0:
            self.features[v], self.masks[v], self.start[v] = f, m, None
            return
        new = [a for a in (f.data, m) if a is not None]
        total = held + f.data.shape[2]
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
        rows = [to[:, :, start:start + total] for to in buf]
        self.features[v], self.start[v] = T.constant(rows[0]), start
        self.masks[v] = None if m is None else rows[1]


def unet_forward(ldr, mask, params, frozen_masks=None):
    """Run the masked U-Net; returns the log-domain prediction and mask stack.

    ``ldr`` and ``mask`` are (N,C,H,W) arrays, C the config's input
    channels; the input is a constant, so gradients reach the parameters
    only. ``params.config`` gives the shape, slope and masking mode. The
    returned stack holds one (name, mask array) entry per layer, the
    input's first; IMask and SConv, which carry no mask, read all ones
    there, as read-only views that allocate nothing.

    ``frozen_masks`` (a ``{layer name: mask}`` dict from a previous FMask
    run's stack) replaces mask propagation, pinning the masks while weights
    change; finite-difference audits need this because the analytic
    gradient treats masks as constants. The other modes ignore it.

    Every layer runs once over the whole image, so the result is
    differentiable; the strip walks bound the memory of inference instead.
    """
    source, shape = _array_source(ldr, mask, params.config)
    walk = _Frontier(source, shape, params, frozen_masks)
    y = walk.advance(shape[2])
    one = np.ones((), dtype=walk.features[0].data.dtype)
    names = ["input"] + [spec.name for spec in walk.plan]
    return y, [(name, np.broadcast_to(one, f.data.shape) if m is None else m)
               for name, f, m in zip(names, walk.features, walk.masks)]


def predict_strips(source, shape, params):
    """Yield ``(row, strip)``: the log-domain prediction a strip of rows at a time.

    ``source(a, b)`` returns rows ``[a, b)`` of an (N,C,H,W) input of extent
    ``shape`` and of its mask (see :func:`predict`); ``strip`` holds the
    prediction's rows from ``row`` on, and the last strip may be shorter.
    Runs on constant parameters, each layer advanced just far enough for the
    strip and holding only the rows its consumers still read, the input
    included, so memory grows with the image's width and not with its area
    times the number of layers. Each input row is read once, FMask's table
    of saturated pixels growing as the walk reads. The output layer's mask,
    which nothing reads, is never computed.
    """
    walk = _Frontier(source, shape, params.as_constants(), out_mask=False)
    for row in range(0, shape[2], walk.strip):
        yield row, walk.advance(row + walk.strip).data


def mask_strips(source, shape, params):
    """Yield ``(layer, row, rows)``: each layer's mask, a strip at a time.

    The walk of :func:`predict_strips`, the output layer's mask included.
    ``rows`` holds channel 0 of the first image's mask for the rows from
    ``row`` on that the strip finished, a view the next strip may overwrite.
    Layers are named as in :func:`unet_forward`'s stack, and one that
    carries no mask (IMask, SConv) reads all ones there too.
    """
    walk = _Frontier(source, shape, params.as_constants())
    names, done = ["input"] + [spec.name for spec in walk.plan], [0] * len(walk.edges)
    for row in range(0, shape[2], walk.strip):
        walk.advance(row + walk.strip)
        one = np.ones((), dtype=walk.features[0].data.dtype)
        for v, (name, m) in enumerate(zip(names, walk.masks)):
            a, b = done[v], walk.done[v]
            yield name, a, (np.broadcast_to(one, (b - a, walk.extents[v][1])) if m is None
                            else m[0, 0, a - walk.keep[v]:b - walk.keep[v]])
        done = list(walk.done)


def predict(ldr, mask, params):
    """The log-domain prediction of :func:`unet_forward`, as an array.

    Takes the same (N,C,H,W) ``ldr`` and ``mask`` batches, and is the
    concatenation of :func:`predict_strips` over them. A batch whose strip
    covers the whole image runs the same operations as :func:`unet_forward`;
    across strip boundaries results agree to rounding.
    """
    strips = [y for _, y in predict_strips(*_array_source(ldr, mask, params.config), params)]
    return strips[0] if len(strips) == 1 else np.concatenate(strips, axis=2)

