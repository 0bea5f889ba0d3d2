"""Dense-tensor engine with reverse-mode differentiation.

Just enough machinery for a small masked U-Net and its loss stack: NCHW
convolution, convolution over a 2x nearest upsample (as four phase kernels
at the input's resolution), average pooling, the usual elementwise
operations, full reductions, and batched matmul. Gradients are
accumulated by a topological sweep from a scalar root.

Convolution never builds the full patch matrix. The input is padded once
and split into its ``stride**2`` polyphase planes, so every kernel tap reads
a shifted window of one plane. The forward copies the kh*kw windows of one
cache-sized block of output rows into a (kh*kw*Ci, rows*ow) stack and runs
one GEMM per block against the (Co, kh*kw*Ci) weights, the bias riding
along as one more column against a row of ones (the low-memory GEMM
convolution of Anderson et al., arXiv 1709.03395). Both gradients run one
GEMM per tap on the same planes. :func:`conv2d_raw` returns ``(out,
planes)``; the planes, about the size of the padded input, are kept for the
backward pass only when the weights need a gradient.

:func:`conv2d` is a whole masked layer in one node: the constant mask
product is written into the planes as they are filled, a decoder's 2x
upsampled half is convolved at its own resolution and added into the skip
convolution's output in place, and the activation is applied in place, its
derivative read off the output. So a conv node keeps its output and, when
the weights need a gradient, its planes, which already hold the masked
input; the masks it multiplies ``dx`` by are the caller's.

The graph keeps each node's data, which is what the vjps read; the only
large array a vjp saves beside it is a convolution's planes. :func:`backward`
hands each vjp the only reference to its node's gradient, which is freed as
soon as the vjp is done with it (a conv's once the activation's derivative
is applied), so a sweep holds the graph plus the gradients still in flight,
and only leaves keep ``grad``.

Values live in numpy arrays. float32 is the working precision for training;
gradient verification against finite differences should be run in float64,
where central differences are actually trustworthy. An operation that
produces NaN or Inf raises :class:`~hdrmask.errors.NumericError` instead of
letting the poison spread.

Tensors are treated as immutable once produced; the trainer mutates
parameter ``data`` in place only between optimization steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, GraphError, NumericError

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)


def _as_float_array(data):
    arr = np.asarray(data)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(DEFAULT_DTYPE)


def _first_bad_coord(arr):
    bad = ~np.isfinite(arr)
    idx = np.argwhere(bad)
    return tuple(int(i) for i in idx[0])


def _require_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced a non-finite value at index {_first_bad_coord(arr)}")


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode differentiation.

    Leaves are parameters (``requires_grad=True``) or constants; interior
    nodes remember their parents and a closure that maps the output gradient
    to parent gradients. :func:`backward` sets ``grad`` on leaves only.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    # Let `ndarray <op> Tensor` fall through to our reflected operators.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, name=None):
        self.data = _as_float_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._vjp = None

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, neg(_lift(other, self.dtype)))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division is not a registered operation")
        return mul(self, _lift(1.0 / other, self.dtype))

    def __getitem__(self, key):
        return getitem(self, key)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)


def parameter(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


def _lift(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _node(data, parents, vjp):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ---------------------------------------------------------


def add(a, b):
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), vjp)


def mul(a, b):
    out = a.data * b.data

    def vjp(g):
        # A constant factor (a feature mask, a loss weight) gets no gradient.
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), vjp)


def neg(a):
    return _node(-a.data, (a,), lambda g: (-g,))


def exp(a):
    out = np.exp(a.data)
    _require_finite(out, "exp")
    return _node(out, (a,), lambda g: (g * out,))


def log(a):
    if np.any(a.data <= 0):
        raise NumericError(f"log of non-positive value at index {tuple(int(i) for i in np.argwhere(a.data <= 0)[0])}")
    out = np.log(a.data)
    return _node(out, (a,), lambda g: (g / a.data,))


def absolute(a):
    # Subgradient 0 at the kink.
    return _node(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def _leaky_factor(x, slope):
    return np.where(x > 0, x.dtype.type(1.0), x.dtype.type(slope))


def activation(a, kind="relu", slope=0.2):
    """Elementwise relu / leaky_relu(slope) / identity."""
    if kind == "identity":
        return a
    if kind == "relu":
        out = np.maximum(a.data, 0)
        return _node(out, (a,), lambda g: (g * (a.data > 0).astype(a.data.dtype),))
    if kind == "leaky_relu":
        # The vjp derives the factor again rather than keep it in the graph.
        return _node(a.data * _leaky_factor(a.data, slope), (a,),
                     lambda g: (g * _leaky_factor(a.data, slope),))
    raise ContractError(f"unknown activation kind {kind!r}")


# -- reductions and shape ops --------------------------------------------


def tsum(a):
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)
    return _node(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False),))


def tmean(a):
    n = a.data.size
    out = np.asarray(a.data.mean(), dtype=a.data.dtype)

    def vjp(g):
        return (np.broadcast_to(g / n, a.data.shape).astype(a.data.dtype, copy=False),)

    return _node(out, (a,), vjp)


def reshape(a, shape):
    out = a.data.reshape(shape)
    return _node(out, (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def getitem(a, key):
    out = a.data[key]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _node(out, (a,), vjp)


def matmul(a, b):
    """Batched matrix product; leading batch dims must match exactly."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError("matmul operands must be at least 2-D")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise DimensionError(f"matmul batch dims differ: {a.data.shape} vs {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ _swap_last(b.data), _swap_last(a.data) @ g

    return _node(out, (a, b), vjp)


def _swap_last(arr):
    axes = list(range(arr.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return arr.transpose(axes)


# -- convolution ----------------------------------------------------------


# Elements in the forward's working set for one block of output rows: the
# N*kh*kw*Ci*rows*ow stacked tap windows plus the N*Co*rows*ow output block,
# 1 MB at float32, so a block is copied, multiplied and stored while it is
# still in cache. rows = _BLOCK_ELEMS // (N*(kh*kw*Ci + Co)*ow), at least 1.
_BLOCK_ELEMS = 1 << 18


def conv_output_extent(extent, kernel, stride, padding):
    return (extent + 2 * padding - kernel) // stride + 1


def _plane_extent(padded, stride):
    """Extent of one polyphase plane of an input ``padded`` long once padded."""
    return -(-padded // stride)


def _row_padding(padding, pad_rows):
    top, bottom = (padding, padding) if pad_rows is None else pad_rows
    if min(padding, top, bottom) < 0:
        raise DimensionError("padding must be >= 0")
    return top, bottom


def _phase_planes(x, stride, padding, pad_value, pad_rows=None, scale=None):
    """Pad ``x`` once and split it into its ``stride**2`` polyphase planes.

    Returns an array of shape (stride**2, N, C, hq*wq): plane ``a*stride + b``
    holds rows ``a::stride`` and columns ``b::stride`` of the padded input,
    flattened row-major. At stride 1 the only plane is the padded input.
    Each plane is written directly: its border strips get ``pad_value`` and
    its interior a strided slice of ``x``, or of ``x * scale`` when ``scale``
    (shaped like ``x``, of its dtype) is given, so no padded or scaled copy of
    the input is built and nothing is written twice. ``pad_rows`` is a
    ``(top, bottom)`` row padding in place of ``padding``.
    """
    n, c, h, w = x.shape
    s, p = stride, padding
    top, bottom = _row_padding(padding, pad_rows)
    hq, wq = _plane_extent(h + top + bottom, s), _plane_extent(w + 2 * p, s)
    planes = np.empty((s, s, n, c, hq, wq), dtype=x.dtype)
    for a, b, (u0, u1, v0, v1), inside in _plane_interiors(s, top, h, p, w):
        q = planes[a, b]
        q[:, :, :u0] = pad_value
        q[:, :, u1:] = pad_value
        q[:, :, u0:u1, :v0] = pad_value
        q[:, :, u0:u1, v1:] = pad_value
        if scale is None:
            q[:, :, u0:u1, v0:v1] = x[inside]
        else:
            np.multiply(x[inside], scale[inside], out=q[:, :, u0:u1, v0:v1])
    return planes.reshape(s * s, n, c, hq * wq)


def _plane_interiors(stride, top, h, left, w):
    """Per polyphase plane ``(a, b)`` of an (h, w) input padded by ``top``
    rows and ``left`` columns: ``(a, b, (u0, u1, v0, v1), inside)``, where
    plane rows u0:u1 and columns v0:v1 are the padded pixels that fall
    inside the input, and ``inside`` indexes them in an NCHW input."""
    s = stride
    for a in range(s):
        # Plane rows u0:u1 are padded rows a + s*u that fall inside x.
        u0, u1 = -(-(top - a) // s), -(-(top + h - a) // s)
        for b in range(s):
            v0, v1 = -(-(left - b) // s), -(-(left + w - b) // s)
            inside = (slice(None), slice(None), slice(a + s * u0 - top, None, s),
                      slice(b + s * v0 - left, None, s))
            yield a, b, (u0, u1, v0, v1), inside


def _conv_taps(kh, kw, stride):
    """``(i, j, plane, dy, dx)`` for every kernel tap, row-major.

    Tap ``(i, j)`` reads output ``(oy, ox)`` from row ``oy + dy`` and column
    ``ox + dx`` of polyphase plane ``plane``.
    """
    s = stride
    return [(i, j, (i % s) * s + j % s, i // s, j // s)
            for i in range(kh) for j in range(kw)]


def _tap_major(w):
    """OIHW weights as a contiguous (kh, kw, O, I) stack: one GEMM operand per tap."""
    return np.ascontiguousarray(np.transpose(w, (2, 3, 0, 1)))


def conv2d_raw(x, w, b=None, stride=1, padding=0, pad_value=0.0, pad_rows=None, scale=None):
    """Plain-numpy NCHW convolution (cross-correlation), no graph.

    Shared by the differentiable op below and by mask propagation, which
    must stay outside the differentiation graph. Returns ``(out, planes)``
    with ``planes`` from :func:`_phase_planes`.

    ``pad_rows``, a ``(top, bottom)`` pair, pads the rows by those counts
    and leaves ``padding`` to the columns: a window of an image's rows is
    padded only where it meets the image's edge. ``scale``, an array shaped
    like ``x``, convolves ``x * scale`` (in ``x``'s dtype) instead of ``x``:
    the product is written straight into the planes, which then hold it.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects NCHW input and OIHW weights, got {x.shape} and {w.shape}")
    if scale is not None:
        scale = np.asarray(scale).astype(x.dtype, copy=False)
        if scale.shape != x.shape:
            raise DimensionError(f"scale shape {scale.shape} != input shape {x.shape}")
    top, bottom = _row_padding(padding, pad_rows)
    if stride < 1:
        raise DimensionError("stride must be >= 1")
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    if c != ci:
        raise DimensionError(f"input has {c} channels but weights expect {ci}")
    oh = (h + top + bottom - kh) // stride + 1
    ow = conv_output_extent(wd, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise DimensionError(f"kernel {kh}x{kw} does not fit input {h}x{wd} with padding {padding}")
    planes = _phase_planes(x, stride, padding, pad_value, (top, bottom), scale)
    s, taps = stride, kh * kw
    grid = planes.reshape(s * s, n, c, _plane_extent(h + top + bottom, s),
                          _plane_extent(wd + 2 * padding, s))
    dtype = np.result_type(x, w)
    wk = np.transpose(w, (0, 2, 3, 1)).reshape(co, taps * ci)
    if b is not None:
        wk = np.concatenate([wk, np.asarray(b).reshape(co, 1)], axis=1)
    wk = wk.astype(dtype, copy=False)
    k = wk.shape[1]
    out = np.empty((n, co, oh, ow), dtype=dtype)
    flat = out.reshape(n, co, oh * ow)
    reads = _conv_taps(kh, kw, s)
    rows = min(oh, max(1, _BLOCK_ELEMS // (n * (taps * ci + co) * ow)))
    # One flat buffer; each block, the shorter last one included, is its
    # contiguous leading part.
    stack = np.empty(n * k * rows * ow, dtype=dtype)
    for y0 in range(0, oh, rows):
        r = min(rows, oh - y0)
        block = stack[:n * k * r * ow].reshape(n, k, r * ow)
        block[:, taps * ci:] = 1
        windows = block[:, :taps * ci].reshape(n, taps, ci, r, ow)
        for t, (_, _, plane, dy, dx) in enumerate(reads):
            windows[:, t] = grid[plane, :, :, y0 + dy:y0 + dy + r, dx:dx + ow]
        np.matmul(wk, block, out=flat[:, :, y0 * ow:(y0 + r) * ow])
    return out, planes


# -- convolution over a 2x nearest upsample --------------------------------
#
# A same-padded k x k convolution, k = 2p + 1, of a 2x nearest-upsampled
# input reads output row 2a + r from input rows a + (r - p + i) // 2 of the
# original, i = 0..k-1: p + 1 distinct rows, each tap landing on the same row
# summed. So per output phase (r, c) it is a (p+1) x (p+1) convolution at the
# input's own resolution; stacked, the four phases are one conv2d with
# padding p, whose phase (r, c) output sits at rows (p + r) // 2 and columns
# (p + c) // 2 onwards. This is the resize-convolution of Odena, Dumoulin &
# Olah (Distill 2016) in the sub-pixel form of Shi et al. (CVPR 2016). It is
# exact for any constant padding value: a pad row of the upsampled input is a
# pad row of the original.


@functools.lru_cache(maxsize=None)
def _phase_map(k, dtype):
    """The 0/1 map from a flattened k x k kernel to its four flattened t x t
    phase kernels, t = k // 2 + 1, as (4, k*k, t*t): one block per phase
    (r, c), so each phase's product lands contiguous. Read-only: every call
    with the same ``k`` and ``dtype`` shares it.

    Along one axis, phase r's tap i lands on phase tap (i + (p + r) % 2) // 2.
    """
    p, t = k // 2, k // 2 + 1
    taps = np.arange(k)
    axis = np.zeros((2, t, k))
    for r in (0, 1):
        axis[r, (taps + (p + r) % 2) // 2, taps] = 1.0
    flat = np.einsum("ray,cbx->yxrcab", axis, axis).astype(dtype)
    flat.setflags(write=False)
    return flat.reshape(k * k, 4, t * t).transpose(1, 0, 2)


def upsample_kernels(w):
    """Phase kernels of a same-padded convolution over a 2x nearest upsample.

    For OIHW ``w`` with odd square k = 2p + 1, returns the (4*Co, Ci, p+1,
    p+1) kernels whose block ``2r + c`` of Co output channels is phase (r, c)
    of that convolution; for k = 3 the rows are ``[w0, w1+w2]`` (r = 0) and
    ``[w0+w1, w2]`` (r = 1), and the same along columns. Convolve them with
    padding p over the input itself, then :func:`add_phases`. The map is one
    product with a 0/1 matrix, so its gradient is the transposed product
    (:func:`_upsample_kernels_grad`).
    """
    w = np.asarray(w)
    co, ci, k, kw = w.shape
    if k != kw or k % 2 == 0:
        raise DimensionError(f"upsample_kernels needs an odd square kernel, got {k}x{kw}")
    t = k // 2 + 1
    return (w.reshape(1, co * ci, k * k) @ _phase_map(k, w.dtype)).reshape(4 * co, ci, t, t)


def _upsample_kernels_grad(g, k, dtype):
    """The gradient of :func:`upsample_kernels`' k x k kernel (of ``dtype``)
    from ``g``, the gradient of its phase kernels."""
    co, ci, t = g.shape[0] // 4, g.shape[1], g.shape[2]
    dw = g.reshape(4, co * ci, t * t) @ _phase_map(k, dtype).transpose(0, 2, 1)
    return dw.sum(axis=0).reshape(co, ci, k, k)


def _phase_crops(p):
    """``(r, c, row, column)`` per phase of an :func:`upsample_kernels`
    convolution whose kernel has half-width p: where, in its (h+p, w+p)
    output, the h x w crop that lands on rows r::2, columns c::2 starts."""
    return [(r, c, (p + r) // 2, (p + c) // 2) for r in (0, 1) for c in (0, 1)]


def add_phases(out, x, p):
    """Add the phase outputs ``x`` of an :func:`upsample_kernels` convolution
    whose kernel has half-width p into the (N, Co, 2h, 2w) array ``out``, in
    place: the convolution over the 2x upsample, interleaved."""
    n, c4, hp, wp = x.shape
    phases = x.reshape(n, 2, 2, c4 // 4, hp, wp)
    h, w = hp - p, wp - p
    if out.shape[2:] != (2 * h, 2 * w):
        raise DimensionError(f"phase outputs {x.shape} upsample to {2 * h}x{2 * w}, "
                             f"not {out.shape[2]}x{out.shape[3]}")
    for r, c, oy, ox in _phase_crops(p):
        out[:, :, r::2, c::2] += phases[:, r, c, :, oy:oy + h, ox:ox + w]
    return out


def _phase_grads(g, p):
    """The adjoint of :func:`add_phases`: from ``g``, the gradient of the
    (N, Co, 2h, 2w) interleaved output, the gradient of the (N, 4*Co, h+p,
    w+p) phase outputs, each phase's crop holding its rows and columns of
    ``g`` and zero around it."""
    n, co, h, w = g.shape[0], g.shape[1], g.shape[2] // 2, g.shape[3] // 2
    phases = np.zeros((n, 2, 2, co, h + p, w + p), dtype=g.dtype)
    for r, c, oy, ox in _phase_crops(p):
        phases[:, r, c, :, oy:oy + h, ox:ox + w] = g[:, :, r::2, c::2]
    return phases.reshape(n, 4 * co, h + p, w + p)


def layer_raw(x, w, b=None, stride=1, padding=0, pad_value=0.0, pad_rows=None, scale=None,
              skip=None, skip_scale=None, skip_pad_rows=None):
    """One layer's convolution, no graph: the forward of :func:`conv2d` and
    of mask propagation. Returns ``(out, planes, up_planes)``.

    Without ``skip`` it is :func:`conv2d_raw` (``up_planes`` None). With
    ``skip`` it is a decoder layer's read (see :func:`conv2d`): ``skip``'s
    convolution with the rest of ``w`` and ``b`` (``planes``), plus the
    phase convolution of ``x`` (``up_planes``) interleaved at the kernel's
    half-width, so inputs already padded by it with ``pad_value`` and
    convolved at ``padding`` 0 give the same-padded layer.
    """
    if skip is None:
        return conv2d_raw(x, w, b, stride, padding, pad_value, pad_rows, scale) + (None,)
    if stride != 1:
        raise DimensionError("a convolution over a 2x upsample has stride 1")
    cu = x.shape[1]
    out, planes = conv2d_raw(skip, w[:, cu:], b, 1, padding, pad_value, skip_pad_rows,
                             skip_scale)
    phases, up_planes = conv2d_raw(x, upsample_kernels(w[:, :cu]), None, 1, padding, pad_value,
                                   pad_rows, scale)
    add_phases(out, phases, w.shape[2] // 2)
    return out, planes, up_planes


# -- the differentiable convolution: one masked layer per node ---------------


_ACTIVATIONS = ("identity", "relu", "leaky_relu")


def _activate(y, kind, slope):
    """Apply activation ``kind`` to ``y`` in place: :func:`activation`'s
    values, bit for bit."""
    if kind == "relu":
        np.maximum(y, 0, out=y)
    elif kind == "leaky_relu":
        # For 0 <= slope <= 1, y * slope lies between 0 and y, so the larger
        # of the two is y above 0 and y * slope below; a slope over 1 swaps
        # them. One product and one comparison, far faster than np.where.
        s = y.dtype.type(slope)
        (np.maximum if s <= 1 else np.minimum)(y, y * s, out=y)


def _activation_grad(g, y, kind, slope):
    """``g`` times the derivative of activation ``kind`` where it output
    ``y``. A relu or leaky relu with slope >= 0 keeps its input's sign (a
    zero stays zero), so its output gives the derivative and the input need
    not be kept (as in In-Place Activated BatchNorm, Rota Bulo et al., CVPR
    2018)."""
    if kind == "relu":
        return g * (y > 0)
    if kind == "leaky_relu":
        # The factor is 1 above 0 and the slope below: max(y > 0, slope) for
        # a slope <= 1.
        s, one = g.dtype.type(slope), g.dtype.type(1)
        return g * (np.maximum(y > 0, s) if s <= 1 else np.where(y > 0, one, s))
    return g


def _conv_grads(g, x_shape, w, planes, stride, padding, rows, dx_scale, need_dx):
    """``(dx, dw)`` of a convolution of an input shaped ``x_shape`` from its
    (N, Co, oh, ow) output gradient ``g``.

    ``g`` is first laid on the row pitch of the forward's planes, zero past
    column ``ow``, so each tap's rows are one contiguous span. ``dw`` (None
    without ``planes``) runs one GEMM per tap against the forward's planes.
    ``dx`` (None unless ``need_dx``) scatters one GEMM per tap into zeroed
    planes, multiplied by ``dx_scale`` when that is given. At stride 1 it is
    a view of the one plane, scaled in place; at stride ``s`` each plane's
    rows inside ``x`` are written straight to its ``s``-strided slice of
    ``dx`` (:func:`_plane_interiors`).
    """
    n, c, h, wd = x_shape
    co, ci, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    s, p, top = stride, padding, rows[0]
    hq, wq = _plane_extent(h + rows[0] + rows[1], s), _plane_extent(wd + 2 * p, s)
    gq = np.zeros((n, co, oh, wq), dtype=g.dtype)
    gq[:, :, :, :ow] = g
    del g  # frees a temporary passed in, such as a decoder's phase gradient
    span = (oh - 1) * wq + ow
    taps = [(i, j, k, dy * wq + dx) for i, j, k, dy, dx in _conv_taps(kh, kw, s)]
    gq = gq.reshape(n, co, oh * wq)[:, :, :span]
    dx = dw = None
    if planes is not None:
        dw = np.empty((kh, kw, co, ci), dtype=np.result_type(gq, planes))
        for i, j, k, off in taps:
            view = planes[k, :, :, off:off + span]
            dw[i, j] = np.matmul(gq, view.transpose(0, 2, 1)).sum(axis=0)
        dw = np.ascontiguousarray(dw.transpose(2, 3, 0, 1))
    if need_dx:
        wt = _tap_major(w)
        dplanes = np.zeros((s * s, n, c, hq * wq), dtype=gq.dtype)
        for i, j, k, off in taps:
            dplanes[k, :, :, off:off + span] += wt[i, j].T @ gq
        dplanes = dplanes.reshape(s, s, n, c, hq, wq)
        if s == 1:
            dx = dplanes[0, 0, :, :, top:top + h, p:p + wd]
            if dx_scale is not None:
                np.multiply(dx, dx_scale, out=dx)
        else:
            dx = np.empty((n, c, h, wd), dtype=dplanes.dtype)
            for a, b, (u0, u1, v0, v1), inside in _plane_interiors(s, top, h, p, wd):
                plane = dplanes[a, b, :, :, u0:u1, v0:v1]
                if dx_scale is None:
                    dx[inside] = plane
                else:
                    np.multiply(plane, dx_scale[inside], out=dx[inside])
    return dx, dw


def conv2d(x, w, b=None, stride=1, padding=0, pad_rows=None, scale=None, skip=None,
           skip_scale=None, skip_pad_rows=None, activation_kind="identity", slope=0.2):
    """Differentiable NCHW convolution, optionally a whole masked layer in one node.

    ``x``, ``w`` and the bias ``b`` (or None) are Tensors. The input pads
    with 0. ``pad_rows`` is a ``(top, bottom)`` row padding, as in
    :func:`conv2d_raw`.

    A masked U-Net layer is one call, and one node:

    - ``scale``, a constant array shaped like ``x`` (a feature mask),
      multiplies ``x`` as its planes are filled; the vjp multiplies ``dx``
      by it.
    - With ``skip``, ``x`` is the half-resolution source of ``w``'s first
      ``x.shape[1]`` input channels, which read its 2x nearest upsample:
      it is convolved with :func:`upsample_kernels` of that slice and added
      in place into the stride-1 convolution of ``skip`` (scaled by
      ``skip_scale``, row-padded by ``skip_pad_rows``) with the rest of
      ``w`` and the bias. :func:`layer_raw` computes that forward; the
      backward mirrors it with one :func:`_conv_grads` per convolution,
      the phase convolution's fed :func:`_phase_grads`.
    - ``activation_kind`` (``identity``, ``relu`` or ``leaky_relu`` with
      ``slope`` >= 0) is applied to the output in place, and its
      derivative taken from the output.

    The node keeps its output, and the planes (which hold the scaled
    input) only when ``w`` needs a gradient; it computes a gradient only
    for an operand that requires one.
    """
    if activation_kind not in _ACTIVATIONS:
        raise ContractError(f"unknown activation kind {activation_kind!r}")
    if activation_kind == "leaky_relu" and not 0.0 <= slope < np.inf:
        raise ContractError(f"a leaky relu's slope must be finite and >= 0, got {slope}")
    bias = None if b is None else b.data
    rows = _row_padding(padding, pad_rows)
    if scale is not None:
        scale = np.asarray(scale).astype(x.data.dtype, copy=False)
    parents = [x, w] + ([] if b is None else [b])
    skip_rows = None
    if skip is not None:
        skip_rows = _row_padding(padding, skip_pad_rows)
        if skip_scale is not None:
            skip_scale = np.asarray(skip_scale).astype(skip.data.dtype, copy=False)
        parents.append(skip)
    out, planes, up_planes = layer_raw(x.data, w.data, bias, stride, padding, 0.0, rows, scale,
                                       None if skip is None else skip.data, skip_scale,
                                       skip_rows)
    _require_finite(out, "conv2d")
    _activate(out, activation_kind, slope)
    # Only what the vjp reads stays referenced: the output for the
    # activation's derivative, the planes for dw, a scale for its dx.
    y = None if activation_kind == "identity" else out
    if not w.requires_grad:
        planes = up_planes = None
    if not x.requires_grad:
        scale = None
    if skip is not None and not skip.requires_grad:
        skip_scale = None

    def vjp(g):
        g = _activation_grad(g, y, activation_kind, slope)
        db = g.sum(axis=(0, 2, 3)).reshape(np.shape(bias)) if b is not None and b.requires_grad \
            else None
        if skip is None:
            dx, dw = _conv_grads(g, x.data.shape, w.data, planes, stride, padding, rows, scale,
                                 x.requires_grad)
            return (dx, dw) + (() if b is None else (db,))
        cu, k = x.data.shape[1], w.data.shape[2]
        dskip, dw_skip = _conv_grads(g, skip.data.shape, w.data[:, cu:], planes, 1, padding,
                                     skip_rows, skip_scale, skip.requires_grad)
        dx, dk = _conv_grads(_phase_grads(g, k // 2), x.data.shape,
                             upsample_kernels(w.data[:, :cu]), up_planes, 1, padding, rows, scale,
                             x.requires_grad)
        dw = None if dk is None else \
            np.concatenate([_upsample_kernels_grad(dk, k, w.data.dtype), dw_skip], axis=1)
        return (dx, dw) + (() if b is None else (db,)) + (dskip,)

    return _node(out, parents, vjp)


# -- pooling ---------------------------------------------------------------


def _block_sum(a, window):
    """Sums of the non-overlapping window x window blocks of an (N, C, H, W)
    array, as window**2 strided slices added together: numpy reduces the
    interleaved axes of a (N, C, H/w, w, W/w, w) view far more slowly."""
    out = a[:, :, ::window, ::window].copy()
    for i in range(window):
        for j in range(window):
            if i or j:
                out += a[:, :, i::window, j::window]
    return out


def avg_pool(x, window):
    """Non-overlapping mean pooling; extents must divide evenly."""
    if window < 1:
        raise DimensionError("pool window must be >= 1")
    n, c, h, w = x.data.shape
    if h % window or w % window:
        raise DimensionError(f"spatial extents {h}x{w} not divisible by pool window {window}")
    if window == 1:
        return x
    out = _block_sum(x.data, window)
    out *= np.asarray(1.0 / (window * window), dtype=out.dtype)

    def vjp(g):
        scale = np.asarray(1.0 / (window * window), dtype=g.dtype)
        gx = np.repeat(np.repeat(g * scale, window, axis=2), window, axis=3)
        return (gx,)

    return _node(out, (x,), vjp)


# -- backward sweep --------------------------------------------------------


def _toposort(root):
    order = []
    state = {}  # id -> 1 while on stack, 2 when finished
    stack = [(root, iter(root._parents))]
    state[id(root)] = 1
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            mark = state.get(id(p))
            if mark == 1:
                raise GraphError("cycle detected in the differentiation graph")
            if mark is None and p.requires_grad:
                state[id(p)] = 1
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            state[id(node)] = 2
            order.append(node)
            stack.pop()
    return order


def _take_grad(node):
    """``node.grad``, which the node drops: passed straight to its vjp, the
    gradient is referenced by the vjp alone, which can free it once used."""
    g, node.grad = node.grad, None
    return g


def _pass_back(node):
    """Add ``node``'s vjp of its gradient into its parents' gradients. In a
    frame of its own, so no gradient of this node or of the last one stays
    referenced while the next vjp runs."""
    for parent, g in zip(node._parents, node._vjp(_take_grad(node))):
        if g is None or not parent.requires_grad:
            continue
        parent.grad = g if parent.grad is None else parent.grad + g


def backward(root, parameters=()):
    """Populate ``grad`` on the leaves reachable from a scalar ``root``.

    Only leaves (parameters, and inputs that require a gradient) keep
    ``grad``: an interior node's gradient is handed to its vjp as the only
    reference and freed as soon as the vjp is done with it, so the sweep
    never holds a gradient for every node of the graph. Parameters that the root does not depend on get a zero gradient,
    so the optimizer can treat the result uniformly.
    """
    if root.data.size != 1:
        raise ContractError(f"backward requires a scalar root, got shape {root.data.shape}")
    if not root.requires_grad:
        for p in parameters:
            p.grad = np.zeros_like(p.data)
        return
    order = _toposort(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._vjp is not None:
            _pass_back(node)
    for p in parameters:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


# -- finite-difference verification ---------------------------------------


def check_gradients(fn, inputs, epsilon=1e-4, max_coords=16, rng=None):
    """Max relative error between analytic gradients and central differences.

    ``fn`` must be a pure function of the given leaf tensors returning a
    scalar Tensor. Coordinates are subsampled beyond ``max_coords`` per
    input. Run in float64: at float32 the differences themselves are noise.
    """
    if not 0 < epsilon < np.inf:
        raise ContractError(f"epsilon must be positive and finite, got {epsilon}")
    rng = rng or np.random.default_rng(0)
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if out.data.size != 1:
        raise ContractError("check_gradients requires a scalar-valued computation")
    backward(out, parameters=[t for t in inputs if t.requires_grad])

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        flat = t.data.reshape(-1)
        if not np.shares_memory(flat, t.data):
            raise ContractError("check_gradients needs contiguous input data")
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        analytic = t.grad.reshape(-1)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + epsilon
            f_plus = fn(*inputs).item()
            flat[idx] = original - epsilon
            f_minus = fn(*inputs).item()
            flat[idx] = original
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("non-finite value during finite-difference probe")
            numeric = (f_plus - f_minus) / (2 * epsilon)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst


# -- Adam ------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update with bias correction, applied in place.

    ``params`` maps names to leaf Tensors, ``grads`` names to arrays. A
    missing gradient counts as zero, which leaves that parameter unchanged.
    Returns the (mutated) params and state for convenience.
    """
    if lr <= 0:
        raise ContractError("learning rate must be positive")
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise DimensionError(f"gradient shape {g.shape} does not match parameter {name} {p.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * np.square(g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
