"""Independent brute-force oracles used to verify the production kernels.

Everything here is deliberately written as plain nested loops (or direct
formula evaluation) so it shares no code path with the vectorized
implementations under test.
"""

import math

import numpy as np


def conv2d_loops(x, w, b=None, stride=1, padding=0, pad_value=0.0, pad_rows=None):
    """Direct nested-loop NCHW convolution; ``pad_rows`` is a ``(top, bottom)``
    row padding in place of ``padding``."""
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    assert c == ci
    top, bottom = (padding, padding) if pad_rows is None else pad_rows
    oh = (h + top + bottom - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ii in range(ci):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - top
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < wd:
                                    v = float(x[ni, ii, iy, ix])
                                else:
                                    v = pad_value
                                acc += float(w[oi, ii, ky, kx]) * v
                    if b is not None:
                        acc += float(b[oi])
                    out[ni, oi, oy, ox] = acc
    return out


def conv2d_terms(x, w, b=None, stride=1, padding=0, pad_value=0.0, pad_rows=None, scale=None,
                 out=None, matrix=None):
    """NCHW convolution summing every output's terms in one fixed order.

    One elementwise multiply and add per (input channel, kernel row, kernel
    column) over all outputs at once, so each output rounds the same
    wherever it sits and however large the array is; a GEMM's rounding can
    depend on both. Takes ``tensor.conv2d_raw``'s arguments (``scale``
    multiplies ``x`` in its dtype, ``out`` receives the result; ``matrix``
    is not read, as ``w`` and ``b`` give every term) and returns its
    ``(out, planes)`` pair, with no planes.
    """
    x, w = np.asarray(x), np.asarray(w)
    if scale is not None:
        x = x * np.asarray(scale, dtype=x.dtype)
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    assert c == ci
    top, bottom = (padding, padding) if pad_rows is None else pad_rows
    dtype = np.result_type(x, w)
    xp = np.full((n, c, h + top + bottom, wd + 2 * padding), pad_value, dtype=dtype)
    xp[:, :, top:top + h, padding:padding + wd] = x
    oh = (h + top + bottom - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    acc = np.zeros((n, co, oh, ow), dtype=dtype)
    for i in range(ci):
        for ky in range(kh):
            for kx in range(kw):
                tap = xp[:, i:i + 1, ky:ky + stride * (oh - 1) + 1:stride,
                         kx:kx + stride * (ow - 1) + 1:stride]
                acc += w[:, i, ky, kx].astype(dtype)[None, :, None, None] * tap
    if b is not None:
        acc += np.asarray(b, dtype=dtype).reshape(1, co, 1, 1)
    if out is None:
        return acc, None
    out[...] = acc
    return out, None


def masked_conv_loops(x, mask, w, b=None, stride=1, padding=0, eps=1e-6):
    """One masked layer the long way: ``conv2d_loops`` of ``x * mask``, and the
    mask convolved with ``|w|`` normalized per output channel (plus ``eps``)
    at pad value 1, clipped to [0,1]. Returns ``(out, mask_out)``."""
    wa = np.abs(np.asarray(w, dtype=np.float64))
    wn = wa / (wa.sum(axis=(1, 2, 3), keepdims=True) + eps)
    mask_out = conv2d_loops(mask, wn, stride=stride, padding=padding, pad_value=1.0)
    return conv2d_loops(x * mask, w, b, stride, padding), np.clip(mask_out, 0.0, 1.0)


def upsample_concat_conv(x, mask, skip, skip_mask, w, b=None, padding=1, grad=None):
    """Decoder layer the long way: :func:`masked_conv_loops` over the channel
    concat of the 2x nearest upsample of ``x`` and ``skip``, masks alike.

    Returns ``(out, mask_out)``. With ``grad`` (dL/d out) also returns
    ``(dw, dx, dskip)``: the gradient of the masked input is the transposed
    convolution (flipped kernel, swapped channels) and the weight gradient
    the correlation of the masked input with ``grad``, both by
    ``conv2d_loops``; the upsample's gradient sums each 2x2 block.
    """
    def up(a):
        return np.repeat(np.repeat(a, 2, axis=2), 2, axis=3)

    z = np.concatenate([up(x), skip], axis=1)
    mz = np.concatenate([up(mask), skip_mask], axis=1)
    out, mask_out = masked_conv_loops(z, mz, w, b, padding=padding)
    if grad is None:
        return out, mask_out
    k = w.shape[2]
    dz = conv2d_loops(grad, np.flip(w, (2, 3)).transpose(1, 0, 2, 3), padding=k - 1 - padding)
    dw = conv2d_loops((z * mz).transpose(1, 0, 2, 3), grad.transpose(1, 0, 2, 3),
                      padding=padding).transpose(1, 0, 2, 3)
    cu = x.shape[1]
    dup = dz[:, :cu]
    dx = mask * (dup[:, :, 0::2, 0::2] + dup[:, :, 0::2, 1::2] +
                 dup[:, :, 1::2, 0::2] + dup[:, :, 1::2, 1::2])
    return out, mask_out, dw, dx, skip_mask * dz[:, cu:]


def dirty_maps(saturated, levels, kernel):
    """Each U-Net layer's map of the outputs whose receptive field reaches a
    saturated input pixel or the image's edge: ``{layer name: (N, H, W) bool}``.

    ``saturated`` is the (N, H, W) input deficit, 1 where a pixel is
    saturated. It goes through the layer plan as a mask does, densely, with
    all-ones kernels and the padding at 1: ``enc0``, the stride-2 encoders,
    each decoder over the 2x nearest upsample of the level below plus its
    encoder skip, and ``out``. Every output then sums its receptive field,
    padding included, so it is positive exactly where the layer is dirty.
    """
    ones = np.ones((1, 1, kernel, kernel))

    def conv(d, stride=1):
        return conv2d_terms(d, ones, stride=stride, padding=kernel // 2, pad_value=1.0)[0]

    d = np.asarray(saturated, dtype=np.float64)[:, None]
    maps, skips = {}, []
    for i in range(levels):
        d = maps[f"enc{i}"] = conv(d, 1 if i == 0 else 2)
        skips.append(d)
    for i in range(levels - 2, -1, -1):
        d = maps[f"dec{i}"] = conv(np.repeat(np.repeat(d, 2, axis=2), 2, axis=3)) + conv(skips[i])
    maps["out"] = conv(d)
    return {name: m[:, 0] > 0 for name, m in maps.items()}


def avg_pool_loops(x, window):
    n, c, h, w = x.shape
    oh, ow = h // window, w // window
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for oy in range(oh):
        for ox in range(ow):
            out[:, :, oy, ox] = x[:, :, oy * window:(oy + 1) * window,
                                  ox * window:(ox + 1) * window].mean(axis=(2, 3))
    return out


def _reflect_index(i, n):
    # numpy 'reflect' boundary: edge values are not repeated
    if n == 1:
        return 0
    while i < 0 or i >= n:
        if i < 0:
            i = -i
        if i >= n:
            i = 2 * (n - 1) - i
    return i


def gaussian_blur_loops(img, space_sigma, radius):
    """Truncated Gaussian blur with reflected borders (no range term)."""
    h, w = img.shape
    out = np.zeros_like(img, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            num = 0.0
            den = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = _reflect_index(y + dy, h)
                    xx = _reflect_index(x + dx, w)
                    wgt = math.exp(-(dy * dy + dx * dx) / (2 * space_sigma ** 2))
                    num += wgt * float(img[yy, xx])
                    den += wgt
            out[y, x] = num / den
    return out


def gaussian_blur_shifts(img, space_sigma, radius):
    """``gaussian_blur_loops`` in float64, vectorized over pixels: one numpy
    pass per window shift, on a reflect-padded copy."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    p = np.pad(img, radius, mode="reflect")
    num = np.zeros_like(img)
    den = 0.0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            wgt = math.exp(-(dy * dy + dx * dx) / (2 * space_sigma ** 2))
            num += wgt * p[radius + dy:radius + dy + h, radius + dx:radius + dx + w]
            den += wgt
    return num / den


def bilateral_shifts(img, color_sigma, space_sigma, radius):
    """The direct bilateral sum with reflected borders in float64, one numpy
    pass per window shift: ``gaussian_blur_shifts`` with each neighbour also
    weighted by exp(-(v - center)**2 / (2 color_sigma**2)).
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    p = np.pad(img, radius, mode="reflect")
    num = np.zeros_like(img)
    den = np.zeros_like(img)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            v = p[radius + dy:radius + dy + h, radius + dx:radius + dx + w]
            wgt = math.exp(-(dy * dy + dx * dx) / (2 * space_sigma ** 2)) * \
                np.exp(-((v - img) ** 2) / (2 * color_sigma ** 2))
            num += wgt * v
            den += wgt
    return num / den


def sobel_reflect_loops(img):
    """|Gx| + |Gy| with the standard 3x3 Sobel pair, reflected borders."""
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    h, w = img.shape
    out = np.zeros_like(img, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            gx = 0.0
            gy = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    v = float(img[_reflect_index(y + dy, h), _reflect_index(x + dx, w)])
                    gx += kx[dy + 1][dx + 1] * v
                    gy += kx[dx + 1][dy + 1] * v
            out[y, x] = abs(gx) + abs(gy)
    return out


def sobel_shifts(img):
    """``sobel_reflect_loops`` vectorized over pixels: one numpy pass per
    nonzero tap of the 3x3 pair, on a reflect-padded copy."""
    kx = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    p = np.pad(img, 1, mode="reflect")
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            v = p[dy:dy + h, dx:dx + w]
            gx += kx[dy, dx] * v
            gy += kx[dx, dy] * v
    return np.abs(gx) + np.abs(gy)


def sobel_padded(img):
    """The separable Sobel magnitude on an ``np.pad(img, 1, "reflect")`` copy,
    in the input's precision: the formula the sampler's in-place border must
    reproduce bit for bit."""
    p = np.pad(img, 1, mode="reflect")
    diff_x = p[:, 2:] - p[:, :-2]
    smooth_x = p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]
    gx = diff_x[:-2] + 2.0 * diff_x[1:-1] + diff_x[2:]
    gy = smooth_x[2:] - smooth_x[:-2]
    return np.abs(gx) + np.abs(gy)


def patch_metric_steps(hdr, mask, space_sigma=10.0, radius=None,
                       base=gaussian_blur_loops, sobel=sobel_reflect_loops):
    """Step-by-step textured-patch metric: gray, log, base/detail, Sobel, mean.
    ``base(log_lum, space_sigma, radius)`` is the base layer."""
    r, g, b = (np.asarray(hdr, dtype=np.float64)[i] for i in range(3))
    gray = 0.2126 * r + 0.7152 * g + 0.0722 * b
    log_lum = np.log(gray + 1.0)
    if radius is None:
        radius = int(math.ceil(2 * space_sigma))
    detail = log_lum - base(log_lum, space_sigma, radius)
    grad = sobel(detail)
    weight = (1.0 - np.asarray(mask, dtype=np.float64)).max(axis=0)
    return float((grad * weight).mean())


def gram_loops(phi):
    """Direct O(C^2 * P) Gram matrix of a (P, C) feature matrix."""
    p, c = phi.shape
    out = np.zeros((c, c), dtype=np.float64)
    for i in range(c):
        for j in range(c):
            acc = 0.0
            for k in range(p):
                acc += float(phi[k, i]) * float(phi[k, j])
            out[i, j] = acc / (p * c)
    return out


def adam_first_step(grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Closed-form first Adam update (bias correction cancels for t=1)."""
    m_hat = grad  # m = (1-b1) g, corrected by 1/(1-b1)
    v_hat = grad * grad
    return -lr * m_hat / (math.sqrt(v_hat) + eps)


def mu_law_scalar(x, mu=500.0):
    return math.log(1.0 + mu * x) / math.log(1.0 + mu)
