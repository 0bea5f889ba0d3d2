"""Independent brute-force oracles used to verify the production kernels.

Everything here is deliberately written as plain nested loops (or direct
formula evaluation) so it shares no code path with the vectorized
implementations under test.
"""

import math

import numpy as np


def conv2d_loops(x, w, b=None, stride=1, padding=0, pad_value=0.0):
    """Direct nested-loop NCHW convolution."""
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    assert c == ci
    oh = (h + 2 * padding - kh) // stride + 1
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
                                iy = oy * stride + ky - padding
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


def upsample_map(x, factor):
    """Index-map oracle for nearest-neighbor upsampling."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h * factor, w * factor), dtype=x.dtype)
    for y in range(h * factor):
        for xx in range(w * factor):
            out[:, :, y, xx] = x[:, :, y // factor, xx // factor]
    return out


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


def bilateral_loops(img, color_sigma, space_sigma, radius):
    """Direct double-loop bilateral filter with reflected borders."""
    h, w = img.shape
    out = np.zeros_like(img, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            num = 0.0
            den = 0.0
            center = float(img[y, x])
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy = _reflect_index(y + dy, h)
                    xx = _reflect_index(x + dx, w)
                    v = float(img[yy, xx])
                    wgt = math.exp(-(dy * dy + dx * dx) / (2 * space_sigma ** 2))
                    wgt *= math.exp(-((v - center) ** 2) / (2 * color_sigma ** 2))
                    num += wgt * v
                    den += wgt
            out[y, x] = num / den
    return out


def bilateral_shifts(img, color_sigma, space_sigma, radius):
    """The direct bilateral sum in float64, one numpy pass per window shift.

    Same sums as ``bilateral_loops``, vectorized over pixels so that it is
    fast enough for whole 64x64 patches.
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


def patch_metric_steps(hdr, mask, color_sigma=100.0, space_sigma=10.0, radius=None,
                       bilateral=bilateral_loops):
    """Step-by-step textured-patch metric: gray, log, base/detail, Sobel, mean."""
    r, g, b = (np.asarray(hdr, dtype=np.float64)[i] for i in range(3))
    gray = 0.2126 * r + 0.7152 * g + 0.0722 * b
    log_lum = np.log(gray + 1.0)
    if radius is None:
        radius = int(math.ceil(2 * space_sigma))
    base = bilateral(log_lum, color_sigma, space_sigma, radius)
    detail = log_lum - base
    grad = sobel_reflect_loops(detail)
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
