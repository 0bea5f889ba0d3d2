"""Fixed reference kernels that track how fast the host runs right now.

On a shared host the speed of one CPU drifts by 10-30% over minutes: other
tenants share its core, its caches and its memory bandwidth. The drift
moves the CPU time of every operation, so the benchmark times these kernels
beside every unit of work. ``slowdown()`` is their mean time relative to
``REFERENCE_S``; a unit's CPU time divided by it is the CPU time the unit
would have taken at the reference speed.

The kernels are the benchmark's own numpy code, independent of hdrmask, and
each mirrors one kind of work the program's hot paths do: an im2col gather
with forward and transposed GEMMs, a stream over an array larger than the
caches, a 7x7 bilateral-style window of small elementwise passes, and a
plain interpreter loop. A change to hdrmask cannot move them; a change of
host speed moves them and the program alike. They weigh equally, so no
workload's own mix is favoured.

Their arrays (about 90 MB at the peak) are made on the first call, so a
reading of the peak RSS taken before it holds none of them.
"""

import functools
from time import process_time

import numpy as np

# CPU seconds of each kernel at the reference speed: the medians measured on
# the 2-vCPU Xeon VM (one BLAS thread) where the benchmark was defined.
REFERENCE_S = {"conv": 0.0285, "stream": 0.0200, "window": 0.0027, "interpreter": 0.0019}
REPEATS = 5



@functools.cache
def _inputs():
    rng = np.random.default_rng(0)
    return {
        "x": rng.standard_normal((4, 32, 66, 66), dtype=np.float32),
        "w": rng.standard_normal((32, 288), dtype=np.float32),
        "m": rng.standard_normal(8 << 20, dtype=np.float32),  # 32 MB
        "s": rng.standard_normal((3, 64, 64), dtype=np.float32),
    }


def _conv():
    x, w = _inputs()["x"], _inputs()["w"]
    cols = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
    cols = np.ascontiguousarray(cols.transpose(1, 4, 5, 0, 2, 3)).reshape(288, -1)
    y = w @ cols
    w.T @ y
    np.maximum(y, 0, out=y)


def _stream():
    (_inputs()["m"] * np.float32(1.5) + np.float32(1.0)).sum()


def _window():
    s = _inputs()["s"]
    padded = np.pad(s, ((0, 0), (3, 3), (3, 3)))
    acc = np.zeros_like(s)
    norm = np.zeros_like(s)
    for dy in range(7):
        for dx in range(7):
            shifted = padded[:, dy:dy + 64, dx:dx + 64]
            w = np.exp(-(shifted - s) ** 2 * np.float32(4.0))
            acc += w * shifted
            norm += w
    acc / norm


def _interpreter():
    total = 0
    for i in range(20000):
        total += i * i


KERNELS = {"conv": _conv, "stream": _stream, "window": _window, "interpreter": _interpreter}


def _median_s(kernel):
    times = []
    for _ in range(REPEATS):
        t0 = process_time()
        kernel()
        times.append(process_time() - t0)
    return sorted(times)[REPEATS // 2]


def slowdown():
    """Host slowdown against the reference speed (1.0 = reference, 1.2 = 20% slower)."""
    return sum(_median_s(kernel) / REFERENCE_S[name]
               for name, kernel in KERNELS.items()) / len(KERNELS)
