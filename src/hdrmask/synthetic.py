"""Procedural desk-scale corpora for training and evaluation.

Real HDR collections are an external asset; these generators produce small
seeded scenes with the properties the training stages need. Texture images
feed inpainting pre-training. HDR scenes come in two flavors: "textured"
scenes hide structure inside their bright regions (the interesting case
for reconstruction), "smooth" scenes have bare featureless highlights (the
typical case in ordinary photography, used as the alternative pre-training
diet).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .pipeline import HdrImage


def _grating(rng, size, lo=0.0, hi=1.0):
    h, w = size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    freq = rng.uniform(0.15, 0.9)
    angle = rng.uniform(0, np.pi)
    phase = rng.uniform(0, 2 * np.pi)
    wave = np.sin(freq * (np.cos(angle) * xx + np.sin(angle) * yy) + phase)
    return lo + (hi - lo) * (0.5 + 0.5 * wave)


def _smooth_field(rng, size, octaves=3):
    """Low-frequency random field in [0,1] from upsampled noise."""
    h, w = size
    acc = np.zeros((h, w), dtype=np.float32)
    amp = 1.0
    total = 0.0
    for o in range(octaves):
        g = max(2, 2 ** (o + 1))
        coarse = rng.random((g, g), dtype=np.float32)
        reps = (int(np.ceil(h / g)), int(np.ceil(w / g)))
        fine = np.repeat(np.repeat(coarse, reps[0], axis=0), reps[1], axis=1)[:h, :w]
        acc += amp * fine
        total += amp
        amp *= 0.5
    acc /= total
    lo, hi = acc.min(), acc.max()
    return (acc - lo) / max(hi - lo, 1e-6)


def texture_image(seed, size=(64, 64)):
    """A textured LDR image in [0,1], 3 channels.

    Drawn from the same pattern family as the HDR scenes' highlights, so
    inpainting pre-training exercises the textures that later have to be
    hallucinated inside saturated regions.
    """
    rng = np.random.default_rng(seed)
    base = _smooth_field(rng, size)
    pattern = _contrast_pattern(rng, size)
    gray = 0.1 + 0.85 * (0.3 * base + 0.7 * pattern)
    tint = rng.uniform(0.75, 1.0, size=3).astype(np.float32)
    img = np.clip(gray[None] * tint[:, None, None], 0.0, 1.0)
    return img.astype(np.float32)


def _checker_fine(rng, size):
    h, w = size
    cell = int(rng.integers(3, 6))
    yy, xx = np.mgrid[0:h, 0:w]
    return (((yy // cell) + (xx // cell)) % 2).astype(np.float32)


def _contrast_pattern(rng, size):
    """Near-binary texture with strong log-domain contrast (blocks or stripes)."""
    if rng.random() < 0.5:
        p = _checker_fine(rng, size)
    else:
        p = (_grating(rng, size) > 0.5).astype(np.float32)
    soft = 0.9 * p + 0.1 * _grating(rng, size)
    return np.clip(soft, 0.0, 1.0)


def hdr_scene(seed, size=(96, 96), max_radiance=100.0, textured_highlight=True):
    """A linear-radiance scene whose bright region saturates completely.

    A global high-contrast pattern modulates a sky gradient; a bright
    sprite multiplies radiance by up to ``max_radiance`` over a flat-cored
    falloff. After exposure, the sprite's interior clips to white in both
    texture phases, so its content must be reconstructed from the pattern
    visible around it. With ``textured_highlight`` off the pattern fades
    out inside the sprite (a bare featureless highlight).
    """
    rng = np.random.default_rng(seed)
    h, w = size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
    sky = 0.3 + 1.0 * (1.0 - yy / max(h - 1, 1))
    pattern = _contrast_pattern(rng, size)
    floor = rng.uniform(0.04, 0.1)
    modulation = floor + (1.0 - floor) * pattern

    cy = rng.uniform(0.3 * h, 0.7 * h)
    cx = rng.uniform(0.3 * w, 0.7 * w)
    ay = rng.uniform(0.09 * h, 0.17 * h)
    ax = rng.uniform(0.09 * w, 0.17 * w)
    d2 = ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2
    falloff = np.exp(-d2 ** 3).astype(np.float32)  # flat core, soft rim
    if not textured_highlight:
        modulation = (1.0 - falloff) * modulation + falloff * 1.0
    boost = rng.uniform(0.4 * max_radiance, max_radiance)
    tint = rng.uniform(0.8, 1.0, size=3).astype(np.float32)[:, None, None]
    scene = tint * (sky * modulation * (1.0 + boost * falloff))[None]
    return HdrImage(np.ascontiguousarray(scene.astype(np.float32)))


def _require_count(kind, count):
    if count < 0:
        raise DomainError(f"{kind} count must be >= 0, got {count}")


def make_texture_corpus(count, seed=0, size=(64, 64)):
    _require_count("texture", count)
    root = np.random.SeedSequence([seed, 0x7e7])
    return [texture_image(s, size) for s in root.generate_state(count)]


def make_hdr_corpus(count, seed=0, size=(96, 96), textured_highlight=True):
    _require_count("scene", count)
    root = np.random.SeedSequence([seed, 0x4d8])
    return [hdr_scene(s, size, textured_highlight=textured_highlight)
            for s in root.generate_state(count)]
