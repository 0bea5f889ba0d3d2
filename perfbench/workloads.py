"""The benchmark's workloads. Each one stresses different layers of hdrmask.

train-hdr        HDR fine-tuning (FMask, batch 4, 64x64 patches, default
                 UNetConfig) with validation epochs inside the timed run. The
                 only workload with backward, losses and Adam.
reconstruct-512  ``hdrmask reconstruct`` through ``cli.dispatch`` on 512x512
                 LDR photos: forward only, batch 1, large im2col buffers and
                 the memory peak; no backward, losses or sampler.
curate           ``sampler.sample_patches`` over an HDR corpus plus a dataset
                 shard write / read round trip: bilateral-filter bound, never
                 touches the network.

A workload builds its inputs from the seed in ``setup`` and then runs
*units*; a unit is a fixed piece of work made of one or more *operations*
(a training step, an image, a scored crop). Every time is taken twice: on
the wall clock and as the process's CPU time, which leaves out the time a
shared host runs other tenants on this CPU. Units repeat their inputs with
period ``period``, so the outputs of two units with the same ``k % period``
must be bit-identical, traced or not.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from hdrmask import cli, formats, network, sampler, synthetic, training
from hdrmask.errors import HdrMaskError
from hdrmask.losses import FeatureExtractor
from hdrmask.pipeline import simulate_ldr

PATCH = 64


@dataclass
class Unit:
    """What one unit of work did and how long the program spent on it."""

    busy_s: float          # wall time inside hdrmask; output checks excluded
    cpu_s: float           # CPU time of the same span
    op_ms: list            # per-operation wall times
    op_cpu_ms: list        # per-operation CPU times
    mpix: float            # input megapixels processed
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)  # output-check failures
    digest: str = ""       # fingerprint of the outputs
    quality: float = math.nan
    slowdown: float = math.nan  # host slowdown measured beside the unit (reference.py)


def _now():
    return perf_counter(), process_time()


def _intervals_ms(start, stamps):
    """Wall and CPU milliseconds between consecutive ``(wall, cpu)`` stamps."""
    d = np.diff([start] + stamps, axis=0) * 1e3
    return list(d[:, 0]), list(d[:, 1])


def _elapsed(start):
    """Wall and CPU seconds since ``start``."""
    return tuple(b - a for a, b in zip(start, _now()))


def unet_work(config, n, h, w, itemsize=4):
    """``{layer: (MACs, im2col bytes)}`` of one U-Net forward, from ``layer_plan``."""
    k = config.kernel_size
    work = {}
    for spec in network.layer_plan(config):
        level = 0 if spec.name == "out" else int(spec.name[3:])
        cols = n * spec.in_channels * k * k * (h >> level) * (w >> level)
        work[f"network.{spec.name}"] = (cols * spec.out_channels, cols * itemsize)
    return work


def extractor_work(extractor, n, h, w, itemsize=4):
    """``{stage: (MACs, im2col bytes)}`` of one feature-extractor pass."""
    work = {}
    for i, (weight, _) in enumerate(extractor.stages):
        co, ci, kh, kw = weight.shape
        cols = n * ci * kh * kw * (h >> i) * (w >> i)
        work[f"losses.extractor.stage{i}"] = (cols * co, cols * itemsize)
    return work


def extractor_shapes(extractor):
    return {weight.shape: f"losses.extractor.stage{i}"
            for i, (weight, _) in enumerate(extractor.stages)}


class TrainHdr:
    """One unit is a ``finetune_hdr`` run of ``STEPS`` steps from a fresh init."""

    name = "train-hdr"
    boundary = "tensor.adam_step"
    period = 1
    plane = (PATCH, PATCH)
    SCENES, PER_IMAGE = 4, 6
    STEPS, STEPS_PER_EPOCH, VAL_ITEMS, BATCH = 16, 4, 4, 4

    def __init__(self):
        self.extractor = FeatureExtractor()
        self.config = network.UNetConfig()

    def setup(self, seed, workdir):
        # Threshold 0 keeps every saturated crop, so every source image gives
        # PER_IMAGE records, the held-out image fills VAL_ITEMS and a step
        # costs the same for every seed.
        scenes = synthetic.make_hdr_corpus(self.SCENES, seed=seed)
        cfg = sampler.SamplerConfig(patch_size=PATCH, patches_per_image=self.PER_IMAGE,
                                    metric_threshold=0.0)
        records = []
        for i, scene in enumerate(scenes):
            records += sampler.sample_patches(scene, cfg, seed=seed * 1000 + i,
                                              image_id=f"scene{i}")
        train_cfg = training.TrainConfig(seed=seed, batch_size=self.BATCH,
                                         max_steps=self.STEPS,
                                         steps_per_epoch=self.STEPS_PER_EPOCH,
                                         max_val_items=self.VAL_ITEMS)
        return records, train_cfg

    def forward_work(self):
        """Per-layer work of the forward pass of one training step (batch 4)."""
        work = unet_work(self.config, self.BATCH, PATCH, PATCH)
        # The loss runs the extractor on the blend and on the ground truth.
        for stage, (macs, nbytes) in extractor_work(self.extractor, self.BATCH, PATCH, PATCH).items():
            work[stage] = (2 * macs, 2 * nbytes)
        return work

    def unet_samples_per_unit(self):
        """U-Net forward samples per unit: batches plus validation items."""
        validations = -(-self.STEPS // self.STEPS_PER_EPOCH)
        return self.STEPS * self.BATCH + validations * self.VAL_ITEMS

    def run_unit(self, state, k, stamps):
        records, train_cfg = state
        stamps.clear()
        t0 = _now()
        try:
            result = training.finetune_hdr(records, train_cfg, self.config, self.extractor)
        except HdrMaskError as exc:
            busy, cpu = _elapsed(t0)
            # The step that raised counts as an operation that took until now.
            wall_ms, cpu_ms = _intervals_ms(t0, stamps + [(t0[0] + busy, t0[1] + cpu)])
            return Unit(busy, cpu, wall_ms, cpu_ms, 0.0, len(stamps) + 1, 1,
                        digest=f"raised {type(exc).__name__}")
        busy, cpu = _elapsed(t0)
        steps = result.run_log.steps
        problems = [f"step {s['step']}: non-finite loss" for s in steps
                    if not all(math.isfinite(v) for v in s["losses"].values())]
        problems += [f"step {b['step']}: lr rose from {a['lr']} to {b['lr']}"
                     for a, b in zip(steps, steps[1:]) if b["lr"] > a["lr"]]
        h = hashlib.sha256(repr([(s["losses"], s["lr"]) for s in steps]).encode())
        h.update(repr(result.best_val).encode())
        for arr in result.params.named_arrays().values():
            h.update(arr.tobytes())
        return Unit(busy, cpu, *_intervals_ms(t0, stamps),
                    len(steps) * self.BATCH * PATCH * PATCH / 1e6, len(steps),
                    min(len(problems), len(steps)), problems, h.hexdigest(), result.best_val)


class Reconstruct512:
    """One unit is one ``hdrmask reconstruct`` of a 512x512 photo."""

    name = "reconstruct-512"
    boundary = None
    IMAGES, SIZE = 3, 512
    period = IMAGES
    plane = (SIZE, SIZE)

    def __init__(self):
        self.config = network.UNetConfig()
        self.extractor = None

    def setup(self, seed, workdir):
        scenes = synthetic.make_hdr_corpus(self.IMAGES, seed=seed, size=(self.SIZE, self.SIZE))
        photos = []
        for i, scene in enumerate(scenes):
            path = os.path.join(workdir, f"photo{i}.ppm")
            formats.write_ldr(path, simulate_ldr(scene))
            ldr = formats.read_ldr(path).pixels
            keep = network.exposure_mask(ldr) == 1
            # Compose identity: where the mask is 1 the output is ldr**2.0.
            photos.append((path, keep, np.power(ldr, 2.0)[keep]))
        checkpoint = os.path.join(workdir, "model.ckpt")
        training.save_model(checkpoint, training.initialize_parameters(self.config, seed))
        return photos, checkpoint, os.path.join(workdir, "out.pfm")

    def forward_work(self):
        return unet_work(self.config, 1, self.SIZE, self.SIZE)

    def unet_samples_per_unit(self):
        return 1

    def run_unit(self, state, k, stamps):
        photos, checkpoint, out = state
        path, keep, expected = photos[k % self.IMAGES]
        if os.path.exists(out):
            os.remove(out)
        t0 = _now()
        rc = cli.dispatch(["reconstruct", "--in", path, "--checkpoint", checkpoint,
                           "--out", out])
        busy, cpu = _elapsed(t0)
        unit = Unit(busy, cpu, [busy * 1e3], [cpu * 1e3], self.SIZE * self.SIZE / 1e6, 1)
        if rc != 0:
            unit.failed, unit.digest = 1, f"exit code {rc}"
            return unit
        with open(out, "rb") as fh:
            data = fh.read()
        hdr = formats.read_pfm(data)
        if not np.all(np.isfinite(hdr)):
            unit.problems.append("output has non-finite values")
        if np.any(hdr < 0):
            unit.problems.append("output has negative values")
        if not np.array_equal(hdr[keep], expected):
            unit.problems.append("output differs from ldr**2.0 where the mask is 1")
        unit.failed = int(bool(unit.problems))
        unit.digest = hashlib.sha256(data).hexdigest()
        return unit


class Curate:
    """One unit samples ``PER_UNIT`` images and round-trips the kept records through a shard."""

    name = "curate"
    boundary = "sampler.patch_metric"
    SCENES, PER_UNIT, PER_IMAGE = 8, 4, 8
    period = SCENES // PER_UNIT
    plane = None

    def __init__(self):
        self.config = None
        self.extractor = None

    def setup(self, seed, workdir):
        scenes = synthetic.make_hdr_corpus(self.SCENES, seed=seed)
        cfg = sampler.SamplerConfig(patch_size=PATCH, patches_per_image=self.PER_IMAGE)
        return scenes, cfg, seed, os.path.join(workdir, "curated.mds")

    def forward_work(self):
        return {}

    def unet_samples_per_unit(self):
        return 0

    def run_unit(self, state, k, stamps):
        scenes, cfg, seed, shard = state
        stamps.clear()
        op_ms, op_cpu_ms, records, failed = [], [], [], 0
        chosen = [(k * self.PER_UNIT + j) % self.SCENES for j in range(self.PER_UNIT)]
        t0 = _now()
        for i in chosen:
            start, first = _now(), len(stamps)
            try:
                records += sampler.sample_patches(scenes[i], cfg, seed=seed * 1000 + i,
                                                  image_id=f"scene{i}")
            except HdrMaskError:
                failed += 1
            wall_ms, cpu_ms = _intervals_ms(start, stamps[first:])
            op_ms += wall_ms
            op_cpu_ms += cpu_ms
        back = None
        if records:
            try:
                formats.write_dataset_shard(shard, records, alpha=cfg.alpha)
                back = formats.read_dataset_shard(shard)
            except HdrMaskError:
                failed += 1
        busy, cpu = _elapsed(t0)
        unit = Unit(busy, cpu, op_ms, op_cpu_ms, len(op_ms) * PATCH * PATCH / 1e6,
                    len(chosen) + bool(records), failed)
        if back is not None:
            unit.problems = _shard_mismatches(records, back)
            unit.failed += bool(unit.problems)
        h = hashlib.sha256()
        for r in records:
            h.update(repr((r.image_id, r.offset, r.score)).encode())
            for arr in (r.hdr.pixels, r.ldr.pixels, r.mask):
                h.update(arr.tobytes())
        unit.digest = h.hexdigest()
        unit.quality = len(records) / (len(chosen) * self.PER_IMAGE)
        return unit


def _shard_mismatches(written, read):
    if len(written) != len(read):
        return [f"shard holds {len(read)} records, {len(written)} written"]
    problems = []
    for i, (a, b) in enumerate(zip(written, read)):
        same = (a.image_id, tuple(a.offset), a.score) == (b.image_id, tuple(b.offset), b.score)
        for x, y in ((a.hdr.pixels, b.hdr.pixels), (a.ldr.pixels, b.ldr.pixels), (a.mask, b.mask)):
            same = same and x.dtype == y.dtype and np.array_equal(x, y)
        if not same:
            problems.append(f"record {i} ({a.image_id}@{a.offset}) differs after the round trip")
    return problems


WORKLOADS = {w.name: w for w in (TrainHdr, Reconstruct512, Curate)}
