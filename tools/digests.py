"""Print one SHA-256 line per artifact whose bits the numerics decide.

Run it in two checkouts and diff the outputs to check that a change keeps
every output bit:

    python3 tools/digests.py > digests.txt

It imports the checkout's own ``src/hdrmask`` and pins BLAS to one thread
before numpy loads, as the benchmark does. The lines are:

* the benchmark's own ``Unit.digest`` (``perfbench/workloads.py``):
  ``train-hdr`` at seeds 1 and 5, the three ``reconstruct-512`` photos at
  seed 3 and the two ``curate`` units at seed 1;
* the entry names and arrays of ``initialize_parameters`` at seed 3 for the
  default shape in each masking mode, and the bytes of the checkpoint
  ``save_model`` writes of them;
* the PGMs ``hdrmask mask`` writes for FMask, IMask and SConv checkpoints
  from a 64x64 photo, and from a 509x203 photo, which pads to 512x208 and
  runs as four strips, the last with reflected rows;
* the PFM ``hdrmask reconstruct`` writes for the FMask and IMask checkpoints
  from that 509x203 photo;
* the ``metrics.tsv`` and the ``--dump-images 1`` PFMs ``hdrmask eval``
  writes for each of those checkpoints on a default-alpha shard (16 crops
  of two synthetic scenes), the bytes of that shard, and the ``repr`` of
  ``validation_mse`` on the shard's records;
* the PPM and mask PGM ``hdrmask simulate-ldr`` writes from a 64x64 PFM
  scene, and the PGMs ``hdrmask gen-inpaint-masks`` writes;
* ``unet_forward``'s output, mask stack and parameter gradients in each
  masking mode (a 2x3x64x64 float32 batch);
* ``predict`` of the default FMask model at seed 3 on a 2x3x600x64 float32
  batch of two exposed scenes: three strips of 256, 256 and 88 rows, so
  every layer's rows land in its row buffers with two images;
* the ``sample_corpus`` records (offsets, scores, LDR and mask bytes) of
  three synthetic scenes in float32 and float64, at alphas 0.3, 0.5 and the
  default, every crop with saturated support kept (threshold 0);
* the run-log losses, ``best_val`` and parameters of a 4-step
  ``train_inpainting`` (levels 2, base 4, four synthetic textures, two
  steps per epoch);
* the values and input gradients of ``inpainting_loss`` and ``total_loss``
  on a fixed 2x3x16x16 float64 batch;
* ``bilateral_filter`` (the Gaussian blur of the texture score's base
  layer) of a 37x29 float32 log-luminance crop at the default space sigma,
  and the ``simulate_ldr`` pixels of a 64x64 scene through the sigmoid
  curve, unquantized: a crop extent and a path the ``curate`` units do not
  reach.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402  (after the thread pinning)

from hdrmask import cli, formats, losses, network, synthetic, tensor as T, training  # noqa: E402
from hdrmask.pipeline import (DEFAULT_SATURATION_THRESHOLD, CameraCurve, rgb_to_gray,  # noqa: E402
                              simulate_ldr)
from hdrmask.sampler import (SamplerConfig, bilateral_filter, generate_inpainting_mask,  # noqa: E402
                             sample_corpus)
from workloads import WORKLOADS  # noqa: E402

UNITS = (("train-hdr", 1, 1), ("train-hdr", 5, 1), ("reconstruct-512", 3, 3), ("curate", 1, 2))


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def files(directory, suffix):
    """The names and bytes of the files in ``directory`` ending in ``suffix``."""
    names = sorted(f for f in os.listdir(directory) if f.endswith(suffix))
    return names, [np.fromfile(os.path.join(directory, f), dtype=np.uint8) for f in names]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed, units in UNITS:
            workload = WORKLOADS[name]()
            state = workload.setup(seed, tmp)
            for k in range(units):
                print(f"unit {name} seed {seed} k {k} {workload.run_unit(state, k, []).digest}")
        photo = os.path.join(tmp, "photo.ppm")
        scene = synthetic.make_hdr_corpus(1, seed=9, size=(64, 64))[0]
        formats.write_ldr(photo, simulate_ldr(scene))
        tall = os.path.join(tmp, "tall.ppm")
        formats.write_ldr(tall, simulate_ldr(synthetic.make_hdr_corpus(1, seed=9, size=(203, 509))[0]))
        ldr = formats.read_ldr(photo).pixels
        x = np.stack([ldr, ldr[:, ::-1]])
        m = network.exposure_mask(x)
        probe = np.random.default_rng(0).normal(size=x.shape).astype(np.float32)
        shard = os.path.join(tmp, "eval.mds")
        scenes = synthetic.make_hdr_corpus(2, seed=9)
        formats.write_dataset_shard(shard, sample_corpus(
            [(f"scene{i}", s) for i, s in enumerate(scenes)],
            SamplerConfig(patches_per_image=8, metric_threshold=0.0)))
        print(f"shard eval.mds {sha(np.fromfile(shard, dtype=np.uint8))}")
        records = formats.read_dataset_shard(shard)
        scene_pfm, ppm = os.path.join(tmp, "scene.pfm"), os.path.join(tmp, "scene.ppm")
        formats.write_pfm(scene_pfm, scene.pixels)
        rc = cli.dispatch(["simulate-ldr", "--in", scene_pfm, "--out", ppm])
        print(f"simulate-ldr exit {rc} ppm {sha(np.fromfile(ppm, dtype=np.uint8))} "
              f"pgm {sha(np.fromfile(ppm + '.mask.pgm', dtype=np.uint8))}")
        holes = os.path.join(tmp, "holes")
        rc = cli.dispatch(["gen-inpaint-masks", "--out-dir", holes, "--count", "3", "--seed", "4"])
        pgms, blobs = files(holes, ".pgm")
        print(f"gen-inpaint-masks exit {rc} {len(pgms)} pgms {sha(*blobs)}")
        for mode in network.MASKING_MODES:
            params = training.initialize_parameters(network.UNetConfig(mode=mode), seed=3)
            arrays = params.named_arrays()
            print(f"init {mode} {sha(np.array(list(arrays)), *arrays.values())}")
            checkpoint, out_dir = os.path.join(tmp, f"{mode}.ckpt"), os.path.join(tmp, mode)
            training.save_model(checkpoint, params)
            print(f"checkpoint {mode} {sha(np.fromfile(checkpoint, dtype=np.uint8))}")
            for label, ppm in (("", photo), (" 509x203", tall)):
                masks = out_dir + label.replace(" ", "-")
                rc = cli.dispatch(["mask", "--in", ppm, "--out-dir", masks,
                                   "--checkpoint", checkpoint])
                pgms, blobs = files(masks, ".pgm")
                print(f"mask {mode}{label} exit {rc} {len(pgms)} pgms {sha(*blobs)}")
            if mode != network.MODE_STANDARD_CONV:
                pfm = os.path.join(tmp, f"{mode}.pfm")
                rc = cli.dispatch(["reconstruct", "--in", tall, "--checkpoint", checkpoint,
                                   "--out", pfm])
                print(f"reconstruct {mode} 509x203 exit {rc} {sha(np.fromfile(pfm, dtype=np.uint8))}")
            eval_dir = os.path.join(tmp, f"eval-{mode}")
            with contextlib.redirect_stdout(io.StringIO()):  # the table it prints
                rc = cli.dispatch(["eval", "--checkpoint", checkpoint, "--shard", shard,
                                   "--out-dir", eval_dir, "--dump-images", "1"])
            table = np.fromfile(os.path.join(eval_dir, "metrics.tsv"), dtype=np.uint8)
            print(f"eval {mode} exit {rc} {sha(table)}")
            pfms, blobs = files(eval_dir, ".pfm")
            print(f"eval {mode} dump {len(pfms)} pfms {sha(*blobs)}")
            print(f"validation {mode} {training.validation_mse(records, params)!r}")
            y, stack = network.unet_forward(x, m, params)
            tensors = params.tensors
            T.backward(T.tsum(y * T.constant(probe)), parameters=list(tensors.values()))
            print(f"forward {mode} output {sha(y.data)}")
            print(f"forward {mode} masks {sha(*(a for _, a in stack))}")
            print(f"forward {mode} gradients {sha(*(t.grad for t in tensors.values()))}")
    batch = np.stack([simulate_ldr(s).pixels for s in synthetic.make_hdr_corpus(
        2, seed=11, size=(600, 64))])
    params = training.initialize_parameters(network.UNetConfig(), seed=3)
    y = network.predict(batch, network.exposure_mask(batch), params)
    print(f"predict FMask 2x3x600x64 {sha(y)}")
    scenes = synthetic.make_hdr_corpus(3, seed=5)
    for dtype in (np.float32, np.float64):
        named = [(f"scene{i}", s.pixels.astype(dtype)) for i, s in enumerate(scenes)]
        for alpha in (0.3, 0.5, DEFAULT_SATURATION_THRESHOLD):
            records = sample_corpus(named, SamplerConfig(
                patch_size=32, patches_per_image=12, metric_threshold=0.0, alpha=alpha))
            digest = sha(np.array([r.offset for r in records]),
                         np.array([r.score for r in records]),
                         *(a for r in records for a in (r.ldr.pixels, r.mask)))
            print(f"sample {np.dtype(dtype).name} alpha {alpha} {len(records)} records {digest}")
    result = training.train_inpainting(
        synthetic.make_texture_corpus(4, seed=2),
        training.TrainConfig(max_steps=4, steps_per_epoch=2),
        network.UNetConfig(levels=2, base_channels=4))
    steps = [s["losses"] for s in result.run_log.steps]
    print(f"inpainting {len(steps)} steps best_val {result.best_val!r} "
          f"{sha(np.array([[s[k] for k in sorted(s)] for s in steps]))} "
          f"params {sha(*result.params.named_arrays().values())}")
    rng = np.random.default_rng(11)
    truth, y, hdr, soft = (rng.random((2, 3, 16, 16)) for _ in range(4))
    holes = np.stack([generate_inpainting_mask((3, 16, 16), seed=s) for s in (1, 2)])
    extractor = losses.FeatureExtractor()
    for name, loss, target, mask in (("inpainting", losses.inpainting_loss, truth, holes),
                                     ("total", losses.total_loss, hdr * 4.0, soft)):
        t = T.parameter(y)
        report = loss(t, target, mask, extractor)
        T.backward(report.node, [t])
        print(f"loss {name} {report.total!r} {sorted(report.components.items())!r} "
              f"gradient {sha(t.grad)}")
    scene = synthetic.make_hdr_corpus(1, seed=13, size=(64, 64))[0]
    crop = np.log1p(rgb_to_gray(scene.pixels[:, 5:42, 11:40]))
    print(f"bilateral 37x29 blur {sha(bilateral_filter(crop, 10.0))}")
    ldr = simulate_ldr(scene, curve=CameraCurve(kind="sigmoid"), quantize_bits=0)
    print(f"simulate_ldr sigmoid unquantized {sha(ldr.pixels)}")


if __name__ == "__main__":
    main()
