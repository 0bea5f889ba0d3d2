"""Command-line interface.

Every command resolves its knobs as defaults < config file < flags, writes
a run manifest (the fully resolved configuration, seed, and paths) next to
its outputs, and exits 0 on success, 1 on usage errors, 2 on runtime
errors. Config files are flat JSON mappings of flag names (without the
leading dashes, dashes may be written as underscores); their values are
parsed and checked exactly like flags.

Each command's knobs are the keys of its ``_*_DEFAULTS`` table, and each
key is both a config key and a flag (``base_channels`` is
``--base-channels``). A flag's type is that of its default; a tuple
default lists the allowed choices, which share the first one's type, and
defaults to the first. Only path flags are declared by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import HdrMaskError, ContractError, DomainError
from . import formats
from .losses import FeatureExtractor, LossWeights, total_loss
from .network import (MASKING_MODES, MODE_FEATURE_MASK, UNetConfig, UNetParameters,
                      mask_strips, predict_strips, unet_forward)
from .pipeline import (CURVE_KINDS, DEFAULT_SATURATION_THRESHOLD, CameraCurve, compose_hdr,
                       exposure_mask, simulate_ldr)
from .sampler import (SamplerConfig, generate_inpainting_mask, sample_corpus,
                      sample_patches)
from .synthetic import make_hdr_corpus, make_texture_corpus
from .tensor import check_gradients
from .training import (TrainConfig, evaluate, finetune_hdr, initialize_parameters,
                       load_model, loss_drop, run_ablation, save_model,
                       train_inpainting)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text):
    """A ``seed`` knob's flag type: numpy's generators take no negative seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed wants an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _utc_now():
    return datetime.now(timezone.utc).isoformat()


def _config_tokens(path, defaults):
    """The knobs a JSON config file sets, as ``--key=value`` flag tokens.

    Parsing them as flags gives file values the same types and choices as
    flags. The ``=`` form keeps a value that starts with ``-`` from being
    read as a flag, and a ``null`` value leaves the knob at its default.
    Keys that are not knobs of the command are ignored.
    """
    try:
        with open(path) as fh:
            file_conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ContractError(f"cannot read config file {path}: {exc}") from exc
    # A run manifest is itself a valid config: re-running from one
    # reproduces the original resolved configuration.
    if isinstance(file_conf, dict) and "resolved_config" in file_conf:
        file_conf = file_conf["resolved_config"]
    if not isinstance(file_conf, dict):
        raise ContractError(f"config file {path} is not a JSON object")
    tokens = []
    for key, value in file_conf.items():
        key = key.replace("-", "_")
        if key in defaults and value is not None:
            tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _write_manifest(out_dir, command, resolved, inputs, outputs):
    manifest = {
        "command": command,
        "resolved_config": resolved,
        "seed": resolved.get("seed"),
        "build": f"hdrmask {__version__}",
        "inputs": inputs,
        "outputs": outputs,
        "timestamp_utc": _utc_now(),
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{command.replace('-', '_')}_manifest.json")
    with formats._replacing(path, "w") as fh:
        json.dump(manifest, fh, indent=1, default=str)
    return path


def _unet_config(resolved):
    return UNetConfig(levels=resolved["levels"], base_channels=resolved["base_channels"],
                      mode=resolved.get("mode") or MODE_FEATURE_MASK)


# The most memory `mask` or `reconstruct` may plan to use, checked against
# each photo's extent before its payload is read. A fixed figure, not the
# machine's free memory, so a photo is refused or run alike everywhere;
# sized for a machine with 8 GB.
MEMORY_BUDGET = 4 << 30


def _photo_source(command, photo, config, alpha):
    """An open photo as the U-Net's (N,C,H,W) shape and row source, once the
    strip walk of ``command`` is known to fit MEMORY_BUDGET.

    The estimate, from the header alone, is the walk's measured tracemalloc
    peak over the padded extent: the 4-byte-a-pixel table of saturated
    pixels and strips of every layer, 0.62-0.99 KB a column per base channel
    from 4096 columns on (narrower photos take under 35 MB), for ``mask`` as
    for ``reconstruct``, which both write each strip as it finishes. The
    payload is checked next. ``source(a, b)`` returns rows ``[a, b)`` of the
    photo, reflect-padded on the bottom and right to the downsample factor,
    and of its exposure mask at ``alpha``.
    """
    h, w, factor = photo.height, photo.width, config.downsample_factor
    hp, wp = -(-h // factor) * factor, -(-w // factor) * factor
    need = 4 * (hp + 1) * (wp + 1) + 1024 * config.base_channels * wp
    if need > MEMORY_BUDGET:
        raise ContractError(f"{command} of a {w}x{h} photo would need about "
                            f"{need / 2 ** 30:.1f} GiB, past the memory budget of "
                            f"{MEMORY_BUDGET / 2 ** 30:g} GiB")
    photo.check_payload()
    rows, cols = (np.pad(np.arange(n), (0, -n % factor), mode="reflect") for n in (h, w))

    def source(a, b):
        band = rows[a:b]
        lo = int(band.min())
        ldr = photo.rows(lo, int(band.max()) + 1)[:, band - lo][:, :, cols]
        return ldr[None], exposure_mask(ldr, alpha)[None]

    return source, (1, 3, len(rows), len(cols))


def _load_hdr_dir(path):
    names = sorted(f for f in os.listdir(path)
                   if f.lower().endswith((".pfm", ".hdr")))
    if not names:
        raise ContractError(f"no .pfm/.hdr files in {path}")
    return [(name, formats.read_hdr(os.path.join(path, name))) for name in names]


def _load_texture_dir(path):
    names = sorted(f for f in os.listdir(path) if f.lower().endswith(".ppm"))
    if not names:
        raise ContractError(f"no .ppm files in {path}")
    return [formats.read_ldr(os.path.join(path, name)).pixels for name in names]


# -- subcommand implementations ------------------------------------------------


_SIMULATE_DEFAULTS = {"percentile": 93.0, "bits": 8, "curve": CURVE_KINDS,
                      "gamma": 2.0, "alpha": DEFAULT_SATURATION_THRESHOLD}


def cmd_simulate_ldr(args, resolved):
    hdr = formats.read_hdr(args.input)
    curve = CameraCurve(kind=resolved["curve"], gamma=resolved["gamma"])
    ldr = simulate_ldr(hdr, resolved["percentile"], curve, resolved["bits"])
    formats.write_ldr(args.output, ldr)
    mask = exposure_mask(ldr.pixels, resolved["alpha"])
    mask_path = args.output + ".mask.pgm"
    formats.write_gray8(mask_path, mask.min(axis=0))
    out_dir = os.path.dirname(os.path.abspath(args.output))
    _write_manifest(out_dir, "simulate-ldr", resolved,
                    {"hdr": args.input}, {"ldr": args.output, "mask": mask_path})
    return 0


_MASK_DEFAULTS = {"alpha": DEFAULT_SATURATION_THRESHOLD, "levels": 4, "base_channels": 16,
                  "seed": 0}


def cmd_mask(args, resolved):
    """Write channel 0 of each layer's mask, round(255 * v), as a PGM cropped to
    the ceil(H / 2**level) x ceil(W / 2**level) that covers the photo, each
    band of rows as the strip walk ``reconstruct`` predicts with finishes it."""
    with formats.LdrReader(args.input) as photo, contextlib.ExitStack() as files:
        params = load_model(args.checkpoint).params if args.checkpoint else None
        config = params.config if params else _unet_config(resolved)
        source, shape = _photo_source("mask", photo, config, resolved["alpha"])
        params = params or initialize_parameters(config, resolved["seed"])
        # The manifest records the model whose masks these are.
        resolved = {**resolved, "levels": config.levels, "base_channels": config.base_channels}
        os.makedirs(args.out_dir, exist_ok=True)
        h, w, pgms, outputs = photo.height, photo.width, {}, {}
        for layer, row, m in mask_strips(source, shape, params):
            # The layer's width over the padded photo's is 2**-level.
            rows, cols = (-(-n * m.shape[1] // shape[3]) for n in (h, w))
            if layer not in pgms:
                path = outputs[f"{layer}/c0"] = os.path.join(args.out_dir, f"mask_{layer}_c0.pgm")
                pgms[layer] = files.enter_context(formats.pgm_strip_writer(path, rows, cols))
            pgms[layer](m[:max(rows - row, 0), :cols])
    _write_manifest(args.out_dir, "mask", resolved, {"ldr": args.input}, outputs)
    return 0


_SAMPLE_DEFAULTS = {"patch": 64, "per_image": 32, "threshold": 0.85,
                    "alpha": DEFAULT_SATURATION_THRESHOLD, "sigma_color": 100.0,
                    "sigma_space": 10.0, "percentile": None, "seed": 0}


def cmd_sample_patches(args, resolved):
    images = _load_hdr_dir(args.in_dir)
    cfg = SamplerConfig(
        color_sigma=resolved["sigma_color"], space_sigma=resolved["sigma_space"],
        metric_threshold=resolved["threshold"], patch_size=resolved["patch"],
        patches_per_image=resolved["per_image"], alpha=resolved["alpha"],
        fixed_percentile=resolved["percentile"])
    records = sample_corpus(images, cfg, resolved["seed"])
    if not records:
        raise ContractError("no patches passed the sampler; relax the threshold "
                            "or check the input exposure")
    formats.write_dataset_shard(args.output, records, alpha=resolved["alpha"])
    out_dir = os.path.dirname(os.path.abspath(args.output))
    _write_manifest(out_dir, "sample-patches", resolved,
                    {"hdr_dir": args.in_dir, "images": len(images)},
                    {"shard": args.output, "records": len(records)})
    print(f"kept {len(records)} patches from {len(images)} images")
    return 0


_GENMASK_DEFAULTS = {"count": 8, "height": 64, "width": 64, "seed": 0,
                     "min_coverage": 0.05, "max_coverage": 0.45}


def cmd_gen_inpaint_masks(args, resolved):
    os.makedirs(args.out_dir, exist_ok=True)
    outputs = {}
    for i in range(resolved["count"]):
        mask = generate_inpainting_mask(
            (resolved["height"], resolved["width"]),
            seed=resolved["seed"] + i,
            coverage=(resolved["min_coverage"], resolved["max_coverage"]))
        path = os.path.join(args.out_dir, f"mask_{i:04d}.pgm")
        formats.write_gray8(path, mask)
        outputs[str(i)] = path
    _write_manifest(args.out_dir, "gen-inpaint-masks", resolved, {}, outputs)
    return 0


_FINETUNE_DEFAULTS = {"steps": 500, "batch": 4, "lr": 2e-4, "seed": 0,
                      "mode": MASKING_MODES, "levels": 4, "base_channels": 16,
                      "patience": 3, "factor": 2.0, "steps_per_epoch": 50}
_INPAINT_DEFAULTS = {**_FINETUNE_DEFAULTS, "procedural": 0}


def _train_config(resolved):
    return TrainConfig(lr=resolved["lr"], batch_size=resolved["batch"],
                       plateau_patience=resolved["patience"],
                       plateau_factor=resolved["factor"],
                       max_steps=resolved["steps"], seed=resolved["seed"],
                       steps_per_epoch=resolved["steps_per_epoch"])


def _write_run(out_dir, command, prefix, resolved, result, extractor, inputs,
               extra_outputs=None):
    """Write a training stage's ``<prefix>_best.ckpt``, ``<prefix>_final.ckpt``
    (with the Adam state), ``<prefix>_runlog.jsonl`` and manifest."""
    os.makedirs(out_dir, exist_ok=True)
    best = os.path.join(out_dir, f"{prefix}_best.ckpt")
    final = os.path.join(out_dir, f"{prefix}_final.ckpt")
    log_path = os.path.join(out_dir, f"{prefix}_runlog.jsonl")
    save_model(best, result.best_params, extractor=extractor)
    save_model(final, result.params, adam_state=result.adam_state, extractor=extractor)
    result.run_log.to_jsonl(log_path)
    _write_manifest(out_dir, command, resolved, inputs,
                    {"best": best, "final": final, "runlog": log_path,
                     "best_val": result.best_val, **(extra_outputs or {})})


def cmd_train_inpaint(args, resolved):
    if args.texture_dir:
        images = _load_texture_dir(args.texture_dir)
    elif resolved["procedural"]:
        images = make_texture_corpus(resolved["procedural"], seed=resolved["seed"])
    else:
        raise UsageError("train-inpaint needs --texture-dir or --procedural N")
    extractor = FeatureExtractor()
    result = train_inpainting(images, _train_config(resolved), _unet_config(resolved),
                              extractor)
    drop = loss_drop(result.run_log)
    _write_run(args.out_dir, "train-inpaint", "inpaint", resolved, result, extractor,
               {"images": len(images)}, {"loss_drop": drop})
    print(f"best validation loss {result.best_val:.5f}; loss drop {drop:.3f}")
    return 0


def cmd_finetune_hdr(args, resolved):
    records = formats.read_dataset_shard(args.shard)
    init_params = None
    extractor = None
    if args.init:
        model = load_model(args.init)
        # The checkpoint fixes the shape and, unless --mode is given, the
        # masking the model trains with.
        config = replace(model.params.config, mode=resolved["mode"] or model.params.config.mode)
        init_params, extractor = replace(model.params, config=config), model.extractor
    else:
        config = _unet_config(resolved)
    # The manifest records the model trained.
    resolved = {**resolved, "levels": config.levels,
                "base_channels": config.base_channels, "mode": config.mode}
    extractor = extractor or FeatureExtractor()
    result = finetune_hdr(records, _train_config(resolved), config, extractor,
                          init_params=init_params)
    _write_run(args.out_dir, "finetune-hdr", "hdr", resolved, result, extractor,
               {"shard": args.shard, "records": len(records), "init": args.init})
    print(f"best validation masked mse {result.best_val:.6f}")
    return 0


_RECON_DEFAULTS = {"alpha": DEFAULT_SATURATION_THRESHOLD, "gamma": 2.0}


def cmd_reconstruct(args, resolved):
    """Read, mask, predict, compose and write the photo a strip of rows at a time.

    No array of the photo's area exists but FMask's table of saturated
    pixels (``network.predict_strips``); the PFM appears only once every
    strip is written.
    """
    curve = CameraCurve(gamma=resolved["gamma"])  # checks the knob before any work
    alpha = resolved["alpha"]
    with formats.LdrReader(args.input) as photo:
        params = load_model(args.checkpoint).params
        h, w = photo.height, photo.width
        strips = predict_strips(*_photo_source("reconstruct", photo, params.config, alpha), params)
        with formats.pfm_strip_writer(args.output, 3, h, w) as write:
            for a, y in strips:
                ldr = photo.rows(a, min(a + y.shape[2], h))
                hdr = compose_hdr(ldr, exposure_mask(ldr, alpha), y[0, :, :ldr.shape[1], :w],
                                  gamma=curve.gamma, row=a)
                write(a, hdr.pixels)
    out_dir = os.path.dirname(os.path.abspath(args.output))
    _write_manifest(out_dir, "reconstruct", resolved,
                    {"ldr": args.input, "checkpoint": args.checkpoint},
                    {"hdr": args.output})
    return 0


_EVAL_DEFAULTS = {"bins": 10, "dump_images": (0, 1)}


def cmd_eval(args, resolved):
    """Score a checkpoint on the records of a shard (``sample-patches`` makes one)."""
    model = load_model(args.checkpoint)
    records = formats.read_dataset_shard(args.shard)

    def dump(i, reconstruction):
        os.makedirs(args.out_dir, exist_ok=True)
        formats.write_pfm(os.path.join(args.out_dir, f"recon_{i:04d}.pfm"), reconstruction)

    report = evaluate(records, model.params, bins=resolved["bins"],
                      on_record=dump if resolved["dump_images"] else None)
    os.makedirs(args.out_dir, exist_ok=True)
    table_path = os.path.join(args.out_dir, "metrics.tsv")
    with formats._replacing(table_path, "w") as fh:
        fh.write(report.to_text())
    outputs = {"metrics": table_path, "records": len(records)}
    if resolved["dump_images"]:
        outputs["reconstructions"] = len(report.per_record)
    _write_manifest(args.out_dir, "eval", resolved, {"shard": args.shard}, outputs)
    print(report.to_text(), end="")
    return 0


_ABLATE_DEFAULTS = {"seeds": "0,1,2", "pretrain_steps": 240, "finetune_steps": 240,
                    "textures": 32, "train_scenes": 14, "test_scenes": 8,
                    "patch": 64, "per_image": 8, "threshold": 0.85,
                    "batch": 4, "steps_per_epoch": 40}


def cmd_ablate(args, resolved):
    try:
        seeds = tuple(_seed(s) for s in resolved["seeds"].split(","))
    except argparse.ArgumentTypeError:
        raise UsageError(f"--seeds wants comma-separated non-negative integers, "
                         f"got {resolved['seeds']!r}") from None
    scfg = SamplerConfig(patch_size=resolved["patch"],
                         patches_per_image=resolved["per_image"],
                         metric_threshold=resolved["threshold"])
    if args.texture_dir:
        textures = _load_texture_dir(args.texture_dir)
    else:
        textures = make_texture_corpus(resolved["textures"], seed=11)
    if args.hdr_dir:
        scenes = _load_hdr_dir(args.hdr_dir)
        split = max(1, len(scenes) * 2 // 3)
        train_scenes, test_scenes = scenes[:split], scenes[split:]
    else:
        train_scenes = [(f"train{i}", s) for i, s in enumerate(
            make_hdr_corpus(resolved["train_scenes"], seed=21, size=(96, 96)))]
        test_scenes = [(f"test{i}", s) for i, s in enumerate(
            make_hdr_corpus(resolved["test_scenes"], seed=77, size=(96, 96)))]
    train_records = sample_corpus(train_scenes, scfg, 100)
    test_records = sample_corpus(test_scenes, scfg, 900)
    if not train_records or not test_records:
        raise ContractError("ablation corpora produced no records")
    base = TrainConfig(batch_size=resolved["batch"],
                       steps_per_epoch=resolved["steps_per_epoch"],
                       max_val_items=8)
    results = run_ablation(textures, train_records, test_records, seeds,
                           pretrain_steps=resolved["pretrain_steps"],
                           finetune_steps=resolved["finetune_steps"],
                           base_config=base)
    os.makedirs(args.out_dir, exist_ok=True)
    table_path = os.path.join(args.out_dir, "ablation.tsv")
    with formats._replacing(table_path, "w") as fh:
        fh.write("mode\tpretrain\tseed\ttest_masked_mse\n")
        for (mode, pre, seed), res in sorted(results.items()):
            fh.write(f"{mode}\t{pre}\t{seed}\t{res['test_masked_mse']:.6f}\n")
    _write_manifest(args.out_dir, "ablate", resolved,
                    {"train_records": len(train_records),
                     "test_records": len(test_records)},
                    {"table": table_path})
    with open(table_path) as fh:
        print(fh.read(), end="")
    return 0


_GRADCHECK_DEFAULTS = {"seed": 7, "epsilon": 1e-4, "threshold": 1e-3}


def cmd_gradcheck(args, resolved):
    if not 0 < resolved["threshold"] < np.inf:
        raise DomainError(f"threshold must be positive and finite, got {resolved['threshold']}")
    seed = resolved["seed"]
    rng = np.random.default_rng(seed)
    config = UNetConfig(levels=2, base_channels=4)
    arrays64 = {k: v.astype(np.float64) for k, v in
                initialize_parameters(config, seed).named_arrays().items()}
    params = UNetParameters.from_arrays(config, arrays64)
    extractor = FeatureExtractor(channels=(4, 8), seed=seed)
    x = rng.random((1, 3, 8, 8))
    mask = exposure_mask(x, 0.9)
    hdr = rng.random((1, 3, 8, 8)) * 4.0
    inputs = list(params.tensors.values())
    _, stack = unet_forward(x, mask, params)
    frozen = dict(stack)

    def loss_fn(*tensors):
        y, _ = unet_forward(x, mask, params, frozen_masks=frozen)
        return total_loss(y, hdr, mask, extractor, LossWeights()).node

    err = check_gradients(loss_fn, inputs, epsilon=resolved["epsilon"],
                          max_coords=4, rng=np.random.default_rng(seed + 1))
    print(f"max relative gradient error: {err:.3e} (threshold {resolved['threshold']:g})")
    if not err < resolved["threshold"]:
        raise DomainError(f"gradient check failed: {err:.3e} >= {resolved['threshold']:g}")
    return 0


def cmd_formats(args, resolved):
    rng = np.random.default_rng(0)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        img = (rng.random((3, 6, 5)) * 50).astype(np.float32)
        p = os.path.join(tmp, "t.pfm")
        formats.write_pfm(p, img)
        if not np.array_equal(formats.read_pfm(p), img):
            failures.append("pfm round trip")
        ldr = (rng.integers(0, 256, size=(3, 4, 4)) / 255).astype(np.float32)
        q = os.path.join(tmp, "t.ppm")
        formats.write_ldr(q, ldr)
        if not np.array_equal(formats.read_ldr(q).pixels, ldr):
            failures.append("ppm round trip")
        arrays = {"enc0.weight": rng.normal(size=(2, 3, 3, 3)).astype(np.float32),
                  "enc0.bias": np.zeros(2, dtype=np.float32)}
        c = os.path.join(tmp, "t.ckpt")
        formats.save_checkpoint(c, arrays)
        loaded = formats.load_checkpoint(c)
        if not all(np.array_equal(loaded[k], v) for k, v in arrays.items()):
            failures.append("checkpoint round trip")
        scene = make_hdr_corpus(1, seed=5, size=(96, 96))[0]
        records = sample_patches(scene, SamplerConfig(
            patch_size=32, patches_per_image=8, metric_threshold=0.0), seed=1,
            image_id="self-test")
        if records:
            s = os.path.join(tmp, "t.mds")
            formats.write_dataset_shard(s, records)
            back = formats.read_dataset_shard(s)
            if len(back) != len(records):
                failures.append("shard round trip")
        else:
            failures.append("shard self-test produced no records")
    if failures:
        raise ContractError("format self-test failed: " + ", ".join(failures))
    print("all format round trips passed")
    return 0


# -- parser wiring ---------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="hdrmask", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hdrmask {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add(name, func, defaults, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, defaults=defaults)
        p.add_argument("--config", help="JSON config file (defaults < file < flags)")
        for key, value in defaults.items():
            # A None default (sample-patches' percentile) means "unset" for a float.
            choices = value if isinstance(value, tuple) else None
            default = choices[0] if choices else value
            kind = {"type": float if default is None else type(default), "default": default,
                    "choices": choices}
            if key == "seed":
                kind["type"] = _seed
            p.add_argument("--" + key.replace("_", "-"), dest=key, **kind)
        return p

    p = add("simulate-ldr", cmd_simulate_ldr, _SIMULATE_DEFAULTS, "expose an HDR image to LDR")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = add("mask", cmd_mask, _MASK_DEFAULTS, "exposure mask and per-layer mask dumps")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint")

    p = add("sample-patches", cmd_sample_patches, _SAMPLE_DEFAULTS, "build a training shard")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = add("gen-inpaint-masks", cmd_gen_inpaint_masks, _GENMASK_DEFAULTS,
            "hole masks for pre-training")
    p.add_argument("--out-dir", required=True)

    p = add("train-inpaint", cmd_train_inpaint, _INPAINT_DEFAULTS, "train inpaint stage")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--texture-dir")

    p = add("finetune-hdr", cmd_finetune_hdr, _FINETUNE_DEFAULTS, "finetune hdr stage")
    # Unset, --mode means FMask, or with --init the checkpoint's mode.
    p.set_defaults(mode=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--shard", required=True)
    p.add_argument("--init", help="checkpoint to fine-tune from")

    p = add("reconstruct", cmd_reconstruct, _RECON_DEFAULTS,
            "LDR to HDR with a checkpoint (its masking mode included)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = add("eval", cmd_eval, _EVAL_DEFAULTS, "metrics table binned by saturation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--shard", required=True)

    p = add("ablate", cmd_ablate, _ABLATE_DEFAULTS, "masking/pre-training matrix")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--texture-dir")
    p.add_argument("--hdr-dir")

    add("gradcheck", cmd_gradcheck, _GRADCHECK_DEFAULTS, "finite-difference gradient audit")
    add("formats", cmd_formats, {}, "file format round-trip self-test")
    return parser


def dispatch(argv):
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        if args.config:
            # File knobs go before the explicit flags, so the flags win. The
            # flags parsed once already, so an error now is the file's.
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, args.defaults)
            try:
                args = parser.parse_args(argv[:at] + tokens + argv[at:])
            except UsageError as exc:
                raise UsageError(f"config file {args.config}: {exc}") from None
        resolved = {key: getattr(args, key) for key in args.defaults}
        return args.func(args, resolved) or 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except HdrMaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
