"""Two-stage optimization: inpainting pre-training, then HDR fine-tuning.

Each step derives its batch selection and mask randomness from
(seed, stage, absolute step index), so a run resumed from a checkpoint
replays the exact same stream and reproduces the next step bit for bit.
One worker owns the parameters; validation runs between steps on a
held-out split keyed by source image.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import formats
from . import tensor as T
from .errors import ContractError, DomainError, NumericError
from .losses import (FeatureExtractor, InpaintingLossWeights, LossWeights,
                     inpainting_loss, total_loss)
from .network import (MASKING_MODES, UNetConfig, UNetParameters, param_shapes, predict,
                      unet_forward)
from .pipeline import compose_hdr, mse_gamma_scores
from .sampler import SamplerConfig, generate_inpainting_mask, sample_corpus
from .synthetic import make_hdr_corpus
from .tensor import AdamState

STAGE_INPAINTING = "inpainting"
STAGE_HDR = "hdr_finetune"

_STAGE_TAG = {STAGE_INPAINTING: 1, STAGE_HDR: 2}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-4
    batch_size: int = 4
    plateau_patience: int = 3
    plateau_factor: float = 2.0
    max_steps: int = 500
    seed: int = 0
    steps_per_epoch: int = 50
    max_val_items: int = 16

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise DomainError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise DomainError("batch size must be >= 1")
        if self.max_steps < 0:
            raise DomainError("max steps must be >= 0")
        if self.steps_per_epoch < 1:
            raise DomainError("steps per epoch must be >= 1")
        if not 1 < self.plateau_factor < math.inf:
            raise DomainError(f"plateau factor must be finite and > 1, got {self.plateau_factor}")
        if self.max_val_items < 1:
            raise DomainError(f"max val items must be >= 1, got {self.max_val_items}")


@dataclass
class RunLog:
    """Structured trace of one optimization run."""

    steps: list = field(default_factory=list)        # dicts: step, stage, losses, lr
    validations: list = field(default_factory=list)  # dicts: epoch, step, value
    lr_history: list = field(default_factory=list)
    wall_clock: float = 0.0

    def log_step(self, step, stage, losses, lr):
        if self.steps and step <= self.steps[-1]["step"]:
            raise ContractError("step indices must increase")
        self.steps.append({"step": step, "stage": stage, "losses": losses, "lr": lr})
        if not self.lr_history or self.lr_history[-1] != lr:
            if self.lr_history and lr > self.lr_history[-1]:
                raise ContractError("lr history must be non-increasing")
            self.lr_history.append(lr)

    def log_validation(self, epoch, step, value):
        self.validations.append({"epoch": epoch, "step": step, "value": value})

    def to_jsonl(self, path):
        with formats._replacing(path, "w") as fh:
            for rec in self.steps:
                fh.write(json.dumps({"type": "step", **rec}) + "\n")
            for rec in self.validations:
                fh.write(json.dumps({"type": "val", **rec}) + "\n")
            fh.write(json.dumps({"type": "summary", "lr_history": self.lr_history,
                                 "wall_clock": self.wall_clock}) + "\n")

    @classmethod
    def from_jsonl(cls, path):
        log = cls()
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                kind = rec.pop("type")
                if kind == "step":
                    log.steps.append(rec)
                elif kind == "val":
                    log.validations.append(rec)
                else:
                    log.lr_history = rec.get("lr_history", [])
                    log.wall_clock = rec.get("wall_clock", 0.0)
        return log


@dataclass
class TrainResult:
    params: UNetParameters          # parameters at the last step
    best_params: UNetParameters     # parameters at the best validation
    adam_state: AdamState
    run_log: RunLog
    best_val: float


class PlateauScheduler:
    """Cut the learning rate when validation stops improving.

    An epoch counts as stalled when it fails to better the best seen value
    by more than ``IMPROVEMENT_REL`` (the first epoch sets the baseline and
    counts as stalled). After ``patience`` consecutive stalls the rate is
    divided by ``factor``, never below ``FLOOR``.
    """

    IMPROVEMENT_REL = 0.01
    FLOOR = 1e-6

    def __init__(self, lr, patience=3, factor=2.0):
        if patience < 1:
            raise DomainError("patience must be >= 1")
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.best = math.inf
        self.stalled = 0

    def update(self, value):
        if self.best is not math.inf and value < self.best * (1.0 - self.IMPROVEMENT_REL):
            self.best = value
            self.stalled = 0
        else:
            self.best = min(self.best, value)
            self.stalled += 1
        if self.stalled >= self.patience:
            self.lr = max(self.lr / self.factor, self.FLOOR)
            self.stalled = 0
        return self.lr


def initialize_parameters(config, seed=0):
    """Xavier-uniform weights (zero biases), deterministic per seed."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".bias"):
            arrays[name] = np.zeros(shape, dtype=np.float32)
            continue
        co, ci, kh, kw = shape
        bound = math.sqrt(6.0 / (ci * kh * kw + co * kh * kw))
        arrays[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return UNetParameters.from_arrays(config, arrays)


def _step_rng(seed, stage, step, extra=0):
    return np.random.default_rng(np.random.SeedSequence([seed, _STAGE_TAG[stage], step, extra]))


def _split_by_id(items, ids, val_fraction=0.1):
    """``(train, val)``: about ``val_fraction`` of the distinct ids, at least
    one, are held out, and none when there is only one. With k >= 2 ids at
    most k - 1 are held out, so the training split is never empty."""
    unique = sorted(set(ids))
    n_val = max(1, int(round(len(unique) * val_fraction))) if len(unique) > 1 else 0
    val_ids = set(unique[::max(1, len(unique) // n_val)][:n_val]) if n_val else set()
    train = [it for it, i in zip(items, ids) if i not in val_ids]
    val = [it for it, i in zip(items, ids) if i in val_ids]
    return train, val


def _optimize(stage, config, params, adam, batch_fn, val_fn, start_step=0):
    """Shared optimization loop for both stages."""
    run_log = RunLog()
    sched = PlateauScheduler(config.lr, config.plateau_patience, config.plateau_factor)
    params_map = params.tensors
    spe = config.steps_per_epoch
    best_val = math.inf
    best_params = params.copy()
    lr = sched.lr
    t0 = time.monotonic()
    for step in range(start_step + 1, config.max_steps + 1):
        report = batch_fn(step, params)
        # Checked before the update so a diverged step leaves params and
        # optimizer state untouched.
        if not math.isfinite(report.total):
            raise ContractError(f"non-finite loss at step {step}")
        for t in params_map.values():
            t.zero_grad()
        T.backward(report.node, parameters=params_map.values())
        T.adam_step(params_map, {name: t.grad for name, t in params_map.items()},
                    adam, lr)
        run_log.log_step(step, stage, dict(report.weighted), lr)
        # Free this step's graph before validation and the next forward.
        report = None
        if step % spe == 0 or step == config.max_steps:
            epoch = (step + spe - 1) // spe
            value = val_fn(params)
            run_log.log_validation(epoch, step, value)
            if value < best_val:
                best_val = value
                best_params = params.copy()
            lr = sched.update(value)
    run_log.wall_clock = time.monotonic() - t0
    if not math.isfinite(best_val):
        best_params = params.copy()
    return TrainResult(params, best_params, adam, run_log, best_val)


def _stage_setup(items, ids, what, config, unet_config, extractor, init_params,
                 init_adam):
    """What both stages start from: the extractor, the initial parameters
    and Adam state, and the train/validation split by ``ids``.

    ``unet_config`` only says what to initialise; parameters carry their
    own config, and one given beside them must be theirs.
    """
    if not items:
        raise ContractError(f"{what} dataset is empty")
    if init_params is None:
        init_params = initialize_parameters(unet_config or UNetConfig(), config.seed)
    elif unet_config is not None and unet_config != init_params.config:
        raise ContractError(f"unet_config {unet_config} disagrees with the initial "
                            f"parameters' config {init_params.config}")
    extractor = extractor or FeatureExtractor()
    adam = init_adam if init_adam is not None else AdamState()
    train, val = _split_by_id(items, ids)
    return extractor, init_params, adam, train, val


# -- inpainting pre-training -------------------------------------------------


def train_inpainting(images, config, unet_config=None, extractor=None,
                     init_params=None, init_adam=None, start_step=0):
    """Minimize the inpainting objective on (image * mask -> image) pairs.

    ``images`` is a list of (3,H,W) arrays in [0,1]. Hole masks are binary
    and regenerated per step from the run seed. Checkpoints the best
    validation loss: each held-out image is predicted by
    :func:`~hdrmask.network.predict` under a hole mask fixed per image. With
    one image nothing is held out, and the final parameters count as best.
    """
    images = [np.asarray(im, dtype=np.float32) for im in images]
    extractor, params, adam, train, val = _stage_setup(
        images, range(len(images)), "inpainting", config, unet_config, extractor,
        init_params, init_adam)
    weights = InpaintingLossWeights()

    def batch_fn(step, params):
        rng = _step_rng(config.seed, STAGE_INPAINTING, step)
        idx = rng.integers(0, len(train), size=config.batch_size)
        truth = np.stack([train[i] for i in idx])
        masks = np.stack([
            generate_inpainting_mask(train[i].shape,
                                     seed=int(rng.integers(0, 2 ** 31)))
            for i in idx])
        pred, _ = unet_forward(truth * masks, masks, params)
        return inpainting_loss(pred, truth, masks, extractor, weights)

    def val_fn(params):
        if not val:
            return math.inf
        losses = []
        for j, img in enumerate(val[:config.max_val_items]):
            mask = generate_inpainting_mask(img.shape, seed=int(
                np.random.default_rng(np.random.SeedSequence([config.seed, 99, j])).integers(0, 2 ** 31)))
            pred = T.constant(predict((img * mask)[None], mask[None], params))
            losses.append(inpainting_loss(pred, img[None], mask[None], extractor,
                                          weights).total)
        return float(np.mean(losses))

    return _optimize(STAGE_INPAINTING, config, params, adam, batch_fn, val_fn, start_step)


# -- HDR fine-tuning -----------------------------------------------------------


def finetune_hdr(records, config, unet_config=None, extractor=None,
                 init_params=None, init_adam=None, start_step=0,
                 loss_weights=None):
    """Minimize the HDR objective on sampled patch records.

    Validation tracks display-encoded MSE over saturated content; the best
    validation checkpoint is kept. The split holds out whole source images
    so neighboring patches cannot leak across it.
    """
    records = list(records)
    extractor, params, adam, train, val = _stage_setup(
        records, [r.image_id for r in records], "HDR", config, unet_config, extractor,
        init_params, init_adam)
    weights = loss_weights or LossWeights()

    def batch_fn(step, params):
        rng = _step_rng(config.seed, STAGE_HDR, step)
        idx = rng.integers(0, len(train), size=config.batch_size)
        batch = [train[i] for i in idx]
        x = np.stack([r.ldr.pixels for r in batch]).astype(np.float32)
        m = np.stack([r.mask for r in batch]).astype(np.float32)
        h = np.stack([r.hdr.pixels for r in batch]).astype(np.float32)
        pred, _ = unet_forward(x, m, params)
        return total_loss(pred, h, m, extractor, weights)

    def val_fn(params):
        pool = val if val else train
        return validation_mse(pool[:config.max_val_items], params)

    return _optimize(STAGE_HDR, config, params, adam, batch_fn, val_fn, start_step)


def validation_mse(records, params):
    """The overall masked-region MSE of :func:`evaluate` on ``records``.

    A diverged prediction (a non-finite forward, or exp overflow in the
    composition), a set with no saturated support and an empty set score
    inf rather than aborting the run, so the scheduler and best-checkpoint
    logic see each as a very bad epoch.
    """
    records = list(records)
    if not records:
        return math.inf
    try:
        value = evaluate(records, params, bins=1).rows[-1].mean_masked_mse
    except NumericError:
        return math.inf
    return math.inf if math.isnan(value) else value


# -- evaluation ----------------------------------------------------------------


@dataclass
class EvalRow:
    label: str
    count: int
    mean_mse: float
    mean_masked_mse: float


@dataclass
class EvalReport:
    rows: list
    per_record: list

    def to_text(self):
        lines = ["bin\tcount\tmse_gamma\tmasked_mse_gamma"]
        for row in self.rows:
            lines.append(f"{row.label}\t{row.count}\t{row.mean_mse:.6g}\t{row.mean_masked_mse:.6g}")
        return "\n".join(lines) + "\n"


def evaluate(records, params=None, predictor=None, bins=10, on_record=None):
    """Score reconstructions on a test set, binned by saturation.

    A record's saturation is the percentage of its pixels that its own mask
    marks saturated (any channel below 1), so the bins follow the alpha the
    record was masked at. ``predictor`` overrides the network: a callable
    mapping a PatchRecord to a log-domain prediction array (used for oracle
    checks). The report has one row per bin of equal width plus an
    "overall" row, whose masked score is the validation score
    (:func:`validation_mse`), and keeps each record's scores only.
    ``on_record(i, reconstruction)`` is called with each record's HdrImage
    as it is scored, so a caller that keeps reconstructions (``eval
    --dump-images 1`` writes them) holds none longer than it wants.
    """
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    records = list(records)
    if not records:
        raise ContractError("evaluation set is empty")
    if predictor is None:
        if params is None:
            raise ContractError("evaluate needs params or an explicit predictor")

        def predictor(rec):
            return predict(rec.ldr.pixels[None].astype(np.float32),
                           rec.mask[None].astype(np.float32), params)[0]

    per_record = []
    for rec in records:
        y = predictor(rec)
        recon = compose_hdr(rec.ldr, rec.mask, y)
        mse, masked_mse = mse_gamma_scores(recon.pixels, rec.hdr.pixels, rec.mask)
        if on_record is not None:
            on_record(len(per_record), recon)
        per_record.append({
            "image_id": rec.image_id,
            "offset": tuple(rec.offset),
            "saturation_pct": 100.0 * float((rec.mask < 1).any(axis=0).mean()),
            "mse": mse,
            "masked_mse": masked_mse,
        })
    rows = []
    edges = np.linspace(0.0, 100.0, bins + 1)
    for b in range(bins):
        lo, hi = edges[b], edges[b + 1]
        members = [r for r in per_record
                   if (lo <= r["saturation_pct"] < hi) or (b == bins - 1 and r["saturation_pct"] == hi)]
        rows.append(_eval_row(f"{lo:.0f}-{hi:.0f}%", members))
    rows.append(_eval_row("overall", per_record))
    return EvalReport(rows, per_record)


def _eval_row(label, members):
    """A row's means; its masked score skips records with no saturated support."""
    masked = [m["masked_mse"] for m in members if math.isfinite(m["masked_mse"])]
    return EvalRow(label, len(members),
                   float(np.mean([m["mse"] for m in members])) if members else math.nan,
                   float(np.mean(masked)) if masked else math.nan)


# -- ablation harness ------------------------------------------------------------


def run_ablation(texture_images, train_records, test_records, seeds,
                 unet_config=None, extractor=None, pretrain_steps=300,
                 finetune_steps=300, base_config=None):
    """Masking-mode / pre-training matrix at desk scale.

    Runs FMask, IMask, and SConv with inpainting pre-training, plus FMask
    with the smooth-HDR pre-training diet, for each seed; each job trains
    ``unet_config`` in its own masking mode. Returns
    ``{(mode, pretrain, seed): result dict}`` where each entry carries the
    held-out masked-region MSE and the per-stage loss trajectories.
    """
    unet_config = unet_config or UNetConfig()
    extractor = extractor or FeatureExtractor()
    base = base_config or TrainConfig()
    jobs = [("FMask", "inpainting"), ("IMask", "inpainting"),
            ("SConv", "inpainting"), ("FMask", "hdr")]
    results = {}
    for mode, pretrain in jobs:
        model = replace(unet_config, mode=mode)
        for seed in seeds:
            cfg = replace(base, seed=seed)
            if pretrain == "inpainting":
                stage, data = train_inpainting, texture_images
            else:
                stage, data = finetune_hdr, _pretrain_hdr_records(seed)
            pre = stage(data, replace(cfg, max_steps=pretrain_steps), model, extractor)
            fine = finetune_hdr(train_records, replace(cfg, max_steps=finetune_steps),
                                model, extractor, init_params=pre.best_params)
            test_mse = validation_mse(test_records, fine.best_params)
            results[(mode, pretrain, seed)] = {
                "test_masked_mse": test_mse,
                "pretrain_log": pre.run_log,
                "finetune_log": fine.run_log,
            }
    return results


def _pretrain_hdr_records(seed):
    """Smooth-highlight HDR diet standing in for ordinary-photo pre-training."""
    scenes = make_hdr_corpus(12, seed=seed + 1000, textured_highlight=False)
    cfg = SamplerConfig(patch_size=64, patches_per_image=6, metric_threshold=0.0)
    return sample_corpus([(f"smooth{i}", scene) for i, scene in enumerate(scenes)],
                         cfg, seed * 997)


def loss_drop(run_log, head=25, tail=25):
    """Ratio of late to early training loss (< 0.5 means it halved)."""
    totals = [sum(rec["losses"].values()) for rec in run_log.steps]
    if not totals:
        raise DomainError("a run of 0 steps has no loss drop: steps must be >= 1")
    if len(totals) < head + tail:
        head = tail = max(1, len(totals) // 4)
    early = float(np.mean(totals[:head]))
    late = float(np.mean(totals[-tail:]))
    return late / max(early, 1e-12)


# -- model persistence -------------------------------------------------------


@dataclass
class LoadedModel:
    params: UNetParameters  # its config is the whole model, masking mode included
    adam_state: AdamState | None
    extractor: FeatureExtractor | None


def _read_config_record(record):
    """The :class:`UNetConfig` of a checkpoint's ``meta.config`` record.

    The record holds levels, base channels, kernel size, in and out
    channels, the masking-mode index and the leaky slope. A five-entry
    record predates the last two and means FMask with slope 0.2.
    """
    values = [float(v) for v in np.ravel(record)]
    if len(values) == 5:
        values += [0.0, 0.2]
    if len(values) != 7:
        raise ContractError(f"checkpoint config record has {len(values)} entries, expected 5 or 7")
    *ints, slope = values
    if not all(v.is_integer() for v in ints):
        raise ContractError(f"checkpoint config record has non-integral entries: {ints}")
    *extents, mode_index = (int(v) for v in ints)
    if not 0 <= mode_index < len(MASKING_MODES):
        raise ContractError(f"checkpoint masking-mode index {mode_index} is out of range")
    if not math.isfinite(slope):
        raise ContractError(f"checkpoint leaky slope {slope} is not finite")
    # The slope is stored as float32; its shortest float32 decimal gives
    # back the value that was saved (0.2, not 0.20000000298).
    slope = float(np.format_float_positional(np.float32(slope)))
    levels, base, k, cin, cout = extents
    try:
        return UNetConfig(levels=levels, base_channels=base, kernel_size=k, in_channels=cin,
                          out_channels=cout, leaky_slope=slope, mode=MASKING_MODES[mode_index])
    except DomainError as exc:
        raise ContractError(f"checkpoint config record describes no model: {exc}") from exc


# Every integer up to 2**24 is a float32; 2**24 + 1 is not.
_MAX_EXACT_STEP = 2 ** 24


def save_model(path, params, adam_state=None, extractor=None):
    """Checkpoint parameters with their config (masking mode included), and
    optionally optimizer state and extractor weights.

    Entries, in this order: the parameters, ``adam.step``, ``adam.m.*``,
    ``adam.v.*``, ``extractor.*`` (each group sorted by name) and
    ``meta.config``. Entries are float32, which counts exactly only up to
    2**24, so a later Adam step is refused with ContractError before any
    byte is written.
    """
    if adam_state is not None and adam_state.step > _MAX_EXACT_STEP:
        raise ContractError(f"Adam step {adam_state.step} is past 2**24, the last count a "
                            f"float32 checkpoint entry holds exactly")
    arrays = dict(sorted(params.named_arrays().items()))
    if adam_state is not None:
        arrays["adam.step"] = np.asarray([adam_state.step], dtype=np.float32)
        arrays.update((f"adam.m.{key}", arr) for key, arr in sorted(adam_state.m.items()))
        arrays.update((f"adam.v.{key}", arr) for key, arr in sorted(adam_state.v.items()))
    if extractor is not None:
        arrays.update(sorted(extractor.to_arrays().items()))
    cfg = params.config
    arrays["meta.config"] = np.array(
        [cfg.levels, cfg.base_channels, cfg.kernel_size, cfg.in_channels,
         cfg.out_channels, MASKING_MODES.index(cfg.mode), cfg.leaky_slope], dtype=np.float32)
    formats.save_checkpoint(path, arrays)


def _take(arrays, prefix):
    """Remove the entries named ``prefix...`` from ``arrays`` and return them."""
    return {name: arrays.pop(name) for name in [n for n in arrays if n.startswith(prefix)]}


def _read_adam_state(arrays, params):
    """The AdamState of ``adam.step`` and, for parameters it has seen, the
    pair ``adam.m.<p>``, ``adam.v.<p>`` shaped like parameter ``<p>``."""
    step = arrays.pop("adam.step", np.zeros(1, dtype=np.float32))
    if step.shape != (1,) or not (step[0] >= 0 and float(step[0]).is_integer()):
        raise ContractError(f"checkpoint Adam step {step} is not one count")
    state = AdamState(step=int(step[0]))
    for name, arr in params.named_arrays().items():
        m, v = (arrays.pop(f"adam.{kind}.{name}", None) for kind in "mv")
        if m is None and v is None:
            continue
        if m is None or v is None or m.shape != arr.shape or v.shape != arr.shape:
            raise ContractError(f"checkpoint Adam moments of {name} are not a pair "
                                f"shaped {arr.shape}")
        state.m[name], state.v[name] = m, v
    if arrays:
        raise ContractError(f"checkpoint entries {sorted(arrays)} name no Adam moment "
                            f"of a parameter")
    return state


def load_model(path):
    """Load a checkpoint written by :func:`save_model`: parameters checked
    against the config record, Adam moments against the parameters, extractor
    stages for completeness, and an entry under any other name rejected."""
    arrays = formats.load_checkpoint(path)
    meta, adam, stages = (_take(arrays, prefix) for prefix in ("meta.", "adam.", "extractor."))
    if meta.keys() != {"meta.config"}:
        raise ContractError(f"checkpoint holds meta entries {sorted(meta)}, not one config record")
    config = _read_config_record(meta["meta.config"])
    # Layer widths double per level, so a bogus level count must be
    # rejected before anything enumerates the layers.
    encoders = sum(1 for key in arrays if key.startswith("enc") and key.endswith(".weight"))
    if config.levels > encoders:
        raise ContractError(f"checkpoint config record claims {config.levels} levels "
                            f"but holds {encoders} encoder weights")
    params = UNetParameters.from_arrays(config, arrays)
    return LoadedModel(params, _read_adam_state(adam, params) if adam else None,
                       FeatureExtractor(arrays=stages) if stages else None)
