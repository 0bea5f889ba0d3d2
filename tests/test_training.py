import hashlib
import math
import os
import stat
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hdrmask import formats as F
from hdrmask import network
from hdrmask import tensor as T
from hdrmask import training as TR
from hdrmask.errors import ContractError, DomainError
from hdrmask.losses import FeatureExtractor, LossReport
from hdrmask.network import UNetConfig, layer_plan, unet_forward
from hdrmask.sampler import SamplerConfig, sample_patches
from hdrmask.synthetic import make_hdr_corpus, make_texture_corpus
from hdrmask.training import (PlateauScheduler, TrainConfig, evaluate,
                              finetune_hdr, initialize_parameters, load_model,
                              save_model, train_inpainting, validation_mse)

UCFG = UNetConfig(levels=2, base_channels=4)


@pytest.fixture(scope="module")
def extractor():
    return FeatureExtractor(channels=(4, 8), seed=0)


@pytest.fixture(scope="module")
def textures():
    return make_texture_corpus(8, seed=3, size=(16, 16))


@pytest.fixture(scope="module")
def records():
    recs = []
    cfg = SamplerConfig(patch_size=16, patches_per_image=6, metric_threshold=0.0)
    for i, scene in enumerate(make_hdr_corpus(5, seed=5, size=(48, 48))):
        recs.extend(sample_patches(scene, cfg, seed=i, image_id=f"img{i}"))
    assert recs
    return recs


class TestInitializeParameters:
    def test_xavier_variance(self):
        config = UNetConfig(levels=2, base_channels=32)
        params = initialize_parameters(config, seed=1)
        spec = layer_plan(config)[1]
        w = params.tensors[f"{spec.name}.weight"].data
        fan_in = spec.in_channels * 9
        fan_out = spec.out_channels * 9
        want = 2.0 / (fan_in + fan_out)  # variance of U(-b, b) with b^2 = 6/(fi+fo)
        assert abs(w.var() - want) / want < 0.1

    def test_biases_zero(self):
        params = initialize_parameters(UCFG, seed=2)
        for name, t in params.tensors.items():
            if name.endswith(".bias"):
                assert np.all(t.data == 0), name

    def test_deterministic(self):
        a = initialize_parameters(UCFG, seed=7)
        b = initialize_parameters(UCFG, seed=7)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].data, b.tensors[name].data)

    @pytest.mark.parametrize("config, seed", [
        (UCFG, 3),
        (UNetConfig(levels=3, base_channels=5, kernel_size=5, in_channels=2, out_channels=4), 8)])
    def test_values_are_one_xavier_draw_per_weight_in_plan_order(self, config, seed):
        rng = np.random.default_rng(seed)
        k = config.kernel_size
        want = {}
        for spec in layer_plan(config):
            bound = math.sqrt(6.0 / ((spec.in_channels + spec.out_channels) * k * k))
            want[f"{spec.name}.weight"] = rng.uniform(
                -bound, bound, size=(spec.out_channels, spec.in_channels, k, k)).astype(np.float32)
            want[f"{spec.name}.bias"] = np.zeros(spec.out_channels, dtype=np.float32)
        got = initialize_parameters(config, seed).named_arrays()
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [{"steps_per_epoch": 0}, {"steps_per_epoch": -1},
                                     {"max_steps": -5}])
    def test_step_counts_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            TrainConfig(**bad)

    def test_zero_steps_allowed(self):
        assert TrainConfig(max_steps=0, steps_per_epoch=1).max_steps == 0

    @pytest.mark.parametrize("bad,knob", [({"lr": np.nan}, "lr"), ({"lr": np.inf}, "lr"),
                                          ({"lr": 0.0}, "lr"),
                                          ({"plateau_factor": np.nan}, "plateau factor"),
                                          ({"plateau_factor": np.inf}, "plateau factor"),
                                          ({"max_val_items": 0}, "max val items"),
                                          ({"max_val_items": -3}, "max val items")])
    def test_non_finite_rates_and_empty_validation_rejected(self, bad, knob):
        # A NaN compares false both ways, so it must not pass a one-sided check.
        with pytest.raises(DomainError, match=knob):
            TrainConfig(**bad)


def replay(sched, history):
    """Feed a validation history to the scheduler; returns its final lr."""
    for value in history:
        sched.update(value)
    return sched.lr


class TestPlateauScheduler:
    def test_strictly_improving_keeps_lr(self):
        assert replay(PlateauScheduler(1e-3, patience=2), [1.0, 0.8, 0.6, 0.4]) == 1e-3

    def test_flat_history_of_length_patience_halves(self):
        assert replay(PlateauScheduler(1e-3, patience=3), [0.5, 0.5, 0.5]) == 5e-4

    def test_two_plateaus_quarter(self):
        history = [0.5, 0.5, 0.5, 0.4, 0.4, 0.4, 0.4]
        # plateau at epochs 1-3, improvement at 4, plateau at 5-7
        assert replay(PlateauScheduler(1e-3, patience=3), history) == 2.5e-4

    def test_floor_respected(self):
        sched = PlateauScheduler(1e-5, patience=1)
        assert replay(sched, [1.0] * 200) == PlateauScheduler.FLOOR == 1e-6

    def test_improvement_must_exceed_one_percent(self):
        sched = PlateauScheduler(1e-3, patience=2)
        sched.update(1.0)
        sched.update(0.995)  # less than 1% better: stalled
        assert sched.lr == 5e-4

    def test_rejects_bad_patience(self):
        with pytest.raises(DomainError):
            PlateauScheduler(1e-3, patience=0)


class TestTrainInpainting:
    def test_loss_finite_and_logged(self, textures, extractor):
        cfg = TrainConfig(max_steps=4, batch_size=2, steps_per_epoch=2, seed=0)
        res = train_inpainting(textures, cfg, UCFG, extractor)
        assert len(res.run_log.steps) == 4
        for rec in res.run_log.steps:
            assert math.isfinite(sum(rec["losses"].values()))

    def test_determinism_of_first_ten_steps(self, textures, extractor):
        cfg = TrainConfig(max_steps=10, batch_size=2, steps_per_epoch=50, seed=9)
        a = train_inpainting(textures, cfg, UCFG, extractor)
        b = train_inpainting(textures, cfg, UCFG, extractor)
        assert len(a.run_log.steps) == 10
        for ra, rb in zip(a.run_log.steps, b.run_log.steps):
            assert ra["losses"] == rb["losses"]

    def test_resume_reproduces_next_step_bitwise(self, textures, extractor):
        cfg = TrainConfig(max_steps=5, batch_size=2, steps_per_epoch=50, seed=4)
        full = train_inpainting(textures, cfg, UCFG, extractor)

        half = train_inpainting(textures,
                                TrainConfig(max_steps=3, batch_size=2,
                                            steps_per_epoch=50, seed=4),
                                UCFG, extractor)
        resumed = train_inpainting(textures, cfg, UCFG, extractor,
                                   init_params=half.params,
                                   init_adam=half.adam_state, start_step=3)
        for name, arr in full.params.named_arrays().items():
            assert np.array_equal(arr, resumed.params.named_arrays()[name]), name

    def test_empty_dataset_rejected(self, extractor):
        with pytest.raises(ContractError):
            train_inpainting([], TrainConfig(max_steps=1), UCFG, extractor)

    def test_validation_forward_records_no_graph(self, textures, extractor, monkeypatch):
        real_forward, real_predict, real_node = TR.unet_forward, TR.predict, T._node
        graphs, predicting, val_nodes = [], [], []

        def forward(*args, **kwargs):
            y, stack = real_forward(*args, **kwargs)
            graphs.append(bool(y._parents))
            return y, stack

        def predict(*args, **kwargs):
            predicting.append(True)
            try:
                return real_predict(*args, **kwargs)
            finally:
                predicting.pop()

        def node(*args):
            out = real_node(*args)
            if predicting:
                val_nodes.append(out.requires_grad)
            return out

        monkeypatch.setattr(TR, "unet_forward", forward)
        monkeypatch.setattr(TR, "predict", predict)
        monkeypatch.setattr(T, "_node", node)
        cfg = TrainConfig(max_steps=2, batch_size=2, steps_per_epoch=2, seed=0)
        res = train_inpainting(textures, cfg, UCFG, extractor)
        assert len(res.run_log.validations) == 1
        # Two training forwards record a graph; the validation forwards
        # predict, and no node they make needs a gradient.
        assert graphs == [True, True]
        assert val_nodes and not any(val_nodes)


class TestOneImageInpainting:
    def test_empty_validation_returns_the_final_parameters_as_best(self, textures, extractor):
        # One image has one id: nothing is held out, every epoch scores inf.
        cfg = TrainConfig(max_steps=2, batch_size=2, steps_per_epoch=1, seed=0)
        res = train_inpainting(textures[:1], cfg, UCFG, extractor)
        assert [v["value"] for v in res.run_log.validations] == [math.inf, math.inf]
        assert res.best_val == math.inf
        assert res.best_params is not res.params
        final, best = res.params.named_arrays(), res.best_params.named_arrays()
        assert final.keys() == best.keys()
        assert all(np.array_equal(final[k], best[k]) for k in final)


class TestValidationMse:
    def test_exp_overflow_scores_inf(self, records):
        params = initialize_parameters(UCFG, 0)
        # exp(1000) overflows float32 wherever the prediction is composed.
        params.tensors["out.bias"].data[:] = 1000.0
        assert validation_mse(records[:2], params) == math.inf

    def test_is_the_overall_masked_score_of_evaluate(self, records):
        params = initialize_parameters(UCFG, 0)
        # An all-valid record has no masked score: both skip it.
        valid = replace(records[0], mask=np.ones_like(records[0].mask))
        pool = [records[1], valid, records[2]]
        value = validation_mse(pool, params)
        assert math.isfinite(value)
        assert value == evaluate(pool, params).rows[-1].mean_masked_mse
        saturated = evaluate([records[1], records[2]], params, bins=1)
        assert value == saturated.rows[-1].mean_masked_mse

    def test_no_saturated_support_or_no_records_scores_inf(self, records):
        params = initialize_parameters(UCFG, 0)
        valid = [replace(rec, mask=np.ones_like(rec.mask)) for rec in records[:2]]
        assert validation_mse(valid, params) == math.inf
        assert validation_mse([], params) == math.inf


class TestOptimize:
    def test_non_finite_loss_leaves_params_untouched(self):
        params = initialize_parameters(UCFG, 2)
        before = {k: v.copy() for k, v in params.named_arrays().items()}
        adam = T.AdamState()

        def batch_fn(step, params):
            # A finite gradient that an update would apply, beside a diverged total.
            node = T.tsum(params.tensors["out.weight"])
            return LossReport(total=math.inf, components={}, weighted={}, node=node)

        with pytest.raises(ContractError):
            TR._optimize(TR.STAGE_HDR, TrainConfig(max_steps=1), params, adam,
                         batch_fn, lambda params: 0.0)
        for name, arr in params.named_arrays().items():
            assert arr.tobytes() == before[name].tobytes(), name
        assert adam.step == 0 and not adam.m


class TestFinetuneHdr:
    def test_improves_over_init(self, records, extractor):
        cfg = TrainConfig(max_steps=30, batch_size=2, steps_per_epoch=10,
                          seed=0, lr=1e-3, max_val_items=4)
        init = initialize_parameters(UCFG, 0)
        before = validation_mse(records[:4], init)
        res = finetune_hdr(records, cfg, UCFG, extractor, init_params=init.copy())
        assert res.best_val < before

    def test_pure_l1_ablation_reduces_report(self, records, extractor):
        from hdrmask.losses import LossWeights

        cfg = TrainConfig(max_steps=2, batch_size=2, steps_per_epoch=50, seed=1)
        res = finetune_hdr(records, cfg, UCFG, extractor,
                           loss_weights=LossWeights(perceptual=0.0))
        for rec in res.run_log.steps:
            assert rec["losses"]["vgg"] == 0.0 and rec["losses"]["style"] == 0.0

    def test_lr_history_non_increasing(self, records, extractor):
        cfg = TrainConfig(max_steps=12, batch_size=2, steps_per_epoch=2,
                          plateau_patience=2, seed=2, max_val_items=2)
        res = finetune_hdr(records, cfg, UCFG, extractor)
        hist = res.run_log.lr_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))


class TestStepMemory:
    """Training holds one step's graph: the previous step's is freed before
    the next forward, and backward keeps no interior gradients."""

    CFG = TrainConfig(max_steps=5, batch_size=4, steps_per_epoch=100, seed=3)

    def test_previous_graph_dead_when_next_loss_is_built(self, records, extractor,
                                                         monkeypatch):
        real, roots, alive = TR.total_loss, [], []

        def spy(*args, **kwargs):
            alive.append([root() is not None for root in roots])
            report = real(*args, **kwargs)
            # A Tensor takes no weak reference; its data dies with it.
            roots.append(weakref.ref(report.node.data))
            return report

        monkeypatch.setattr(TR, "total_loss", spy)
        finetune_hdr(records, self.CFG, UCFG, extractor)
        assert alive == [[False] * k for k in range(self.CFG.max_steps)]

    def test_later_steps_peak_like_the_first(self, records, extractor, monkeypatch):
        real, peaks = TR.unet_forward, []

        def spy(*args, **kwargs):
            # The peak since the previous step's forward: that step's own.
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return real(*args, **kwargs)

        monkeypatch.setattr(TR, "unet_forward", spy)
        tracemalloc.start()
        try:
            finetune_hdr(records, self.CFG, UCFG, extractor)
        finally:
            tracemalloc.stop()
        first, *later = peaks[1:self.CFG.max_steps]
        assert len(later) == 3
        assert max(later) <= 1.15 * first, (first, later)


class TestInitParamsConfig:
    """Parameters carry their own config; a ``unet_config`` beside them must
    be theirs, else training would run a sub-network of them."""
    DEEP = UNetConfig(levels=4, base_channels=4)

    def test_disagreeing_unet_config_rejected(self, records, textures, extractor):
        cfg = TrainConfig(max_steps=1, batch_size=2)
        deep = initialize_parameters(self.DEEP, 0)
        with pytest.raises(ContractError):
            train_inpainting(textures, cfg, UCFG, extractor, init_params=deep)
        with pytest.raises(ContractError):
            finetune_hdr(records, cfg, UCFG, extractor, init_params=deep)
        with pytest.raises(ContractError):
            finetune_hdr(records, cfg, replace(self.DEEP, mode="SConv"), extractor,
                         init_params=deep)

    def test_init_params_alone_train_their_model(self, records, textures, extractor):
        cfg = TrainConfig(max_steps=1, batch_size=2, max_val_items=1)
        deep = initialize_parameters(self.DEEP, 0)
        for res in (train_inpainting(textures, cfg, extractor=extractor,
                                     init_params=deep.copy()),
                    finetune_hdr(records, cfg, extractor=extractor, init_params=deep.copy())):
            assert res.params.config == self.DEEP
            for name, arr in deep.named_arrays().items():
                if name.endswith(".weight"):
                    assert not np.array_equal(res.params.named_arrays()[name], arr), name


class TestCheckpointRoundTrip:
    def test_forward_bit_identical_after_reload(self, tmp_path, records):
        params = initialize_parameters(UCFG, 11)
        path = tmp_path / "m.ckpt"
        save_model(path, params)
        loaded = load_model(path)
        x = records[0].ldr.pixels[None].astype(np.float32)
        m = records[0].mask[None].astype(np.float32)
        y1, _ = unet_forward(x, m, params)
        y2, _ = unet_forward(x, m, loaded.params)
        assert np.array_equal(y1.data, y2.data)

    def test_adam_and_extractor_round_trip(self, tmp_path, textures, extractor):
        cfg = TrainConfig(max_steps=2, batch_size=2, steps_per_epoch=50, seed=3)
        res = train_inpainting(textures, cfg, UCFG, extractor)
        path = tmp_path / "full.ckpt"
        save_model(path, res.params, adam_state=res.adam_state, extractor=extractor)
        loaded = load_model(path)
        assert loaded.adam_state.step == res.adam_state.step
        for key, arr in res.adam_state.m.items():
            assert np.array_equal(loaded.adam_state.m[key], arr)
        assert loaded.adam_state.v.keys() == res.adam_state.v.keys()
        for key, arr in res.adam_state.v.items():
            assert np.array_equal(loaded.adam_state.v[key], arr)
        for (w1, _), (w2, _) in zip(extractor.stages, loaded.extractor.stages):
            assert np.array_equal(np.float32(w1), np.float32(w2))

    def test_adam_step_2_pow_24_round_trips(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(path, initialize_parameters(UCFG, 0), adam_state=T.AdamState(step=2 ** 24))
        assert load_model(path).adam_state.step == 2 ** 24

    def test_adam_step_float32_cannot_hold_refused_before_writing(self, tmp_path):
        # 2**24 + 1 would load back as 2**24.
        path = tmp_path / "m.ckpt"
        with pytest.raises(ContractError, match="2\\*\\*24"):
            save_model(path, initialize_parameters(UCFG, 0),
                       adam_state=T.AdamState(step=2 ** 24 + 1))
        assert not path.exists()

    def test_checkpoint_bytes_pinned(self, tmp_path):
        # Parameters sorted, adam.step, adam.m.*, adam.v.*, extractor.*, meta.config.
        cfg = UNetConfig(levels=3, base_channels=4, leaky_slope=0.1, mode="IMask")
        params = initialize_parameters(cfg, 5)
        rng = np.random.default_rng(7)
        adam = T.AdamState(step=7)
        for name, arr in reversed(params.named_arrays().items()):
            adam.m[name] = rng.normal(size=arr.shape).astype(np.float32)
            adam.v[name] = rng.random(arr.shape).astype(np.float32)
        path = tmp_path / "m.ckpt"
        save_model(path, params, adam_state=adam,
                   extractor=FeatureExtractor(channels=(4, 8), seed=0))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "48c019fb83ab86cabc87e8af22bc17d8ffd70d5daed4d3b489edec56474a2c0a"

    @pytest.mark.parametrize("tamper", [
        lambda a: a.pop("extractor.stage1.bias"),
        lambda a: a.update({"adam.m.nosuch": np.zeros(4, np.float32)}),
        lambda a: a.update({"adam.m.enc0.bias": np.zeros(3, np.float32)}),
        lambda a: a.update({"meta.other": np.zeros(1, np.float32)}),
        lambda a: a.pop("adam.v.enc0.bias"),
        lambda a: a.update({"adam.step": np.array([1.5], np.float32)}),
    ], ids=["extractor-stage-without-bias", "adam-moment-of-no-parameter",
            "adam-moment-misshapen", "unknown-meta-entry", "adam-moment-without-its-pair",
            "adam-step-not-a-count"])
    def test_unknown_or_misfit_entry_rejected(self, tmp_path, extractor, tamper):
        params = initialize_parameters(UCFG, 0)
        zeros = {name: np.zeros_like(arr) for name, arr in params.named_arrays().items()}
        path = tmp_path / "m.ckpt"
        save_model(path, params, adam_state=T.AdamState(dict(zeros), dict(zeros), 1),
                   extractor=extractor)
        arrays = F.load_checkpoint(path)
        tamper(arrays)
        F.save_checkpoint(path, arrays)
        with pytest.raises(ContractError):
            load_model(path)

    def test_wrong_config_lists_mismatches(self, tmp_path):
        from hdrmask.errors import CheckpointShapeError

        # A record claiming base 8 over the arrays of base 4: every array but
        # the output bias (3 channels either way) is the wrong shape.
        path = tmp_path / "m.ckpt"
        F.save_checkpoint(path, {**initialize_parameters(UCFG, 0).named_arrays(),
                                 "meta.config": np.array([2, 8, 3, 3, 3, 0, 0.2], dtype=np.float32)})
        with pytest.raises(CheckpointShapeError) as info:
            load_model(path)
        assert "enc0.weight: shape (4, 3, 3, 3) != expected (8, 3, 3, 3)" in info.value.mismatches
        assert sorted(m.split(":")[0] for m in info.value.mismatches) == sorted(
            f"{layer}.{kind}" for layer in ("enc0", "enc1", "dec0", "out")
            for kind in ("weight", "bias") if (layer, kind) != ("out", "bias"))

    def test_config_record_bytes_pinned(self, tmp_path):
        cfg = UNetConfig(levels=2, base_channels=4, leaky_slope=0.1, mode="IMask")
        path = tmp_path / "m.ckpt"
        save_model(path, initialize_parameters(cfg, 0))
        record = F.load_checkpoint(path)["meta.config"]
        assert record.dtype == np.float32
        assert record.tobytes() == np.array([2, 4, 3, 3, 3, 1, 0.1], dtype=np.float32).tobytes()

    @pytest.mark.parametrize("mode", ["FMask", "IMask", "SConv"])
    def test_mode_and_slope_round_trip(self, tmp_path, mode):
        cfg = UNetConfig(levels=2, base_channels=4, leaky_slope=0.1, mode=mode)
        path = tmp_path / "m.ckpt"
        save_model(path, initialize_parameters(cfg, 0))
        loaded = load_model(path).params.config
        assert loaded == cfg
        assert (loaded.mode, loaded.leaky_slope) == (mode, 0.1)

    def test_five_entry_record_loads_as_fmask(self, tmp_path):
        path = tmp_path / "old.ckpt"
        F.save_checkpoint(path, {**initialize_parameters(UCFG, 0).named_arrays(),
                                 "meta.config": np.array([2, 4, 3, 3, 3], dtype=np.float32)})
        loaded = load_model(path).params.config
        assert loaded == UCFG and loaded.mode == "FMask" and loaded.leaky_slope == 0.2

    def test_level_count_beyond_the_encoders_rejected_before_layer_plan(
            self, tmp_path, monkeypatch):
        # Widths double per level: a bogus count must never reach layer_plan.
        path = tmp_path / "deep.ckpt"
        F.save_checkpoint(path, {**initialize_parameters(UCFG, 0).named_arrays(),
                                 "meta.config": np.array([50, 4, 3, 3, 3, 0, 0.2], dtype=np.float32)})

        def refuse(config):
            raise AssertionError("layer_plan ran on the recorded config")

        monkeypatch.setattr(network, "layer_plan", refuse)
        with pytest.raises(ContractError):
            load_model(path)

    @pytest.mark.parametrize("record", [[2, 4, 3, 3], [2, 4, 3, 3, 3, 1.5, 0.2],
                                        [2, 4, 3, 3, 3, 7, 0.2], [2, 4, 3, 3, 3, 0, np.inf]])
    def test_malformed_record_rejected(self, tmp_path, record):
        path = tmp_path / "bad.ckpt"
        F.save_checkpoint(path, {**initialize_parameters(UCFG, 0).named_arrays(),
                                 "meta.config": np.array(record, dtype=np.float32)})
        with pytest.raises(ContractError):
            load_model(path)

    @pytest.mark.parametrize("slope", [-0.1, np.nan, np.inf])
    def test_slope_the_config_refuses_rejected(self, tmp_path, slope):
        path = tmp_path / "bad.ckpt"
        F.save_checkpoint(path, {**initialize_parameters(UCFG, 0).named_arrays(),
                                 "meta.config": np.array([2, 4, 3, 3, 3, 0, slope],
                                                         dtype=np.float32)})
        with pytest.raises(ContractError):
            load_model(path)


class TestRunLog:
    def test_jsonl_round_trip(self, tmp_path, textures, extractor):
        cfg = TrainConfig(max_steps=4, batch_size=2, steps_per_epoch=2, seed=5)
        res = train_inpainting(textures, cfg, UCFG, extractor)
        path = tmp_path / "log.jsonl"
        res.run_log.to_jsonl(path)
        back = TR.RunLog.from_jsonl(path)
        assert back.steps == res.run_log.steps
        assert back.validations == res.run_log.validations
        assert back.lr_history == res.run_log.lr_history

    def test_a_fifo_is_refused_and_never_written(self, tmp_path):
        fifo = tmp_path / "log.jsonl"
        os.mkfifo(fifo)
        # A reader end held open keeps a writer's open from blocking.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(ContractError, match="not a regular file"):
                TR.RunLog().to_jsonl(str(fifo))
            assert os.read(reader, 1) == b""
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == ["log.jsonl"]

    def test_step_monotonicity_enforced(self):
        log = TR.RunLog()
        log.log_step(1, "x", {"a": 1.0}, 1e-3)
        with pytest.raises(ContractError):
            log.log_step(1, "x", {"a": 1.0}, 1e-3)


class TestEvaluate:
    def test_oracle_predictor_is_near_perfect(self):
        # quantization disabled: the composition is then an exact identity
        recs = []
        cfg = SamplerConfig(patch_size=16, patches_per_image=6,
                            metric_threshold=0.0, quantize_bits=0)
        for i, scene in enumerate(make_hdr_corpus(4, seed=6, size=(48, 48))):
            recs.extend(sample_patches(scene, cfg, seed=i, image_id=f"img{i}"))
        report = evaluate(recs, predictor=lambda r: np.log1p(r.hdr.pixels))
        overall = report.rows[-1]
        assert overall.label == "overall"
        assert overall.mean_mse < 1e-10

    def test_row_count_is_bins_plus_overall(self, records):
        report = evaluate(records, predictor=lambda r: np.log1p(r.hdr.pixels), bins=10)
        assert len(report.rows) == 11

    def test_table_text_has_header(self, records):
        report = evaluate(records, predictor=lambda r: np.log1p(r.hdr.pixels))
        text = report.to_text()
        assert text.startswith("bin\tcount\t")
        assert "overall" in text

    def test_requires_params_or_predictor(self, records):
        with pytest.raises(ContractError):
            evaluate(records)
