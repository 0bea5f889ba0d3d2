import argparse
import itertools
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from hdrmask import cli
from hdrmask import formats as F
from hdrmask import training
from hdrmask.cli import dispatch
from hdrmask.network import UNetConfig, exposure_mask, export_mask_images, unet_forward
from hdrmask.pipeline import compose_hdr
from hdrmask.training import RunLog, initialize_parameters, load_model, save_model
from hdrmask.synthetic import hdr_scene, make_texture_corpus


@pytest.fixture()
def scene_pfm(tmp_path):
    scene = hdr_scene(3, size=(64, 64))
    path = tmp_path / "scene.pfm"
    F.write_pfm(path, scene.pixels)
    return str(path)


@pytest.fixture()
def small_ckpt(tmp_path):
    """A checkpoint of a freshly initialised levels-2, base-4 U-Net."""
    path = str(tmp_path / "small.ckpt")
    save_model(path, initialize_parameters(UNetConfig(levels=2, base_channels=4), 0))
    return path


class TestDispatch:
    def test_unknown_command_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert dispatch(["simulate-ldr"]) == 1

    def test_runtime_error_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.pfm")
        out = str(tmp_path / "out.ppm")
        assert dispatch(["simulate-ldr", "--in", missing, "--out", out]) == 2

    def test_no_command_prints_usage(self):
        assert dispatch([]) == 1


class TestKnobFlags:
    PATH_FLAGS = {"config", "input", "output", "out_dir", "in_dir", "checkpoint",
                  "texture_dir", "shard", "init", "hdr_dir"}

    def test_knob_flags_are_the_defaults_keys(self):
        parser = cli._build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert len(subs.choices) == 11
        for name, p in subs.choices.items():
            table = p.get_default("defaults")
            knobs = {a.dest: a.option_strings for a in p._actions
                     if a.option_strings and a.dest != "help" and a.dest not in self.PATH_FLAGS}
            assert set(knobs) == set(table), name
            for key, options in knobs.items():
                assert options == ["--" + key.replace("_", "-")], (name, key)

    def test_flag_types_and_choices_follow_the_table(self, scene_pfm, tmp_path):
        out = str(tmp_path / "s.ppm")
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", out,
                         "--curve", "linear"]) == 1
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", out,
                         "--bits", "6.5"]) == 1
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", out,
                         "--curve", "sigmoid"]) == 0
        manifest = json.loads((tmp_path / "simulate_ldr_manifest.json").read_text())
        assert manifest["resolved_config"]["curve"] == "sigmoid"
        assert manifest["resolved_config"]["bits"] == 8


class TestSimulateLdr:
    def test_writes_ldr_mask_and_manifest(self, scene_pfm, tmp_path):
        out = str(tmp_path / "scene.ppm")
        rc = dispatch(["simulate-ldr", "--in", scene_pfm, "--out", out,
                       "--percentile", "93"])
        assert rc == 0
        assert os.path.exists(out)
        assert os.path.exists(out + ".mask.pgm")
        manifest_path = tmp_path / "simulate_ldr_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["resolved_config"]["percentile"] == 93
        assert manifest["command"] == "simulate-ldr"

    def test_rerun_from_manifest_reproduces_output(self, scene_pfm, tmp_path):
        out1 = str(tmp_path / "a.ppm")
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", out1,
                         "--percentile", "88", "--bits", "6"]) == 0
        manifest = str(tmp_path / "simulate_ldr_manifest.json")
        out2 = str(tmp_path / "b.ppm")
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", out2,
                         "--config", manifest]) == 0
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_config_file_overridden_by_flags(self, scene_pfm, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"percentile": 50, "bits": 4}))
        out = str(tmp_path / "s.ppm")
        rc = dispatch(["simulate-ldr", "--in", scene_pfm, "--out", out,
                       "--config", str(conf), "--percentile", "90"])
        assert rc == 0
        manifest = json.loads((tmp_path / "simulate_ldr_manifest.json").read_text())
        assert manifest["resolved_config"]["percentile"] == 90.0  # flag wins
        assert manifest["resolved_config"]["bits"] == 4           # file beats default


class TestConfigFileTyping:
    def _write(self, tmp_path, conf):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        return str(path)

    @pytest.mark.parametrize("conf", [{"steps": "ten"}, {"mode": "Bogus"},
                                      {"steps-per-epoch": 1.5}])
    def test_bad_training_value_is_usage_error(self, tmp_path, conf):
        # The shard does not exist: a usage error must come before any I/O.
        assert dispatch(["finetune-hdr", "--shard", str(tmp_path / "none.mds"),
                         "--out-dir", str(tmp_path / "run"),
                         "--config", self._write(tmp_path, conf)]) == 1

    def test_non_integral_int_is_usage_error(self, scene_pfm, tmp_path):
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", str(tmp_path / "s.ppm"),
                         "--config", self._write(tmp_path, {"bits": 6.5})]) == 1

    def test_int_for_float_knob_resolves_to_float(self, scene_pfm, tmp_path):
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", str(tmp_path / "s.ppm"),
                         "--config", self._write(tmp_path, {"percentile": 50})]) == 0
        manifest = json.loads((tmp_path / "simulate_ldr_manifest.json").read_text())
        value = manifest["resolved_config"]["percentile"]
        assert value == 50.0 and isinstance(value, float)

    def test_config_that_is_not_an_object_is_runtime_error(self, scene_pfm, tmp_path):
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", str(tmp_path / "s.ppm"),
                         "--config", self._write(tmp_path, [93, 8])]) == 2

    def test_manifest_with_null_knob_reruns(self, tmp_path):
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        F.write_pfm(hdr_dir / "s0.pfm", hdr_scene(30, size=(48, 48)).pixels)
        first, second = str(tmp_path / "a.mds"), str(tmp_path / "b.mds")
        assert dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", first,
                         "--patch", "16", "--per-image", "4", "--threshold", "0.0",
                         "--seed", "3"]) == 0
        manifest = tmp_path / "sample_patches_manifest.json"
        assert json.loads(manifest.read_text())["resolved_config"]["percentile"] is None
        assert dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", second,
                         "--config", str(manifest)]) == 0
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()


class TestSamplePatchesCommand:
    def test_shard_postconditions(self, tmp_path):
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        for i in range(3):
            F.write_pfm(hdr_dir / f"s{i}.pfm", hdr_scene(20 + i, size=(96, 96)).pixels)
        shard = str(tmp_path / "train.mds")
        rc = dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", shard,
                       "--patch", "64", "--per-image", "8", "--threshold", "0.85",
                       "--seed", "5"])
        assert rc == 0
        records = F.read_dataset_shard(shard)
        from hdrmask.pipeline import saturation_percentage
        for rec in records:
            assert rec.score > 0.85
            assert saturation_percentage(rec.ldr, 0.96) > 0

    def test_empty_yield_is_runtime_error(self, tmp_path):
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        F.write_pfm(hdr_dir / "flat.pfm", np.full((3, 72, 72), 30.0, dtype=np.float32))
        rc = dispatch(["sample-patches", "--in-dir", str(hdr_dir),
                       "--out", str(tmp_path / "x.mds"), "--patch", "64",
                       "--per-image", "4"])
        assert rc == 2


class TestReconstructIdentity:
    def test_valid_pixels_follow_gamma_exactly(self, tmp_path, scene_pfm):
        # train nothing: a fresh random checkpoint still satisfies the
        # composition contract at fully valid pixels
        from hdrmask.training import initialize_parameters, save_model
        from hdrmask.network import UNetConfig

        ckpt = str(tmp_path / "m.ckpt")
        save_model(ckpt, initialize_parameters(UNetConfig(levels=2, base_channels=4), 0))
        ldr_path = str(tmp_path / "in.ppm")
        rc = dispatch(["simulate-ldr", "--in", scene_pfm, "--out", ldr_path])
        assert rc == 0
        out_path = str(tmp_path / "recon.pfm")
        rc = dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                       "--out", out_path])
        assert rc == 0
        ldr = F.read_ldr(ldr_path).pixels
        recon = F.read_pfm(out_path)
        mask = exposure_mask(ldr, 0.96)
        valid = mask == 1.0
        assert np.allclose(recon[valid], np.power(ldr, 2.0)[valid], atol=1e-6)


class TestReconstructAnyExtent:
    CFG = UNetConfig()  # downsample factor 8

    @pytest.fixture()
    def ckpt(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_model(path, initialize_parameters(self.CFG, 0))
        return path

    @pytest.mark.parametrize("h, w", [(29, 37), (3, 1)])
    def test_indivisible_photo_reconstructs(self, tmp_path, ckpt, h, w):
        rng = np.random.default_rng(h * w)
        ldr_path, out = str(tmp_path / "in.ppm"), str(tmp_path / "r.pfm")
        # A third of the pixels saturated, so both branches of the blend show.
        pixels = np.where(rng.random((3, h, w)) < 0.3, 1.0, rng.random((3, h, w)) * 0.9)
        F.write_ldr(ldr_path, pixels)
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", out]) == 0
        ldr = F.read_ldr(ldr_path).pixels
        recon = F.read_pfm(out)
        assert recon.shape == (3, h, w)
        assert np.all(np.isfinite(recon)) and np.all(recon >= 0)
        valid = exposure_mask(ldr, 0.96) == 1.0
        assert np.array_equal(recon[valid], np.power(ldr, 2.0)[valid])

    def test_divisible_photo_is_not_padded(self, tmp_path, ckpt, scene_pfm):
        ldr_path, out = str(tmp_path / "in.ppm"), str(tmp_path / "r.pfm")
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", ldr_path]) == 0
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", out]) == 0
        # The PFM the direct, unpadded forward writes.
        ldr = F.read_ldr(ldr_path)
        mask = exposure_mask(ldr.pixels, 0.96)
        y, _ = unet_forward(ldr.pixels[None], mask[None], load_model(ckpt).params)
        with open(out, "rb") as fh:
            assert fh.read() == F.encode_pfm(compose_hdr(ldr, mask, y.data[0], gamma=2.0).pixels)


class TestCheckpointMode:
    CFG = UNetConfig(levels=2, base_channels=4)

    @pytest.fixture()
    def ldr_path(self, tmp_path, scene_pfm):
        path = str(tmp_path / "in.ppm")
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", path]) == 0
        return path

    def test_reconstruct_uses_the_checkpoint_mode(self, tmp_path, ldr_path):
        params = initialize_parameters(replace(self.CFG, mode="SConv"), 3)
        ckpt = str(tmp_path / "sconv.ckpt")
        save_model(ckpt, params)
        out = str(tmp_path / "recon.pfm")
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", out]) == 0
        ldr = F.read_ldr(ldr_path)
        mask = exposure_mask(ldr.pixels, 0.96)
        expected = {}
        for mode in ("SConv", "FMask"):
            y, _ = unet_forward(ldr.pixels[None], mask[None],
                                replace(params, config=replace(self.CFG, mode=mode)))
            expected[mode] = compose_hdr(ldr, mask, y.data[0], gamma=2.0).pixels
        got = F.read_pfm(out)
        assert np.array_equal(got, expected["SConv"])
        assert not np.array_equal(got, expected["FMask"])

    def test_reconstruct_and_eval_have_no_mode_flag(self, tmp_path, ldr_path):
        ckpt = str(tmp_path / "m.ckpt")
        save_model(ckpt, initialize_parameters(self.CFG, 0))
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", str(tmp_path / "r.pfm"), "--mode", "SConv"]) == 1
        assert dispatch(["eval", "--checkpoint", ckpt, "--out-dir", str(tmp_path),
                         "--mode", "SConv"]) == 1

    @pytest.mark.parametrize("record", [
        [2, 4, 3], [2, 4, 3, 3, 3, 0], [2, 4, 3, 3, 3, 0, 0.2, 1],
        [2, 4.5, 3, 3, 3, 0, 0.2], [2, 4, 3, 3, 3, 3, 0.2], [2, 4, 3, 3, 3, -1, 0.2],
        [2, 4, 3, 3, 3, 0, float("nan")]])
    def test_malformed_config_record_exits_2(self, tmp_path, ldr_path, record):
        ckpt = str(tmp_path / "bad.ckpt")
        params = initialize_parameters(self.CFG, 0)
        F.save_checkpoint(ckpt, params=params,
                          extra={"meta.config": np.array(record, dtype=np.float32)})
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", str(tmp_path / "r.pfm")]) == 2


class TestMaskCommand:
    def test_dumps_layer_masks(self, tmp_path, scene_pfm):
        ldr_path = str(tmp_path / "in.ppm")
        dispatch(["simulate-ldr", "--in", scene_pfm, "--out", ldr_path])
        out_dir = str(tmp_path / "masks")
        rc = dispatch(["mask", "--in", ldr_path, "--out-dir", out_dir,
                       "--levels", "3", "--base-channels", "4"])
        assert rc == 0
        files = sorted(os.listdir(out_dir))
        assert any(f.startswith("mask_input") for f in files)
        assert any(f.startswith("mask_out") for f in files)

    def test_odd_photo_exports_each_level_at_its_extent(self, tmp_path, small_ckpt):
        # The photo is padded to the downsample factor 2 and each layer's mask
        # cropped back to ceil(H / 2**level) x ceil(W / 2**level).
        rng = np.random.default_rng(13)
        ldr_path, out_dir = str(tmp_path / "in.ppm"), tmp_path / "masks"
        F.write_ldr(ldr_path, np.where(rng.random((3, 13, 21)) < 0.3, 1.0,
                                       rng.random((3, 13, 21)) * 0.9))
        assert dispatch(["mask", "--in", ldr_path, "--out-dir", str(out_dir),
                         "--checkpoint", small_ckpt]) == 0
        extents = {}
        for name in os.listdir(out_dir):
            if name.endswith(".pgm"):
                w, h = map(int, (out_dir / name).read_bytes().split(b"\n")[1].split())
                extents[name[len("mask_"):-len("_c0.pgm")]] = (h, w)
        assert extents == {"input": (13, 21), "enc0": (13, 21), "enc1": (7, 11),
                           "dec0": (13, 21), "out": (13, 21)}

    def test_divisible_photo_pgms_unchanged(self, tmp_path, small_ckpt, scene_pfm):
        ldr_path, out_dir = str(tmp_path / "in.ppm"), tmp_path / "masks"
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", ldr_path]) == 0
        assert dispatch(["mask", "--in", ldr_path, "--out-dir", str(out_dir),
                         "--checkpoint", small_ckpt]) == 0
        ldr = F.read_ldr(ldr_path).pixels
        _, stack = unet_forward(ldr[None], exposure_mask(ldr, 0.96)[None],
                                load_model(small_ckpt).params.as_constants())
        want = tmp_path / "want.pgm"
        for (layer, channel), img in export_mask_images(stack).items():
            F.write_gray8(want, img)
            assert (out_dir / f"mask_{layer}_c{channel}.pgm").read_bytes() == \
                want.read_bytes(), layer


class TestEvalDataSource:
    """eval reads exactly one of --shard and --hdr-dir; anything else is a
    usage error before any file is read."""

    def test_neither_source(self, tmp_path, monkeypatch, small_ckpt):
        monkeypatch.chdir(tmp_path)
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--out-dir", "out"]) == 1

    def test_neither_source_with_a_pfm_in_the_working_directory(self, tmp_path, monkeypatch,
                                                                small_ckpt):
        monkeypatch.chdir(tmp_path)
        F.write_pfm(tmp_path / "s0.pfm", hdr_scene(30, size=(48, 48)).pixels)
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--out-dir", "out"]) == 1

    def test_both_sources(self, tmp_path, monkeypatch, small_ckpt):
        monkeypatch.chdir(tmp_path)
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--out-dir", "out",
                         "--shard", "none.mds", "--hdr-dir", "none"]) == 1


class TestGenInpaintMasks:
    def test_generates_binary_pgms(self, tmp_path):
        out_dir = str(tmp_path / "holes")
        rc = dispatch(["gen-inpaint-masks", "--out-dir", out_dir, "--count", "3",
                       "--height", "32", "--width", "32", "--seed", "4"])
        assert rc == 0
        files = [f for f in os.listdir(out_dir) if f.endswith(".pgm")]
        assert len(files) == 3


class TestAblateCommand:
    def test_non_integer_seeds_is_usage_error(self, tmp_path):
        assert dispatch(["ablate", "--out-dir", str(tmp_path), "--seeds", "x"]) == 1

    def test_negative_seed_is_usage_error(self, tmp_path):
        assert dispatch(["ablate", "--out-dir", str(tmp_path), "--seeds", "0,-1"]) == 1

    def test_tiny_run_trains_each_job_in_its_mode(self, tmp_path, monkeypatch):
        modes = []
        forward = training.unet_forward

        def spy(ldr, mask, params, *args, **kwargs):
            modes.append(params.config.mode)
            return forward(ldr, mask, params, *args, **kwargs)

        monkeypatch.setattr(training, "unet_forward", spy)
        assert dispatch([
            "ablate", "--out-dir", str(tmp_path), "--seeds", "0", "--pretrain-steps", "2",
            "--finetune-steps", "2", "--textures", "4", "--train-scenes", "2",
            "--test-scenes", "1", "--patch", "32", "--per-image", "4", "--threshold", "0",
            "--batch", "2", "--steps-per-epoch", "2"]) == 0
        header, *rows = (tmp_path / "ablation.tsv").read_text().splitlines()
        assert header == "mode\tpretrain\tseed\ttest_masked_mse"
        assert [tuple(row.split("\t")[:3]) for row in rows] == [
            ("FMask", "hdr", "0"), ("FMask", "inpainting", "0"),
            ("IMask", "inpainting", "0"), ("SConv", "inpainting", "0")]
        # Jobs run FMask, IMask, SConv with inpainting, then FMask with the
        # HDR diet; each trains 2 + 2 steps, all under the job's mode.
        runs = [(mode, len(list(calls))) for mode, calls in itertools.groupby(modes)]
        assert [mode for mode, _ in runs] == ["FMask", "IMask", "SConv", "FMask"]
        assert all(count >= 4 for _, count in runs), runs


class TestSeedKnob:
    # Every command with a ``seed`` knob, with its required path flags. The
    # paths do not exist: the usage error must come before any I/O.
    COMMANDS = {
        "mask": ["--in", "none.ppm", "--out-dir", "out"],
        "sample-patches": ["--in-dir", "none", "--out", "out/x.mds"],
        "gen-inpaint-masks": ["--out-dir", "out"],
        "train-inpaint": ["--out-dir", "out", "--procedural", "2"],
        "finetune-hdr": ["--shard", "none.mds", "--out-dir", "out"],
        "eval": ["--checkpoint", "none.ckpt", "--out-dir", "out", "--hdr-dir", "none"],
        "gradcheck": [],
    }

    def test_covers_every_seed_knob(self):
        parser = cli._build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(self.COMMANDS) == {name for name, p in subs.choices.items()
                                      if "seed" in p.get_default("defaults")}

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_seed_is_usage_error(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conf.json").write_text(json.dumps({"seed": -1}))
        argv = [command] + self.COMMANDS[command]
        assert dispatch(argv + ["--seed=-1"]) == 1
        assert dispatch(argv + ["--config", "conf.json"]) == 1
        assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_passes_at_default_threshold(self):
        assert dispatch(["gradcheck", "--seed", "7"]) == 0


class TestFormatsCommand:
    def test_self_test_passes(self):
        assert dispatch(["formats"]) == 0


class TestTrainSmoke:
    def test_train_and_finetune_wire_through(self, tmp_path):
        tex_dir = tmp_path / "tex"
        tex_dir.mkdir()
        for i, img in enumerate(make_texture_corpus(4, seed=1, size=(16, 16))):
            F.write_ldr(tex_dir / f"t{i}.ppm", img)
        out1 = str(tmp_path / "run1")
        rc = dispatch(["train-inpaint", "--texture-dir", str(tex_dir),
                       "--out-dir", out1, "--steps", "3", "--batch", "2",
                       "--levels", "2", "--base-channels", "4", "--seed", "1"])
        assert rc == 0
        assert os.path.exists(os.path.join(out1, "inpaint_best.ckpt"))
        assert os.path.exists(os.path.join(out1, "inpaint_runlog.jsonl"))

        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        for i in range(2):
            F.write_pfm(hdr_dir / f"s{i}.pfm", hdr_scene(30 + i, size=(48, 48)).pixels)
        shard = str(tmp_path / "train.mds")
        rc = dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", shard,
                       "--patch", "16", "--per-image", "6", "--threshold", "0.0"])
        assert rc == 0
        out2 = str(tmp_path / "run2")
        rc = dispatch(["finetune-hdr", "--shard", shard, "--out-dir", out2,
                       "--init", os.path.join(out1, "inpaint_best.ckpt"),
                       "--steps", "3", "--batch", "2", "--seed", "1"])
        assert rc == 0
        ckpt = os.path.join(out2, "hdr_best.ckpt")
        assert os.path.exists(ckpt)

        eval_dir = str(tmp_path / "eval")
        rc = dispatch(["eval", "--checkpoint", ckpt, "--shard", shard,
                       "--out-dir", eval_dir])
        assert rc == 0
        with open(os.path.join(eval_dir, "metrics.tsv")) as fh:
            table = fh.read()
        assert table.startswith("bin\t") and "overall" in table


class TestTrainRunOutputs:
    STEPS = 3

    @pytest.fixture()
    def inputs(self, tmp_path):
        tex_dir = tmp_path / "tex"
        tex_dir.mkdir()
        for i, img in enumerate(make_texture_corpus(3, seed=1, size=(16, 16))):
            F.write_ldr(tex_dir / f"t{i}.ppm", img)
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        for i in range(2):
            F.write_pfm(hdr_dir / f"s{i}.pfm", hdr_scene(30 + i, size=(48, 48)).pixels)
        shard = str(tmp_path / "train.mds")
        assert dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", shard,
                         "--patch", "16", "--per-image", "4", "--threshold", "0.0"]) == 0
        init = str(tmp_path / "init.ckpt")
        save_model(init, initialize_parameters(UNetConfig(levels=2, base_channels=4), 0))
        return {"train-inpaint": ["--texture-dir", str(tex_dir), "--levels", "2",
                                  "--base-channels", "4"],
                "finetune-hdr": ["--shard", shard, "--init", init]}

    def test_init_manifest_records_the_checkpoint_shape(self, tmp_path, inputs):
        argv = ["finetune-hdr", "--steps", "2", "--batch", "2", "--seed", "1"] + \
            inputs["finetune-hdr"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert dispatch(argv + ["--out-dir", str(first)]) == 0
        manifest = first / "finetune_hdr_manifest.json"
        resolved = json.loads(manifest.read_text())["resolved_config"]
        assert (resolved["levels"], resolved["base_channels"]) == (2, 4)
        assert dispatch(["finetune-hdr", "--out-dir", str(second), "--config", str(manifest)]
                        + inputs["finetune-hdr"]) == 0
        for name in ("hdr_best.ckpt", "hdr_final.ckpt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("flags, trained", [([], "IMask"), (["--mode", "SConv"], "SConv"),
                                                (["--mode", "FMask"], "FMask")])
    def test_init_trains_in_the_checkpoint_mode_unless_overridden(self, tmp_path, inputs,
                                                                  flags, trained):
        init = str(tmp_path / "imask.ckpt")
        save_model(init, initialize_parameters(
            UNetConfig(levels=2, base_channels=4, mode="IMask"), 0))
        out = tmp_path / "run"
        shard = inputs["finetune-hdr"][:2]
        assert dispatch(["finetune-hdr", "--out-dir", str(out), "--steps", "2", "--batch", "2",
                         "--init", init] + shard + flags) == 0
        for name in ("hdr_best.ckpt", "hdr_final.ckpt"):
            assert load_model(str(out / name)).params.config.mode == trained
        manifest = json.loads((out / "finetune_hdr_manifest.json").read_text())
        assert manifest["resolved_config"]["mode"] == trained

    @pytest.mark.parametrize("command, prefix", [("train-inpaint", "inpaint"),
                                                 ("finetune-hdr", "hdr")])
    def test_checkpoints_runlog_and_manifest(self, tmp_path, inputs, command, prefix):
        out = tmp_path / "run"
        assert dispatch([command, "--out-dir", str(out), "--steps", str(self.STEPS),
                         "--batch", "2", "--steps-per-epoch", "2", "--seed", "1",
                         "--mode", "IMask"] + inputs[command]) == 0
        paths = {name: str(out / f"{prefix}_{name}.{ext}") for name, ext in
                 (("best", "ckpt"), ("final", "ckpt"), ("runlog", "jsonl"))}
        assert load_model(paths["best"]).params.config.mode == "IMask"
        final = load_model(paths["final"])
        assert final.params.config.mode == "IMask"
        assert final.adam_state.step == self.STEPS
        assert final.extractor is not None
        log = RunLog.from_jsonl(paths["runlog"])
        assert [rec["step"] for rec in log.steps] == list(range(1, self.STEPS + 1))
        manifest = json.loads((out / f"{command.replace('-', '_')}_manifest.json").read_text())
        assert {k: manifest["outputs"][k] for k in paths} == paths
