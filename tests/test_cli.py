import argparse
import builtins
import itertools
import json
import os
import stat
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hdrmask import cli
from hdrmask import formats as F
from hdrmask import training
from hdrmask.cli import dispatch
from hdrmask.errors import ContractError
from hdrmask.losses import FeatureExtractor
from hdrmask.network import UNetConfig, exposure_mask, predict, unet_forward
from hdrmask.pipeline import compose_hdr, simulate_ldr
from hdrmask.training import (RunLog, TrainConfig, finetune_hdr,
                              initialize_parameters, load_model, save_model,
                              train_inpainting)
from hdrmask.synthetic import hdr_scene, make_hdr_corpus, make_texture_corpus


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

    def test_a_fifo_out_is_refused(self, tmp_path, scene_pfm, monkeypatch, capsys):
        fifo = tmp_path / "out.ppm"
        rc, opened = _beside_a_fifo(fifo, monkeypatch, lambda: dispatch(
            ["simulate-ldr", "--in", scene_pfm, "--out", str(fifo)]))
        assert rc == 2 and "not a regular file" in capsys.readouterr().err
        assert str(fifo) not in opened

    def test_a_fifo_manifest_is_refused_and_never_opened(self, tmp_path, scene_pfm,
                                                         monkeypatch, capsys):
        fifo = tmp_path / "simulate_ldr_manifest.json"
        rc, opened = _beside_a_fifo(fifo, monkeypatch, lambda: dispatch(
            ["simulate-ldr", "--in", scene_pfm, "--out", str(tmp_path / "y.ppm")]))
        assert rc == 2 and "not a regular file" in capsys.readouterr().err
        assert str(fifo) not in opened and scene_pfm in opened

    def test_a_missing_out_directory_is_named_as_given(self, tmp_path, scene_pfm,
                                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = dispatch(["simulate-ldr", "--in", scene_pfm, "--out", "nodir/x.ppm"])
        err = capsys.readouterr().err
        assert rc == 2 and "No such file or directory: 'nodir/x.ppm'" in err, err
        assert ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == ["scene.pfm"]


def _beside_a_fifo(fifo, monkeypatch, run):
    """Make a FIFO at ``fifo``, call ``run()`` and return its result with the
    real paths of every file ``open`` was given meanwhile. A reader end held
    open keeps a writer's open from blocking, so a write to the FIFO fails
    the test instead of hanging it; the FIFO must stay an unread FIFO."""
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    opened, real_open = [], builtins.open

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.realpath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    try:
        result = run()
        assert os.read(reader, 1) == b""
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    return result, opened


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
        for rec in records:
            assert rec.score > 0.85
            assert (rec.mask < 1).any()

    def test_empty_yield_is_runtime_error(self, tmp_path):
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        F.write_pfm(hdr_dir / "flat.pfm", np.full((3, 72, 72), 30.0, dtype=np.float32))
        rc = dispatch(["sample-patches", "--in-dir", str(hdr_dir),
                       "--out", str(tmp_path / "x.mds"), "--patch", "64",
                       "--per-image", "4"])
        assert rc == 2


    @pytest.mark.parametrize("flag,value", [("--sigma-color", "nan"), ("--sigma-color", "0"),
                                            ("--sigma-space", "inf")])
    def test_invalid_sigma_is_named(self, tmp_path, capsys, flag, value):
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        F.write_pfm(hdr_dir / "s0.pfm", hdr_scene(20, size=(72, 72)).pixels)
        shard = tmp_path / "x.mds"
        rc = dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", str(shard),
                       "--per-image", "4", flag, value])
        err = capsys.readouterr().err
        assert rc == 2 and not shard.exists()
        assert "sigma" in err and "relax" not in err


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


def _photo(path, h, w, seed):
    """A PPM of ``h`` x ``w`` pixels, about a third of them saturated."""
    rng = np.random.default_rng(seed)
    F.write_ldr(path, np.where(rng.random((3, h, w)) < 0.3, 1.0, rng.random((3, h, w)) * 0.9))
    return str(path)


class TestReconstructStream:
    """``reconstruct`` reads, masks, predicts, composes and writes a strip at a time."""

    @pytest.mark.parametrize("mode", ["FMask", "IMask", "SConv"])
    @pytest.mark.parametrize("h, w", [(203, 509), (400, 256)])
    def test_pfm_is_the_whole_image_reconstruction(self, tmp_path, mode, h, w):
        # 509 x 203 pads to 512 x 208, whose last strip of 64 rows reads the
        # reflected rows from the photo; 256 x 400 is four strips of 128 rows.
        params = initialize_parameters(UNetConfig(mode=mode), 2)
        ckpt, out = str(tmp_path / "m.ckpt"), tmp_path / "r.pfm"
        save_model(ckpt, params)
        photo = _photo(tmp_path / "in.ppm", h, w, h)
        assert dispatch(["reconstruct", "--in", photo, "--checkpoint", ckpt,
                         "--out", str(out)]) == 0
        ldr = F.read_ldr(photo)
        mask = exposure_mask(ldr.pixels, 0.96)
        pad = ((0, 0), (0, 0), (0, -h % 8), (0, -w % 8))
        x, m = (np.pad(a[None], pad, mode="reflect") for a in (ldr.pixels, mask))
        y = predict(x, m, params)
        want = tmp_path / "want.pfm"
        F.write_pfm(str(want), compose_hdr(ldr, mask, y[0, :, :h, :w], gamma=2.0))
        assert out.read_bytes() == want.read_bytes()

    def test_memory_is_bounded_by_the_width(self, tmp_path):
        ckpt = str(tmp_path / "m.ckpt")
        save_model(ckpt, initialize_parameters(UNetConfig(), 0))
        peaks = {}
        for h in (256, 2048):
            photo = _photo(tmp_path / f"in{h}.ppm", h, 256, 5)
            tracemalloc.start()
            try:
                assert dispatch(["reconstruct", "--in", photo, "--checkpoint", ckpt,
                                 "--out", str(tmp_path / "r.pfm")]) == 0
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # The int32 summed-area table of saturated pixels is the one
        # structure of the photo's area: (h + 1) x 257 of them.
        table = 4 * 257 * (2049 - 257)
        assert peaks[2048] - peaks[256] <= table + (2 << 20), peaks

    def test_an_error_at_a_later_strip_leaves_no_pfm(self, tmp_path, monkeypatch, capsys):
        ckpt, out = str(tmp_path / "m.ckpt"), tmp_path / "r.pfm"
        save_model(ckpt, initialize_parameters(UNetConfig(), 0))
        photo = _photo(tmp_path / "in.ppm", 400, 256, 1)
        calls = []

        def compose(ldr, mask, y, gamma, row):
            # The second strip's prediction overflows exp everywhere.
            calls.append(row)
            return compose_hdr(ldr, mask, np.full_like(y, 1e4) if len(calls) == 2 else y,
                               gamma=gamma, row=row)

        monkeypatch.setattr(cli, "compose_hdr", compose)
        assert dispatch(["reconstruct", "--in", photo, "--checkpoint", ckpt,
                         "--out", str(out)]) == 2
        assert calls == [0, 128]
        assert "exp overflow in prediction at index (0, 128, 0)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ppm", "m.ckpt"]

    def test_a_symlinked_out_writes_through_the_link(self, tmp_path, small_ckpt):
        photo = _photo(tmp_path / "in.ppm", 16, 24, 4)
        (tmp_path / "real").mkdir()
        target, link = tmp_path / "real" / "target.pfm", tmp_path / "link.pfm"
        target.write_bytes(b"old")
        link.symlink_to(target)
        for out in (link, tmp_path / "direct.pfm"):
            assert dispatch(["reconstruct", "--in", photo, "--checkpoint", small_ckpt,
                             "--out", str(out)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "direct.pfm").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "direct.pfm", "in.ppm", "link.pfm", "real", "reconstruct_manifest.json", "small.ckpt"]
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["target.pfm"]

    def test_a_fifo_out_is_refused_and_never_opened(self, tmp_path, small_ckpt, monkeypatch,
                                                    capsys):
        photo = _photo(tmp_path / "in.ppm", 16, 24, 4)
        fifo = tmp_path / "out.pfm"
        rc, opened = _beside_a_fifo(fifo, monkeypatch, lambda: dispatch(
            ["reconstruct", "--in", photo, "--checkpoint", small_ckpt, "--out", str(fifo)]))
        assert rc == 2 and "not a regular file" in capsys.readouterr().err
        assert str(fifo) not in opened and photo in opened
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ppm", "out.pfm", "small.ckpt"]

    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--checkpoint", "{ckpt}", "--out", "{tmp}/r.pfm"],
        ["mask", "--checkpoint", "{ckpt}", "--out-dir", "{tmp}/masks"],
        ["mask", "--levels", "2", "--base-channels", "4", "--out-dir", "{tmp}/masks"]])
    def test_an_over_budget_photo_is_refused_before_its_payload(self, tmp_path, small_ckpt,
                                                                 capsys, argv):
        photo = tmp_path / "huge.ppm"
        photo.write_bytes(b"P6\n65536 65536\n255\n")
        argv = [a.format(ckpt=small_ckpt, tmp=tmp_path) for a in argv] + ["--in", str(photo)]
        tracemalloc.start()
        try:
            rc = dispatch(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 2 and peak < 1 << 20, peak
        assert "65536x65536" in err and f"memory budget of {cli.MEMORY_BUDGET / 2 ** 30:g} GiB" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.ppm", "small.ckpt"]


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
                         "--shard", "none.mds", "--mode", "SConv"]) == 1

    @pytest.mark.parametrize("record", [
        [2, 4, 3], [2, 4, 3, 3, 3, 0], [2, 4, 3, 3, 3, 0, 0.2, 1],
        [2, 4.5, 3, 3, 3, 0, 0.2], [2, 4, 3, 3, 3, 3, 0.2], [2, 4, 3, 3, 3, -1, 0.2],
        [2, 4, 3, 3, 3, 0, float("nan")]])
    def test_malformed_config_record_exits_2(self, tmp_path, ldr_path, record):
        ckpt = str(tmp_path / "bad.ckpt")
        params = initialize_parameters(self.CFG, 0)
        F.save_checkpoint(ckpt, {**params.named_arrays(),
                                 "meta.config": np.array(record, dtype=np.float32)})
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", str(tmp_path / "r.pfm")]) == 2

    def test_negative_slope_record_exits_2(self, tmp_path, ldr_path, capsys):
        ckpt = str(tmp_path / "bad.ckpt")
        F.save_checkpoint(ckpt, {**initialize_parameters(self.CFG, 0).named_arrays(),
                                 "meta.config": np.array([2, 4, 3, 3, 3, 0, -0.1],
                                                         dtype=np.float32)})
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", str(tmp_path / "r.pfm")]) == 2
        assert "leaky_slope" in capsys.readouterr().err
        assert not (tmp_path / "r.pfm").exists()

    def test_extractor_stage_without_bias_exits_2(self, tmp_path, ldr_path):
        ckpt = str(tmp_path / "bad.ckpt")
        save_model(ckpt, initialize_parameters(self.CFG, 0),
                   extractor=FeatureExtractor(channels=(4, 8), seed=0))
        arrays = F.load_checkpoint(ckpt)
        del arrays["extractor.stage1.bias"]
        F.save_checkpoint(ckpt, arrays)
        assert dispatch(["reconstruct", "--in", ldr_path, "--checkpoint", ckpt,
                         "--out", str(tmp_path / "r.pfm")]) == 2


def _pgm(path):
    """A binary PGM's pixels as a (H, W) uint8 array."""
    magic, size, maxval, pixels = path.read_bytes().split(b"\n", 3)
    w, h = map(int, size.split())
    assert (magic, maxval) == (b"P5", b"255")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


class TestMaskCommand:
    """``mask`` writes channel 0 of each layer's mask as round(255 * v), cropped
    to the photo's extent at the layer's level, from the strip walk."""

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
                extents[name[len("mask_"):-len("_c0.pgm")]] = _pgm(out_dir / name).shape
        assert extents == {"input": (13, 21), "enc0": (13, 21), "enc1": (7, 11),
                           "dec0": (13, 21), "out": (13, 21)}

    @staticmethod
    def assert_pgms_are_the_stack(out_dir, photo, params):
        """Each PGM is unet_forward's mask over the reflect-padded photo,
        np.rint(255 * m[0, 0]) cropped to the photo's extent at its level."""
        ldr = F.read_ldr(photo).pixels
        (h, w), f = ldr.shape[1:], params.config.downsample_factor
        pad = ((0, 0), (0, 0), (0, -h % f), (0, -w % f))
        x, m = (np.pad(a[None], pad, mode="reflect") for a in (ldr, exposure_mask(ldr, 0.96)))
        _, stack = unet_forward(x, m, params.as_constants())
        assert len(os.listdir(out_dir)) == len(stack) + 1  # and the manifest
        for name, a in stack:
            rows, cols = -(-h * a.shape[2] // x.shape[2]), -(-w * a.shape[3] // x.shape[3])
            want = np.rint(255 * a[0, 0, :rows, :cols]).astype(np.uint8)
            got = _pgm(out_dir / f"mask_{name}_c0.pgm")
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_divisible_photo_pgms_unchanged(self, tmp_path, small_ckpt, scene_pfm):
        ldr_path, out_dir = str(tmp_path / "in.ppm"), tmp_path / "masks"
        assert dispatch(["simulate-ldr", "--in", scene_pfm, "--out", ldr_path]) == 0
        assert dispatch(["mask", "--in", ldr_path, "--out-dir", str(out_dir),
                         "--checkpoint", small_ckpt]) == 0
        self.assert_pgms_are_the_stack(out_dir, ldr_path, load_model(small_ckpt).params)

    @pytest.mark.parametrize("mode", ["FMask", "IMask", "SConv"])
    @pytest.mark.parametrize("h, w", [(203, 509), (400, 256)])
    def test_pgms_across_strips_are_the_whole_image_stack(self, tmp_path, mode, h, w):
        # As in reconstruct: 509 x 203 runs as four strips of 64 rows, the
        # last reading reflected rows; 256 x 400 as four strips of 128.
        params = initialize_parameters(UNetConfig(mode=mode), 2)
        ckpt, out_dir = str(tmp_path / "m.ckpt"), tmp_path / "masks"
        save_model(ckpt, params)
        photo = _photo(tmp_path / "in.ppm", h, w, h)
        assert dispatch(["mask", "--in", photo, "--checkpoint", ckpt,
                         "--out-dir", str(out_dir)]) == 0
        self.assert_pgms_are_the_stack(out_dir, photo, params)

    def test_levels_round_255_times_the_mask(self, tmp_path, small_ckpt):
        # Channel 0 steps through every byte from 230 to 255: well exposed up
        # to alpha, then the ramp down to 0 at full saturation. At alpha 0.93
        # the ramp's levels 255 * (255 - v) / 17.85 fall between integers.
        levels = np.arange(230, 256)
        ldr = np.full((3, 2, levels.size), 0.5, dtype=np.float32)
        ldr[0] = levels / 255.0
        photo, out_dir = str(tmp_path / "in.ppm"), tmp_path / "masks"
        F.write_ldr(photo, ldr)
        assert dispatch(["mask", "--in", photo, "--out-dir", str(out_dir), "--alpha", "0.93",
                         "--checkpoint", small_ckpt]) == 0
        got = _pgm(out_dir / "mask_input_c0.pgm")
        scaled = 255 * exposure_mask(F.read_ldr(photo).pixels, 0.93)[0]
        assert np.array_equal(got, np.rint(scaled).astype(np.uint8))
        assert np.any(np.rint(scaled) != np.floor(scaled))
        assert np.all(got[:, levels <= 237] == 255) and np.all(got[:, levels == 255] == 0)

    def test_memory_is_bounded_by_the_width(self, tmp_path):
        ckpt = str(tmp_path / "m.ckpt")
        save_model(ckpt, initialize_parameters(UNetConfig(), 0))
        peaks = {}
        for h in (256, 4096):
            photo = _photo(tmp_path / f"in{h}.ppm", h, 256, 5)
            tracemalloc.start()
            try:
                assert dispatch(["mask", "--in", photo, "--checkpoint", ckpt,
                                 "--out-dir", str(tmp_path / "masks")]) == 0
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Each PGM is written a band at a time as the walk finishes its rows,
        # so as in reconstruct the int32 summed-area table of saturated
        # pixels, (h + 1) x 257 of them, is the one structure of the photo's
        # area (the PGMs of 4096 rows would hold about 4.5 MB).
        table = 4 * 257 * (4097 - 257)
        assert peaks[4096] - peaks[256] <= table + (2 << 20), peaks

    def test_an_error_mid_walk_leaves_the_earlier_pgms(self, tmp_path, small_ckpt,
                                                       monkeypatch, capsys):
        photo, out_dir = _photo(tmp_path / "in.ppm", 400, 256, 1), tmp_path / "masks"
        assert dispatch(["mask", "--in", photo, "--checkpoint", small_ckpt,
                         "--out-dir", str(out_dir)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        layers, real = sum(name.endswith(".pgm") for name in before), cli.mask_strips

        def mask_strips(source, shape, params):
            # The first of several strips, one band per layer, then a failure.
            strips = real(source, shape, params)
            for _ in range(layers):
                yield next(strips)
            raise ContractError("the walk failed after its first strip")

        monkeypatch.setattr(cli, "mask_strips", mask_strips)
        photo = _photo(tmp_path / "in.ppm", 400, 256, 2)
        assert dispatch(["mask", "--in", photo, "--checkpoint", small_ckpt,
                         "--out-dir", str(out_dir)]) == 2
        assert "the walk failed after its first strip" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_manifest_records_the_checkpoint_model(self, tmp_path, small_ckpt):
        photo = _photo(tmp_path / "in.ppm", 13, 21, 3)
        first, again = tmp_path / "first", tmp_path / "again"
        assert dispatch(["mask", "--in", photo, "--checkpoint", small_ckpt,
                         "--out-dir", str(first)]) == 0
        manifest = first / "mask_manifest.json"
        resolved = json.loads(manifest.read_text())["resolved_config"]
        assert (resolved["levels"], resolved["base_channels"]) == (2, 4)
        assert dispatch(["mask", "--config", str(manifest), "--in", photo,
                         "--checkpoint", small_ckpt, "--out-dir", str(again)]) == 0
        pgms = sorted(p.name for p in first.iterdir() if p.suffix == ".pgm")
        assert pgms == ["mask_dec0_c0.pgm", "mask_enc0_c0.pgm", "mask_enc1_c0.pgm",
                        "mask_input_c0.pgm", "mask_out_c0.pgm"]
        assert pgms == sorted(p.name for p in again.iterdir() if p.suffix == ".pgm")
        assert all((first / n).read_bytes() == (again / n).read_bytes() for n in pgms)


class TestEvalDataSource:
    """eval reads a shard, which --shard names; anything else is a usage
    error before any file is read."""

    def test_neither_source(self, tmp_path, monkeypatch, small_ckpt):
        monkeypatch.chdir(tmp_path)
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--out-dir", "out"]) == 1

    def test_neither_source_with_a_pfm_in_the_working_directory(self, tmp_path, monkeypatch,
                                                                small_ckpt):
        monkeypatch.chdir(tmp_path)
        F.write_pfm(tmp_path / "s0.pfm", hdr_scene(30, size=(48, 48)).pixels)
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--out-dir", "out"]) == 1

    def test_hdr_dir_is_not_a_source(self, tmp_path, monkeypatch, small_ckpt):
        monkeypatch.chdir(tmp_path)
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--out-dir", "out",
                         "--shard", "none.mds", "--hdr-dir", "none"]) == 1
        assert not (tmp_path / "out").exists()


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


class TestPathsUsersReach:
    """Command paths a user reaches that the tests above do not run."""

    UCFG = UNetConfig(levels=2, base_channels=4)

    @pytest.fixture()
    def shard(self, tmp_path):
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        for i in range(2):
            F.write_pfm(hdr_dir / f"s{i}.pfm", hdr_scene(30 + i, size=(48, 48)).pixels)
        path = str(tmp_path / "train.mds")
        assert dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", path,
                         "--patch", "16", "--per-image", "4", "--threshold", "0.0"]) == 0
        return path

    def test_train_inpaint_procedural_trains_on_the_texture_corpus(self, tmp_path):
        out = tmp_path / "run"
        assert dispatch(["train-inpaint", "--procedural", "3", "--out-dir", str(out),
                         "--steps", "2", "--batch", "2", "--steps-per-epoch", "2",
                         "--levels", "2", "--base-channels", "4", "--seed", "4"]) == 0
        manifest = json.loads((out / "train_inpaint_manifest.json").read_text())
        assert manifest["inputs"] == {"images": 3}
        cfg = TrainConfig(batch_size=2, max_steps=2, steps_per_epoch=2, seed=4)
        result = train_inpainting(make_texture_corpus(3, seed=4), cfg, self.UCFG,
                                  FeatureExtractor())
        want = tmp_path / "want.ckpt"
        save_model(want, result.params, adam_state=result.adam_state,
                   extractor=FeatureExtractor())
        assert (out / "inpaint_final.ckpt").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("flag,value,knob", [("--lr", "nan", "lr"), ("--lr", "inf", "lr"),
                                                 ("--factor", "nan", "plateau factor")])
    def test_non_finite_rate_exits_2_before_any_step(self, tmp_path, capsys, flag, value,
                                                      knob):
        out = tmp_path / "run"
        rc = dispatch(["train-inpaint", "--procedural", "2", "--out-dir", str(out),
                       "--steps", "2", "--batch", "2", "--patience", "1", "--levels", "2",
                       "--base-channels", "4", flag, value])
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert knob in err and "conv2d" not in err

    def test_train_inpaint_without_images_is_usage_error(self, tmp_path):
        assert dispatch(["train-inpaint", "--out-dir", str(tmp_path / "run")]) == 1
        assert not (tmp_path / "run").exists()

    def test_finetune_without_init_trains_a_fresh_model(self, tmp_path, shard):
        out = tmp_path / "run"
        assert dispatch(["finetune-hdr", "--shard", shard, "--out-dir", str(out),
                         "--steps", "2", "--batch", "2", "--levels", "2",
                         "--base-channels", "4", "--seed", "2"]) == 0
        manifest = json.loads((out / "finetune_hdr_manifest.json").read_text())
        assert manifest["inputs"]["init"] is None
        assert manifest["resolved_config"]["mode"] == "FMask"
        cfg = TrainConfig(batch_size=2, max_steps=2, seed=2)
        result = finetune_hdr(F.read_dataset_shard(shard), cfg, self.UCFG, FeatureExtractor())
        want = tmp_path / "want.ckpt"
        save_model(want, result.params, adam_state=result.adam_state,
                   extractor=FeatureExtractor())
        assert (out / "hdr_final.ckpt").read_bytes() == want.read_bytes()

    def test_eval_dump_images_writes_each_reconstruction(self, tmp_path, shard, small_ckpt):
        out = tmp_path / "eval"
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--shard", shard,
                         "--out-dir", str(out), "--dump-images", "1"]) == 0
        records = F.read_dataset_shard(shard)
        params = load_model(small_ckpt).params
        assert sorted(p.name for p in out.glob("recon_*.pfm")) == \
            [f"recon_{i:04d}.pfm" for i in range(len(records))]
        for i, rec in enumerate(records):
            y = predict(rec.ldr.pixels[None], rec.mask[None], params)[0]
            assert np.array_equal(F.read_pfm(str(out / f"recon_{i:04d}.pfm")),
                                  compose_hdr(rec.ldr, rec.mask, y).pixels)
        manifest = json.loads((out / "eval_manifest.json").read_text())
        assert manifest["outputs"]["reconstructions"] == len(records)
        assert manifest["inputs"] == {"shard": shard}

    def test_a_fifo_metrics_table_is_refused_and_never_opened(self, tmp_path, shard,
                                                               small_ckpt, monkeypatch, capsys):
        out = tmp_path / "eval"
        out.mkdir()
        fifo = out / "metrics.tsv"
        rc, opened = _beside_a_fifo(fifo, monkeypatch, lambda: dispatch(
            ["eval", "--checkpoint", small_ckpt, "--shard", shard, "--out-dir", str(out)]))
        assert rc == 2 and "not a regular file" in capsys.readouterr().err
        assert str(fifo) not in opened and os.listdir(out) == ["metrics.tsv"]

    def test_eval_dump_images_takes_only_0_or_1(self, tmp_path, shard, small_ckpt):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"dump_images": 2}))
        for extra in (["--dump-images", "2"], ["--dump-images", "-1"],
                      ["--config", str(conf)]):
            out = tmp_path / "eval"
            assert dispatch(["eval", "--checkpoint", small_ckpt, "--shard", shard,
                             "--out-dir", str(out)] + extra) == 1, extra
            assert not out.exists(), extra

    def test_eval_bins_each_record_by_its_own_mask(self, tmp_path, small_ckpt):
        # Masked at alpha 0.9, a crop's saturated share is not the share of
        # its pixels above 0.96, so binning must read the stored mask.
        hdr_dir = tmp_path / "hdr"
        hdr_dir.mkdir()
        for i, scene in enumerate(make_hdr_corpus(4, seed=3)):
            F.write_pfm(hdr_dir / f"s{i}.pfm", scene.pixels)
        shard, out = str(tmp_path / "a90.mds"), tmp_path / "eval"
        assert dispatch(["sample-patches", "--in-dir", str(hdr_dir), "--out", shard,
                         "--patch", "32", "--per-image", "6", "--threshold", "0",
                         "--alpha", "0.9"]) == 0
        assert dispatch(["eval", "--checkpoint", small_ckpt, "--shard", shard,
                         "--out-dir", str(out)]) == 0
        records = F.read_dataset_shard(shard)
        shares = [100 * (rec.mask < 1).any(axis=0).mean() for rec in records]
        above = [100 * (rec.ldr.pixels.max(axis=0) > 0.96).mean() for rec in records]
        edges = np.linspace(0, 100, 11)
        want = np.histogram(shares, edges)[0]
        assert not np.array_equal(want, np.histogram(above, edges)[0])
        rows = (out / "metrics.tsv").read_text().splitlines()[1:]
        assert [int(row.split("\t")[1]) for row in rows] == [*want, len(records)]

    # The first two thirds of the sorted HDR files train, the rest test.
    @pytest.mark.parametrize("scenes, train", [(2, 1), (3, 2), (4, 2)])
    def test_ablate_reads_texture_and_hdr_dirs(self, tmp_path, monkeypatch, scenes, train):
        tex_dir, hdr_dir = tmp_path / "tex", tmp_path / "hdr"
        tex_dir.mkdir()
        hdr_dir.mkdir()
        textures = make_texture_corpus(2, seed=1, size=(16, 16))
        for i, img in enumerate(textures):
            F.write_ldr(tex_dir / f"t{i}.ppm", img)
        for i in range(scenes):
            F.write_pfm(hdr_dir / f"s{i}.pfm", hdr_scene(40 + i, size=(48, 48)).pixels)
        seen = {}

        def run_ablation(texture_images, train_records, test_records, seeds, **kwargs):
            seen.update(textures=texture_images, train=train_records, test=test_records)
            return {}

        monkeypatch.setattr(cli, "run_ablation", run_ablation)
        assert dispatch(["ablate", "--out-dir", str(tmp_path / "out"), "--seeds", "0",
                         "--texture-dir", str(tex_dir), "--hdr-dir", str(hdr_dir),
                         "--patch", "16", "--per-image", "4", "--threshold", "0"]) == 0
        assert len(seen["textures"]) == 2
        for got, img in zip(seen["textures"], textures):
            assert np.array_equal(got, F.read_ldr(F.encode_ppm(img)).pixels)
        names = [f"s{i}.pfm" for i in range(scenes)]
        assert {r.image_id for r in seen["train"]} == set(names[:train])
        assert {r.image_id for r in seen["test"]} == set(names[train:])


class TestNumericKnobDomains:
    """Every numeric knob of every command, at values outside its domain.

    A command either runs or fails in a controlled way: exit 0, 1 or 2, no
    exception and no RuntimeWarning escaping ``dispatch``. The knobs come
    from the commands' ``_*_DEFAULTS`` tables, so a knob added later is
    covered; each command has a tiny valid invocation below.
    """

    FLOATS, INTS = ("nan", "inf", "-1", "0"), ("-1", "0")
    UNET = ["--levels", "2", "--base-channels", "4"]
    TRAIN = ["--steps", "1", "--batch", "2", "--steps-per-epoch", "1"] + UNET
    BASE = {
        "simulate-ldr": ["--in", "{pfm}", "--out", "{out}/x.ppm"],
        "mask": ["--in", "{ppm}", "--out-dir", "{out}"] + UNET,
        "sample-patches": ["--in-dir", "{hdr_dir}", "--out", "{out}/x.mds", "--patch", "32",
                           "--per-image", "2", "--threshold", "0"],
        "gen-inpaint-masks": ["--out-dir", "{out}", "--count", "1", "--height", "32",
                              "--width", "32"],
        "train-inpaint": ["--out-dir", "{out}", "--procedural", "2"] + TRAIN,
        "finetune-hdr": ["--out-dir", "{out}", "--shard", "{shard}"] + TRAIN,
        "reconstruct": ["--in", "{ppm}", "--checkpoint", "{ckpt}", "--out", "{out}/x.pfm"],
        "eval": ["--checkpoint", "{ckpt}", "--shard", "{shard}", "--out-dir", "{out}"],
        "ablate": ["--out-dir", "{out}", "--seeds", "0", "--pretrain-steps", "1",
                   "--finetune-steps", "1", "--textures", "2", "--train-scenes", "2",
                   "--test-scenes", "1", "--patch", "32", "--per-image", "2",
                   "--threshold", "0", "--batch", "2", "--steps-per-epoch", "1"],
        "gradcheck": [],
    }

    @staticmethod
    def knobs(command):
        """``{knob: values}`` for the numeric knobs of ``command``'s table."""
        parser = cli._build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        table = subs.choices[command].get_default("defaults")
        return {k: TestNumericKnobDomains.FLOATS if type(v) is float
                else TestNumericKnobDomains.INTS
                for k, v in table.items() if type(v) in (int, float) and k != "seed"}

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("knobs")
        scene = hdr_scene(3, size=(48, 48))
        paths = {"pfm": str(root / "scene.pfm"), "ppm": str(root / "photo.ppm"),
                 "hdr_dir": str(root / "hdr"), "shard": str(root / "train.mds"),
                 "ckpt": str(root / "small.ckpt")}
        F.write_pfm(paths["pfm"], scene.pixels)
        F.write_ldr(paths["ppm"], simulate_ldr(scene))
        os.mkdir(paths["hdr_dir"])
        F.write_pfm(os.path.join(paths["hdr_dir"], "s.pfm"), scene.pixels)
        assert dispatch(["sample-patches", "--in-dir", paths["hdr_dir"], "--out",
                         paths["shard"], "--patch", "32", "--per-image", "2",
                         "--threshold", "0"]) == 0
        save_model(paths["ckpt"], initialize_parameters(UNetConfig(levels=2, base_channels=4), 0))
        return paths

    def run(self, tmp_path, paths, command, extra):
        out = tmp_path / f"out{len(os.listdir(tmp_path))}"
        out.mkdir()
        argv = [command] + [a.format(out=out, **paths) for a in self.BASE[command]] + extra
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return dispatch(argv)

    def test_every_command_with_numeric_knobs_has_an_invocation(self):
        parser = cli._build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(self.BASE) == {name for name in subs.choices if self.knobs(name)}

    @pytest.mark.parametrize("command", sorted(BASE))
    def test_out_of_domain_values_fail_cleanly(self, tmp_path, paths, command):
        assert self.run(tmp_path, paths, command, []) == 0
        for knob, values in self.knobs(command).items():
            for value in values:
                flag = f"--{knob.replace('_', '-')}={value}"
                rc = self.run(tmp_path, paths, command, [flag])
                assert rc in (0, 1, 2), (flag, rc)

    @pytest.mark.parametrize("command,flag,values,named", [
        ("gradcheck", "--epsilon", ("nan", "inf"), "epsilon"),
        ("gradcheck", "--threshold", ("nan", "inf"), "threshold"),
        ("simulate-ldr", "--gamma", ("0", "nan", "inf"), "gamma"),
        ("simulate-ldr", "--bits", ("-1",), "bits"),
        ("reconstruct", "--gamma", ("0", "-1", "inf"), "gamma"),
        ("mask", "--base-channels", ("0", "-1"), "base channels"),
        ("train-inpaint", "--base-channels", ("0", "-1"), "base channels"),
        ("finetune-hdr", "--base-channels", ("0", "-1"), "base channels"),
        ("gen-inpaint-masks", "--height", ("0", "-1"), "height"),
        ("gen-inpaint-masks", "--width", ("0", "-1"), "width"),
        ("train-inpaint", "--procedural", ("-1",), "texture count"),
        ("ablate", "--textures", ("-1",), "texture count"),
        ("ablate", "--train-scenes", ("-1",), "scene count"),
        ("ablate", "--test-scenes", ("-1",), "scene count"),
        ("train-inpaint", "--steps", ("0",), "steps"),
        ("eval", "--bins", ("-2",), "bins"),
    ])
    def test_seen_escapes_exit_2_naming_the_knob(self, tmp_path, paths, capsys, command, flag,
                                                 values, named):
        for value in values:
            capsys.readouterr()
            assert self.run(tmp_path, paths, command, [f"{flag}={value}"]) == 2, value
            assert named in capsys.readouterr().err, value
