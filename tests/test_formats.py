import builtins
import errno
import hashlib
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdrmask import formats as F
from hdrmask.errors import (ChecksumError, ContractError, FormatError, UnsupportedFormatError,
                            VersionError)
from hdrmask.sampler import SamplerConfig, sample_patches
from hdrmask.synthetic import hdr_scene
from hdrmask.errors import HdrMaskError


def rnd(seed):
    return np.random.default_rng(seed)


class TestPfm:
    def test_round_trip_bit_exact(self, tmp_path):
        img = (rnd(0).random((3, 7, 5)) * 1e4).astype(np.float32)
        path = tmp_path / "x.pfm"
        F.write_pfm(path, img)
        assert np.array_equal(F.read_pfm(path), img)

    def test_gray_round_trip(self, tmp_path):
        img = rnd(1).random((1, 4, 6)).astype(np.float32)
        path = tmp_path / "g.pfm"
        F.write_pfm(path, img)
        back = F.read_pfm(path)
        assert back.shape == (1, 4, 6) and np.array_equal(back, img)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.pfm"
        F.write_pfm(path, np.zeros((3, 2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw.startswith(b"PF\n3 2\n-1.0\n")

    def test_truncated_payload_reports_counts(self, tmp_path):
        path = tmp_path / "t.pfm"
        F.write_pfm(path, np.ones((3, 4, 4), dtype=np.float32))
        raw = path.read_bytes()[:-10]
        with pytest.raises(FormatError) as err:
            F.read_pfm(raw)
        assert "truncated" in str(err.value)

    def test_nonfinite_payload_rejected_on_read(self):
        img = np.ones((1, 2, 2), dtype=np.float32)
        data = bytearray(F.encode_pfm(img))
        data[-4:] = struct.pack("<f", float("nan"))
        with pytest.raises(FormatError):
            F.read_pfm(bytes(data))

    def test_nonfinite_rejected_on_write(self, tmp_path):
        img = np.full((1, 2, 2), np.inf, dtype=np.float32)
        with pytest.raises(ContractError):
            F.write_pfm(tmp_path / "inf.pfm", img)

    def test_big_endian_scale_accepted(self):
        img = np.arange(6, dtype=">f4").reshape(1, 3, 2)
        hwc = np.ascontiguousarray(img.transpose(1, 2, 0))[::-1]
        data = b"Pf\n2 3\n1.0\n" + np.ascontiguousarray(hwc).tobytes()
        back = F.read_pfm(data)
        assert np.array_equal(back, img.astype(np.float32))

    def test_huge_declared_size_errors_before_alloc(self):
        data = b"PF\n999999 999999\n-1.0\n" + b"\x00" * 64
        with pytest.raises(FormatError):
            F.read_pfm(data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, ">f4"])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_file_is_the_documented_layout(self, tmp_path, dtype, channels):
        # Header, then rows bottom-up of interleaved little-endian float32.
        img = (rnd(3).random((channels, 5, 7)) * 1e3).astype(dtype)
        path = tmp_path / "x.pfm"
        F.write_pfm(path, img)
        hwc = img.transpose(1, 2, 0)[::-1].astype("<f4")
        magic = b"PF" if channels == 3 else b"Pf"
        want = magic + b"\n7 5\n-1.0\n" + hwc.tobytes()
        assert path.read_bytes() == want == F.encode_pfm(img)

    def test_write_holds_one_payload_copy(self, tmp_path):
        img = rnd(4).random((3, 1024, 1024)).astype(np.float32)
        tracemalloc.start()
        try:
            F.write_pfm(tmp_path / "big.pfm", img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * img.nbytes, peak / img.nbytes


class TestPpm:
    def test_round_trip_and_idempotence(self, tmp_path):
        ldr = (rnd(2).integers(0, 256, size=(3, 5, 4)) / 255).astype(np.float32)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        F.write_ldr(p1, ldr)
        back = F.read_ldr(p1)
        F.write_ldr(p2, back.pixels)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(back.pixels, ldr)

    def test_all_byte_values_exact(self, tmp_path):
        ldr = (np.arange(256, dtype=np.float32) / 255).reshape(1, 16, 16)
        ldr = np.broadcast_to(ldr, (3, 16, 16)).copy()
        path = tmp_path / "c.ppm"
        F.write_ldr(path, ldr)
        assert np.array_equal(F.read_ldr(path).pixels, ldr)

    def test_value_mapping(self, tmp_path):
        path = tmp_path / "v.ppm"
        F.write_ldr(path, np.full((3, 1, 1), 128 / 255, dtype=np.float32))
        assert np.isclose(F.read_ldr(path).pixels[0, 0, 0], 128 / 255)

    def test_grayscale_p5_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            F.read_ldr(b"P5\n2 2\n255\n" + b"\x00" * 4)

    def test_wrong_maxval_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            F.read_ldr(b"P6\n2 2\n65535\n" + b"\x00" * 24)

    def test_comment_in_header_tolerated(self):
        data = b"P6\n# a comment\n1 1\n255\n\x10\x20\x30"
        assert F.read_ldr(data).pixels.shape == (3, 1, 1)

    def test_reader_bands_are_the_photo_rows(self, tmp_path):
        raw = rnd(3).integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        data = b"P6\n# c\n5 7\n255\n" + raw.tobytes() + b"tail"
        path = tmp_path / "r.ppm"
        path.write_bytes(data)
        whole = (raw.astype(np.float32) / np.float32(255.0)).transpose(2, 0, 1)
        for source in (str(path), data):
            with F.LdrReader(source) as photo:
                assert (photo.height, photo.width) == (7, 5)
                for a, b in ((0, 7), (2, 5), (6, 7), (3, 3)):
                    band = photo.rows(a, b)
                    assert band.dtype == np.float32 and band.flags.c_contiguous
                    assert np.array_equal(band, whole[:, a:b])
                with pytest.raises(HdrMaskError):
                    photo.rows(5, 8)
            assert np.array_equal(F.read_ldr(source).pixels, whole)

    def test_reader_parses_the_header_before_the_payload(self, tmp_path):
        # A header-only file claiming the largest extent opens; only reading
        # (or checking) its payload raises, naming the truncation.
        path = tmp_path / "h.ppm"
        path.write_bytes(b"P6\n65536 65536\n255\n")
        tracemalloc.start()
        try:
            with F.LdrReader(str(path)) as photo:
                assert (photo.height, photo.width) == (65536, 65536)
                for call in (photo.check_payload, lambda: photo.rows(0, 1)):
                    with pytest.raises(FormatError, match="truncated"):
                        call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for data in (b"", b"P6\n2 2\n", b"P6\n2 2\n65535\n"):
            path.write_bytes(data)
            with pytest.raises(FormatError):
                F.LdrReader(str(path))


class TestPfmStripWriter:
    def test_bands_in_any_order_write_the_whole_image(self, tmp_path):
        img = (rnd(4).random((3, 9, 4)) * 100).astype(np.float32)
        path = tmp_path / "s.pfm"
        with F.pfm_strip_writer(str(path), 3, 9, 4) as write:
            for a, b in ((4, 9), (0, 1), (1, 4)):
                write(a, img[:, a:b])
        assert path.read_bytes() == F.encode_pfm(img)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.pfm"]


class TestPgm:
    def test_writes_expected_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        F.write_gray8(path, np.array([[0, 128], [255, 7]], dtype=np.uint8))
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7])

    def test_bands_top_down_write_the_whole_image(self, tmp_path):
        # Floats are clipped to [0,1] and stored as round(255 * v), as
        # write_gray8 stores them; an empty band writes nothing.
        values = rnd(5).random((5, 3)) * 1.2 - 0.1
        path = tmp_path / "b.pgm"
        with F.pgm_strip_writer(str(path), 5, 3) as write:
            for a, b in ((0, 2), (2, 2), (2, 5)):
                write(values[a:b].astype(np.float32))
        want = np.rint(np.clip(values.astype(np.float32), 0, 1) * 255).astype(np.uint8)
        assert path.read_bytes() == b"P5\n3 5\n255\n" + want.tobytes()
        F.write_gray8(tmp_path / "w.pgm", values.astype(np.float32))
        assert (tmp_path / "w.pgm").read_bytes() == path.read_bytes()


def _pfm_bands(*bands):
    """A writer of a 3 x 9 x 4 PFM from ``(row, pixels)`` bands."""
    def write(path):
        with F.pfm_strip_writer(path, 3, 9, 4) as put:
            for row, pixels in bands:
                put(row, pixels)
    return write


def _pgm_bands(*bands):
    """A writer of a 3 x 4 PGM from top-down bands."""
    def write(path):
        with F.pgm_strip_writer(path, 3, 4) as put:
            for rows in bands:
                put(rows)
    return write


WRITERS = {
    "pfm_strip_writer": _pfm_bands((0, np.ones((3, 9, 4), np.float32))),
    "pgm_strip_writer": _pgm_bands(np.zeros((1, 4), np.uint8), np.full((2, 4), 0.5)),
    "write_pfm": lambda path: F.write_pfm(path, np.ones((1, 2, 3), np.float32)),
    "write_gray8": lambda path: F.write_gray8(path, np.eye(3)),
    "write_ldr": lambda path: F.write_ldr(path, np.full((3, 2, 3), 0.5)),
    "save_checkpoint": lambda path: F.save_checkpoint(path, {"w": np.ones(2, np.float32)}),
    "write_dataset_shard": lambda path: F.write_dataset_shard(path, _records()[:1]),
}


class _FullDisk:
    """A file whose every write stores one byte and then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        self._fh.write(b"\0")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


_ZEROS = (2, np.zeros((3, 3, 4), np.float32))
FAILURES = [pytest.param(write, True, id=f"{name}-full-disk") for name, write in WRITERS.items()]
FAILURES += [pytest.param(write, False, id=name) for name, write in (
    ("pfm_strip_writer-not-finite", _pfm_bands(_ZEROS, (0, np.full((3, 2, 4), np.inf, np.float32)))),
    ("pfm_strip_writer-past-the-last-row", _pfm_bands(_ZEROS, (8, np.zeros((3, 2, 4), np.float32)))),
    ("pfm_strip_writer-wrong-channels", _pfm_bands(_ZEROS, (0, np.zeros((1, 2, 4), np.float32)))),
    ("pgm_strip_writer-past-the-last-row", _pgm_bands(np.zeros((2, 4)), np.zeros((2, 4)))),
    ("pgm_strip_writer-wrong-width", _pgm_bands(np.zeros((1, 4)), np.zeros((1, 5)))),
    ("pgm_strip_writer-ends-short", _pgm_bands(np.zeros((2, 4)))),
    ("write_pfm-not-finite", lambda path: F.write_pfm(path, np.full((3, 2, 2), np.nan))))]


class TestPlacement:
    """Every writer writes a hidden temporary beside the file a path names and
    replaces that file with it only when the whole file is written."""

    @pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
    def test_a_symlink_is_written_through_and_kept(self, tmp_path, write):
        (tmp_path / "real").mkdir()
        target, link, direct = tmp_path / "real" / "target", tmp_path / "link", tmp_path / "direct"
        target.write_bytes(b"old")
        link.symlink_to(target)
        write(str(link))
        write(str(direct))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == direct.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["direct", "link", "real"]
        assert os.listdir(tmp_path / "real") == ["target"]

    @pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
    def test_a_fifo_is_refused_and_never_opened(self, tmp_path, monkeypatch, write):
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        # A reader end held open keeps a writer's open from blocking, so a
        # write to the FIFO fails the test instead of hanging it.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        opened, real_open = [], builtins.open

        def spy(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(os.path.realpath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        try:
            with pytest.raises(ContractError, match="not a regular file"):
                write(str(fifo))
            assert os.read(reader, 1) == b""
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert str(fifo) not in opened and os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
    def test_a_rewritten_file_keeps_its_permission_bits(self, tmp_path, write):
        path = tmp_path / "out"
        write(str(path))
        os.chmod(path, 0o600)
        write(str(path))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        os.chmod(path, 0o640)
        write(str(path))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_a_text_block_is_placed_like_the_binary_ones(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("old\n")
        with F._replacing(str(path), "w") as fh:
            fh.write("a\tb\n")
        assert path.read_text() == "a\tb\n" and os.listdir(tmp_path) == ["out.tsv"]

    def test_an_unopenable_temporary_is_named_by_the_given_path(self, tmp_path):
        out = str(tmp_path / "nodir" / "x.ppm")
        with pytest.raises(FileNotFoundError) as err:
            F.write_ldr(out, np.zeros((3, 1, 1)))
        assert err.value.filename == out and ".tmp" not in str(err.value)

    @pytest.mark.parametrize("write, full_disk", FAILURES)
    def test_a_raise_mid_write_leaves_the_old_bytes_and_no_temporary(self, tmp_path,
                                                                      monkeypatch, write,
                                                                      full_disk):
        path = tmp_path / "out"
        path.write_bytes(b"older")
        if full_disk:
            monkeypatch.setattr(F, "open", lambda *a, **k: _FullDisk(builtins.open(*a, **k)),
                                raising=False)
        with pytest.raises(OSError if full_disk else HdrMaskError):
            write(str(path))
        assert path.read_bytes() == b"older"
        assert os.listdir(tmp_path) == ["out"]


class TestRgbe:
    @staticmethod
    def _flat_rgbe(width, height, rgbe_pixel):
        header = b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n"
        header += f"-Y {height} +X {width}\n".encode()
        return header + bytes(rgbe_pixel) * (width * height)

    def test_flat_decoding(self):
        # (128, 64, 32, 136): exponent 136 -> scale 1.0
        data = self._flat_rgbe(4, 2, (128, 64, 32, 136))
        img = F.read_rgbe(data)
        assert img.shape == (3, 2, 4)
        assert np.allclose(img[:, 0, 0], [128.0, 64.0, 32.0])

    def test_zero_exponent_is_black(self):
        data = self._flat_rgbe(4, 2, (10, 20, 30, 0))
        assert np.all(F.read_rgbe(data) == 0)

    def test_read_hdr_dispatches_by_suffix(self, tmp_path):
        path = tmp_path / "scene.hdr"
        path.write_bytes(self._flat_rgbe(8, 4, (128, 128, 128, 136)))
        img = F.read_hdr(str(path))
        assert img.pixels.shape == (3, 4, 8)

    def test_missing_signature(self):
        with pytest.raises(FormatError):
            F.read_rgbe(b"NOTRAD\n")

    @staticmethod
    def _header(width, height):
        return b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n" + f"-Y {height} +X {width}\n".encode()

    @staticmethod
    def _rle_channel(values):
        """New-style RLE of one channel of a scanline: runs of three or more
        equal bytes as (128 + n, value), the rest as (n, bytes...) literals."""
        out, x, w = bytearray(), 0, len(values)
        while x < w:
            end = x
            while end < w and end - x < 127 and values[end] == values[x]:
                end += 1
            if end - x >= 3:
                out += bytes([128 + end - x, values[x]])
                x = end
                continue
            end = x + 1
            while end < w and end - x < 128 and not (
                    end + 2 < w and values[end] == values[end + 1] == values[end + 2]):
                end += 1
            out += bytes([end - x]) + bytes(values[x:end])
            x = end
        return bytes(out)

    @pytest.mark.parametrize("width", [8, 13, 300])
    def test_rle_decodes_to_the_flat_encoding(self, width):
        rng = rnd(width)
        rgbe = rng.integers(0, 256, size=(3, width, 4), dtype=np.uint8)
        # Runs inside a scanline and across a whole one; at width 300 runs
        # and literals also reach their 127- and 128-byte caps.
        rgbe[0, 2:7] = (9, 8, 7, 130)
        rgbe[1, :, 3] = 140
        if width > 200:
            rgbe[2, 10:150, :2] = 77
        rgbe[:, 0, 0] = 5  # a flat scanline must not open with the RLE marker
        flat = self._header(width, 3) + rgbe.tobytes()
        rle = bytearray(self._header(width, 3))
        for row in rgbe:
            rle += bytes([2, 2, width >> 8, width & 255])
            for ch in range(4):
                rle += self._rle_channel(row[:, ch].tolist())
        got, want = F.read_rgbe(bytes(rle)), F.read_rgbe(flat)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scanline, message", [
        (bytes([2, 2, 0, 8, 128 + 9, 1]), "RLE run overflows scanline"),
        (bytes([2, 2, 0, 8, 0]), "bad RLE literal length"),
        (bytes([2, 2, 0, 8, 6, 1, 2, 3, 4, 5, 6, 3, 1, 2, 3]), "bad RLE literal length"),
        (bytes([2, 2, 0, 8, 128 + 4]), "truncated file"),
    ], ids=["run-past-scanline", "zero-length-literal", "literal-past-scanline",
            "truncated-run"])
    def test_malformed_rle_raises_with_an_offset(self, scanline, message):
        data = self._header(8, 1) + scanline
        with pytest.raises(FormatError, match=message) as info:
            F.read_rgbe(data)
        assert info.value.offset is not None
        assert len(self._header(8, 1)) <= info.value.offset <= len(data)


class TestCheckpoint:
    def _arrays(self):
        rng = rnd(3)
        return {"enc0.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                "enc0.bias": np.zeros(4, dtype=np.float32)}

    def test_round_trip_bit_exact(self, tmp_path):
        arrays = self._arrays()
        path = tmp_path / "m.ckpt"
        F.save_checkpoint(path, {**arrays,
                                 "adam.step": np.array([3], np.float32),
                                 "adam.m.enc0.weight": np.ones((4, 3, 3, 3), np.float32),
                                 "adam.v.enc0.weight": np.ones((4, 3, 3, 3), np.float32)})
        loaded = F.load_checkpoint(path)
        assert np.array_equal(loaded["enc0.weight"], arrays["enc0.weight"])
        assert loaded["adam.step"][0] == 3.0

    def test_entries_stored_in_the_order_given(self, tmp_path):
        arrays = {"b": np.ones(2, np.float32), "a": np.zeros((1, 2), np.float32)}
        path = tmp_path / "m.ckpt"
        F.save_checkpoint(path, arrays)
        assert list(F.load_checkpoint(path)) == ["b", "a"]
        raw = path.read_bytes()
        assert raw.index(b"\x01\x00b") < raw.index(b"\x01\x00a")

    def test_repeated_name_rejected_at_its_entry(self):
        def entry(name, values):
            return (struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, len(values))
                    + np.asarray(values, "<f4").tobytes())

        first = entry(b"enc0.bias", [0.0, 0.0])
        body = F.CHECKPOINT_MAGIC + struct.pack("<II", F.CHECKPOINT_VERSION, 2) + first \
            + entry(b"enc0.bias", [1.0, 1.0])
        with pytest.raises(FormatError) as err:
            F.load_checkpoint(body + hashlib.sha256(body).digest()[:8])
        assert err.value.offset == 12 + len(first)
        assert "enc0.bias" in str(err.value)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "m.ckpt"
        F.save_checkpoint(path, self._arrays())
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0x5A
        with pytest.raises(ChecksumError):
            F.load_checkpoint(bytes(raw))

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        F.save_checkpoint(path, self._arrays())
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # version field
        body = bytes(raw[:-8])
        digest = hashlib.sha256(body).digest()[:8]
        with pytest.raises(VersionError):
            F.load_checkpoint(body + digest)

    def test_float64_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            F.save_checkpoint(tmp_path / "bad.ckpt", {"w": np.zeros(3, dtype=np.float64)})

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            F.save_checkpoint(tmp_path / "e.ckpt", {})

    # The writer refuses what the reader would refuse, before writing a byte.
    @pytest.mark.parametrize("arrays", [
        {"w": np.zeros((1,) * 9, np.float32)},
        {"w": np.zeros((2, 0), np.float32)},
        {"w": np.zeros(2 ** 21, np.float32)},
        {"\u00e9" * 32768: np.zeros(1, np.float32)},
    ], ids=["rank-9", "extent-0", "extent-2**21", "name-65536-bytes"])
    def test_unreadable_entry_refused_and_nothing_written(self, tmp_path, arrays):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(ContractError):
            F.save_checkpoint(path, {"enc0.bias": np.zeros(4, np.float32), **arrays})
        assert not path.exists()

    def test_entries_at_the_reader_limits_round_trip(self, tmp_path):
        arrays = {"a" * 0xFFFF: np.ones(1, np.float32),
                  "rank8": np.ones((1,) * 7 + (2,), np.float32),
                  "long": np.arange(F._MAX_DIMENSION, dtype=np.float32)}
        path = tmp_path / "m.ckpt"
        F.save_checkpoint(path, arrays)
        loaded = F.load_checkpoint(path)
        assert list(loaded) == list(arrays)
        assert all(np.array_equal(loaded[k], a) for k, a in arrays.items())


def _records():
    scene = hdr_scene(5, size=(96, 96))
    cfg = SamplerConfig(patch_size=32, patches_per_image=10, metric_threshold=0.0)
    recs = sample_patches(scene, cfg, seed=1, image_id="shardtest")
    assert recs
    return recs


class TestShard:
    def test_round_trip_preserves_records(self, tmp_path):
        records = _records()
        path = tmp_path / "d.mds"
        F.write_dataset_shard(path, records)
        back = F.read_dataset_shard(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.image_id == b.image_id
            assert tuple(a.offset) == tuple(b.offset)
            assert a.score == b.score
            assert np.array_equal(np.float32(a.hdr.pixels), b.hdr.pixels)
            assert np.array_equal(np.float32(a.ldr.pixels), b.ldr.pixels)
            assert np.array_equal(np.float32(a.mask), b.mask)

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            F.write_dataset_shard(tmp_path / "e.mds", [])

    def test_count_mismatch_detected(self, tmp_path):
        records = _records()
        path = tmp_path / "d.mds"
        F.write_dataset_shard(path, records)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", len(records) + 3)
        with pytest.raises(FormatError):
            F.read_dataset_shard(bytes(raw))

    def test_mask_invariant_enforced_on_write(self, tmp_path):
        records = _records()
        records[0].mask = np.clip(records[0].mask + 0.25, 0, 1)
        with pytest.raises(ContractError):
            F.write_dataset_shard(tmp_path / "bad.mds", records)

    def test_index_offset_out_of_range(self, tmp_path):
        records = _records()
        path = tmp_path / "d.mds"
        F.write_dataset_shard(path, records)
        raw = bytearray(path.read_bytes())
        raw[16:24] = struct.pack("<Q", len(raw) + 100)
        with pytest.raises(FormatError):
            F.read_dataset_shard(bytes(raw))


class TestFuzzSafety:
    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash_readers(self, blob):
        for reader in (F.read_pfm, F.read_ldr, F.read_rgbe,
                       F.load_checkpoint, F.read_dataset_shard):
            try:
                reader(blob)
            except HdrMaskError:
                pass

    @given(st.integers(0, 10 ** 9), st.integers(0, 255), st.integers(0, 3000))
    @settings(max_examples=120, deadline=None)
    def test_mutated_valid_files_never_crash(self, seed, value, position):
        rng = rnd(seed % 1000)
        img = rng.random((3, 4, 4)).astype(np.float32)
        base = F.encode_pfm(img)
        raw = bytearray(base)
        raw[position % len(raw)] = value
        try:
            F.read_pfm(bytes(raw))
        except HdrMaskError:
            pass
