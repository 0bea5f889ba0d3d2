"""Bit-exact file handling: HDR carriers, LDR carriers, checkpoints, shards.

Byte layouts (all multi-byte integers and floats little-endian):

PFM (portable float map, HDR carrier)
    "PF\\n" (color) or "Pf\\n" (gray), "<width> <height>\\n", "<scale>\\n"
    where a negative scale means little-endian, then width*height*channels
    float32 samples, scanlines stored bottom-to-top.

PPM (P6, LDR carrier)
    "P6\\n<width> <height>\\n255\\n" then RGB bytes top-to-bottom. Only
    maxval 255 is supported.

Checkpoint (".ckpt")
    magic "MHDR" | u32 version=1 | u32 entry_count
    per entry: u16 name_len | name utf-8 | u8 rank | u32 extents[rank]
               | float32 values[prod(extents)]
    trailer: u64 checksum = first 8 bytes (LE) of SHA-256 over everything
    before it.
    Entries are named float32 arrays, stored in the order given, each name
    once. ``training.save_model`` names them, in this order: the parameters,
    "adam.step", "adam.m.*", "adam.v.*", "extractor.*" (each group sorted)
    and "meta.config".

Dataset shard (".mds")
    magic "MDS1" | u32 version=1 | u32 record_count | f32 mask_alpha
    | u64 index_offset | payload blobs | index.
    Index entry: u16 id_len | id utf-8 | i32 off_y | i32 off_x | f64 score
                 | u64 hdr_off,hdr_len | u64 ldr_off,ldr_len
                 | u64 mask_off,mask_len.
    The HDR payload is a color PFM, the LDR payload a P6 PPM, and the mask
    payload a single-channel PFM holding the per-pixel channel minimum of
    the soft mask; the full per-channel mask is reconstructed on read by
    reapplying the exposure mask at the stored alpha.

Readers never crash on hostile bytes: every malformed input raises a
FormatError (or subclass) carrying a byte offset where that is meaningful.

A photo need not be read or written whole. :class:`LdrReader` parses a
PPM's header on its own, so its extent is known before any pixel is read,
and then reads any band of rows with a seek and one ``readinto``;
:func:`read_ldr` is that reader read to the end. :func:`pfm_strip_writer`
and :func:`pgm_strip_writer` write a PFM or a PGM a band of rows at a time,
and every writer replaces its target only once the whole file is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import mmap
import os
import stat
import struct

import numpy as np

from .errors import (ChecksumError, ContractError, DimensionError, FormatError,
                     UnsupportedFormatError, VersionError)
from .pipeline import DEFAULT_SATURATION_THRESHOLD, HdrImage, LdrImage, exposure_mask
from .sampler import PatchRecord

_MAX_HEADER_TOKEN = 32
_MAX_DIMENSION = 1 << 20

CHECKPOINT_MAGIC = b"MHDR"
CHECKPOINT_VERSION = 1
SHARD_MAGIC = b"MDS1"
SHARD_VERSION = 1


# -- low-level helpers ------------------------------------------------------


class _Cursor:
    """Bounds-checked reader over a bytes object."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if n < 0 or self.pos + n > len(self.data):
            raise FormatError(
                f"truncated file: wanted {n} bytes for {what}, "
                f"have {len(self.data) - self.pos}", offset=self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt, what):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))


def _read_header_token(cur, what):
    """One whitespace-delimited ASCII token, skipping leading whitespace/comments."""
    data, n = cur.data, len(cur.data)
    while cur.pos < n and data[cur.pos:cur.pos + 1] in b" \t\r\n":
        cur.pos += 1
    if cur.pos < n and data[cur.pos:cur.pos + 1] == b"#":
        while cur.pos < n and data[cur.pos:cur.pos + 1] != b"\n":
            cur.pos += 1
        return _read_header_token(cur, what)
    start = cur.pos
    while cur.pos < n and data[cur.pos:cur.pos + 1] not in b" \t\r\n":
        cur.pos += 1
        if cur.pos - start > _MAX_HEADER_TOKEN:
            raise FormatError(f"header token for {what} too long", offset=start)
    if cur.pos == start:
        raise FormatError(f"missing header token for {what}", offset=start)
    return data[start:cur.pos]


def _parse_dimension(token, what, offset):
    try:
        value = int(token)
    except ValueError:
        raise FormatError(f"bad {what} {token!r}", offset=offset) from None
    if value < 1 or value > _MAX_DIMENSION:
        raise FormatError(f"{what} {value} out of range", offset=offset)
    return value


def _read_bytes(path_or_bytes):
    if isinstance(path_or_bytes, (bytes, bytearray)):
        return bytes(path_or_bytes)
    with open(path_or_bytes, "rb") as fh:
        return fh.read()


# -- PFM ---------------------------------------------------------------------


def write_pfm(path, image):
    """Write a (C,H,W) float32 array, C in {1,3}, as PFM. Bit-exact carrier."""
    arr = np.asarray(image.pixels if hasattr(image, "pixels") else image)
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise DimensionError(f"PFM wants (1|3,H,W), got {arr.shape}")
    with pfm_strip_writer(path, *arr.shape) as write:
        write(0, arr)


def _pfm_header(c, h, w):
    return (b"PF\n" if c == 3 else b"Pf\n") + f"{w} {h}\n".encode() + b"-1.0\n"


def _pfm_payload(arr):
    """A (C,H,W) array's PFM payload: rows bottom-up, pixels interleaved,
    little-endian float32, in one copy."""
    return np.ascontiguousarray(arr.transpose(1, 2, 0)[::-1], dtype="<f4")


def encode_pfm(arr):
    return _pfm_header(*arr.shape) + _pfm_payload(arr).tobytes()


@contextlib.contextmanager
def _replacing(path, mode="wb"):
    """Yield a hidden temporary, opened in ``mode``, beside the file ``path``
    names (a symlink's target), which replaces that file when the block ends
    and is otherwise removed. The file keeps the permission bits it had. An
    existing ``path`` that is no regular file raises ContractError, and an
    error opening the temporary names ``path``."""
    given, path = path, os.path.realpath(path)
    try:
        kept = os.stat(path).st_mode
    except OSError:
        kept = None
    if kept is not None and not stat.S_ISREG(kept):
        raise ContractError(f"cannot write over {path}: it is not a regular file")
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode)
    except OSError as exc:
        exc.filename = os.fspath(given)
        raise
    try:
        with fh:
            yield fh
        if kept is not None:
            os.chmod(tmp, stat.S_IMODE(kept))
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def pfm_strip_writer(path, channels, height, width):
    """Write a (``channels``, ``height``, ``width``) PFM a band of rows at a time.

    Yields ``write(row, pixels)``, which puts the (C, rows, W) float32 band
    that starts at image row ``row`` at its bottom-up place in a file sized
    in full first. A band that does not fit raises :class:`DimensionError`,
    one that is not finite :class:`ContractError`."""
    header = _pfm_header(channels, height, width)
    row_bytes = channels * width * 4

    def write(row, pixels):
        if pixels.shape[0] != channels or pixels.shape[2] != width \
                or not 0 <= row <= height - pixels.shape[1]:
            raise DimensionError(f"a band of shape {pixels.shape} at row {row} does not fit "
                                 f"a ({channels}, {height}, {width}) PFM")
        if not np.all(np.isfinite(pixels)):
            raise ContractError("PFM payload must be finite")
        fh.seek(len(header) + (height - row - pixels.shape[1]) * row_bytes)
        fh.write(_pfm_payload(pixels))

    with _replacing(path) as fh:
        fh.write(header)
        fh.truncate(len(header) + height * row_bytes)
        yield write


def read_pfm(path_or_bytes):
    """Parse a PFM file into a (C,H,W) float32 array."""
    data = _read_bytes(path_or_bytes)
    cur = _Cursor(data)
    magic = _read_header_token(cur, "magic")
    if magic == b"PF":
        channels = 3
    elif magic == b"Pf":
        channels = 1
    else:
        raise FormatError(f"not a PFM file (magic {magic[:8]!r})", offset=0)
    wpos = cur.pos
    w = _parse_dimension(_read_header_token(cur, "width"), "width", wpos)
    hpos = cur.pos
    h = _parse_dimension(_read_header_token(cur, "height"), "height", hpos)
    spos = cur.pos
    stoken = _read_header_token(cur, "scale")
    try:
        scale = float(stoken)
    except ValueError:
        raise FormatError(f"bad scale {stoken!r}", offset=spos) from None
    if scale == 0 or not np.isfinite(scale):
        raise FormatError(f"bad scale {scale}", offset=spos)
    # Exactly one whitespace byte separates header from payload.
    sep = cur.take(1, "header separator")
    if sep not in b" \t\r\n":
        raise FormatError("missing whitespace after scale", offset=cur.pos - 1)
    count = w * h * channels
    payload = cur.take(count * 4, "pixel payload")
    if cur.pos != len(data):
        raise FormatError(f"{len(data) - cur.pos} trailing bytes after payload", offset=cur.pos)
    dtype = "<f4" if scale < 0 else ">f4"
    flat = np.frombuffer(payload, dtype=dtype).astype(np.float32, copy=False)
    if not np.all(np.isfinite(flat)):
        bad = int(np.argmin(np.isfinite(flat)))
        raise FormatError("non-finite pixel value", offset=cur.pos - count * 4 + bad * 4)
    hwc = flat.reshape(h, w, channels)[::-1]
    return np.ascontiguousarray(hwc.transpose(2, 0, 1))


# -- PPM / PGM ---------------------------------------------------------------


def write_ldr(path, image):
    """Write an LDR image as canonical binary PPM (values mapped round(v*255))."""
    arr = np.asarray(image.pixels if hasattr(image, "pixels") else image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DimensionError(f"PPM wants (3,H,W), got {arr.shape}")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ContractError("LDR values must lie in [0,1]")
    with _replacing(path) as fh:
        fh.write(encode_ppm(arr))


def encode_ppm(arr):
    _, h, w = arr.shape
    header = f"P6\n{w} {h}\n255\n".encode()
    rgb = np.rint(np.asarray(arr) * 255.0).astype(np.uint8).transpose(1, 2, 0)
    return header + np.ascontiguousarray(rgb).tobytes()


def _ppm_header(data):
    """``(height, width, payload offset)`` of a binary PPM (P6, maxval 255)."""
    cur = _Cursor(data)
    magic = _read_header_token(cur, "magic")
    if magic in (b"P5", b"P4", b"P1", b"P2", b"P3"):
        raise UnsupportedFormatError(
            f"{magic.decode()} is not supported; only binary P6 color", offset=0)
    if magic != b"P6":
        raise FormatError(f"not a PPM file (magic {magic[:8]!r})", offset=0)
    wpos = cur.pos
    w = _parse_dimension(_read_header_token(cur, "width"), "width", wpos)
    hpos = cur.pos
    h = _parse_dimension(_read_header_token(cur, "height"), "height", hpos)
    mpos = cur.pos
    maxval = _parse_dimension(_read_header_token(cur, "maxval"), "maxval", mpos)
    if maxval != 255:
        raise UnsupportedFormatError(f"maxval {maxval} unsupported (only 255)", offset=mpos)
    sep = cur.take(1, "header separator")
    if sep not in b" \t\r\n":
        raise FormatError("missing whitespace after maxval", offset=cur.pos - 1)
    return h, w, cur.pos


class LdrReader:
    """A binary PPM (P6, maxval 255) read a band of rows at a time.

    Opening parses the header only, so ``height`` and ``width`` are known
    before any pixel is read; a header error raises here. A file's header is
    parsed through a read-only map that is closed before the payload is
    read, and the payload is read band by band into the band's own buffer,
    so no page of the photo stays resident. :meth:`check_payload` raises the
    truncation error of a payload shorter than the header says, and every
    :meth:`rows` call checks it first. Use it as a context manager, or call
    :meth:`close`.
    """

    def __init__(self, path_or_bytes):
        if isinstance(path_or_bytes, (bytes, bytearray)):
            data = bytes(path_or_bytes)
            self.height, self.width, self._offset = _ppm_header(data)
            self._fh, self._size = io.BytesIO(data), len(data)
            return
        self._fh = open(path_or_bytes, "rb")
        try:
            self._size = os.fstat(self._fh.fileno()).st_size
            if not self._size:
                raise FormatError("missing header token for magic", offset=0)
            with mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ) as head:
                self.height, self.width, self._offset = _ppm_header(head)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        self._fh.close()

    def check_payload(self):
        want, have = self.height * self.width * 3, self._size - self._offset
        if have < want:
            raise FormatError(f"truncated file: wanted {want} bytes for pixel payload, "
                              f"have {have}", offset=self._offset)

    def rows(self, a, b):
        """Rows ``[a, b)`` as float32 (3, b - a, W) in [0,1], each byte v as v / 255."""
        self.check_payload()
        if not 0 <= a <= b <= self.height:
            raise DimensionError(f"rows [{a}, {b}) outside a photo of height {self.height}")
        raw = np.empty((b - a, self.width, 3), dtype=np.uint8)
        self._fh.seek(self._offset + a * self.width * 3)
        if self._fh.readinto(raw) != raw.nbytes:
            raise FormatError("photo payload shrank while it was read", offset=self._offset)
        return np.ascontiguousarray((raw.astype(np.float32) / np.float32(255.0)).transpose(2, 0, 1))


def read_ldr(path_or_bytes):
    """Parse a binary PPM (P6, maxval 255) into float32 (3,H,W) in [0,1]."""
    with LdrReader(path_or_bytes) as photo:
        return LdrImage(photo.rows(0, photo.height))


def read_hdr(path_or_bytes):
    """Read a color PFM (or Radiance .hdr by suffix) as an HdrImage."""
    if not isinstance(path_or_bytes, (bytes, bytearray)) and \
            str(path_or_bytes).lower().endswith(".hdr"):
        return HdrImage(read_rgbe(path_or_bytes))
    arr = read_pfm(path_or_bytes)
    if arr.shape[0] != 3:
        raise UnsupportedFormatError(f"expected a color PFM, got {arr.shape[0]} channel(s)")
    return HdrImage(arr)


@contextlib.contextmanager
def pgm_strip_writer(path, height, width):
    """Write a ``height`` x ``width`` binary PGM (P5) a band of rows at a time.

    Yields ``write(rows)``, which appends a (rows, W) band, uint8 as given and
    [0,1] floats as round(255 * v). A band that does not fit, or a block that
    ends short of ``height`` rows, raises :class:`DimensionError`."""
    done = 0

    def write(rows):
        nonlocal done
        if rows.shape[1:] != (width,) or done + len(rows) > height:
            raise DimensionError(f"band {rows.shape} overruns a {height}x{width} PGM at row {done}")
        if rows.dtype != np.uint8:
            rows = np.rint(np.clip(rows, 0.0, 1.0) * 255.0).astype(np.uint8)
        fh.write(np.ascontiguousarray(rows))
        done += len(rows)

    with _replacing(path) as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        yield write
        if done != height:
            raise DimensionError(f"a {height}-row PGM ends after {done} rows")


def write_gray8(path, values):
    """Write a (H,W) uint8 (or [0,1] float) array as a binary PGM (P5)."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise DimensionError(f"PGM wants (H,W), got {arr.shape}")
    with pgm_strip_writer(path, *arr.shape) as write:
        write(arr)


# -- Radiance RGBE (read-only ingestion) --------------------------------------


def read_rgbe(path_or_bytes):
    """Decode a Radiance .hdr file (flat or new-style RLE) to (3,H,W) float32."""
    data = _read_bytes(path_or_bytes)
    if not data.startswith(b"#?"):
        raise FormatError("not a Radiance file (missing #? signature)", offset=0)
    pos = 0
    fmt_ok = False
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise FormatError("unterminated Radiance header", offset=pos)
        line = data[pos:nl]
        pos = nl + 1
        if line.startswith(b"FORMAT="):
            if line.strip() != b"FORMAT=32-bit_rle_rgbe":
                raise UnsupportedFormatError(f"unsupported FORMAT {line!r}", offset=pos)
            fmt_ok = True
        if line == b"":
            break
        if pos > len(data):
            raise FormatError("runaway Radiance header", offset=pos)
    if not fmt_ok:
        raise FormatError("missing FORMAT line", offset=pos)
    nl = data.find(b"\n", pos)
    if nl < 0:
        raise FormatError("missing resolution line", offset=pos)
    parts = data[pos:nl].split()
    if len(parts) != 4 or parts[0] != b"-Y" or parts[2] != b"+X":
        raise UnsupportedFormatError(f"unsupported resolution line {data[pos:nl]!r}", offset=pos)
    h = _parse_dimension(parts[1], "height", pos)
    w = _parse_dimension(parts[3], "width", pos)
    cur = _Cursor(data)
    cur.pos = nl + 1
    rgbe = np.zeros((h, w, 4), dtype=np.uint8)
    for y in range(h):
        rgbe[y] = _read_rgbe_scanline(cur, w)
    return _rgbe_to_float(rgbe)


def _read_rgbe_scanline(cur, w):
    head = cur.take(4, "scanline header")
    if head[0] == 2 and head[1] == 2 and (head[2] << 8 | head[3]) == w and w >= 8:
        row = np.zeros((w, 4), dtype=np.uint8)
        for ch in range(4):
            x = 0
            while x < w:
                code = cur.take(1, "RLE code")[0]
                if code > 128:  # run
                    run = code - 128
                    if x + run > w:
                        raise FormatError("RLE run overflows scanline", offset=cur.pos)
                    row[x:x + run, ch] = cur.take(1, "RLE value")[0]
                    x += run
                else:  # literal
                    if code == 0 or x + code > w:
                        raise FormatError("bad RLE literal length", offset=cur.pos)
                    row[x:x + code, ch] = np.frombuffer(cur.take(code, "RLE literals"), np.uint8)
                    x += code
        return row
    # Flat (uncompressed) scanline; the 4 header bytes are the first pixel.
    rest = cur.take((w - 1) * 4, "flat scanline")
    return np.frombuffer(head + rest, dtype=np.uint8).reshape(w, 4)


def _rgbe_to_float(rgbe):
    exp = rgbe[:, :, 3].astype(np.int32)
    scale = np.where(exp == 0, 0.0, np.ldexp(1.0, exp - 136))
    rgb = rgbe[:, :, :3].astype(np.float32) * scale[:, :, None].astype(np.float32)
    return np.ascontiguousarray(rgb.transpose(2, 0, 1))


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, arrays):
    """Write a ``{name: float32 array}`` mapping, in its order, with an
    integrity checksum.

    An entry :func:`load_checkpoint` would refuse (a name over 65535 UTF-8
    bytes, a rank over 8, an extent below 1 or above ``_MAX_DIMENSION``) is
    refused with :class:`ContractError` before any byte is written."""
    if not arrays:
        raise ContractError("refusing to write an empty checkpoint")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<II", CHECKPOINT_VERSION, len(arrays)))
    for name, arr in arrays.items():
        nb = name.encode()
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise ContractError(f"checkpoint entry {name} must be float32, got {arr.dtype}")
        if len(nb) > 0xFFFF:
            raise ContractError(f"checkpoint entry name of {len(nb)} bytes exceeds 65535")
        if arr.ndim > 8:
            raise ContractError(f"checkpoint entry {name} has rank {arr.ndim}, above 8")
        if any(not 1 <= ext <= _MAX_DIMENSION for ext in arr.shape):
            raise ContractError(f"checkpoint entry {name} has shape {arr.shape}: each extent "
                                f"must lie in [1, {_MAX_DIMENSION}]")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.astype("<f4", copy=False).tobytes())
    payload = buf.getvalue()
    with _replacing(path) as fh:
        fh.write(payload + hashlib.sha256(payload).digest()[:8])


def load_checkpoint(path_or_bytes):
    """Parse a checkpoint into a ``{name: float32 array}`` dict in file order."""
    data = _read_bytes(path_or_bytes)
    if len(data) < 8 + 4 + 8:
        raise FormatError("file too short for a checkpoint", offset=len(data))
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}", offset=0)
    stored = struct.unpack("<Q", data[-8:])[0]
    actual = struct.unpack("<Q", hashlib.sha256(data[:-8]).digest()[:8])[0]
    if stored != actual:
        raise ChecksumError(
            f"checksum mismatch: stored {stored:#x}, computed {actual:#x}", offset=len(data) - 8)
    cur = _Cursor(data[:-8])
    cur.pos = 4
    version, count = cur.unpack("<II", "version/count")
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"unsupported checkpoint version {version}", offset=4)
    arrays = {}
    for _ in range(count):
        start = cur.pos
        (name_len,) = cur.unpack("<H", "name length")
        name = cur.take(name_len, "name").decode("utf-8", errors="replace")
        if name in arrays:
            raise FormatError(f"repeated checkpoint entry {name!r}", offset=start)
        (rank,) = cur.unpack("<B", "rank")
        if rank > 8:
            raise FormatError(f"implausible rank {rank} for {name}", offset=cur.pos - 1)
        shape = cur.unpack(f"<{rank}I", "extents") if rank else ()
        total = 1
        for ext in shape:
            if ext < 1 or ext > _MAX_DIMENSION:
                raise FormatError(f"extent {ext} out of range for {name}", offset=cur.pos)
            total *= ext
        raw = cur.take(total * 4, f"values of {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if cur.pos != len(cur.data):
        raise FormatError(f"{len(cur.data) - cur.pos} trailing bytes", offset=cur.pos)
    return arrays


# -- dataset shards -------------------------------------------------------------


def write_dataset_shard(path, records, alpha=DEFAULT_SATURATION_THRESHOLD):
    """Serialize PatchRecords; order-preserving and bit-exact on read.

    Payloads are stored at the format's native precision (float32 / 8-bit),
    and the soft mask is recomputed from the stored LDR in float32 so that
    readers reproduce it bit-exactly. Records whose mask is not the
    exposure mask of their LDR input are rejected.
    """
    records = list(records)
    if not records:
        raise ContractError("refusing to write an empty dataset shard")
    # The header stores alpha as float32; masks must be computed with that
    # exact value or readers cannot reproduce them bit for bit.
    alpha = float(np.float32(alpha))
    header_size = 4 + 4 + 4 + 4 + 8
    blobs = []
    pos = header_size
    index = io.BytesIO()
    for rec in records:
        ldr32 = np.asarray(rec.ldr.pixels, dtype=np.float32)
        mask32 = exposure_mask(ldr32, alpha)
        if not np.allclose(mask32, np.asarray(rec.mask, dtype=np.float32), atol=1e-5):
            raise ContractError(
                f"record {rec.image_id}@{rec.offset}: mask is not exposure_mask(ldr, {alpha})")
        hdr_blob = encode_pfm(np.asarray(rec.hdr.pixels, dtype=np.float32))
        ldr_blob = encode_ppm(ldr32)
        mask_blob = encode_pfm(mask32.min(axis=0, keepdims=True))
        entry_offsets = []
        for blob in (hdr_blob, ldr_blob, mask_blob):
            entry_offsets.append((pos, len(blob)))
            blobs.append(blob)
            pos += len(blob)
        ident = rec.image_id.encode()
        index.write(struct.pack("<H", len(ident)))
        index.write(ident)
        index.write(struct.pack("<iid", rec.offset[0], rec.offset[1], rec.score))
        for off, length in entry_offsets:
            index.write(struct.pack("<QQ", off, length))
    header = SHARD_MAGIC + struct.pack("<IIfQ", SHARD_VERSION, len(records),
                                       np.float32(alpha), pos)
    with _replacing(path) as fh:
        fh.write(header)
        for blob in blobs:
            fh.write(blob)
        fh.write(index.getvalue())


def read_dataset_shard(path_or_bytes):
    """Parse a dataset shard back into PatchRecords."""
    data = _read_bytes(path_or_bytes)
    if len(data) < 24:
        raise FormatError("file too short for a shard", offset=len(data))
    if data[:4] != SHARD_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}", offset=0)
    version, count, alpha, index_offset = struct.unpack("<IIfQ", data[4:24])
    if version != SHARD_VERSION:
        raise VersionError(f"unsupported shard version {version}", offset=4)
    if count < 1:
        raise FormatError("shard declares zero records", offset=8)
    if index_offset < 24 or index_offset > len(data):
        raise FormatError(f"index offset {index_offset} outside file", offset=16)
    cur = _Cursor(data)
    cur.pos = index_offset
    records = []
    for i in range(count):
        (id_len,) = cur.unpack("<H", "image id length")
        ident = cur.take(id_len, "image id").decode("utf-8", errors="replace")
        off_y, off_x, score = cur.unpack("<iid", "offsets/score")
        spans = []
        for what in ("hdr", "ldr", "mask"):
            off, length = cur.unpack("<QQ", f"{what} span")
            if off + length > len(data) or off < 24:
                raise FormatError(f"record {i} {what} span outside file", offset=cur.pos - 16)
            spans.append((off, length))
        hdr_arr = read_pfm(data[spans[0][0]:spans[0][0] + spans[0][1]])
        ldr = read_ldr(data[spans[1][0]:spans[1][0] + spans[1][1]])
        mask_min = read_pfm(data[spans[2][0]:spans[2][0] + spans[2][1]])
        if hdr_arr.shape[0] != 3:
            raise FormatError(f"record {i} HDR payload is not color", offset=spans[0][0])
        mask = exposure_mask(ldr.pixels, float(alpha))
        if not np.array_equal(mask.min(axis=0, keepdims=True), mask_min):
            raise FormatError(f"record {i} mask payload inconsistent with LDR", offset=spans[2][0])
        records.append(PatchRecord(HdrImage(hdr_arr), ldr, mask,
                                   float(score), ident, (off_y, off_x)))
    if cur.pos != len(data):
        raise FormatError(f"{len(data) - cur.pos} trailing bytes after index", offset=cur.pos)
    return records
