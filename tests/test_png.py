import hashlib
import struct
import zlib

import numpy as np
import pytest

from datamoll.png import encode_png, png_size
from tests.oracles import naive_png_scanlines


def decode_png(data: bytes) -> np.ndarray:
    """Reference decoder (inverse filters per the PNG spec), for tests only."""
    assert data[:8] == bytes([137, 80, 78, 71, 13, 10, 26, 10])
    pos, idat, meta = 8, b"", None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        kind = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert crc == zlib.crc32(payload, zlib.crc32(kind)), "chunk CRC mismatch"
        if kind == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            assert (depth, comp, filt, interlace) == (8, 0, 0, 0)
            meta = (w, h, color_type)
        elif kind == b"IDAT":
            idat += payload
        pos += 12 + length
    w, h, color_type = meta
    bpp = {0: 1, 2: 3}[color_type]
    stride = w * bpp
    raw = zlib.decompress(idat)
    assert len(raw) == h * (stride + 1)
    prior = np.zeros(stride, dtype=np.int64)
    rows = []
    offset = 0
    for _ in range(h):
        filter_id = raw[offset]
        line = np.frombuffer(raw[offset + 1 : offset + 1 + stride], dtype=np.uint8)
        offset += 1 + stride
        rec = np.zeros(stride, dtype=np.int64)
        for x in range(stride):
            a = rec[x - bpp] if x >= bpp else 0
            b = prior[x]
            c = prior[x - bpp] if x >= bpp else 0
            if filter_id == 0:
                pred = 0
            elif filter_id == 1:
                pred = a
            elif filter_id == 2:
                pred = b
            elif filter_id == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
            rec[x] = (int(line[x]) + pred) % 256
        rows.append(rec)
        prior = rec
    out = np.stack(rows).astype(np.uint8)
    return out.reshape(h, w, 3) if color_type == 2 else out.reshape(h, w)


def idat_payload(data: bytes) -> bytes:
    """The concatenated IDAT payloads of a PNG."""
    pos, idat = 8, b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        if data[pos + 4 : pos + 8] == b"IDAT":
            idat += data[pos + 8 : pos + 8 + length]
        pos += 12 + length
    return idat


def filter_cases():
    """(label, uint8 pixels) covering the filter choice, gray and RGB."""
    rng = np.random.default_rng(11)
    for channels in (None, 1, 3):
        tail = () if channels is None else (channels,)
        shapes = [(1, 1), (1, 9), (9, 1), (2, 300 // (channels or 1))]
        shapes += [tuple(int(n) for n in rng.integers(1, 24, size=2)) for _ in range(4)]
        for h, w in shapes:
            shape = (h, w) + tail
            yield f"{shape}/random", rng.integers(0, 256, size=shape, dtype=np.uint8)
            for value in (0, 128, 255):
                yield f"{shape}/all-{value}", np.full(shape, value, dtype=np.uint8)
            # A few distinct levels make rows on which filters tie.
            levels = np.array([0, 1, 127, 128, 254, 255], dtype=np.uint8)
            yield f"{shape}/levels", levels[rng.integers(0, 6, size=shape)]
            ramp = np.add.outer(np.arange(h), np.arange(w)).astype(np.uint8)
            yield f"{shape}/ramp", np.broadcast_to(ramp.reshape((h, w) + (1,) * len(tail)), shape)


class TestFilterChoice:
    @pytest.mark.parametrize("pixels", [pytest.param(p, id=label) for label, p in filter_cases()])
    def test_idat_is_the_naive_selector_compressed(self, pixels):
        assert idat_payload(encode_png(pixels)) == zlib.compress(naive_png_scanlines(pixels))


class TestPinnedBytes:
    # Digests of the encoder's output as the per-filter candidate stack built it.
    def test_filter_cases_are_pinned(self):
        digest = hashlib.sha256()
        for _, pixels in filter_cases():
            data = encode_png(pixels)
            assert png_size(pixels) == len(data)
            digest.update(data)
        assert digest.hexdigest() == "73d2cc0e8f9a9b7fa9282ff6972f19a4212a5ff462eae4b5eb2d2e19796c1cdd"

    @pytest.mark.parametrize(
        "kind,seed,size,digest",
        [
            ("random", 1, 3143, "a383dd5d76e9c76f749135b264396bf67bb74065e5d6603c83a5e8dfc67e30aa"),
            ("levels", 2, 1067, "354c161bc4b1aa7c27d0a238d0ed8c7bf5583249921aed41ff757650238cd6ae"),
            ("ramp", None, 89, "e78c2b0395c287e3be953f014c5df2e69ab501341c6d09f6494c496ec6db0934"),
        ],
    )
    def test_rows_whose_sums_overflow_int16_are_pinned(self, kind, seed, size, digest):
        # 1024 gray or 1200 RGB bytes a row: sums can pass 2**15.  A ramp row's
        # None sum is 4 * 16384, which wraps to 0 in int16, under Sub's 1023.
        rng = np.random.default_rng(seed)
        if kind == "random":
            pixels = rng.integers(0, 256, size=(3, 1024), dtype=np.uint8)
        elif kind == "levels":
            pixels = np.array([0, 1, 127, 128, 254, 255], dtype=np.uint8)[rng.integers(0, 6, size=(2, 400, 3))]
        else:
            pixels = np.add.outer(np.arange(3), np.arange(1024)).astype(np.uint8)
        data = encode_png(pixels)
        assert png_size(pixels) == len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest


class TestEncoder:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (16, 16), (3, 9, 3), (32, 32, 3)])
    def test_lossless_roundtrip(self, shape):
        img = np.random.default_rng(hash(shape) % 2**32).integers(
            0, 256, size=shape, dtype=np.uint8
        )
        assert np.array_equal(decode_png(encode_png(img)), img)

    def test_single_channel_axis_squeezed(self):
        img = np.random.default_rng(1).integers(0, 256, size=(6, 6, 1), dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(img)), img[:, :, 0])

    def test_deterministic(self):
        img = np.random.default_rng(2).integers(0, 256, size=(20, 20), dtype=np.uint8)
        assert encode_png(img) == encode_png(img)

    def test_smooth_compresses_better_than_noise(self):
        rng = np.random.default_rng(3)
        noise = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        ramp = np.tile(np.arange(32, dtype=np.uint8) * 8, (32, 1))
        assert png_size(ramp) < png_size(noise)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_png(np.zeros((4, 4), dtype=np.float64))
        with pytest.raises(ValueError):
            encode_png(np.zeros((4, 4, 2), dtype=np.uint8))
