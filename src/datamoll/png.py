"""Write-only 8-bit PNG encoder for grayscale and RGB arrays.

Each scanline gets the filter (None/Sub/Up/Average/Paeth) minimizing the
sum of absolute filtered bytes read as signed, ties going to the lowest
filter id: the heuristic common PNG encoders use.  All five candidates are
built for the whole image at once on a flat, zero-padded int16 copy, wrapped
modulo 256 as the spec's filtering is, and the stream is deflate-compressed
at the default level.  Encoding byte sizes feed the information-curve
analysis, so the encoder is kept in-tree to make sizes stable across
environments; output is nonetheless a valid, losslessly decodable PNG.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = bytes([137, 80, 78, 71, 13, 10, 26, 10])


def _chunk(kind: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(kind))
    return struct.pack(">I", len(payload)) + kind + payload + struct.pack(">I", crc)


def _filtered_scanlines(raw: np.ndarray, bpp: int) -> bytes:
    """Each row of ``raw`` as its filter id followed by its filtered bytes."""
    rows, stride = raw.shape
    # A flat int16 copy: bpp zeros, a zero row, then each row led by bpp
    # zeros, so a byte's left, up and up-left neighbours sit at fixed
    # offsets.  The leading zeros are filtered too and left out of the sums.
    width = stride + bpp
    n = rows * width
    flat = np.zeros(bpp + width + n, dtype=np.int16)
    flat[bpp + width :].reshape(rows, width)[:, bpp:] = raw
    x, a = flat[bpp + width :], flat[width : width + n]
    b, c = flat[bpp : bpp + n], flat[:n]

    # Paeth's |p - a|, |p - b|, |p - c| for p = a + b - c.
    d1, d2 = b - c, a - c
    pa, pb, pc = np.abs(d1), np.abs(d2), np.abs(d1 + d2)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))

    # The predictions of None, Sub, Up, Average and Paeth.
    predictions = np.array([np.zeros_like(x), a, b, (a + b) >> 1, paeth])
    # The int8 cast wraps modulo 256, as the spec's filtering does.  abs(-128)
    # wraps to -128 in int8, which reads back as 128 in uint8; a row sums to
    # at most 128 * stride, exact in float64.
    filtered = (x - predictions).astype(np.int8).reshape(5 * rows, width)
    magnitude = np.abs(filtered[:, bpp:]).view(np.uint8).astype(np.float64)
    choice = (magnitude @ np.ones(stride)).reshape(5, rows).argmin(axis=0)
    out = np.take(filtered.view(np.uint8), choice * rows + np.arange(rows), axis=0)
    # The last leading zero of each row becomes its filter id.
    out[:, bpp - 1] = choice
    return out[:, bpp - 1 :].tobytes()


def encode_png(arr: np.ndarray) -> bytes:
    """Encode (H, W), (H, W, 1), or (H, W, 3) uint8 pixels as PNG bytes."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got dtype {arr.dtype}")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError(f"expected (H, W[, 1]) or (H, W, 3) pixels, got shape {arr.shape}")
    height, width, bpp = arr.shape
    if height < 1 or width < 1:
        raise ValueError("image must be non-empty")
    header = struct.pack(">IIBBBBB", width, height, 8, {1: 0, 3: 2}[bpp], 0, 0, 0)
    idat = zlib.compress(_filtered_scanlines(arr.reshape(height, width * bpp), bpp))
    return _SIGNATURE + _chunk(b"IHDR", header) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def png_size(arr: np.ndarray) -> int:
    """Encoded byte size of ``arr`` as a PNG."""
    return len(encode_png(arr))
