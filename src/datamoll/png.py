"""Write-only 8-bit PNG encoder for grayscale and RGB arrays.

Each scanline gets the filter (None/Sub/Up/Average/Paeth) minimizing the
sum of absolute filtered bytes read as signed, ties going to the lowest
filter id: the heuristic common PNG encoders use.  All five candidates are
built for the whole image at once in wrapping uint8 arithmetic, which is
the spec's modulo-256 filtering, and the stream is deflate-compressed at
the default level.  Encoding byte sizes feed the information-curve
analysis, so the encoder is kept in-tree to make sizes stable across
environments; output is nonetheless a valid, losslessly decodable PNG.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = bytes([137, 80, 78, 71, 13, 10, 26, 10])


def _chunk(kind: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(kind)
    crc = zlib.crc32(payload, crc)
    return struct.pack(">I", len(payload)) + kind + payload + struct.pack(">I", crc)


def _filtered_scanlines(raw: np.ndarray, bpp: int) -> bytes:
    """Each row of ``raw`` as its filter id followed by its filtered bytes."""
    rows, stride = raw.shape
    # Zero-padded above and to the left, so the neighbours are views.
    padded = np.zeros((rows + 1, stride + bpp), dtype=np.uint8)
    padded[1:, bpp:] = raw
    left, up, up_left = padded[1:, :-bpp], padded[:-1, bpp:], padded[:-1, :-bpp]
    wide = padded.astype(np.int16)
    a, b, c = wide[1:, :-bpp], wide[:-1, bpp:], wide[:-1, :-bpp]

    # Paeth's |p - a|, |p - b|, |p - c| for p = a + b - c.
    pa, pb, pc = np.abs(b - c), np.abs(a - c), np.abs(a + b - 2 * c)
    paeth = np.where(pb <= pc, up, up_left)
    np.copyto(paeth, left, where=(pa <= pb) & (pa <= pc))

    candidates = np.empty((5, rows, stride), dtype=np.uint8)
    candidates[0] = raw
    np.subtract(raw, left, out=candidates[1])
    np.subtract(raw, up, out=candidates[2])
    np.subtract(raw, ((a + b) >> 1).astype(np.uint8), out=candidates[3])
    np.subtract(raw, paeth, out=candidates[4])
    # Sum of absolute bytes read as signed.  abs(-128) wraps to -128 in int8,
    # which reads back as 128 in uint8; a row sums to at most 128 * stride.
    magnitude = np.abs(candidates.view(np.int8)).view(np.uint8)
    total = np.int16 if 128 * stride < 2**15 else np.int64
    choice = np.argmin(magnitude.sum(axis=2, dtype=total), axis=0)
    out = np.empty((rows, stride + 1), dtype=np.uint8)
    out[:, 0] = choice
    out[:, 1:] = candidates[choice, np.arange(rows)]
    return out.tobytes()


def encode_png(arr: np.ndarray) -> bytes:
    """Encode (H, W), (H, W, 1), or (H, W, 3) uint8 pixels as PNG bytes."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got dtype {arr.dtype}")
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim == 2:
        color_type, bpp = 0, 1
        raw = np.ascontiguousarray(arr)
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type, bpp = 2, 3
        raw = np.ascontiguousarray(arr).reshape(arr.shape[0], arr.shape[1] * 3)
    else:
        raise ValueError(f"expected (H, W[, 1]) or (H, W, 3) pixels, got shape {arr.shape}")
    height, _ = raw.shape
    width = raw.shape[1] // bpp
    if height < 1 or width < 1:
        raise ValueError("image must be non-empty")
    header = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    idat = zlib.compress(_filtered_scanlines(raw, bpp))
    return _SIGNATURE + _chunk(b"IHDR", header) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def png_size(arr: np.ndarray) -> int:
    """Encoded byte size of ``arr`` as a PNG."""
    return len(encode_png(arr))
