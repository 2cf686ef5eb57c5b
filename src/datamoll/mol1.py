"""The MOL1 dataset container: images plus labels in one binary file.

Layout: the magic bytes ``MOL1``; five little-endian u32 fields N, H, W, C,
num_classes; N*H*W*C little-endian float32 pixel values (row-major, channel
last); then N little-endian u32 class labels in [0, num_classes).  A sidecar
JSON manifest at ``<path>.json`` stores the per-channel mean/std used to
standardize the pixels and a free-form provenance string.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ioutil import check_value, read_json_object, write_bytes, write_json
from .tensors import ChannelStats, ensure_stack

MAGIC = b"MOL1"
_HEADER = struct.Struct("<5I")
MAX_CLASSES = 2**32 - 1  # num_classes is a u32 header field


@dataclass
class Mol1Dataset:
    """In-memory view of a MOL1 container (float64 images)."""

    images: np.ndarray  # (N, H, W, C)
    labels: np.ndarray  # (N,)
    num_classes: int
    stats: ChannelStats
    provenance: str = ""

    def __post_init__(self) -> None:
        images = ensure_stack(self.images)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (images.shape[0],):
            raise DataError(
                f"labels shape {labels.shape} does not match {images.shape[0]} images"
            )
        if images.shape[0] == 0:
            raise DataError("dataset is empty")
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise DataError(f"num_classes must be in [2, {MAX_CLASSES}], got {self.num_classes}")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.num_classes:
            raise DataError("labels must lie in [0, num_classes)")
        if images.shape[3] != self.stats.channels:
            raise DataError("channel statistics do not match the image channel count")
        self.images = images
        self.labels = labels

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def height(self) -> int:
        return self.images.shape[1]

    @property
    def width(self) -> int:
        return self.images.shape[2]

    @property
    def channels(self) -> int:
        return self.images.shape[3]


def manifest_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def save_mol1(dataset: Mol1Dataset, path: str | Path) -> None:
    """Write the container and its sidecar manifest atomically; a
    FloatingPointError, and no file, if a pixel is not finite in float32."""
    path = Path(path)
    n, h, w, c = dataset.images.shape
    with np.errstate(over="ignore"):
        pixels = np.ascontiguousarray(dataset.images, dtype="<f4")
    if not np.isfinite(pixels).all():
        raise FloatingPointError(f"images of dataset {path} do not fit in float32")
    blob = bytearray()
    blob += MAGIC
    blob += _HEADER.pack(n, h, w, c, dataset.num_classes)
    blob += pixels.tobytes()
    blob += np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes()
    write_bytes(path, bytes(blob))
    manifest = {
        "mean": [float(v) for v in dataset.stats.mean],
        "std": [float(v) for v in dataset.stats.std],
        "provenance": dataset.provenance,
    }
    write_json(manifest_path(path), manifest)


def load_mol1(path: str | Path) -> Mol1Dataset:
    """Read a container plus its manifest, validating sizes and ranges."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 + _HEADER.size or raw[:4] != MAGIC:
        raise DataError(f"{path} is not a MOL1 container")
    n, h, w, c, num_classes = _HEADER.unpack_from(raw, 4)
    pixel_bytes = 4 * n * h * w * c
    label_bytes = 4 * n
    expected = 4 + _HEADER.size + pixel_bytes + label_bytes
    if len(raw) != expected:
        raise DataError(
            f"{path} has {len(raw)} bytes, expected {expected} for N={n} H={h} W={w} C={c}"
        )
    if n == 0:  # Mol1Dataset's check, before a reshape NumPy refuses at a huge H*W*C
        raise DataError(f"{path}: dataset is empty")
    offset = 4 + _HEADER.size
    images = np.frombuffer(raw, dtype="<f4", count=n * h * w * c, offset=offset)
    images = images.astype(np.float64).reshape(n, h, w, c)
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=offset + pixel_bytes)
    labels = labels.astype(np.int64)
    mpath = manifest_path(path)
    if not mpath.exists():
        raise DataError(f"missing manifest {mpath}")
    manifest = read_json_object(mpath)
    where = f"manifest {mpath} field"
    mean, std = (
        check_value(f"{where} {key!r}", manifest.get(key), "a list of finite numbers")
        for key in ("mean", "std")
    )
    try:
        stats = ChannelStats(mean, std)
        return Mol1Dataset(images, labels, int(num_classes), stats, str(manifest.get("provenance", "")))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
