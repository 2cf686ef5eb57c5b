"""A deterministic desk-scale MLP classifier with manual gradients.

One hidden ReLU layer, log-softmax output, plain SGD under a cosine
annealing learning-rate schedule.  With mollification enabled, every
mini-batch is independently noised/blurred per image and the labels are
degraded with the matching schedule weight before the gradient step.
Training is bit-reproducible for a fixed seed: shuffling, initialization,
and per-batch mollification all derive from disjoint Philox streams.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, TrainingDivergedError
from .ioutil import check_value, read_json_object, write_bytes
from .labels import soft_labels
from .likelihood import log_normalizer_Z, log_normalizer_grad
from .metrics import predictions
from .mol1 import Mol1Dataset
from .mollifier import mollify_batch
from .schedules import ScheduleConfig
from .streams import derive_seed, stream

LOSS_KINDS = ("smoothed", "tempered", "normalized")

# Stream tags, disjoint per purpose.
_TAG_INIT = 0
_TAG_SHUFFLE = 1
_TAG_MOLLIFY = 2


@dataclass(frozen=True)
class TrainConfig:
    """Trainer hyperparameters plus the mollification schedule."""

    schedule: ScheduleConfig
    epochs: int = 100
    batch_size: int = 128
    lr: float = 0.01
    hidden_units: int = 128
    seed: int = 0
    loss: str = "smoothed"
    mollify: bool = True
    samples_per_image: int = 1

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "hidden_units", "samples_per_image"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"initial learning rate must be positive and finite, got {self.lr}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")


@dataclass
class MlpParams:
    """Weights of the 2-layer network; all arrays float64."""

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (classes, hidden)
    b2: np.ndarray  # (classes,)

    def blocks(self) -> list[tuple[str, np.ndarray]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(arr)) for _, arr in self.blocks())


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    lr: float
    seconds: float


@dataclass
class TrainReport:
    """Per-epoch training statistics."""

    epochs: list[EpochStats] = field(default_factory=list)


def init_params(input_dim: int, hidden: int, classes: int, seed: int) -> MlpParams:
    """He fan-in initialization for the weights, zeros for the biases."""
    rng = stream(seed, _TAG_INIT)
    return MlpParams(
        w1=rng.standard_normal((hidden, input_dim)) * math.sqrt(2.0 / input_dim),
        b1=np.zeros(hidden),
        w2=rng.standard_normal((classes, hidden)) * math.sqrt(2.0 / hidden),
        b2=np.zeros(classes),
    )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _batch_forward(params: MlpParams, x: np.ndarray):
    pre = x @ params.w1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params.w2.T + params.b2
    return _log_softmax(logits), hidden, pre


def loss_and_grad(
    params: MlpParams,
    x: np.ndarray,
    y: np.ndarray,
    include_normalizer: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss of a batch, x (N, D) with labels y (N, C), and its exact gradient.

    The loss per row is -sum_c y_c logp_c, plus log Z when the normalized
    likelihood is requested.  d(loss)/d(logits) is softmax * sum(y) - y,
    which reduces to the familiar softmax-minus-target for unit-sum labels.
    """
    batch = x.shape[0]
    logp, hidden, pre = _batch_forward(params, x)
    f = np.exp(logp)
    loss = float(-(y * logp).sum() / batch)
    dlogits = f * y.sum(axis=1, keepdims=True) - y
    # log Z needs finite log-probabilities; a non-finite one makes the loss above
    # non-finite too (0 * -inf is nan), and the trainer reports that.
    if include_normalizer and math.isfinite(loss):
        loss += float(np.mean(log_normalizer_Z(logp)))
        dlogits = dlogits + log_normalizer_grad(logp)
    dlogits /= batch
    grads = {
        "w2": dlogits.T @ hidden,
        "b2": dlogits.sum(axis=0),
    }
    dhidden = dlogits @ params.w2
    dpre = dhidden * (pre > 0.0)
    grads["w1"] = dpre.T @ x
    grads["b1"] = dpre.sum(axis=0)
    return loss, grads


def cosine_lr(epoch: int, cfg: TrainConfig) -> float:
    """lr * (1 + cos(pi * epoch / epochs)) / 2, where lr is the initial rate."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} out of range for {cfg.epochs} epochs")
    return cfg.lr * (1.0 + math.cos(math.pi * epoch / cfg.epochs)) / 2.0


# A diverging model overflows; its non-finite loss or parameters end in a
# TrainingDivergedError instead of NumPy warnings.
@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Mol1Dataset, cfg: TrainConfig) -> tuple[MlpParams, TrainReport]:
    """Train on a standardized MOL1 dataset; deterministic for a fixed seed."""
    n = dataset.count
    input_dim = dataset.height * dataset.width * dataset.channels
    params = init_params(input_dim, cfg.hidden_units, dataset.num_classes, cfg.seed)
    flat = dataset.images.reshape(n, input_dim)
    report = TrainReport()
    include_normalizer = cfg.loss == "normalized"
    # The normalized likelihood scores smoothed targets.
    smoothed = cfg.loss != "tempered"

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = stream(cfg.seed, _TAG_SHUFFLE, epoch).permutation(n)
        lr = cosine_lr(epoch, cfg)
        losses = []
        starts = range(0, n, cfg.batch_size)
        if cfg.mollify:
            # Every batch's mollifier seeds, before the batch loop: a call
            # between two mollify_batch calls runs cold, several times slower.
            reps = range(cfg.samples_per_image)
            seeds = [
                [derive_seed(cfg.seed, _TAG_MOLLIFY, epoch, batch_no, rep) for rep in reps]
                for batch_no in range(len(starts))
            ]
        for batch_no, start in enumerate(starts):
            idx = order[start : start + cfg.batch_size]
            if cfg.mollify:
                images = dataset.images[idx]
                samples = [mollify_batch(images, cfg.schedule, k) for k in seeds[batch_no]]
                # One contiguous (N, D) batch: the matmuls would copy a strided field view.
                x = np.concatenate([s["image"] for s in samples]).reshape(-1, input_dim)
                gammas = np.concatenate([s["gamma"] for s in samples])
                labels = np.tile(dataset.labels[idx], cfg.samples_per_image)
            else:
                x = flat[idx]
                gammas = np.zeros(idx.shape[0])
                labels = dataset.labels[idx]
            y = soft_labels(labels, gammas, dataset.num_classes, smoothed)
            loss, grads = loss_and_grad(params, x, y, include_normalizer)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            for name, arr in params.blocks():
                arr -= lr * grads[name]
            if not params.all_finite():
                raise TrainingDivergedError(
                    f"non-finite parameters at epoch {epoch}, batch {batch_no}"
                )
            losses.append(loss)
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                lr=lr,
                seconds=time.perf_counter() - started,
            )
        )
    return params, report


def predict_batch(params: MlpParams, dataset: Mol1Dataset, tag: str = "") -> np.recarray:
    """Predictions for every example of a dataset whose size and classes match the weights."""
    input_dim = dataset.height * dataset.width * dataset.channels
    if input_dim != params.w1.shape[1]:
        raise DataError(
            f"dataset dimension {input_dim} does not match weights ({params.w1.shape[1]})"
        )
    if dataset.num_classes != len(params.b2):
        raise DataError(f"dataset has {dataset.num_classes} classes, the weights {len(params.b2)}")
    return predict_records(params, dataset.images, dataset.labels, tag)


def predict_records(
    params: MlpParams, images: np.ndarray, labels: np.ndarray, tag: str = ""
) -> np.recarray:
    """Predictions (see :func:`metrics.predictions`) for (N, H, W, C) images."""
    n = images.shape[0]
    logp, _, _ = _batch_forward(params, images.reshape(n, -1))
    return predictions(np.minimum(np.exp(logp), 1.0), labels, tag)


_PARAMS_MAGIC = b"MLP1"


def save_params(
    params: MlpParams, path: str | Path, seed: int, config_hash: str
) -> None:
    """Flat little-endian float32 blob behind a length-prefixed JSON header; a
    FloatingPointError, and no file, if a weight is not finite in float32."""
    header = {
        "shapes": {name: list(arr.shape) for name, arr in params.blocks()},
        "seed": int(seed),
        "config_hash": config_hash,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blocks = []
    for name, arr in params.blocks():
        with np.errstate(over="ignore"):
            block = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(block).all():
            raise FloatingPointError(f"weights in {name!r} do not fit in float32")
        blocks.append(block.tobytes())
    payload = _PARAMS_MAGIC + len(head).to_bytes(4, "little") + head + b"".join(blocks)
    write_bytes(path, payload)


def load_params(path: str | Path) -> tuple[MlpParams, dict]:
    raw = Path(path).read_bytes()
    if raw[:4] != _PARAMS_MAGIC:
        raise DataError(f"{path} is not a parameter file")
    head_len = int.from_bytes(raw[4:8], "little")
    header = read_json_object(f"{path} header", raw[8 : 8 + head_len])
    if not isinstance(header.get("shapes"), dict):
        raise DataError(f"{path} header has no valid 'shapes' field")
    kind = "a list of non-negative integers"
    shapes = {
        name: check_value(f"{path} header field 'shapes.{name}'", header["shapes"].get(name), kind)
        for name in ("w1", "b1", "w2", "b2")
    }
    offset = 8 + head_len
    expected = offset + 4 * sum(math.prod(shape) for shape in shapes.values())
    if len(raw) != expected:
        raise DataError(f"{path} has {len(raw)} bytes, its header describes {expected}")
    # The layers must chain: w1 (H, D), b1 (H,), w2 (C, H), b2 (C,).
    for name in ("w1", "w2"):
        if len(shapes[name]) != 2:
            raise DataError(f"{path} header field 'shapes.{name}' must have 2 dimensions")
    (hidden, _), (classes, _) = shapes["w1"], shapes["w2"]
    for name, agreed in (("b1", [hidden]), ("w2", [classes, hidden]), ("b2", [classes])):
        if shapes[name] != agreed:
            raise DataError(
                f"{path} header field 'shapes.{name}' is {shapes[name]}, "
                f"the other layers need {agreed}"
            )
    arrays = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise DataError(f"{path} holds non-finite values in {name!r}")
        arrays[name] = arr.astype(np.float64).reshape(shape)
        offset += 4 * count
    return MlpParams(**arrays), header
