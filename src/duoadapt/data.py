"""Synthetic partial-shift task generation, signal ingest, augmentation, I/O.

Source/target pairs share class-conditional generators up to a declared
covariate shift; the target label space may be a strict subset of the
source label space. The trainer-facing target view never carries labels.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .autodiff import Tensor

_DATASET_MAGIC = b"DADS"
_DATASET_VERSION = 1


class DatasetFormatError(ValueError):
    pass


@dataclass
class PdaTaskSpec:
    """Generative description of a source/target pair with subset target labels."""

    source_classes: int = 4
    target_classes: Tuple[int, ...] = (0, 1)
    samples_per_class: int = 200
    input_kind: str = "vector"          # vector | image
    dim: int = 8                        # vector mode input dimension
    class_separation: float = 3.0
    mean_offset: Tuple[float, ...] = ()
    rotation_angle: float = 0.0
    scale: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.source_classes < 1 or self.samples_per_class < 1:
            raise ValueError("class and sample counts must be positive")
        tc = tuple(sorted(set(int(c) for c in self.target_classes)))
        if not tc or any(c < 0 or c >= self.source_classes for c in tc):
            raise ValueError(
                f"target_classes {self.target_classes} not a nonempty subset "
                f"of [0, {self.source_classes})")
        self.target_classes = tc
        for domain, n_classes in (("source", self.source_classes),
                                  ("target", len(tc))):
            if self.samples_per_class * n_classes < 2:
                # batch statistics and the two-sample loss need two rows
                raise ValueError(
                    f"task.samples_per_class={self.samples_per_class} gives the "
                    f"{domain} domain {self.samples_per_class * n_classes} row; "
                    f"each domain needs at least 2")
        if self.input_kind not in ("vector", "image"):
            raise ValueError(f"unknown input_kind {self.input_kind!r}")
        if self.dim < 1:
            raise ValueError(f"task.dim must be at least 1, got {self.dim}")
        if self.source_classes > self.dim:
            # every kind of input draws one orthogonal mean direction per class
            raise ValueError(
                f"task.source_classes={self.source_classes} needs task.dim of at "
                f"least {self.source_classes}, got {self.dim}")
        if len(self.mean_offset) > self.dim:
            raise ValueError(
                f"task.mean_offset has {len(self.mean_offset)} values, more than "
                f"task.dim={self.dim}")


@dataclass
class Dataset:
    """Inputs plus an optional label list and a domain tag."""

    inputs: Tensor
    labels: Optional[List[int]]
    domain: str

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.inputs.shape[0]:
            raise ValueError("labels length does not match inputs")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def without_labels(self) -> "Dataset":
        return Dataset(self.inputs, None, self.domain)


def _rotation_matrix(d: int, angle: float) -> np.ndarray:
    """Rotation by ``angle`` in the plane of the first two coordinates."""
    r = np.eye(d)
    if d >= 2 and angle != 0.0:
        c, s = np.cos(angle), np.sin(angle)
        r[0, 0], r[0, 1], r[1, 0], r[1, 1] = c, -s, s, c
    return r


def _class_means(spec: PdaTaskSpec, rng: np.random.Generator) -> np.ndarray:
    """Well-separated unit directions scaled by class_separation."""
    raw = rng.standard_normal((spec.source_classes, spec.dim))
    q, _ = np.linalg.qr(raw.T)
    dirs = q.T[: spec.source_classes]
    return dirs * spec.class_separation


def _tone_burst(label: int, n_signals: int, length: int,
                rng: np.random.Generator, f_shift: float = 0.0) -> np.ndarray:
    """Per-class tone bursts: class k gets a distinct carrier frequency."""
    t = np.arange(length)
    base = 0.04 + 0.06 * label + f_shift
    sig = np.sin(2 * np.pi * base * t)[None, :] * np.ones((n_signals, 1))
    sig *= 1.0 + 0.2 * rng.standard_normal((n_signals, 1))
    sig += 0.1 * rng.standard_normal((n_signals, length))
    return sig


def gen_synthetic_pda(spec: PdaTaskSpec) -> Tuple[Dataset, Dataset, Dataset]:
    """Build (source, trainer-facing target, labeled eval-target) datasets.

    Source covers all classes; the target draws only the declared subset and
    is pushed through the declared shift. Deterministic per seed.
    """
    rng = np.random.default_rng(spec.seed)
    means = _class_means(spec, np.random.default_rng(spec.seed + 7919))

    def draw(classes: Sequence[int]) -> Tuple[np.ndarray, List[int]]:
        xs, ys = [], []
        for c in classes:
            xs.append(means[c] + rng.standard_normal((spec.samples_per_class, spec.dim)))
            ys.extend([c] * spec.samples_per_class)
        return np.concatenate(xs, axis=0), ys

    src_x, src_y = draw(range(spec.source_classes))
    tgt_x, tgt_y = draw(spec.target_classes)

    rot = _rotation_matrix(spec.dim, spec.rotation_angle)
    offset = np.zeros(spec.dim)
    if spec.mean_offset:
        off = np.asarray(spec.mean_offset, dtype=np.float64)
        offset[: len(off)] = off
    tgt_x = (spec.scale * tgt_x) @ rot.T + offset
    if spec.noise_sigma > 0:
        tgt_x = tgt_x + spec.noise_sigma * rng.standard_normal(tgt_x.shape)

    if spec.input_kind == "image":
        sig_rng = np.random.default_rng(spec.seed + 104729)
        src_sig = np.concatenate([
            _tone_burst(c, spec.samples_per_class, 1024, sig_rng)
            for c in range(spec.source_classes)])
        # shift realized as a carrier detune plus additive noise
        tgt_sig = np.concatenate([
            _tone_burst(c, spec.samples_per_class, 1024, sig_rng,
                        f_shift=0.01 * spec.rotation_angle)
            for c in spec.target_classes])
        if spec.noise_sigma > 0:
            tgt_sig = tgt_sig + spec.noise_sigma * sig_rng.standard_normal(tgt_sig.shape)
        src_x = spectrogram_ingest(Tensor(src_sig), window=64, hop=16).data
        tgt_x = spectrogram_ingest(Tensor(tgt_sig), window=64, hop=16).data

    source = Dataset(Tensor(src_x), src_y, "source")
    eval_target = Dataset(Tensor(tgt_x), tgt_y, "target")
    return source, eval_target.without_labels(), eval_target


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape
    ys = np.linspace(0, h - 1, out_h)
    xs = np.linspace(0, w - 1, out_w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    return (img[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
            + img[np.ix_(y1, x0)] * wy * (1 - wx)
            + img[np.ix_(y0, x1)] * (1 - wy) * wx
            + img[np.ix_(y1, x1)] * wy * wx)


def spectrogram_ingest(signals: Tensor, window: int, hop: int,
                       out_size: int = 32) -> Tensor:
    """Log-magnitude short-time spectrum images, resized and [0,1]-normalized.

    Returns an n x 1 x 32 x 32 batch; values are per-sample min-max scaled
    with an all-zero guard.
    """
    x = signals.data
    if x.ndim != 2:
        raise ValueError(f"expected n x L signals, got shape {x.shape}")
    n, length = x.shape
    if not (length >= window >= hop >= 1):
        raise ValueError(f"need L >= window >= hop >= 1, got L={length}, "
                         f"window={window}, hop={hop}")
    n_frames = (length - window) // hop + 1
    han = np.hanning(window)
    images = np.empty((n, 1, out_size, out_size))
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    for i in range(n):
        frames = x[i][idx] * han
        spec = np.abs(np.fft.rfft(frames, axis=1)).T  # freq x time
        spec = np.log1p(spec)
        img = _bilinear_resize(spec, out_size, out_size)
        lo, hi = img.min(), img.max()
        images[i, 0] = (img - lo) / (hi - lo) if hi > lo else np.zeros_like(img)
    return Tensor(images)


def augment_pair(x: Tensor, rng: np.random.Generator) -> Tuple[Tensor, Tensor]:
    """Two independently augmented views of the same batch, row-aligned.

    Each view adds Gaussian noise with sigma 0.1, then scales each row by
    one amplitude drawn from U(0.8, 1.2); the first view's draws come first.
    """
    return _augment_once(x.data, rng), _augment_once(x.data, rng)


def _augment_once(x: np.ndarray, rng: np.random.Generator) -> Tensor:
    out = x + 0.1 * rng.standard_normal(x.shape)
    out *= rng.uniform(0.8, 1.2, size=(x.shape[0],) + (1,) * (x.ndim - 1))
    return Tensor(out)


# -- binary container ---------------------------------------------------------
# Layout: magic "DADS" | u16 version | u8 has_labels | u8 ndim |
#         ndim x u32 shape | domain tag (u16 length + utf-8) |
#         row-major f64 payload (each value finite) |
#         optional i64 label block (each label >= 0).

def save_dataset(path, ds: Dataset) -> None:
    shape = ds.inputs.shape
    with open(path, "wb") as f:
        f.write(_DATASET_MAGIC)
        f.write(struct.pack("<HBB", _DATASET_VERSION,
                            1 if ds.labels is not None else 0, len(shape)))
        f.write(struct.pack(f"<{len(shape)}I", *shape))
        tag = ds.domain.encode("utf-8")
        f.write(struct.pack("<H", len(tag)))
        f.write(tag)
        f.write(np.ascontiguousarray(ds.inputs.data, dtype="<f8").tobytes())
        if ds.labels is not None:
            f.write(np.asarray(ds.labels, dtype="<i8").tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _DATASET_MAGIC:
        raise DatasetFormatError(f"{path}: not a dataset container")
    version, has_labels, ndim = struct.unpack_from("<HBB", raw, 4)
    if version != _DATASET_VERSION:
        raise DatasetFormatError(
            f"{path}: unsupported container version {version} "
            f"(expected {_DATASET_VERSION})")
    try:
        return _parse_dataset(raw, has_labels, ndim, path)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        if isinstance(exc, DatasetFormatError):
            raise
        raise DatasetFormatError(f"{path}: corrupt container ({exc})") from exc


def _parse_dataset(raw: bytes, has_labels: int, ndim: int, path) -> Dataset:
    off = 8
    shape = struct.unpack_from(f"<{ndim}I", raw, off)
    off += 4 * ndim
    (tag_len,) = struct.unpack_from("<H", raw, off)
    off += 2
    domain = raw[off:off + tag_len].decode("utf-8")
    off += tag_len
    count = int(np.prod(shape))
    payload = np.frombuffer(raw, dtype="<f8", count=count, offset=off)
    off += 8 * count
    labels = None
    if has_labels:
        labels = np.frombuffer(raw, dtype="<i8", count=shape[0], offset=off).tolist()
        off += 8 * shape[0]
    if off != len(raw):
        raise DatasetFormatError(f"{path}: trailing or truncated payload")
    if labels and min(labels) < 0:
        row = next(i for i, y in enumerate(labels) if y < 0)
        raise DatasetFormatError(f"{path}: negative label {labels[row]} in row {row}")
    finite = np.isfinite(payload)
    if not finite.all():
        # the first bad cell, by its row and its column in the flattened row
        bad = int(np.argmin(finite))
        row, col = divmod(bad, count // shape[0] if shape else 1)
        raise DatasetFormatError(f"{path}: non-finite value {payload[bad]} "
                                 f"in row {row}, column {col}")
    return Dataset(Tensor(payload.reshape(shape)), labels, domain)
