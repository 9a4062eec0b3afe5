"""Synthetic partial-shift task generation, signal ingest, augmentation, I/O.

Source/target pairs share class-conditional generators up to a declared
covariate shift; the target label space may be a strict subset of the
source label space. The trainer-facing target view never carries labels.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, NoReturn, Optional, Tuple, Type, TypeVar

import numpy as np

from .autodiff import Tensor

_DATASET_MAGIC = b"DADS"
_DATASET_VERSION = 1

# the (channels, height, width) of one image ``spectrogram_ingest`` makes and
# a ``ConvExtractor`` reads
CONV_INPUT_SHAPE = (1, 32, 32)

T = TypeVar("T")


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
    seed: int = 0

    def __post_init__(self):
        for key, low in (("source_classes", 1), ("samples_per_class", 1),
                         ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"task.{key} must be at least {low}, "
                                 f"got {getattr(self, key)}")
        tc = tuple(sorted(set(int(c) for c in self.target_classes)))
        if not tc or any(c < 0 or c >= self.source_classes for c in tc):
            raise ValueError(
                f"task.target_classes {self.target_classes} is not a nonempty "
                f"subset of [0, task.source_classes={self.source_classes})")
        self.target_classes = tc
        for domain, n_classes in (("source", self.source_classes),
                                  ("target", len(tc))):
            if self.samples_per_class * n_classes < 2:
                # batch statistics and the two-sample loss need two rows
                raise ValueError(
                    f"task.samples_per_class={self.samples_per_class} gives the "
                    f"{domain} domain {self.samples_per_class * n_classes} row; "
                    f"each domain needs at least 2")
        if self.input_kind == "image":
            carriers = [("source", c, _carrier(c)) for c in range(self.source_classes)]
            carriers += [("target", c, _carrier(c, self.rotation_angle)) for c in tc]
            for domain, c, f in carriers:
                if not 0.0 < f < 0.5:  # a tone must lie below the Nyquist rate
                    raise ValueError(
                        f"task.source_classes={self.source_classes}, "
                        f"task.rotation_angle={self.rotation_angle}: image {domain} "
                        f"class {c} gets a tone carrier of {f:g} cycles per "
                        f"sample, outside (0, 0.5)")
        elif self.input_kind != "vector":
            raise ValueError(f"task.input_kind must be vector or image, "
                             f"got {self.input_kind!r}")
        elif self.dim < 1:
            raise ValueError(f"task.dim must be at least 1, got {self.dim}")
        elif self.source_classes > self.dim:
            # a vector task draws one orthogonal mean direction per class
            raise ValueError(
                f"task.source_classes={self.source_classes} needs task.dim of at "
                f"least {self.source_classes}, got {self.dim}")
        elif len(self.mean_offset) > self.dim:
            raise ValueError(
                f"task.mean_offset has {len(self.mean_offset)} values, more than "
                f"task.dim={self.dim}")


@dataclass
class Dataset:
    """Inputs, their labels (None, or an int64 array with one label per row,
    to which any integer sequence converts here; floats, bools and strings
    are rejected, not truncated) and a domain tag."""

    inputs: Tensor
    labels: Optional[np.ndarray]
    domain: str

    def __post_init__(self):
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (len(self),):
                raise ValueError(f"labels length does not match inputs: {len(self)} "
                                 f"rows, labels of shape {labels.shape}")
            if len(labels) and labels.dtype.kind not in "iu":
                raise ValueError(f"labels must be integers, got dtype {labels.dtype}; "
                                 f"row 0 holds {labels[:1].tolist()[0]!r}")
            self.labels = labels.astype(np.int64, copy=False)

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


def _carrier(label: int, angle: float = 0.0) -> float:
    """Class ``label``'s tone frequency in cycles per sample; a target's is
    detuned by 0.01 per radian of its rotation angle."""
    return 0.04 + 0.06 * label + 0.01 * angle


def _tone_burst(label: int, n_signals: int, length: int,
                rng: np.random.Generator, angle: float = 0.0) -> np.ndarray:
    """Per-class tone bursts: class k gets a distinct carrier frequency."""
    t = np.arange(length)
    base = _carrier(label, angle)
    sig = np.sin(2 * np.pi * base * t)[None, :] * np.ones((n_signals, 1))
    sig *= 1.0 + 0.2 * rng.standard_normal((n_signals, 1))
    sig += 0.1 * rng.standard_normal((n_signals, length))
    return sig


def gen_synthetic_pda(spec: PdaTaskSpec) -> Tuple[Dataset, Dataset, Dataset]:
    """Build (source, trainer-facing target, labeled eval-target) datasets.

    Source covers all classes; the target draws only the declared subset and
    is pushed through the declared shift. Deterministic per seed. A vector
    task draws Gaussian rows around class means; an image task draws tone
    bursts from its own stream and reads nothing of the vector draws.
    """
    n = spec.samples_per_class
    src_classes, tgt_classes = range(spec.source_classes), spec.target_classes
    if spec.input_kind == "image":
        sig_rng = np.random.default_rng(spec.seed + 104729)
        src_sig = np.concatenate([_tone_burst(c, n, 1024, sig_rng) for c in src_classes])
        # shift realized as a carrier detune
        tgt_sig = np.concatenate([_tone_burst(c, n, 1024, sig_rng, spec.rotation_angle)
                                  for c in tgt_classes])
        src_x = spectrogram_ingest(Tensor(src_sig)).data
        tgt_x = spectrogram_ingest(Tensor(tgt_sig)).data
    else:
        rng = np.random.default_rng(spec.seed)
        means = _class_means(spec, np.random.default_rng(spec.seed + 7919))
        # source rows first, then target rows, from the one stream
        src_x, tgt_x = (np.concatenate([means[c] + rng.standard_normal((n, spec.dim))
                                        for c in classes])
                        for classes in (src_classes, tgt_classes))
        rot = _rotation_matrix(spec.dim, spec.rotation_angle)
        offset = np.zeros(spec.dim)
        offset[: len(spec.mean_offset)] = spec.mean_offset
        tgt_x = (spec.scale * tgt_x) @ rot.T + offset

    source = Dataset(Tensor(src_x), np.repeat(src_classes, n), "source")
    eval_target = Dataset(Tensor(tgt_x), np.repeat(tgt_classes, n), "target")
    return source, eval_target.without_labels(), eval_target


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize each (h, w) image of an (n, h, w) batch to (out_h, out_w)."""
    h, w = img.shape[1:]
    ys = np.linspace(0, h - 1, out_h)
    xs = np.linspace(0, w - 1, out_w)
    y0 = np.floor(ys).astype(int)[:, None]
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = ys[:, None] - y0
    wx = (xs - x0)[None, :]
    return (img[:, y0, x0] * (1 - wy) * (1 - wx)
            + img[:, y1, x0] * wy * (1 - wx)
            + img[:, y0, x1] * (1 - wy) * wx
            + img[:, y1, x1] * wy * wx)


def spectrogram_ingest(signals: Tensor) -> Tensor:
    """Log-magnitude short-time spectrum images, resized and [0,1]-normalized.

    Frames of 64 samples, Hann-windowed, start every 16 samples. Returns an
    n x ``CONV_INPUT_SHAPE`` batch, each sample min-max scaled (a flat image
    is all zeros). The whole batch is framed, transformed and resized at
    once; each row equals its signal ingested alone.
    """
    window, hop = 64, 16
    x = signals.data
    if x.ndim != 2:
        raise ValueError(f"expected n x L signals, got shape {x.shape}")
    length = x.shape[1]
    if length < window:
        raise ValueError(f"signals of length {length} are shorter than the "
                         f"{window}-sample window")
    n_frames = (length - window) // hop + 1
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[:, idx] * np.hanning(window)
    spec = np.log1p(np.abs(np.fft.rfft(frames, axis=-1)).transpose(0, 2, 1))  # freq x time
    img = _bilinear_resize(spec, *CONV_INPUT_SHAPE[1:])
    lo = img.min(axis=(1, 2), keepdims=True)
    span = img.max(axis=(1, 2), keepdims=True) - lo
    # a flat image is already all zeros after the shift
    return Tensor(((img - lo) / np.where(span > 0, span, 1.0))[:, None])


def augment_pair(x: Tensor, rng: np.random.Generator) -> Tuple[Tensor, Tensor]:
    """The batch and one augmented view of it, row-aligned.

    The view adds Gaussian noise with sigma 0.1, then scales each row by one
    amplitude drawn from U(0.8, 1.2).
    """
    view = x.data + 0.1 * rng.standard_normal(x.shape)
    view *= rng.uniform(0.8, 1.2, size=(x.shape[0],) + (1,) * (x.ndim - 1))
    return x, Tensor(view)


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
            f.write(ds.labels.astype("<i8", copy=False).tobytes())


def load_dataset(path) -> Dataset:
    def parse(cur: Cursor) -> Dataset:
        has_labels, ndim = cur.fields("BB")
        if has_labels not in (0, 1):
            cur.fail(f"the labels flag (byte 6) is {has_labels}, not 0 or 1")
        if ndim < 1:
            cur.fail("a dataset needs a row dimension")
        shape = cur.fields(f"{ndim}I")
        domain = cur.text()
        row_len = math.prod(shape[1:])
        # a bad cell is named by its row and its column in the flattened row
        inputs = cur.floats(shape, lambda i: "row %d, column %d" % divmod(i, row_len))
        labels = None
        if has_labels:
            labels = np.frombuffer(cur.raw, "<i8", shape[0], cur._take(8 * shape[0]))
            bad = np.flatnonzero(labels < 0)
            if bad.size:
                cur.fail(f"negative label {labels[bad[0]]} in row {bad[0]}")
        return Dataset(Tensor(inputs), labels, domain)
    return read_container(path, _DATASET_MAGIC, _DATASET_VERSION, "dataset",
                          DatasetFormatError, parse)


# -- the container reader -----------------------------------------------------
# Datasets and checkpoints share one framing: a 4-byte magic, a u16 version,
# then parts of little-endian struct fields, u16-length utf-8 texts and f64
# arrays, each value finite, with no byte after the last part.

class Cursor:
    """Reads a container's parts in order; a fault raises ``error`` naming
    the file."""

    def __init__(self, raw: bytes, path, error: Type[ValueError]):
        self.raw, self.path, self.error, self.offset = raw, path, error, 0

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.path}: {message}")

    def _take(self, n: int) -> int:
        """The offset of the next ``n`` bytes, which the cursor moves past."""
        start, self.offset = self.offset, self.offset + n
        if self.offset > len(self.raw):
            self.fail(f"truncated file: a part ends at byte {self.offset}, "
                      f"the file has {len(self.raw)} bytes")
        return start

    def fields(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self.raw, self._take(struct.calcsize(fmt)))

    def text(self) -> str:
        start = self._take(self.fields("H")[0])
        try:
            return self.raw[start:self.offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            self.fail(f"a text is not utf-8 ({exc})")

    def floats(self, shape: Tuple[int, ...], where: Callable[[int], str]) -> np.ndarray:
        """An f64 array of ``shape``, each value finite; ``where(i)`` names the
        i-th value in row-major order."""
        count = math.prod(shape)
        out = np.frombuffer(self.raw, "<f8", count, self._take(8 * count))
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            self.fail(f"non-finite value {out[bad[0]]} in {where(int(bad[0]))}")
        return out.reshape(shape)


def read_container(path, magic: bytes, version: int, kind: str,
                   error: Type[ValueError], parse: Callable[[Cursor], T]) -> T:
    """``parse`` of the parts after the magic and the version of the ``kind``
    file at ``path``, which must end where ``parse`` stops. A path that
    cannot be opened or read (missing, a directory, no permission) raises
    ``error`` too."""
    try:
        with open(path, "rb") as f:
            cur = Cursor(f.read(), path, error)
    except OSError as exc:
        raise error(f"{path}: cannot read the {kind} file "
                    f"({exc.strerror or exc})") from exc
    if cur.raw[:len(magic)] != magic:
        cur.fail(f"not a {kind} file")
    cur.offset = len(magic)
    found = cur.fields("H")[0]
    if found != version:
        cur.fail(f"unsupported {kind} version {found} (expected {version})")
    out = parse(cur)
    if cur.offset != len(cur.raw):
        cur.fail(f"trailing or truncated payload ({len(cur.raw) - cur.offset} "
                 f"bytes after the last part)")
    return out
