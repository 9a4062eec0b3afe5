"""Domain-wise classifier architecture and checkpoint persistence.

Each domain owns one model: a frozen contrastively-pretrained extractor,
a residual adaptation block (identity for own-domain features, learned
residual correction for cross-domain features), and a classification
head over the full source label space. Final predictions fuse the two
models by summing their logits. Everything after ``extract`` reads features.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .autodiff import Tensor, conv_stack, dense_stack, linear

_CKPT_MAGIC = b"DACK"
_CKPT_VERSION = 1


class ExtractorNotPretrained(RuntimeError):
    pass


class CheckpointFormatError(ValueError):
    pass


# -- module plumbing ----------------------------------------------------------

class Module:
    """Tiny container base: children discovered from instance attributes."""

    def _children(self) -> Iterator[Tuple[str, "Module"]]:
        for name, val in vars(self).items():
            if isinstance(val, Module):
                yield name, val
            elif isinstance(val, list):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield f"{name}{i}", item

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._children():
            path = f"{prefix}.{name}" if prefix else name
            yield from child.walk(path)

    def named_parameters(self, prefix: str = "") -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        for path, m in self.walk(prefix):
            for name, val in vars(m).items():
                if isinstance(val, Tensor):
                    out[f"{path}.{name}" if path else name] = val
        return out

    def named_buffers(self, prefix: str = "") -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for path, m in self.walk(prefix):
            if isinstance(m, BatchNorm):
                out[f"{path}.running_mean"] = m.running_mean
                out[f"{path}.running_var"] = m.running_var
        return out

    def freeze(self) -> None:
        for t in self.named_parameters().values():
            t.requires_grad = False
            t.grad = None


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 zero_init: bool = False):
        if zero_init:
            w = np.zeros((in_dim, out_dim))
        else:
            w = rng.standard_normal((in_dim, out_dim)) * np.sqrt(2.0 / in_dim)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class BatchNorm(Module):
    def __init__(self, dim: int, momentum: float = 0.9, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps


class Conv(Module):
    def __init__(self, in_ch: int, out_ch: int, k: int, rng: np.random.Generator,
                 padding: int = 1):
        scale = np.sqrt(2.0 / (in_ch * k * k))
        self.weight = Tensor(rng.standard_normal((out_ch, in_ch, k, k)) * scale,
                             requires_grad=True)
        self.padding = padding


# -- feature extractors -------------------------------------------------------

class Extractor(Module):
    """Feature extractor with a two-layer projection head.

    The head is used only during contrastive pretraining; downstream
    consumers call ``features``, which bypasses it.
    """

    pretrained = False

    def project(self, x: Tensor) -> Tensor:
        return self.proj2(self.proj1(self.features(x)).relu())

    def mark_pretrained(self) -> None:
        """Freeze the weights and let ``extract`` use them."""
        self.freeze()
        self.pretrained = True


class MlpExtractor(Extractor):
    """Fully connected extractor for vector-valued inputs."""

    def __init__(self, in_dim: int, rng: np.random.Generator,
                 hidden: Sequence[int] = (64,), feature_dim: int = 32,
                 proj_dim: int = 16):
        dims = [in_dim, *hidden, feature_dim]
        self.layers = [Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]
        self.proj1 = Linear(feature_dim, feature_dim, rng)
        self.proj2 = Linear(feature_dim, proj_dim, rng)
        self.feature_dim = feature_dim

    def features(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x).relu()
        return self.layers[-1](x)


class ConvExtractor(Extractor):
    """Three conv/BN/maxpool/ReLU blocks over 1x32x32 images, then FC; a
    ``features`` call is one ``conv_stack`` node and one ``linear`` node.

    The batch norms use batch statistics until the extractor is pretrained
    and their running statistics after. Pooling before the ReLU is exact:
    ReLU is monotone, so the first maximum of each window is the same cell
    either way, and the ReLU runs on a quarter of the values.
    """

    def __init__(self, rng: np.random.Generator, channels: Sequence[int] = (32, 64, 128),
                 feature_dim: int = 512, proj_dim: int = 64):
        chain = [1, *channels]
        self.convs = [Conv(a, b, 3, rng) for a, b in zip(chain[:-1], chain[1:])]
        self.bns = [BatchNorm(c) for c in channels]
        flat = channels[-1] * (32 // 2 ** len(channels)) ** 2
        self.fc = Linear(flat, feature_dim, rng)
        self.proj1 = Linear(feature_dim, feature_dim, rng)
        self.proj2 = Linear(feature_dim, proj_dim, rng)
        self.feature_dim = feature_dim

    def features(self, x: Tensor) -> Tensor:
        mode = "eval" if self.pretrained else "train"
        return self.fc(conv_stack(x, zip(self.convs, self.bns), mode))


# -- adaptation block and classifier -----------------------------------------

class DenseStack(Module):
    """Hidden Linear -> BatchNorm -> ReLU -> Dropout layers, then a Linear;
    each call is one ``dense_stack`` graph node. Every layer's dropout
    draws from the one generator ``rng``."""

    zero_init_out = False

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 hidden: Sequence[int], dropout_p: float):
        dims = [in_dim, *hidden]
        self.fcs = [Linear(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]
        self.bns = [BatchNorm(b) for b in hidden]
        self.dropout_p = dropout_p
        self.rng = rng
        self.out = Linear(dims[-1], out_dim, rng, zero_init=self.zero_init_out)

    def __call__(self, h: Tensor, mode: str, residual: bool = False) -> Tensor:
        """The stack's output in ``mode`` (one of ``autodiff.MODES``), plus
        ``h`` itself when ``residual``."""
        return dense_stack(h, zip(self.fcs, self.bns), self.out, mode,
                           self.dropout_p, self.rng, residual)


class RdaBlock(DenseStack):
    """Residual adaptation block with an exact identity channel.

    Own-domain features pass through untouched (no graph nodes recorded);
    cross-domain features gain a learned residual correction whose final
    linear layer starts at zero, so the block is the identity at init.
    """

    zero_init_out = True

    def __init__(self, dim: int, own_domain: str, rng: np.random.Generator,
                 hidden: Sequence[int] = (256, 128, 256), dropout_p: float = 0.1):
        if own_domain not in ("source", "target"):
            raise ValueError(f"bad domain {own_domain!r}")
        super().__init__(dim, dim, rng, hidden, dropout_p)
        self.own_domain = own_domain
        self.dim = dim


def rda_forward(block: RdaBlock, z: Tensor, domain_of_z: str, mode: str) -> Tensor:
    """Identity for own-domain features, z + block(z) in ``mode`` otherwise."""
    if z.shape[-1] != block.dim:
        raise ValueError(f"rda_forward: feature dim {z.shape[-1]} != block dim {block.dim}")
    if domain_of_z == block.own_domain:
        return z
    return block(z, mode, residual=True)


class DomainClassifier(DenseStack):
    """Three-layer FC head emitting raw logits over the source label space."""

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator,
                 hidden: Sequence[int] = (128, 64), dropout_p: float = 0.1):
        super().__init__(dim, n_classes, rng, hidden, dropout_p)


class DomainWiseModel(Module):
    """One domain's classifier: shared frozen extractors + own RDA + head."""

    def __init__(self, extractor_s: Module, extractor_t: Module,
                 rda: RdaBlock, classifier: DomainClassifier):
        self.extractor_s = extractor_s
        self.extractor_t = extractor_t
        self.rda = rda
        self.classifier = classifier


def extract(model: DomainWiseModel, x: Tensor, domain_of_x: str) -> Tensor:
    """Frozen per-domain feature extraction; constant w.r.t. the tape."""
    ext = model.extractor_s if domain_of_x == "source" else model.extractor_t
    if not getattr(ext, "pretrained", False):
        raise ExtractorNotPretrained(
            f"{domain_of_x} extractor used before contrastive pretraining")
    return ext.features(x)


def classifier_logits(model: DomainWiseModel, z: Tensor, domain_of_z: str,
                      mode: str) -> Tensor:
    """Features -> adaptation block -> classifier, both in ``mode``; raw
    logits out."""
    return model.classifier(rda_forward(model.rda, z, domain_of_z, mode), mode)


def fused_logits(ms: DomainWiseModel, mt: DomainWiseModel,
                 z_t: Tensor) -> np.ndarray:
    """Sum of the two models' eval-mode logits on target features."""
    return (classifier_logits(ms, z_t, "target", "eval").data
            + classifier_logits(mt, z_t, "target", "eval").data)


def ensemble_predict(ms: DomainWiseModel, mt: DomainWiseModel,
                     x_t: Tensor) -> np.ndarray:
    """Class predictions on raw target samples from the summed logits."""
    return fused_logits(ms, mt, extract(ms, x_t, "target")).argmax(axis=1)


def build_models(n_classes: int, extractor_s: Module, extractor_t: Module,
                 seed: int, rda_hidden: Sequence[int], clf_hidden: Sequence[int],
                 dropout_p: float = 0.1) -> Tuple[DomainWiseModel, DomainWiseModel]:
    """Construct the source and target models around shared extractors."""
    dim = extractor_s.feature_dim
    if extractor_t.feature_dim != dim:
        raise ValueError("extractor feature dims differ")
    rng = np.random.default_rng(seed)
    # built in order, source first: both draw from the one stream
    ms, mt = (DomainWiseModel(extractor_s, extractor_t,
                              RdaBlock(dim, domain, rng, rda_hidden, dropout_p),
                              DomainClassifier(dim, n_classes, rng, clf_hidden,
                                               dropout_p))
              for domain in ("source", "target"))
    return ms, mt


def _parts(ms: DomainWiseModel, mt: DomainWiseModel
           ) -> Tuple[Tuple[str, str, Module], ...]:
    """(parameter group, name prefix, module) for the six parts of a pair."""
    return (("eps_s", "Gs", ms.extractor_s),
            ("eps_t", "Gt", ms.extractor_t),
            ("phi_s", "Ms.Fs", ms.rda),
            ("theta_s", "Ms.Cs", ms.classifier),
            ("phi_t", "Mt.Ft", mt.rda),
            ("theta_t", "Mt.Ct", mt.classifier))


def parameter_groups(ms: DomainWiseModel, mt: DomainWiseModel
                     ) -> Dict[str, Dict[str, Tensor]]:
    """Every tensor of the pair as {group: {name: tensor}}; each group's names
    share its own prefix, so no name is in two groups."""
    return {group: module.named_parameters(prefix)
            for group, prefix, module in _parts(ms, mt)}


def named_buffers(ms: DomainWiseModel, mt: DomainWiseModel) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for _, prefix, module in _parts(ms, mt):
        out.update(module.named_buffers(prefix))
    return out


# -- checkpoints --------------------------------------------------------------

@dataclass
class Checkpoint:
    """Immutable snapshot of all parameters and BN buffers."""

    epoch: int
    reward: float
    config_hash: str
    arrays: Dict[str, np.ndarray]

    @classmethod
    def capture(cls, ms: DomainWiseModel, mt: DomainWiseModel, epoch: int,
                reward: float, config_hash: str = "") -> "Checkpoint":
        arrays = {name: t.data.copy()
                  for group in parameter_groups(ms, mt).values()
                  for name, t in group.items()}
        for name, buf in named_buffers(ms, mt).items():
            arrays["buffer:" + name] = buf.copy()
        return cls(epoch=epoch, reward=reward, config_hash=config_hash,
                   arrays=arrays)

    def restore(self, ms: DomainWiseModel, mt: DomainWiseModel) -> None:
        """Load every tensor into the pair; the names and shapes must match
        the pair's exactly, or nothing is loaded."""
        targets = {name: t.data for group in parameter_groups(ms, mt).values()
                   for name, t in group.items()}
        targets.update(("buffer:" + name, b)
                       for name, b in named_buffers(ms, mt).items())
        unmatched = sorted(set(targets) ^ set(self.arrays))
        if unmatched:
            name = unmatched[0]
            where = "model" if name in self.arrays else "checkpoint"
            raise CheckpointFormatError(f"tensor {name!r} is not in the {where}")
        for name, arr in self.arrays.items():
            if arr.shape != targets[name].shape:
                raise CheckpointFormatError(
                    f"tensor {name!r}: checkpoint shape {arr.shape} != "
                    f"model shape {targets[name].shape}")
        # in place: a parameter's array may be a view of an optimizer's buffer
        for name, arr in self.arrays.items():
            targets[name][...] = arr


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<H", _CKPT_VERSION))
        h = ckpt.config_hash.encode("utf-8")
        f.write(struct.pack("<H", len(h)))
        f.write(h)
        f.write(struct.pack("<Id", ckpt.epoch, ckpt.reward))
        f.write(struct.pack("<I", len(ckpt.arrays)))
        for name in sorted(ckpt.arrays):
            arr = ckpt.arrays[name]
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _CKPT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != _CKPT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    off = 6
    try:
        return _parse_checkpoint(raw, off, path)
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        if isinstance(exc, CheckpointFormatError):
            raise
        raise CheckpointFormatError(f"{path}: corrupt checkpoint ({exc})") from exc


def _parse_checkpoint(raw: bytes, off: int, path) -> "Checkpoint":
    (hlen,) = struct.unpack_from("<H", raw, off)
    off += 2
    config_hash = raw[off:off + hlen].decode("utf-8")
    off += hlen
    epoch, reward = struct.unpack_from("<Id", raw, off)
    off += 12
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    arrays: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, off)
        off += 2
        name = raw[off:off + nlen].decode("utf-8")
        off += nlen
        (ndim,) = struct.unpack_from("<B", raw, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}I", raw, off)
        off += 4 * ndim
        n = int(np.prod(shape)) if ndim else 1
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=n,
                                     offset=off).reshape(shape).copy()
        off += 8 * n
    if off != len(raw):
        raise CheckpointFormatError(f"{path}: trailing or truncated payload")
    return Checkpoint(epoch=epoch, reward=reward, config_hash=config_hash,
                      arrays=arrays)
