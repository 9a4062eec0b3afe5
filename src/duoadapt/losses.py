"""Scalar training objectives: contrastive, kernel two-sample, cross-entropy.

All functions build on the autodiff Tensor and are differentiable with
respect to every non-detached input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .autodiff import ShapeMismatch, Tensor, log_softmax

MEDIAN_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class KernelSpec:
    """RBF kernel family for the two-sample discrepancy.

    ``bandwidths`` are squared length scales; with ``median_heuristic_multi``
    they are resolved per call as the median pairwise squared distance of the
    pooled samples scaled by 0.25/0.5/1/2/4.
    """

    bandwidths: Optional[List[float]] = None
    bandwidth_rule: str = "median_heuristic_multi"

    def resolve(self, a: np.ndarray, b: np.ndarray) -> List[float]:
        if self.bandwidth_rule == "fixed":
            if not self.bandwidths:
                raise ValueError("fixed bandwidth rule requires explicit bandwidths")
            bws = list(self.bandwidths)
        elif self.bandwidth_rule == "median_heuristic_multi":
            pool = np.concatenate([a, b], axis=0)
            sq = np.sum(pool ** 2, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * pool @ pool.T
            med = float(np.median(d2[np.triu_indices(len(pool), k=1)]))
            if med <= 0.0:
                med = 1.0
            bws = [med * s for s in MEDIAN_SCALES]
        else:
            raise ValueError(f"unknown bandwidth rule {self.bandwidth_rule!r}")
        if not bws or any(w <= 0 for w in bws):
            raise ValueError("bandwidths must be positive and nonempty")
        return bws


@dataclass
class ContrastiveBatch:
    """Row-aligned original/augmented projection pairs for the NT-Xent loss."""

    originals: Tensor
    augmented: Tensor
    temperature: float = 0.5

    def __post_init__(self):
        if self.originals.shape != self.augmented.shape:
            raise ShapeMismatch("nt_xent", self.originals.shape, self.augmented.shape)
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def _normalize_rows(x: Tensor, op: str) -> Tensor:
    norms = (x * x).sum(axis=1, keepdims=True).sqrt()
    if np.any(norms.data < 1e-12):
        raise ValueError(f"{op}: zero-norm row, cosine similarity undefined")
    return x / norms


def nt_xent(batch: ContrastiveBatch) -> Tensor:
    """Normalized temperature-scaled cross-entropy over augmented anchors.

    Each augmented row is an anchor whose positive is the same-index
    original; the 2N-2 remaining rows of both sets are its negatives.
    Similarity is exp(cosine / temperature).
    """
    n = batch.originals.shape[0]
    if n < 2:
        raise ValueError("nt_xent needs at least 2 pairs (no negatives otherwise)")
    o = _normalize_rows(batch.originals, "nt_xent")
    a = _normalize_rows(batch.augmented, "nt_xent")
    inv_t = 1.0 / batch.temperature
    d_ao = ((a @ o.T) * inv_t).exp()   # anchor i vs original j
    d_aa = ((a @ a.T) * inv_t).exp()   # anchor i vs augmented j
    eye = Tensor(np.eye(n))
    pos = (d_ao * eye).sum(axis=1)
    denom = d_ao.sum(axis=1) + d_aa.sum(axis=1) - (d_aa * eye).sum(axis=1)
    return (denom.log() - pos.log()).mean()


def mmd_squared(a: Tensor, b: Tensor, kernel: Optional[KernelSpec] = None) -> Tensor:
    """Biased V-statistic estimate of the squared kernel mean discrepancy.

    Sums over every resolved RBF bandwidth:
    mean k(a,a) + mean k(b,b) - 2 mean k(a,b). Nonnegative per bandwidth.
    """
    kernel = kernel or KernelSpec()
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch("mmd_squared", a.shape, b.shape)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("mmd_squared needs at least 2 samples per side")
    bws = kernel.resolve(a.data, b.data)

    sq_a = (a * a).sum(axis=1, keepdims=True)
    sq_b = (b * b).sum(axis=1, keepdims=True)
    d_aa = sq_a + sq_a.T - 2.0 * (a @ a.T)
    d_bb = sq_b + sq_b.T - 2.0 * (b @ b.T)
    d_ab = sq_a + sq_b.T - 2.0 * (a @ b.T)

    total = None
    for bw in bws:
        scale = -0.5 / bw
        term = ((d_aa * scale).exp().mean()
                + (d_bb * scale).exp().mean()
                - 2.0 * (d_ab * scale).exp().mean())
        total = term if total is None else total + term
    return total


def cross_entropy_hard(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits."""
    n, k = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeMismatch("cross_entropy_hard", logits.shape, labels.shape)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels out of range [0, {k})")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return -(log_softmax(logits) * Tensor(onehot)).sum() * (1.0 / n)


def cross_entropy_soft(student_logits: Tensor, teacher_logits: Tensor,
                       detach_teacher: bool = True) -> Tensor:
    """Mean cross-entropy of the student against the teacher's softmax.

    The teacher is treated as a constant target by default.
    """
    if student_logits.shape != teacher_logits.shape:
        raise ShapeMismatch("cross_entropy_soft", student_logits.shape,
                            teacher_logits.shape)
    n = student_logits.shape[0]
    teacher = teacher_logits.detach() if detach_teacher else teacher_logits
    probs = log_softmax(teacher).exp()
    return -(probs * log_softmax(student_logits)).sum() * (1.0 / n)
