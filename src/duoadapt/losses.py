"""Scalar training objectives: contrastive, kernel two-sample, cross-entropy.

All functions build on the autodiff Tensor and are differentiable with
respect to every input that requires gradients, except the soft
cross-entropy's teacher, which is a constant target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from .autodiff import ShapeMismatch, Tensor, log_softmax_array

MEDIAN_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


@lru_cache(maxsize=16)
def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix, in
    row-major order. A run pools only a few distinct batch sizes, so each is
    built once; callers read the array and never write to it."""
    rows, cols = np.triu_indices(n, k=1)
    return rows * n + cols


@lru_cache(maxsize=16)
def _block_weights(n: int, m: int) -> np.ndarray:
    """The (n + m) x (n + m) weights of the pooled kernel matrix of n rows
    of one sample over m of another: 1/n^2 and 1/m^2 on the diagonal
    blocks, -1/nm off them. Built once per (n, m), as ``_upper_pairs`` is,
    and read-only, since every call shares it."""
    weights = np.full((n + m, n + m), -1.0 / (n * m))
    weights[:n, :n] = 1.0 / (n * n)
    weights[n:, n:] = 1.0 / (m * m)
    weights.flags.writeable = False
    return weights


def _median(values: np.ndarray) -> float:
    """``np.median`` of a finite 1-d array from one partition: the middle
    value, or for an even count the mean of it and the largest value below
    it, summed and halved as ``np.median`` does. Overwrites ``values``."""
    h = len(values) // 2
    values.partition(h)
    if len(values) % 2:
        return float(values[h])
    return float((values[:h].max() + values[h]) / 2.0)


@dataclass
class KernelSpec:
    """RBF kernel family for the two-sample discrepancy.

    ``bandwidths`` are squared length scales. ``None`` resolves them per
    call as the median pairwise squared distance of the pooled samples
    scaled by 0.25/0.5/1/2/4; a list fixes them, and is checked when the
    spec is built.
    """

    bandwidths: Optional[List[float]] = None

    def __post_init__(self):
        if self.bandwidths is not None:
            self._check_fixed()

    def _check_fixed(self) -> None:
        if not self.bandwidths or not all(0.0 < w < math.inf for w in self.bandwidths):
            raise ValueError("bandwidths must be positive and nonempty, each finite, "
                             f"got {self.bandwidths}")

    def resolve(self, d2: np.ndarray) -> List[float]:
        """Bandwidths for the pooled samples whose squared-distance matrix
        is ``d2``; fixed bandwidths ignore it, and are checked again, since
        the list may have changed since the spec was built."""
        if self.bandwidths is None:
            med = _median(d2.take(_upper_pairs(len(d2))))
            if med <= 0.0:
                med = 1.0
            return [med * s for s in MEDIAN_SCALES]
        self._check_fixed()
        return list(self.bandwidths)


def _through_row_norm(x_hat: np.ndarray, norm: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gradient with respect to x of x_hat = x / |x| per row, given d = dL/dx_hat;
    overwrites ``d``."""
    d -= x_hat * (x_hat * d).sum(axis=1, keepdims=True)
    return d / norm


def nt_xent(originals: Tensor, augmented: Optional[Tensor], temperature: float) -> Tensor:
    """Normalized temperature-scaled cross-entropy over augmented anchors.

    ``originals`` and ``augmented`` are row-aligned projection pairs. With
    ``augmented`` None, ``originals`` holds both, stacked: the N originals'
    rows, then their N views' rows; either form gives the same bits. Each
    augmented row is an anchor whose positive is the same-index original;
    the 2N-2 remaining rows of both sets are its negatives. Similarity is
    exp(cosine / temperature). One graph node over the 2N normalised rows
    p^ = [o^; a^]: with S = a^ p^T / t and E = exp(S) with each anchor's
    entry against itself zeroed, the loss is the mean of
    log(sum_j E_ij) - S_ii. With G = ((g/N) E / rowsum(E) - (g/N) [I 0]) / t,
    dp^ = G^T a^ plus G p^ on the anchors' rows, and each row normalisation
    maps dx^ to (dx^ - x^ (x^ . dx^)) / |x| (Chen et al. 2020).
    """
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if augmented is None:
        parents, rows = (originals,), originals.data
        if rows.ndim != 2 or len(rows) % 2 or len(rows) < 4:
            raise ValueError("nt_xent: stacked projections need an even number "
                             f"of at least 4 rows, got shape {rows.shape}")
    else:
        if originals.ndim != 2 or originals.shape != augmented.shape:
            raise ShapeMismatch("nt_xent", originals.shape, augmented.shape)
        if originals.shape[0] < 2:
            raise ValueError("nt_xent needs at least 2 pairs (no negatives otherwise)")
        parents = (originals, augmented)
        rows = np.concatenate([originals.data, augmented.data])
    n = len(rows) // 2
    norm = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    if np.any(norm < 1e-12):
        raise ValueError("nt_xent: zero-norm row, cosine similarity undefined")
    p_hat = rows / norm
    a_hat = p_hat[n:]
    inv_t = 1.0 / temperature
    e = a_hat @ p_hat.T
    e *= inv_t
    pos = np.diagonal(e).copy()             # anchor i vs its original
    np.exp(e, out=e)
    np.fill_diagonal(e[:, n:], 0.0)         # anchor i vs itself
    denom = e.sum(axis=1)
    value = (np.log(denom) - pos).sum() * (1.0 / n)

    def back(g):
        gn = g / n
        grad = e * (gn / denom)[:, None]
        grad[np.diag_indices(n)] -= gn
        grad *= inv_t
        d = grad.T @ a_hat
        d[n:] += grad @ p_hat
        d = _through_row_norm(p_hat, norm, d)
        parts = (d,) if augmented is None else (d[:n], d[n:])
        for t, part in zip(parents, parts):
            if t.requires_grad:
                t._accum(part)
    return Tensor._from_op(value, parents, "nt_xent", back)


def mmd_squared(a: Tensor, b: Tensor, kernel: Optional[KernelSpec] = None) -> Tensor:
    """Biased V-statistic estimate of the squared kernel mean discrepancy.

    Sums over every resolved RBF bandwidth:
    mean k(a,a) + mean k(b,b) - 2 mean k(a,b). Nonnegative per bandwidth.
    One graph node over the pooled squared-distance matrix D of the n + m
    rows X = [a; b], which also feeds the median heuristic. With the block
    weights W (1/n^2, 1/m^2, -1/nm) the loss is sum W * sum_bw exp(-D/2bw);
    for G = dL/dD, which is symmetric, dL/dX = 4 (diag(rowsum G) X - G X),
    built only for the rows of an input that requires a gradient.

    The kernels run from the widest bandwidth down. A bandwidth exactly half
    the one before it squares that one's kernel, as exp(-D/bw) is
    exp(-D/2bw)^2; any other takes its own exp. The median rule's five
    bandwidths are such a chain, so they cost one exp.
    """
    kernel = kernel or KernelSpec()
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch("mmd_squared", a.shape, b.shape)
    n, m = a.shape[0], b.shape[0]
    if n < 2 or m < 2:
        raise ValueError("mmd_squared needs at least 2 samples per side")
    x = np.concatenate([a.data, b.data], axis=0)
    sq = np.sum(x ** 2, axis=1)
    # a contiguous right operand: OpenBLAS runs the transposed-operand
    # product of these shapes on two threads, in no less time
    d2 = x @ np.ascontiguousarray(x.T)
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq
    bws = sorted(kernel.resolve(d2), reverse=True)

    weights = _block_weights(n, m)
    # ``k`` holds each bandwidth's kernel in turn; ``ksum`` sums them, and
    # ``dk`` sums (widest / bw) k, which -0.5 / widest scales to d ksum/dD
    widest = bws[0]
    k = np.multiply(d2, -0.5 / widest)
    np.exp(k, out=k)
    ksum, dk = k.copy(), k.copy()
    term = np.empty_like(k)
    for prev, bw in zip(bws, bws[1:]):
        if bw == 0.5 * prev:
            np.square(k, out=k)
        else:
            np.exp(np.multiply(d2, -0.5 / bw, out=k), out=k)
        ksum += k
        dk += np.multiply(k, widest / bw, out=term)
    # einsum sums in its own loop: np.vdot would call OpenBLAS's threaded dot
    value = np.einsum("ij,ij->", weights, ksum)

    def back(g):
        scale = -2.0 * g / widest           # 4 g times -0.5 / widest
        for t, part in ((a, slice(0, n)), (b, slice(n, n + m))):
            if t.requires_grad:
                grad_d = weights[part] * dk[part]
                grad_d *= scale
                gx = grad_d.sum(axis=1)[:, None] * x[part]
                gx -= grad_d @ x
                t._accum(gx)
    return Tensor._from_op(value, (a, b), "mmd_squared", back)


def cross_entropy_hard(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits."""
    n, k = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeMismatch("cross_entropy_hard", logits.shape, labels.shape)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError(f"labels out of range [0, {k})")
    rows = np.arange(n)
    logp = log_softmax_array(logits.data)
    value = -logp[rows, labels].sum() * (1.0 / n)

    def back(g):
        # d/dz of -mean log p_y is (softmax(z) - onehot(y)) / n
        d = np.exp(logp)
        d[rows, labels] -= 1.0
        logits._accum(d * (g / n))
    return Tensor._from_op(value, (logits,), "cross_entropy_hard", back)


def cross_entropy_soft(student_logits: Tensor, teacher_logits: Tensor) -> Tensor:
    """Mean cross-entropy of the student against the teacher's softmax.

    The teacher is a constant target: it is no parent of the node and gets
    no gradient.
    """
    if student_logits.shape != teacher_logits.shape:
        raise ShapeMismatch("cross_entropy_soft", student_logits.shape,
                            teacher_logits.shape)
    n = student_logits.shape[0]
    probs = np.exp(log_softmax_array(teacher_logits.data))
    logq = log_softmax_array(student_logits.data)
    value = -(probs * logq).sum() * (1.0 / n)

    def back(g):
        # rows of probs sum to one: d/ds = (softmax(s) - probs) / n
        student_logits._accum((np.exp(logq) - probs) * (g / n))
    return Tensor._from_op(value, (student_logits,), "cross_entropy_soft", back)
