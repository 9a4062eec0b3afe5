"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Forward ops record a computation graph only when some input requires
gradients; ``backward`` replays the graph once in reverse topological
order. Everything is float64 and deterministic, and no training output
depends on how BLAS splits a matrix product among its threads: CI compares
the benchmark workloads' files under one BLAS thread and the default count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np


class ShapeMismatch(ValueError):
    def __init__(self, op: str, a, b):
        super().__init__(f"{op}: incompatible shapes {tuple(a)} and {tuple(b)}")


class GradError(RuntimeError):
    pass


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _elementwise(op: str, forward: Callable, d_self: Callable,
                 d_other: Callable) -> Callable:
    """A broadcasting binary ``Tensor`` method: ``forward(a, b)`` over both
    operands' arrays, raising ``ShapeMismatch`` named ``op`` where they do
    not broadcast. Its backward gives each operand that requires a gradient
    ``d(g, a, b)``, read from the operands' arrays when it runs, summed back
    to that operand's shape."""
    def method(self, other):
        other = as_tensor(other)
        try:
            data = forward(self.data, other.data)
        except ValueError:
            raise ShapeMismatch(op, self.shape, other.shape)

        def back(g):
            if self.requires_grad:
                self._accum(d_self(g, self.data, other.data))
            if other.requires_grad:
                other._accum(d_other(g, self.data, other.data))
        return Tensor._from_op(data, (self, other), op, back)
    return method


def _pointwise(op: str, forward: Callable, d: Callable) -> Callable:
    """A one-operand ``Tensor`` method: ``y = forward(x)`` over its array
    ``x``, with the gradient ``d(g, x, y)`` from that input and output."""
    def method(self):
        x = self.data
        y = forward(x)

        def back(g):
            self._accum(d(g, x, y))
        return Tensor._from_op(y, (self,), op, back)
    return method


class Tensor:
    """Dense n-d float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        # copies only an array that is not C-contiguous; unlike
        # ``np.ascontiguousarray``, keeps a 0-d array 0-d
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        # the first write keeps ``g`` itself: no backward closure writes into
        # the gradient it receives, and later writes rebind instead of adding
        # in place, so sharing the array is safe
        g = _unbroadcast(np.asarray(g, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    # -- graph construction --------------------------------------------------
    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 op: str, backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Record a node when some parent requires a gradient, else drop
        ``backward`` and all its closure keeps. A node requires grad exactly
        when it records a backward, so this test and the closures read
        ``requires_grad`` alone: it is True for a recorded parent and False
        for one (a constant, a frozen weight) that needs no gradient."""
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    # -- arithmetic ----------------------------------------------------------
    # one row per op: the name, the numpy forward and each operand's
    # derivative, written in the operation order of the hand formula
    __add__ = __radd__ = _elementwise(
        "add", np.add, lambda g, a, b: g, lambda g, a, b: g)
    __sub__ = _elementwise(
        "sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
    __mul__ = __rmul__ = _elementwise(
        "mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
    __truediv__ = _elementwise(
        "div", np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b ** 2))

    __neg__ = _pointwise("neg", np.negative, lambda g, x, y: -g)
    exp = _pointwise("exp", np.exp, lambda g, x, y: g * y)
    log = _pointwise("log", np.log, lambda g, x, y: g / x)
    sqrt = _pointwise("sqrt", np.sqrt, lambda g, x, y: g * 0.5 / y)
    relu = _pointwise("relu", lambda x: x * (x > 0.0), lambda g, x, y: g * (x > 0.0))

    def __pow__(self, p: float):
        p = float(p)

        def back(g):
            self._accum(g * p * self.data ** (p - 1.0))
        return Tensor._from_op(self.data ** p, (self,), "pow", back)

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.ndim != 2 or other.ndim != 2 or self.shape[1] != other.shape[0]:
            raise ShapeMismatch("matmul", self.shape, other.shape)
        data = self.data @ other.data

        def back(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)
        return Tensor._from_op(data, (self, other), "matmul", back)

    # -- reductions and shape ------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def back(g):
            g = np.asarray(g, dtype=np.float64)
            if axis is not None and not keepdims:
                ax = (axis,) if isinstance(axis, int) else tuple(axis)
                ax = tuple(a % len(in_shape) for a in ax)
                shp = tuple(1 if i in ax else n for i, n in enumerate(in_shape))
                g = g.reshape(shp)
            self._accum(np.broadcast_to(g, in_shape))
        return Tensor._from_op(data, (self,), "sum", back)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.size if axis is None else (
            np.prod([self.shape[a % self.ndim] for a in ((axis,) if isinstance(axis, int) else axis)]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape

        def back(g):
            self._accum(np.asarray(g).reshape(in_shape))
        return Tensor._from_op(self.data.reshape(shape), (self,), "reshape", back)

    @property
    def T(self):
        if self.ndim != 2:
            raise ShapeMismatch("transpose", self.shape, self.shape)

        def back(g):
            self._accum(np.asarray(g).T)
        return Tensor._from_op(self.data.T.copy(), (self,), "transpose", back)

    # -- backprop ------------------------------------------------------------
    def backward(self) -> None:
        """Seed a scalar loss with gradient 1 and sweep the graph once.

        The depth-first walk visits recorded nodes only: a leaf gets its
        gradient from its consumers' closures and has nothing to run."""
        if self.size != 1:
            raise GradError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise GradError("loss is detached from the computation graph")
        topo: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# -- structured layer primitives ---------------------------------------------
#
# Each layer's array math lives in plain-array helpers that the one-layer
# ops below and the two stacks share; ``dense_stack`` runs its hidden linear
# layers feature-major instead. A backward helper takes the flags (one per
# input, in parameter order) of the gradients it must compute and returns
# None for the others. The stacks build their parent tuples from lists:
# CPython over-allocates a tuple built from a generator and shrinks it, and
# its tuple free lists then keep one more block after each call.

def _accum_each(tensors: Sequence[Tensor], grads: Sequence) -> None:
    for t, g in zip(tensors, grads):
        if g is not None:
            t._accum(g)


def _goes_below(x: Tensor, params: Iterable[Sequence[Tensor]]) -> List[bool]:
    """Per layer of a stack, from each layer's parameter tensors: whether the
    backward goes on below it (``x`` or a layer under it needs a gradient)."""
    below, go = [], x.requires_grad
    for ws in params:
        below.append(go)
        go = go or any(t.requires_grad for t in ws)
    return below


def _check_linear(x_shape: Tuple[int, ...], w: Tensor, b: Tensor) -> None:
    if (len(x_shape) != 2 or w.ndim != 2 or x_shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeMismatch("linear", x_shape, w.shape)


def _linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    data = x @ w
    data += b
    return data


def linear_chain(x: Tensor, layers: Iterable[tuple]) -> Tensor:
    """Linear layers over an (N, I) batch, each followed by a ReLU where
    its flag is set, as one graph node named "linear".

    ``layers`` yields one (weight, bias, relu) triple per layer. Each layer
    runs the operations of ``h @ w + b`` and ``Tensor.relu`` in their order,
    ``a = h @ w``, ``a += b``, then ``a * (a > 0.0)`` written over ``a``,
    so the values and gradients equal that composition bit for bit. The
    chain keeps each layer's input and ReLU mask, dropped when it records
    no node; the backward walks them in reverse, ``g = g * mask``,
    ``dW = h.T @ g``, ``db = g.sum(axis=0)`` and ``dh = g @ W.T``, only for
    the parents that require one, and stops below the lowest layer with
    such a parent.
    """
    layers = list(layers)
    parents = (x, *[t for w, b, _ in layers for t in (w, b)])
    cache = []
    h = x.data
    for w, b, relu in layers:
        _check_linear(h.shape, w, b)
        a = _linear_fwd(h, w.data, b.data)
        mask = a > 0.0 if relu else None
        cache.append((h, mask))
        if relu:
            a *= mask
        h = a

    def back(g):
        below = _goes_below(x, [(w, b) for w, b, _ in layers])
        for i in range(len(layers) - 1, -1, -1):
            (w, b, _), (h_in, mask) = layers[i], cache[i]
            if mask is not None:
                g = g * mask
            if w.requires_grad:
                w._accum(h_in.T @ g)
            if b.requires_grad:
                b._accum(g.sum(axis=0))
            if not below[i]:
                return
            g = g @ w.data.T
        x._accum(g)
    return Tensor._from_op(h, parents, "linear", back)


def _span(i: int, pad: int, size: int, out: int) -> Tuple[slice, slice]:
    """Output positions whose kernel offset ``i`` lands inside an image axis
    of ``size`` padded by ``pad``, and the input positions they read."""
    lo = max(0, pad - i)
    hi = max(lo, min(out, size + pad - i))
    return slice(lo, hi), slice(lo + i - pad, hi + i - pad)


def _window_spans(x_shape: Tuple[int, ...], k: int, pad: int) -> tuple:
    """The (output, input) slice pairs of each kernel row offset and of each
    column offset over the two trailing axes of ``x_shape``, and the output
    height and width."""
    h, w = x_shape[-2:]
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    return ([_span(i, pad, h, oh) for i in range(k)],
            [_span(j, pad, w, ow) for j in range(k)], oh, ow)


def _swap01(a: np.ndarray) -> np.ndarray:
    """``a`` with its first two axes swapped, C-contiguous: NCHW to
    channels-first (C, N, H, W), an (N, F) batch to its (F, N) rows, and
    back. It is a copy unless the swapped layout is already contiguous, as
    when either axis has length 1, so no caller writes into it."""
    return np.ascontiguousarray(a.swapaxes(0, 1))


def _conv_out_hw(x_shape: Tuple[int, ...], w_shape: Tuple[int, ...],
                 padding: int, op: str) -> Tuple[int, int]:
    """Output height and width of a stride-1 conv of an NCHW ``x_shape``
    with OCKK kernels, or ``ShapeMismatch`` naming ``op``."""
    if len(x_shape) != 4 or len(w_shape) != 4:
        raise ShapeMismatch(op, x_shape, w_shape)
    _, c, h, wd = x_shape
    _, ck, kh, kw = w_shape
    if ck != c or kh != kw or kh > h + 2 * padding or kw > wd + 2 * padding:
        raise ShapeMismatch(op, x_shape, w_shape)
    return h + 2 * padding - kh + 1, wd + 2 * padding - kw + 1


def _im2col(x: np.ndarray, k: int, padding: int) -> np.ndarray:
    """The (c*k*k, n*oh*ow) im2col matrix of a (c, n, h, w) array for
    stride-1 k x k windows.

    The columns are written once, in the (c, k, k, n, oh, ow) order the
    matrix products read them; window cells outside the image are zeros in
    that buffer, so no padded copy of ``x`` is made.
    """
    c, n = x.shape[:2]
    row_spans, col_spans, oh, ow = _window_spans(x.shape, k, padding)
    cols = (np.zeros if padding else np.empty)((c, k, k, n, oh, ow))
    for i, (po, pi) in enumerate(row_spans):
        for j, (qo, qi) in enumerate(col_spans):
            cols[:, i, j, :, po, qo] = x[:, :, pi, qi]
    return cols.reshape(c * k * k, n * oh * ow)


def _conv_fwd(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with OCKK kernels from the input's
    ``_im2col`` matrix, as an (o, n*oh*ow) array. ``conv_stack``'s backward
    rebuilds its forward's product with it, bit for bit."""
    return w.reshape(w.shape[0], -1) @ cols


def _col2im(g: np.ndarray, w: np.ndarray, x_shape: Tuple[int, ...],
            padding: int) -> np.ndarray:
    """The input gradient, of shape ``x_shape`` (c, n, h, w), of a stride-1
    conv from its (o, n*oh*ow) output gradient: one matrix product over o,
    then k*k slice-adds of the in-image part of each window cell. The
    kernel gradient is ``g @ cols.T`` over the im2col matrix, which each
    caller drops before this allocates its own."""
    o, c, k, _ = w.shape
    row_spans, col_spans, oh, ow = _window_spans(x_shape, k, padding)
    dcols = (w.reshape(o, c * k * k).T @ g).reshape(c, k, k, x_shape[1], oh, ow)
    dx = np.zeros(x_shape, dtype=np.float64)
    for i, (po, pi) in enumerate(row_spans):
        for j, (qo, qi) in enumerate(col_spans):
            dx[:, :, pi, qi] += dcols[:, i, j, :, po, qo]
    return dx


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with OCKK kernels (zero padding).

    The channels-first array helpers shared with ``conv_stack`` read the
    input as a (c, n, h, w) view; the output is transposed back to NCHW.
    The node keeps that view, not the im2col matrix: the kernel gradient
    rebuilds the matrix and drops it before col2im runs. Only stride 1 is
    supported; ``stride`` stays in the signature for callers that pass it
    positionally before ``padding``.
    """
    if stride != 1:
        raise ValueError(f"conv2d supports stride 1 only, got {stride}")
    oh, ow = _conv_out_hw(x.shape, w.shape, padding, "conv2d")
    n, o, k = x.shape[0], w.shape[0], w.shape[-1]
    xc = x.data.transpose(1, 0, 2, 3)
    out = _conv_fwd(_im2col(xc, k, padding), w.data)

    def back(g):
        g = _swap01(g).reshape(o, n * oh * ow)
        dw = (g @ _im2col(xc, k, padding).T).reshape(w.shape) if w.requires_grad else None
        dx = _swap01(_col2im(g, w.data, xc.shape, padding)) if x.requires_grad else None
        _accum_each((x, w), (dx, dw))
    return Tensor._from_op(_swap01(out.reshape(o, n, oh, ow)), (x, w), "conv2d", back)


# the forward modes of batch norm and of the dense and conv stacks: a
# student being trained, a teacher guiding it, and evaluation
MODES = ("train", "teacher", "eval")


def _check_mode(op: str, mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"{op}: unknown mode {mode!r}, expected one of {MODES}")


def _centre(x: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray,
            mode: str, momentum: float, eps: float, in_place: bool = False) -> tuple:
    """The centred (C, N*...) channel rows of a channels-first (C, N, ...)
    batch ``x``, ``rows - centre``, written over ``x`` when ``in_place``,
    with the (C, 1) centring vector and std of its batch norm.

    Each channel's variance is one row dot product of the centred rows,
    with no squared copy of the batch. "train" folds the batch mean and
    variance into the running buffers in place,
    ``buffer * momentum + (1 - momentum) * stat`` in that operation order.
    In "eval" the centring vector is a view of ``running_mean``.
    """
    rows = x.reshape(x.shape[0], -1)
    if mode != "eval":
        if x.shape[1] < 2:
            raise ValueError(f"batch_norm: {mode} mode needs batch size >= 2")
        inv_n = 1.0 / rows.shape[1]
        centre = rows.sum(axis=1, keepdims=True) * inv_n
        xc = np.subtract(rows, centre, out=rows if in_place else None)
        var = np.einsum("ij,ij->i", xc, xc)[:, None] * inv_n
        if mode == "train":
            running_mean *= momentum
            running_mean += (1 - momentum) * centre.reshape(-1)
            running_var *= momentum
            running_var += (1 - momentum) * var.reshape(-1)
        std = np.sqrt(var + eps)
    else:
        centre = running_mean[:, None]
        xc = np.subtract(rows, centre, out=rows if in_place else None)
        std = np.sqrt(running_var[:, None] + eps)
    return xc, centre, std


def _normalize(x: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray,
               mode: str, momentum: float, eps: float) -> tuple:
    """The normalized (C, N*...) channel rows of a channels-first (C, N, ...)
    batch ``x``, with the (C, 1) centring vector and std they used:
    ``xn = (rows - centre) / std``, taken in that order from ``_centre``,
    so ``conv_stack``'s backward rebuilds it bit for bit from the centring
    vector and std alone.
    """
    xn, centre, std = _centre(x, running_mean, running_var, mode, momentum, eps)
    xn /= std
    return xn, centre, std


def _affine(xn: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """``xn * gamma + beta`` over (C, M) channel rows, in that operation
    order, into ``out`` when given: ``conv_stack``'s forward and a
    ``dense_stack`` that records no node write it over ``xn``, which they
    do not keep."""
    out = np.multiply(xn, gamma[:, None], out=out)
    out += beta[:, None]
    return out


def _batch_norm_bwd(g: np.ndarray, xn: np.ndarray, gamma: np.ndarray,
                    std: np.ndarray, batch_stats: bool, need,
                    scratch: bool = False) -> tuple:
    """Closed-form gradients (Ioffe & Szegedy 2015) for (x, gamma, beta)
    from the output gradient ``g`` and what ``_normalize`` returned: the
    input gradient as (C, M) channel rows, which each caller reshapes.

    The input gradient is ``gamma/std * (g - sum(g)/M - xn * sum(g*xn)/M)``
    when the forward normalized by the batch (``batch_stats``), whose two
    sums are ``dbeta`` and ``dgamma``, one pass over the rows each; over
    running statistics it is ``g * gamma/std``. With ``scratch`` it is
    written over ``xn`` or ``g``, which the caller no longer needs.
    """
    need_x, need_gamma, need_beta = need
    g = g.reshape(xn.shape)
    sums = need_x and batch_stats
    dgamma = np.einsum("ij,ij->i", g, xn) if need_gamma or sums else None
    dbeta = g.sum(axis=1) if need_beta or sums else None
    dx = None
    if need_x:
        scale = gamma[:, None] / std
        if batch_stats:
            inv_n = 1.0 / xn.shape[1]
            dx = np.multiply(xn, (dgamma * inv_n)[:, None], out=xn if scratch else None)
            np.subtract(g, dx, out=dx)
            dx -= (dbeta * inv_n)[:, None]
            dx *= scale
        else:
            dx = np.multiply(g, scale, out=g if scratch else None)
    return dx, dgamma if need_gamma else None, dbeta if need_beta else None


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               mode: str, momentum: float = 0.9, eps: float = 1e-5) -> Tensor:
    """Batch normalization of an (N, F) or (N, C, H, W) batch per feature
    or channel.

    ``mode`` is one of ``MODES``. "train" and "teacher" normalize by batch
    statistics (biased variance) and only "train" folds them into the
    running buffers with the given momentum; "eval" normalizes by the
    running buffers. One graph node with the closed-form backward; the
    batch runs channels first, as its contiguous (F, N) or (C, N, H, W)
    copy, through the ``_normalize``, ``_affine`` and ``_batch_norm_bwd``
    that the two stacks share.
    """
    _check_mode("batch_norm", mode)
    if x.ndim not in (2, 4):
        raise ShapeMismatch("batch_norm", x.shape, gamma.shape)
    xc = _swap01(x.data)
    xn, _, std = _normalize(xc, running_mean, running_var, mode, momentum, eps)
    out = _affine(xn, gamma.data, beta.data).reshape(xc.shape)

    def back(g):
        dx, dgamma, dbeta = _batch_norm_bwd(
            _swap01(g), xn, gamma.data, std, mode != "eval",
            (x.requires_grad, gamma.requires_grad, beta.requires_grad))
        _accum_each((x, gamma, beta), (
            None if dx is None else _swap01(dx.reshape(xc.shape)), dgamma, dbeta))
    return Tensor._from_op(_swap01(out), (x, gamma, beta), "batch_norm", back)


# the four cells of a 2x2 window in argmax order: the first maximum wins
_POOL_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _check_pool(shape: Tuple[int, ...], op: str) -> None:
    if len(shape) != 4 or shape[-2] % 2 or shape[-1] % 2:
        raise ShapeMismatch(op, shape, shape[:-2] + (2, 2))


def _pool_fwd(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 over the two trailing axes: the
    maximum of the four strided views of the window cells."""
    views = [x[..., i::2, j::2] for i, j in _POOL_CELLS]
    out = np.maximum(views[0], views[1])
    for v in views[2:]:
        np.maximum(out, v, out=out)
    return out


def _pool_bwd(g: np.ndarray, x: np.ndarray, out: np.ndarray,
              dx: Optional[np.ndarray] = None) -> np.ndarray:
    """Each window's gradient, sent to the first of its cells, in
    ``_POOL_CELLS`` order, that equals the pooled ``out``; the other cells
    get ``g * False``, a zero with the sign of ``g``. The gradient goes into
    ``dx`` when given, which may be ``x`` itself: each cell is read before
    it is written."""
    if dx is None:
        dx = np.empty(x.shape, dtype=np.float64)
    free = np.ones(out.shape, dtype=bool)
    for i, j in _POOL_CELLS:
        hit = x[..., i::2, j::2] == out
        hit &= free
        free ^= hit
        np.multiply(g, hit, out=dx[..., i::2, j::2])
    return dx


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; spatial dims must be even."""
    _check_pool(x.shape, "maxpool2x2")
    out = _pool_fwd(x.data)

    def back(g):
        x._accum(_pool_bwd(np.asarray(g, dtype=np.float64), x.data, out))
    return Tensor._from_op(out, (x,), "maxpool2x2", back)


def _dropout_mask(shape: Tuple[int, ...], p: float, rng: np.random.Generator,
                  training: bool) -> Optional[np.ndarray]:
    """The inverted-dropout multiplier, or None where dropout is the identity
    (eval mode or p == 0). Draws from ``rng`` only when it returns a mask."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return None
    return (rng.random(shape) >= p) / (1.0 - p)


def dense_stack(x: Tensor, hidden: Iterable[tuple], out, mode: str, p: float,
                rng: np.random.Generator, residual: bool = False) -> Tensor:
    """A dense stack as one graph node: hidden Linear -> BatchNorm -> ReLU ->
    Dropout layers, then a Linear, plus ``x`` itself when ``residual``.

    ``hidden`` yields one (fc, bn) pair per hidden layer: ``fc`` and ``out``
    carry ``weight`` and ``bias`` tensors; ``bn`` carries ``gamma``,
    ``beta``, ``running_mean``, ``running_var``, ``momentum`` and ``eps``.
    ``mode`` is one of ``MODES`` and means what it means to ``batch_norm``;
    dropout with probability ``p`` runs only in "train", its masks drawn
    layer by layer from ``rng`` as (N, F) arrays, as the one-layer
    composition draws them.

    The activations run feature-major, as contiguous (F, N) rows, from the
    input's transposed view to the output layer: a hidden layer computes
    ``W.T @ h + b``, runs ``_normalize`` and ``_affine`` over it as its
    channel rows, and multiplies the output by one keep mask, the ReLU mask
    times the transposed dropout mask; the output layer reads ``h.T`` as an
    (N, F) batch. So no activation or gradient is copied into a transpose,
    and the values equal the one-layer composition up to the summation
    order of the matrix products. The backward mirrors the forward over
    each layer's record ``(params, h, xn, std, keep)``, through
    ``_batch_norm_bwd``, ``dW = h @ da.T``, ``db = da.sum(axis=1)`` and
    ``dh = W @ da``, only for the parents that require one, and stops below
    the lowest layer with such a parent.

    Whether it records is decided before the forward, as in ``conv_stack``.
    A stack whose parents need no gradient runs the same calls in the same
    order, running-buffer updates and dropout draws included, but writes
    each affine over its normalized rows, keeps no layer record and returns
    a constant ``Tensor``. No path writes into ``x.data``, which may be a
    read-only buffer.
    """
    _check_mode("dense_stack", mode)
    hidden = list(hidden)
    top = (out.weight, out.bias)
    params = [(fc.weight, fc.bias, bn.gamma, bn.beta) for fc, bn in hidden]
    parents = (x, *[t for ws in params for t in ws], *top)
    record = any(t.requires_grad for t in parents)
    layers = []
    h = x.data.T
    for ws, (fc, bn) in zip(params, hidden):
        w, b, gamma, beta = ws
        _check_linear(h.shape[::-1], w, b)
        a = w.data.T @ h
        a += b.data[:, None]
        xn, _, std = _normalize(a, bn.running_mean, bn.running_var, mode,
                                bn.momentum, bn.eps)
        y = _affine(xn, gamma.data, beta.data, out=None if record else xn)
        keep = y > 0.0
        drop_mask = _dropout_mask(y.shape[::-1], p, rng, mode == "train")
        if drop_mask is not None:
            keep = keep * drop_mask.T
        if record:
            layers.append((ws, h, xn, std, keep))
        h = np.multiply(y, keep, out=y)
    _check_linear(h.shape[::-1], *top)
    data = _linear_fwd(h.T, out.weight.data, out.bias.data)
    if residual:
        data += x.data
    if not record:
        return Tensor(data)
    batch_stats = mode != "eval"

    def back(g):
        if residual and x.requires_grad:
            x._accum(g)
        below = _goes_below(x, [ws for ws, *_ in layers] + [top])
        # the output layer's gradient, feature-major like the hidden layers'
        (w, b), h_in, da = top, h, g.T
        for i in range(len(layers), -1, -1):
            if w.requires_grad:
                w._accum(h_in @ da.T)
            if b.requires_grad:
                b._accum(da.sum(axis=1))
            if not below[i]:
                return
            dh = w.data @ da
            if i == 0:
                x._accum(dh.T)
                return
            (w, b, gamma, beta), h_in, xn, std, keep = layers[i - 1]
            dh *= keep
            da, dgamma, dbeta = _batch_norm_bwd(
                dh, xn, gamma.data, std, batch_stats,
                (below[i - 1] or w.requires_grad or b.requires_grad,
                 gamma.requires_grad, beta.requires_grad))
            _accum_each((gamma, beta), (dgamma, dbeta))
            if da is None:
                return
    return Tensor._from_op(data, parents, "dense_stack", back)


# rows per ``conv_stack`` call in an "eval" pass that records no node: at
# the default channels one call over 32 rows peaks near 24 MiB, and a
# whole-set call grows by about 0.75 MiB per row
EXTRACT_CHUNK = 32


def conv_stack(x: Tensor, blocks: Iterable[tuple], mode: str) -> Tensor:
    """Conv -> BatchNorm -> 2x2 max pool -> ReLU blocks as one graph node,
    from an NCHW batch to its flattened (N, C*H*W) features.

    ``blocks`` yields one (conv, bn) pair per block: ``conv`` carries an
    OCKK ``weight`` tensor and its ``padding``; ``bn`` carries what a
    ``dense_stack`` batch norm carries. ``mode`` is one of ``MODES`` and
    means what it means to ``batch_norm``. Between blocks the activations
    keep the (c, n, h, w) layout that the conv's matrix product writes, so
    batch norm reduces along contiguous channel rows and the next im2col
    reads it as it is; one transpose returns the last block's output to
    NCHW. Every layer runs the same array helpers as the one-layer
    ``conv2d``, ``batch_norm`` and ``maxpool2x2``. An "eval" pass whose
    parents need no gradient runs over ``EXTRACT_CHUNK``-row slices and
    concatenates their values, so its transient memory does not grow with
    the batch: eval-mode batch norm reads only the running statistics, so
    no row depends on another.

    Each block holds one map of its conv output's size at a time: batch
    norm centres the conv output in place. Where every gamma of the block
    is positive and no beta is -0.0, the block pools before the rest of
    its batch norm. The map ``(x - centre) / std * gamma + beta`` then
    never decreases as ``x`` grows, under IEEE rounding too, and never
    gives -0.0, so a window's maximum of mapped cells is the map of its
    maximum, bit for bit. In "train" and "teacher" the block takes its
    batch statistics and running-buffer updates from the whole centred
    map, pools it, and divides, scales and shifts only the pooled quarter;
    in "eval" it pools the raw conv output and centres the quarter by the
    running mean. Any other block divides, scales and shifts the whole map
    before pooling, as the one-layer ops do: with a gamma <= 0 the map may
    decrease, and with a beta of -0.0 a product that underflows keeps its
    sign, so two cells may map to zeros of opposite sign, which max pooling
    tells apart by their position.

    A block keeps only its input (a view of ``x``, or the previous block's
    output), its batch-norm centring vector (the batch mean, or in "eval"
    a copy of the running mean) and its per-channel std: nothing of the
    size of its activations. A forward that records no graph drops its
    block records when it returns. The backward walks the blocks in
    reverse. For each it builds the im2col matrix of the block input once
    and rebuilds the full pre-pool output from it in the one-layer ops'
    order, whose window maxima are the forward's bit for bit. The ReLU mask
    and the pooled maxima come from the block's output, which the node
    keeps (the next block's input, or a view of the node's value): where a
    maximum is not above 0, the mask zeroes the window's gradient, so any
    matching cell gets the same signed zero. Each window's gradient goes to
    its first maximum, the kernel gradient reads the same im2col matrix,
    and the block's record is dropped, so the node takes one backward.
    The block's incoming gradient is dropped once pooling has routed it,
    and its input gradient once col2im has read it, before the next
    full-size allocation. It stops below the lowest block with a parent
    that requires a gradient.
    """
    _check_mode("conv_stack", mode)
    blocks = list(blocks)
    if x.ndim != 4:
        raise ShapeMismatch("conv_stack", x.shape,
                            blocks[0][0].weight.shape if blocks else ())
    parents = (x, *[t for conv, bn in blocks
                    for t in (conv.weight, bn.gamma, bn.beta)])
    if (mode == "eval" and len(x.data) > EXTRACT_CHUNK
            and not any(t.requires_grad for t in parents)):
        return Tensor(np.concatenate(
            [conv_stack(Tensor(x.data[i:i + EXTRACT_CHUNK]), blocks, mode).data
             for i in range(0, len(x.data), EXTRACT_CHUNK)]))
    layers = []
    h = x.data.transpose(1, 0, 2, 3)
    for conv, bn in blocks:
        c, n = h.shape[:2]
        w = conv.weight
        o = w.shape[0]
        oh, ow = _conv_out_hw((n, c) + h.shape[2:], w.shape, conv.padding,
                              "conv_stack")
        _check_pool((n, o, oh, ow), "conv_stack")
        gamma, beta = bn.gamma.data, bn.beta.data
        # pool first where that changes no bit (see the docstring)
        first = (gamma > 0.0).all() and not (np.signbit(beta) & (beta == 0.0)).any()
        a = _conv_fwd(_im2col(h, w.shape[-1], conv.padding), w.data).reshape(o, n, oh, ow)
        if first and mode == "eval":
            a = _pool_fwd(a)
        a, centre, std = _centre(a, bn.running_mean, bn.running_var, mode,
                                 bn.momentum, bn.eps, in_place=True)
        if first and mode != "eval":
            a = _pool_fwd(a.reshape(o, n, oh, ow)).reshape(o, -1)
        a /= std
        _affine(a, gamma, beta, out=a)
        p = a.reshape(o, n, oh // 2, ow // 2) if first else _pool_fwd(a.reshape(o, n, oh, ow))
        del a
        # a copy, so an "eval" centre does not follow the running mean
        layers.append(((w, bn.gamma, bn.beta), conv.padding, h, centre.copy(), std))
        h = np.multiply(p, p > 0.0, out=p)  # the ReLU, over the pooled output
    c, n, hh, ww = h.shape
    data = _swap01(h).reshape(n, c * hh * ww)
    batch_stats = mode != "eval"

    def back(g):
        nonlocal layers
        if layers is None:
            raise GradError("conv_stack: a second backward through one node; "
                            "the first dropped its block records")
        below = _goes_below(x, [ws for ws, *_ in layers])
        records, layers = layers, None
        d = _swap01(g.reshape(n, c, hh, ww))
        out = data.reshape(n, c, hh, ww).transpose(1, 0, 2, 3)
        for i in range(len(records) - 1, -1, -1):
            (w, gamma, beta), padding, h_in, centre, std = records.pop()
            cols = _im2col(h_in, w.shape[-1], padding)
            xn = _conv_fwd(cols, w.data)
            xn -= centre
            xn /= std
            # the pre-pool output: twice the height and width of ``out``'s
            y = _affine(xn, gamma.data, beta.data).reshape(
                out.shape[:2] + (2 * out.shape[2], 2 * out.shape[3]))
            dy = _pool_bwd(d * (out > 0.0), y, out, dx=y)
            del y, out, d
            da, dgamma, dbeta = _batch_norm_bwd(
                dy, xn, gamma.data, std, batch_stats,
                (below[i] or w.requires_grad, gamma.requires_grad, beta.requires_grad),
                scratch=True)
            del dy, xn  # the one that is not ``da`` dies before the conv backward
            _accum_each((gamma, beta), (dgamma, dbeta))
            if da is None:
                return
            if w.requires_grad:
                w._accum((da @ cols.T).reshape(w.shape))
            del cols
            if not below[i]:
                return
            d = _col2im(da, w.data, h_in.shape, padding)
            del da
            out = h_in
        x._accum(_swap01(d))
    return Tensor._from_op(data, parents, "conv_stack", back)


def log_softmax_array(z: np.ndarray) -> np.ndarray:
    """Log-softmax of a plain array over the last axis, max-shifted."""
    shift = z - z.max(axis=-1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


# -- optimizer ----------------------------------------------------------------

class Adam:
    """Adam over one fixed set of named tensors, held as one flat buffer.

    Construction copies the tensors' values into one contiguous buffer and
    rebinds each tensor's ``.data`` to a reshaped view of it. The moments
    are flat too; each step gathers the gradients into one flat array and
    runs the update once over the whole set. Anything else that writes a
    parameter must write in place (``t.data[...] = ...``) to keep its view.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: Mapping[str, Tensor], learning_rate: float):
        if not 0.0 < learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite, "
                             f"got {learning_rate}")
        self.learning_rate = learning_rate
        self.params: Dict[str, Tensor] = dict(params)
        sizes = [t.size for t in self.params.values()]
        self._ends = np.cumsum(sizes, dtype=np.int64)
        flat = np.concatenate([t.data for t in self.params.values()], axis=None)
        for t, end, size in zip(self.params.values(), self._ends, sizes):
            t.data = flat[end - size:end].reshape(t.shape)
        self._views = tuple(t.data for t in self.params.values())
        self._flat = flat
        self._m, self._v = np.zeros_like(flat), np.zeros_like(flat)
        self._t = 0

    def step(self) -> None:
        for (name, t), view in zip(self.params.items(), self._views):
            if t.data is not view:
                raise ValueError(f"parameter {name!r} no longer views the "
                                 "optimizer's buffer; write it in place")
        grads = [t.grad for t in self.params.values()]
        if any(g is None for g in grads):
            name = next(n for n, g in zip(self.params, grads) if g is None)
            raise GradError(f"missing gradient for parameter {name!r}")
        flat, m, v = self._flat, self._m, self._v
        # the gathered gradient and one more array are the step's only work
        # buffers: the gradient becomes the step, ``w`` its denominator
        g = np.concatenate(grads, axis=None)
        self._t += 1
        ts = self._t
        m *= self.beta1
        w = np.multiply(1 - self.beta1, g)
        m += w
        np.multiply(1 - self.beta2, g, out=w)
        w *= g
        v *= self.beta2
        v += w
        # lr * mhat / (sqrt(vhat) + eps), in that operation order
        np.divide(m, 1 - self.beta1 ** ts, out=g)
        g *= self.learning_rate
        np.divide(v, 1 - self.beta2 ** ts, out=w)
        np.sqrt(w, out=w)
        w += self.eps
        g /= w
        np.subtract(flat, g, out=flat)
        if not np.isfinite(flat).all():
            # the first bad offset lies in the first tensor ending after it
            bad = np.argmin(np.isfinite(flat))
            at = int(np.searchsorted(self._ends, bad, side="right"))
            name = list(self.params)[at]
            raise FloatingPointError(f"non-finite values in parameter {name!r}")


# -- gradient checking --------------------------------------------------------

@dataclass
class GradCheckReport:
    errors: Dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def failures(self) -> Dict[str, float]:
        return {k: v for k, v in self.errors.items() if v > self.tolerance}


def grad_check(loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor],
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare backward gradients against central finite differences.

    ``loss_fn`` must rebuild its forward pass on every call and be
    deterministic (dropout disabled).
    """
    h = 1e-5  # the central-difference step
    for t in params.values():
        t.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.items()}
    errors: Dict[str, float] = {}
    for name, t in params.items():
        flat = t.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn().item()
            flat[i] = orig - h
            f_minus = loss_fn().item()
            flat[i] = orig
            num[i] = (f_plus - f_minus) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-8)
        errors[name] = float(np.max(np.abs(a - num) / denom)) if flat.size else 0.0
    return GradCheckReport(errors=errors, tolerance=tolerance)
