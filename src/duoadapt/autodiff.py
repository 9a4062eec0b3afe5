"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Forward ops record a computation graph only when some input requires
gradients; ``backward`` replays the graph once in reverse topological
order. Everything is 64-bit, single-threaded, and deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np


class ShapeMismatch(ValueError):
    def __init__(self, op: str, a, b):
        super().__init__(f"{op}: incompatible shapes {tuple(a)} and {tuple(b)}")
        self.op = op


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


class Tensor:
    """Dense n-d float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

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
        """Record a node. A node requires grad exactly when it records a
        backward, so closures test ``requires_grad`` alone to skip the
        parents (constants, frozen weights) that need no gradient."""
        requires = any(p.requires_grad or p._backward is not None for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = as_tensor(other)
        try:
            data = self.data + other.data
        except ValueError:
            raise ShapeMismatch("add", self.shape, other.shape)

        def back(g):
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(g)
        return Tensor._from_op(data, (self, other), "add", back)

    __radd__ = __add__

    def __neg__(self):
        def back(g):
            self._accum(-g)
        return Tensor._from_op(-self.data, (self,), "neg", back)

    def __sub__(self, other):
        other = as_tensor(other)
        try:
            data = self.data - other.data
        except ValueError:
            raise ShapeMismatch("sub", self.shape, other.shape)

        def back(g):
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(-g)
        return Tensor._from_op(data, (self, other), "sub", back)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        try:
            data = self.data * other.data
        except ValueError:
            raise ShapeMismatch("mul", self.shape, other.shape)

        def back(g):
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)
        return Tensor._from_op(data, (self, other), "mul", back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        try:
            data = self.data / other.data
        except ValueError:
            raise ShapeMismatch("div", self.shape, other.shape)

        def back(g):
            if self.requires_grad:
                self._accum(g / other.data)
            if other.requires_grad:
                other._accum(-g * self.data / (other.data ** 2))
        return Tensor._from_op(data, (self, other), "div", back)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

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

    # -- unary / reductions --------------------------------------------------
    def exp(self):
        data = np.exp(self.data)

        def back(g):
            self._accum(g * data)
        return Tensor._from_op(data, (self,), "exp", back)

    def log(self):
        def back(g):
            self._accum(g / self.data)
        return Tensor._from_op(np.log(self.data), (self,), "log", back)

    def sqrt(self):
        data = np.sqrt(self.data)

        def back(g):
            self._accum(g * 0.5 / data)
        return Tensor._from_op(data, (self,), "sqrt", back)

    def relu(self):
        mask = self.data > 0.0

        def back(g):
            self._accum(g * mask)
        return Tensor._from_op(self.data * mask, (self,), "relu", back)

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
        """Seed a scalar loss with gradient 1 and sweep the graph once."""
        if self.size != 1:
            raise GradError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._backward is None and not self.requires_grad:
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
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# -- structured layer primitives ---------------------------------------------
#
# Each layer's array math lives in a plain-array forward and backward helper;
# the one-layer ops below and ``dense_stack`` call the same helpers. A
# backward helper takes the flags (one per input, in parameter order) of the
# gradients it must compute and returns None for the others.

def _accum_each(tensors: Sequence[Tensor], grads: Sequence) -> None:
    for t, g in zip(tensors, grads):
        if g is not None:
            t._accum(g)


def _check_linear(x_shape: Tuple[int, ...], w: Tensor, b: Tensor) -> None:
    if (len(x_shape) != 2 or w.ndim != 2 or x_shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ShapeMismatch("linear", x_shape, w.shape)


def _linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    data = x @ w
    data += b
    return data


def _linear_bwd(g: np.ndarray, x: np.ndarray, w: np.ndarray, need) -> tuple:
    need_x, need_w, need_b = need
    return (g @ w.T if need_x else None,
            x.T @ g if need_w else None,
            g.sum(axis=0) if need_b else None)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of an (N, I) batch as one graph node."""
    _check_linear(x.shape, w, b)
    data = _linear_fwd(x.data, w.data, b.data)

    def back(g):
        _accum_each((x, w, b), _linear_bwd(
            g, x.data, w.data, (x.requires_grad, w.requires_grad, b.requires_grad)))
    return Tensor._from_op(data, (x, w, b), "linear", back)


def _span(i: int, pad: int, size: int, out: int) -> Tuple[slice, slice]:
    """Output positions whose kernel offset ``i`` lands inside an image axis
    of ``size`` padded by ``pad``, and the input positions they read."""
    lo = max(0, pad - i)
    hi = max(lo, min(out, size + pad - i))
    return slice(lo, hi), slice(lo + i - pad, hi + i - pad)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with OCKK kernels (zero padding).

    Im2col writes the columns once, in the (c, k, k, n, oh, ow) order the
    matrix products read them as a (c*k*k, n*oh*ow) matrix; window cells
    outside the image are zeros in that buffer, so no padded copy of ``x``
    is made. Only stride 1 is supported; ``stride`` stays in the signature
    for callers that pass it positionally before ``padding``.
    """
    if stride != 1:
        raise ValueError(f"conv2d supports stride 1 only, got {stride}")
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch("conv2d", x.shape, w.shape)
    n, c, h, wd = x.shape
    o, ck, kh, kw = w.shape
    if ck != c or kh != kw:
        raise ShapeMismatch("conv2d", x.shape, w.shape)
    k = kh
    if k > h + 2 * padding or k > wd + 2 * padding:
        raise ShapeMismatch("conv2d", x.shape, w.shape)
    oh, ow = h + 2 * padding - k + 1, wd + 2 * padding - k + 1
    row_spans = [_span(i, padding, h, oh) for i in range(k)]
    col_spans = [_span(j, padding, wd, ow) for j in range(k)]
    cols = (np.zeros if padding else np.empty)((c, k, k, n, oh, ow))
    xt = x.data.transpose(1, 0, 2, 3)
    for i, (po, pi) in enumerate(row_spans):
        for j, (qo, qi) in enumerate(col_spans):
            cols[:, i, j, :, po, qo] = xt[:, :, pi, qi]
    cols = cols.reshape(c * k * k, n * oh * ow)
    wmat = w.data.reshape(o, c * k * k)
    out = np.ascontiguousarray((wmat @ cols).reshape(o, n, oh, ow).transpose(1, 0, 2, 3))

    def back(g):
        g = np.asarray(g, dtype=np.float64).transpose(1, 0, 2, 3).reshape(o, n * oh * ow)
        if w.requires_grad:
            w._accum((g @ cols.T).reshape(w.shape))
        if not x.requires_grad:
            return
        # col2im: one matrix product over o, then k*k slice-adds of the
        # in-image part of each window cell
        dcols = (wmat.T @ g).reshape(c, k, k, n, oh, ow)
        dx = np.zeros((c, n, h, wd), dtype=np.float64)
        for i, (po, pi) in enumerate(row_spans):
            for j, (qo, qi) in enumerate(col_spans):
                dx[:, :, pi, qi] += dcols[:, i, j, :, po, qo]
        x._accum(np.ascontiguousarray(dx.transpose(1, 0, 2, 3)))
    return Tensor._from_op(out, (x, w), "conv2d", back)


def _batch_norm_fwd(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                    running_mean: np.ndarray, running_var: np.ndarray,
                    training: bool, momentum: float, eps: float,
                    update_stats: bool) -> Tuple[np.ndarray, tuple]:
    """Normalized, scaled and shifted ``x``, and the cache its backward reads."""
    if x.ndim == 2:
        axes: Tuple[int, ...] = (0,)
        shape: Tuple[int, ...] = (1, -1)
    elif x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    else:
        raise ShapeMismatch("batch_norm", x.shape, gamma.shape)
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch_norm: train mode needs batch size >= 2")
        inv_n = 1.0 / float(x.size // x.shape[1])
        mu = x.sum(axis=axes, keepdims=True) * inv_n
        xc = x - mu
        var = (xc ** 2).sum(axis=axes, keepdims=True) * inv_n
        if update_stats:
            running_mean[...] = momentum * running_mean + (1 - momentum) * mu.reshape(-1)
            running_var[...] = momentum * running_var + (1 - momentum) * var.reshape(-1)
        std = np.sqrt(var + eps)
    else:
        xc = x - running_mean.reshape(shape)
        std = np.sqrt(running_var.reshape(shape) + eps)
    xn = xc / std
    scale = gamma.reshape(shape)
    out = xn * scale
    out += beta.reshape(shape)
    return out, (axes, training, xn, scale, std)


def _batch_norm_bwd(g: np.ndarray, cache: tuple, need) -> tuple:
    """Closed-form gradients (Ioffe & Szegedy 2015) for (x, gamma, beta)."""
    axes, training, xn, scale, std = cache
    need_x, need_gamma, need_beta = need
    dx = None
    if need_x:
        dxn = g * scale
        if training:
            # the batch statistics depend on x too
            dxn = (dxn - dxn.mean(axis=axes, keepdims=True)
                   - xn * (dxn * xn).mean(axis=axes, keepdims=True))
        dx = dxn / std
    return (dx,
            (g * xn).sum(axis=axes) if need_gamma else None,
            g.sum(axis=axes) if need_beta else None)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.9, eps: float = 1e-5,
               update_stats: bool = True) -> Tensor:
    """Batch normalization over (N,) or (N,H,W) slices per feature/channel.

    Train mode normalizes by batch statistics (biased variance) and, when
    ``update_stats`` is set, folds them into the running buffers with the
    given momentum; eval mode normalizes by the running buffers. One graph
    node with the closed-form backward.
    """
    out, cache = _batch_norm_fwd(x.data, gamma.data, beta.data, running_mean,
                                 running_var, training, momentum, eps,
                                 update_stats)

    def back(g):
        _accum_each((x, gamma, beta), _batch_norm_bwd(
            g, cache, (x.requires_grad, gamma.requires_grad, beta.requires_grad)))
    return Tensor._from_op(out, (x, gamma, beta), "batch_norm", back)


# the four cells of a 2x2 window in argmax order: the first maximum wins
_POOL_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; spatial dims must be even."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatch("maxpool2x2", x.shape, (n, c, h, w))
    out = x.data[:, :, 0::2, 0::2]
    idx = np.zeros(out.shape, dtype=np.int8)
    for q, (i, j) in enumerate(_POOL_CELLS[1:], start=1):
        cell = x.data[:, :, i::2, j::2]
        wins = cell > out
        out = np.where(wins, cell, out)
        idx[wins] = q

    def back(g):
        g = np.asarray(g, dtype=np.float64)
        dx = np.empty((n, c, h, w), dtype=np.float64)
        for q, (i, j) in enumerate(_POOL_CELLS):
            dx[:, :, i::2, j::2] = np.where(idx == q, g, 0.0)
        x._accum(dx)
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


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity in eval mode or at p == 0."""
    mask = _dropout_mask(x.shape, p, rng, training)
    return x if mask is None else x * Tensor(mask)


# the forward modes of a dense stack: a student being trained, a teacher
# guiding it, and evaluation
MODES = ("train", "teacher", "eval")


def dense_stack(x: Tensor, hidden: Iterable[tuple], out, mode: str, p: float,
                rng: np.random.Generator, residual: bool = False) -> Tensor:
    """A dense stack as one graph node: hidden Linear -> BatchNorm -> ReLU ->
    Dropout layers, then a Linear, plus ``x`` itself when ``residual``.

    ``hidden`` yields one (fc, bn) pair per hidden layer: ``fc`` and ``out``
    carry ``weight`` and ``bias`` tensors; ``bn`` carries ``gamma``,
    ``beta``, ``running_mean``, ``running_var``, ``momentum`` and ``eps``.
    ``mode`` is one of ``MODES``. Batch norm uses batch statistics unless
    it is "eval" and folds them into the running buffers only in "train";
    dropout with probability ``p`` runs only in "train", its masks drawn
    layer by layer from ``rng``. Every layer runs the same array helpers, in
    the same order, as its one-layer op. The backward runs the layers'
    gradients in reverse over the cached arrays, only for the parents that
    require one, and stops below the lowest layer with such a parent.
    """
    if mode not in MODES:
        raise ValueError(f"dense_stack: unknown mode {mode!r}, expected one of {MODES}")
    batch_stats, train = mode != "eval", mode == "train"
    layers = []
    h = x.data
    for fc, bn in hidden:
        _check_linear(h.shape, fc.weight, fc.bias)
        a = _linear_fwd(h, fc.weight.data, fc.bias.data)
        y, bn_cache = _batch_norm_fwd(a, bn.gamma.data, bn.beta.data,
                                      bn.running_mean, bn.running_var,
                                      batch_stats, bn.momentum, bn.eps, train)
        relu_mask = y > 0.0
        r = y * relu_mask
        drop_mask = _dropout_mask(r.shape, p, rng, train)
        layers.append(((fc.weight, fc.bias, bn.gamma, bn.beta),
                       h, bn_cache, relu_mask, drop_mask))
        h = r if drop_mask is None else r * drop_mask
    _check_linear(h.shape, out.weight, out.bias)
    data = _linear_fwd(h, out.weight.data, out.bias.data)
    if residual:
        data = x.data + data
    top = (out.weight, out.bias)
    parents = (x,) + tuple(t for ws, *_ in layers for t in ws) + top

    def back(g):
        if residual and x.requires_grad:
            x._accum(g)
        # below[i]: the input of hidden layer i or a parent under it needs a
        # gradient, so the backward must go on below layer i
        below = [x.requires_grad]
        for ws, *_ in layers:
            below.append(below[-1] or any(t.requires_grad for t in ws))
        w, b = top
        grads = _linear_bwd(g, h, w.data, (below[-1], w.requires_grad, b.requires_grad))
        _accum_each(top, grads[1:])
        dh = grads[0]
        for i in range(len(layers) - 1, -1, -1):
            if dh is None:
                return
            (w, b, gamma, beta), h_in, bn_cache, relu_mask, drop_mask = layers[i]
            if drop_mask is not None:
                dh = dh * drop_mask
            dh = dh * relu_mask
            da, dgamma, dbeta = _batch_norm_bwd(
                dh, bn_cache, (below[i] or w.requires_grad or b.requires_grad,
                               gamma.requires_grad, beta.requires_grad))
            _accum_each((gamma, beta), (dgamma, dbeta))
            if da is None:
                return
            dh, dw, db = _linear_bwd(da, h_in, w.data,
                                     (below[i], w.requires_grad, b.requires_grad))
            _accum_each((w, b), (dw, db))
        if dh is not None:
            x._accum(dh)
    return Tensor._from_op(data, parents, "dense_stack", back)


def log_softmax_array(z: np.ndarray) -> np.ndarray:
    """Log-softmax of a plain array over the last axis, max-shifted."""
    shift = z - z.max(axis=-1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax over the last axis as one graph node."""
    data = log_softmax_array(x.data)

    def back(g):
        x._accum(g - np.exp(data) * g.sum(axis=-1, keepdims=True))
    return Tensor._from_op(data, (x,), "log_softmax", back)


# -- optimizer ----------------------------------------------------------------

class Adam:
    """Adam over one fixed set of named tensors, held as one flat buffer.

    Construction copies the tensors' values into one contiguous buffer and
    rebinds each tensor's ``.data`` to a reshaped view of it. The moments
    are flat too; each step gathers the gradients into one flat array and
    runs the update once over the whole set. Anything else that writes a
    parameter must write in place (``t.data[...] = ...``) to keep its view.
    """

    def __init__(self, params: Mapping[str, Tensor], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
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
               tolerance: float = 1e-4, h: float = 1e-5) -> GradCheckReport:
    """Compare backward gradients against central finite differences.

    ``loss_fn`` must rebuild its forward pass on every call and be
    deterministic (dropout disabled).
    """
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
