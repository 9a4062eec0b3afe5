"""Oracle tests for the one-node layers and losses.

Each fused op is compared with the unfused composition of elementary Tensor
ops it replaces, written out below; values and gradients must agree to
1e-10 (relative to the larger magnitude when that exceeds 1).
``linear_chain`` is compared with the composition of ``_linear_ref`` and
``Tensor.relu`` layer by layer, bit for bit in its
output and in every leaf's gradient, with frozen layers and a constant
input among the cases. ``linear_chain``, ``dense_stack`` and ``conv_stack``
over frozen parameters and a constant input must record no node; such a
``dense_stack`` over a read-only input must give the values, running
buffers and dropout-generator state of a recording call over the same
arrays, bit for bit, and leave its input unchanged.
``conv2d`` is compared with an einsum + col2im node over a ``pad2d`` copy
of the input, and ``maxpool2x2`` with a take/put-along-axis node, bit for
bit. ``nt_xent`` is compared with
``_nt_xent_ref``, its composition of row norms, matmuls, exp, masks, log
and mean, and its stacked form with its two-set form, bit for bit. Pooling before a ReLU must equal pooling after it
bit for bit, in values and input gradient, since the extractors rely on
that order. Every op is also checked against central finite differences.
``Adam``'s one update over a flat buffer is compared with ``_adam_ref``, the
per-tensor loop with state per parameter name, bit for bit, step by step and
through a whole ``train_interactive``. ``dense_stack`` is compared with
``_dense_stack_ref``, the per-layer composition of ``_linear_ref``,
``batch_norm``, ReLU, a ``_dropout_mask`` product and the residual add: to
1e-10 in values, gradients and running buffers, since the stack's
feature-major matrix products (``W.T @ h`` over (F, N) rows) sum in another
order than the composition's row-major ones, and exactly in the dropout
generator's next draw. With ``_swap01`` made to raise, a dense stack must
still run forward and backward: its activations stay (F, N) rows with no
transposed copy. It is also checked against finite differences in all
three modes. ``conv_stack`` is compared with ``_conv_stack_ref``, the
per-block composition of ``conv2d``, ``batch_norm``, ``maxpool2x2`` and a
ReLU, bit for bit in values, gradients and running buffers in every mode:
the one-layer ops run the same array helpers, and every 4-D batch norm,
one-layer or in the stack, runs on channels-first rows, so every sum runs
in the same order. Over gammas that are positive, negative or zero, betas
that include -0.0, and inputs and kernels on a coarse grid that ties
windows, that comparison is byte for byte, signed zeros included: a block
whose gammas are all positive pools before its batch norm divides, scales
and shifts, and must still give the one-layer order's bits. A
``batch_norm`` of an (N, F) batch must equal one of the same values shaped
(N, F, 1, 1) bit for bit, since both run one body over the same (F, N)
rows.
The median-heuristic bandwidths are compared with ``np.median`` over the
upper triangle, bit for bit, and the MMD's cached block weights must be
read-only and give every batch pair the value a fresh build gives. The
memory guards count, with tracemalloc, the bytes a recorded ``conv_stack``
or ``conv2d`` forward keeps for its backward and the peak of one conv
pretraining step: neither op may keep an im2col matrix, and a
``conv_stack`` block keeps only its input and two channel vectors, not its
normalized map, pre-pool output, pooled output or ReLU mask, which its
backward recomputes. That backward must read the statistics its forward
used, not the running buffers as they are when it runs.
"""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duoadapt import autodiff, train
from duoadapt.autodiff import (MODES, Adam, GradError, ShapeMismatch, Tensor,
                               _dropout_mask, batch_norm, conv2d, conv_stack,
                               grad_check, linear_chain, maxpool2x2)
from duoadapt.data import Dataset, PdaTaskSpec, gen_synthetic_pda
from duoadapt.losses import (MEDIAN_SCALES, KernelSpec, _block_weights,
                             cross_entropy_hard, cross_entropy_soft,
                             mmd_squared, nt_xent)
from duoadapt.model import BatchNorm, Conv, ConvExtractor, DenseStack

TOL = 1e-10


# -- unfused compositions (the oracles) ---------------------------------------

def _linear_ref(x, w, b):
    return x @ w + b


def _batch_norm_ref(x, gamma, beta, running_mean, running_var, mode,
                    momentum=0.9, eps=1e-5):
    if x.ndim == 2:
        axes, shape = (0,), (1, -1)
    else:
        axes, shape = (0, 2, 3), (1, -1, 1, 1)
    if mode != "eval":
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=axes, keepdims=True)
        if mode == "train":
            running_mean[...] = momentum * running_mean + (1 - momentum) * mu.data.reshape(-1)
            running_var[...] = momentum * running_var + (1 - momentum) * var.data.reshape(-1)
        xn = (x - mu) / (var + eps).sqrt()
    else:
        xn = ((x - Tensor(running_mean.reshape(shape)))
              / Tensor(np.sqrt(running_var.reshape(shape) + eps)))
    return xn * gamma.reshape(shape) + beta.reshape(shape)


def pad2d(x, p):
    """Zero-pad the two trailing spatial dims of an NCHW tensor."""
    data = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p)))

    def back(g):
        x._accum(np.asarray(g)[:, :, p:-p, p:-p])
    return Tensor._from_op(data, (x,), "pad2d", back)


def _conv2d_ref(x, w, padding=0):
    """Im2col forward and the einsum + col2im input gradient, as one node."""
    if padding:
        x = pad2d(x, padding)
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, wd - k + 1
    cols = np.empty((n, c, k, k, oh, ow))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x.data[:, :, i:i + oh, j:j + ow]
    out = np.einsum("ncijpq,ocij->nopq", cols, w.data)

    def back(g):
        if w.requires_grad:
            w._accum(np.einsum("nopq,ncijpq->ocij", g, cols))
        if x.requires_grad:
            dcols = np.einsum("nopq,ocij->ncijpq", g, w.data)
            dx = np.zeros((n, c, h, wd))
            for i in range(k):
                for j in range(k):
                    dx[:, :, i:i + oh, j:j + ow] += dcols[:, :, i, j]
            x._accum(dx)
    return Tensor._from_op(out, (x, w), "conv2d_ref", back)


def _maxpool2x2_ref(x):
    """Window transpose with argmax, take_along_axis and put_along_axis."""
    n, c, h, w = x.shape
    win = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def back(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        x._accum(dx.reshape(n, c, h, w))
    return Tensor._from_op(out, (x,), "maxpool2x2_ref", back)


def _log_softmax_ref(x):
    shift = x - Tensor(x.data.max(axis=-1, keepdims=True))
    return shift - shift.exp().sum(axis=-1, keepdims=True).log()


def _cross_entropy_hard_ref(logits, labels):
    n, k = logits.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    return -(_log_softmax_ref(logits) * Tensor(onehot)).sum() * (1.0 / n)


def _cross_entropy_soft_ref(student, teacher):
    n = student.shape[0]
    probs = _log_softmax_ref(Tensor(teacher.data)).exp()
    return -(probs * _log_softmax_ref(student)).sum() * (1.0 / n)


def _median_bandwidths(a, b):
    pool = np.concatenate([a, b], axis=0)
    sq = np.sum(pool ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * pool @ pool.T
    med = float(np.median(d2[np.triu_indices(len(pool), k=1)]))
    return [med * s for s in (0.25, 0.5, 1.0, 2.0, 4.0)]


def _mmd_ref(a, b, bws):
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


def _nt_xent_ref(originals, augmented, temperature):
    n = originals.shape[0]
    o = originals / (originals * originals).sum(axis=1, keepdims=True).sqrt()
    a = augmented / (augmented * augmented).sum(axis=1, keepdims=True).sqrt()
    inv_t = 1.0 / temperature
    d_ao = ((a @ o.T) * inv_t).exp()
    d_aa = ((a @ a.T) * inv_t).exp()
    eye = Tensor(np.eye(n))
    pos = (d_ao * eye).sum(axis=1)
    denom = d_ao.sum(axis=1) + d_aa.sum(axis=1) - (d_aa * eye).sum(axis=1)
    return (denom.log() - pos.log()).mean()


def _dense_stack_ref(stack, x, mode, residual=False):
    """``DenseStack``'s layers one node each: linear, batch norm, ReLU and
    dropout per hidden layer, then a linear, then the residual add."""
    h = x
    for fc, bn in zip(stack.fcs, stack.bns):
        h = batch_norm(_linear_ref(h, fc.weight, fc.bias), bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                       mode, momentum=bn.momentum, eps=bn.eps).relu()
        mask = _dropout_mask(h.shape, stack.dropout_p, stack.rng, mode == "train")
        if mask is not None:
            h = h * Tensor(mask)
    out = _linear_ref(h, stack.out.weight, stack.out.bias)
    return x + out if residual else out


def _conv_stack_ref(x, blocks, mode):
    """``conv_stack``'s blocks one node each: conv, batch norm, 2x2 max pool
    and ReLU per block, then a reshape to one row per sample."""
    h = x
    for conv, bn in blocks:
        h = maxpool2x2(batch_norm(conv2d(h, conv.weight, padding=conv.padding),
                                  bn.gamma, bn.beta, bn.running_mean,
                                  bn.running_var, mode, momentum=bn.momentum,
                                  eps=bn.eps)).relu()
    return h.reshape(h.shape[0], -1)


class _adam_ref:
    """Adam as one loop over the tensors, with moments and a step count per
    parameter name; each update rebinds the tensor's ``.data``. Its work
    arrays are taken with ``np.asarray``, since numpy returns a scalar, not
    an array it can write into, for arithmetic over 0-d arrays."""

    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self._t = dict.fromkeys(self.params, 0)

    def step(self):
        for name, t in self.params.items():
            if t.grad is None:
                raise GradError(f"missing gradient for parameter {name!r}")
            g = t.grad
            m, v = self._m[name], self._v[name]
            self._t[name] += 1
            ts = self._t[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            gg = np.asarray((1 - self.beta2) * g)
            gg *= g
            v *= self.beta2
            v += gg
            step = np.asarray(np.divide(m, 1 - self.beta1 ** ts))
            step *= self.learning_rate
            den = np.divide(v, 1 - self.beta2 ** ts, out=gg)
            np.sqrt(den, out=den)
            den += self.eps
            step /= den
            t.data = np.subtract(t.data, step, out=step)
            if not np.all(np.isfinite(t.data)):
                raise FloatingPointError(f"non-finite values in parameter {name!r}")


# -- comparison harness -------------------------------------------------------

def _close(got, want):
    want = np.asarray(want, dtype=np.float64)
    err = np.max(np.abs(np.asarray(got) - want)) if want.size else 0.0
    return err <= TOL * max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)


def _leaves(arrays, grads):
    return [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, grads)]


def _agree(fused, ref, arrays, grads, weights=None):
    """Run the fused op and its oracle on fresh leaves; compare outputs
    and the gradients of sum(weights * out) for every leaf that requires
    one."""
    outs = []
    for build in (fused, ref):
        leaves = _leaves(arrays, grads)
        out = build(*leaves)
        w = np.ones(out.shape) if weights is None else weights
        (out * Tensor(w)).sum().backward()
        outs.append((out.data, [t.grad for t in leaves]))
    (f_out, f_grads), (r_out, r_grads) = outs
    assert f_out.shape == r_out.shape
    assert _close(f_out, r_out), (f_out, r_out)
    for i, (fg, rg) in enumerate(zip(f_grads, r_grads)):
        if not grads[i]:
            assert fg is None, f"constant input {i} received a gradient"
            continue
        assert fg is not None and _close(fg, rg), (i, fg, rg)


def _pool_bits_agree(first, second, n, c, h2, w2, seed):
    """Both pooling builds give the same output and input gradient, bit for
    bit, on integer-rounded (n, c, 2*h2, 2*w2) inputs."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((n, c, 2 * h2, 2 * w2)))
    g = rng.standard_normal((n, c, h2, w2))
    results = []
    for build in (first, second):
        xt = Tensor(x.copy(), requires_grad=True)
        out = build(xt)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, xt.grad))
    (got, got_grad), (want, want_grad) = results
    assert np.array_equal(got, want)
    assert np.array_equal(got_grad, want_grad)


# -- linear chain -------------------------------------------------------------

def test_linear_chain_rejects_bad_shapes():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeMismatch, match="linear"):
        linear_chain(x, [(Tensor(np.ones((2, 4))), Tensor(np.ones(4)), False)])
    with pytest.raises(ShapeMismatch, match="linear"):
        linear_chain(x, [(w, Tensor(np.ones(3)), False)])
    # the second layer's input is the first layer's (2, 4) output
    with pytest.raises(ShapeMismatch, match="linear"):
        linear_chain(x, [(w, Tensor(np.ones(4)), True),
                         (Tensor(np.ones((3, 2))), Tensor(np.ones(2)), False)])


def _linear_chain_ref(x, layers):
    """``linear_chain``'s layers one node each: ``_linear_ref``, then
    ``Tensor.relu`` where the layer's flag is set."""
    for w, b, relu in layers:
        x = _linear_ref(x, w, b)
        if relu:
            x = x.relu()
    return x


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(1, 6),
       st.lists(st.tuples(st.integers(1, 6), st.booleans(), st.booleans()),
                min_size=1, max_size=4),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_linear_chain_matches_composition_bit_for_bit(n, in_dim, spec, x_grad, seed):
    # spec: (width, relu, frozen) per layer
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [width for width, _, _ in spec]
    x0 = rng.standard_normal((n, in_dim))
    arrays = [(rng.standard_normal((a, b)), rng.standard_normal(b))
              for a, b in zip(dims[:-1], dims[1:])]
    g = rng.standard_normal((n, dims[-1]))
    results = []
    for build in ("chain", "composition"):
        x = Tensor(x0.copy(), requires_grad=x_grad)
        layers = [(Tensor(w.copy(), requires_grad=not frozen),
                   Tensor(b.copy(), requires_grad=not frozen), relu)
                  for (w, b), (_, relu, frozen) in zip(arrays, spec)]
        if build == "chain":
            out = linear_chain(x, layers)
            if out.requires_grad:
                assert out._op == "linear"
                assert out._parents == (x,) + tuple(t for w, b, _ in layers
                                                    for t in (w, b))
        else:
            out = _linear_chain_ref(x, layers)
        if out.requires_grad:
            (out * Tensor(g)).sum().backward()
        leaves = [x] + [t for w, b, _ in layers for t in (w, b)]
        results.append((out, [t.grad for t in leaves]))
    (chain, chain_grads), (ref, ref_grads) = results
    assert np.array_equal(chain.data, ref.data)
    assert chain.requires_grad == ref.requires_grad
    for i, (cg, rg) in enumerate(zip(chain_grads, ref_grads)):
        assert (cg is None) == (rg is None), i
        assert cg is None or np.array_equal(cg, rg), i


def _drawn_rng(data):
    return np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))


def _frozen_linear_chain(data):
    rng = _drawn_rng(data)
    layers = [(Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal(3)), True),
              (Tensor(rng.standard_normal((3, 2))), Tensor(rng.standard_normal(2)), False)]
    return linear_chain(Tensor(rng.standard_normal((5, 4))), layers)


def _frozen_dense_stack(mode):
    def run(data):
        """The frozen stack's output over a read-only input, checked against
        a recording call over the same arrays with one parameter requiring
        a gradient: bit-equal values, running buffers and dropout-generator
        state, and the input left as it was."""
        depth = data.draw(st.integers(0, 3), label="depth")
        dims = data.draw(st.lists(st.integers(1, 6), min_size=depth + 2,
                                  max_size=depth + 2), label="widths")
        n = data.draw(st.integers(2, 9), label="rows")
        residual = data.draw(st.booleans(), label="residual")
        p = data.draw(st.sampled_from([0.0, 0.3]), label="dropout")
        thawed = data.draw(st.integers(0, 4 * depth + 1), label="thawed")
        seed = data.draw(st.integers(0, 2 ** 31), label="seed")
        if residual:
            dims[-1] = dims[0]
        x = np.random.default_rng(seed).standard_normal((n, dims[0]))
        x.flags.writeable = False
        before = x.tobytes()
        results = []
        for requires in ([False] * (4 * depth + 2),
                         [i == thawed for i in range(4 * depth + 2)]):
            stack = _stack_copy(seed, dims, p, requires)
            # random scales and shifts too, so no affine is the identity
            params = np.random.default_rng(seed + 2)
            for t in stack.named_parameters().values():
                t.data[...] = params.standard_normal(t.shape)
            out = stack(Tensor(x), mode, residual=residual)
            results.append((out, [b.tobytes() for b in stack.named_buffers().values()],
                            stack.rng.bit_generator.state))
        (frozen, bufs, state), (recorded, want_bufs, want_state) = results
        assert recorded._backward is not None
        assert frozen.data.tobytes() == recorded.data.tobytes()
        assert bufs == want_bufs and state == want_state
        assert x.tobytes() == before
        return frozen
    return run


def _frozen_conv_stack(data):
    blocks, _ = _conv_blocks(2, (1, 2, 3), (3, 3), (1, 1),
                             requires=[False] * 6)
    return conv_stack(Tensor(_drawn_rng(data).standard_normal((2, 1, 8, 8))),
                      blocks, "eval")


# ``linear_chain`` builds its per-layer records on every forward, so its
# case rests on ``Tensor._from_op`` dropping the closure of a node that
# records nothing; the dense and conv stacks decide before their forward
@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("run", [_frozen_linear_chain,
                                 *[_frozen_dense_stack(mode) for mode in MODES],
                                 _frozen_conv_stack],
                         ids=["linear_chain", *[f"dense_stack-{mode}" for mode in MODES],
                              "conv_stack-eval"])
def test_a_frozen_stack_over_a_constant_input_records_no_node(run, data):
    out = run(data)
    assert out._backward is None and out._parents == () and not out.requires_grad


def test_grad_check_linear_chain():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    params = {}
    layers = []
    for i, (a, b, relu) in enumerate(((4, 5, True), (5, 3, True), (3, 2, False))):
        params[f"w{i}"] = Tensor(rng.standard_normal((a, b)), requires_grad=True)
        params[f"b{i}"] = Tensor(rng.standard_normal(b), requires_grad=True)
        layers.append((params[f"w{i}"], params[f"b{i}"], relu))
    report = grad_check(lambda: (linear_chain(x, layers) ** 2).mean(),
                        {"x": x, **params}, tolerance=1e-6)
    assert report.passed, report.failures()


# -- conv2d and maxpool2x2 -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
       st.integers(3, 9), st.integers(3, 9), st.integers(0, 1),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_conv2d_matches_einsum_col2im(n, c, o, h, w, padding, k, seed, x_grad):
    rng = np.random.default_rng(seed)
    oh, ow = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    _agree(lambda x, kern: conv2d(x, kern, padding=padding),
           lambda x, kern: _conv2d_ref(x, kern, padding),
           [rng.standard_normal((n, c, h, w)), rng.standard_normal((o, c, k, k))],
           [x_grad, True], rng.standard_normal((n, o, oh, ow)))


def test_conv2d_rejects_stride_other_than_one():
    x, w = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3)))
    assert conv2d(x, w, 1).shape == (1, 1, 2, 2)
    with pytest.raises(ValueError, match="stride 1"):
        conv2d(x, w, 2)


@pytest.mark.parametrize("padding", [0, 1])
def test_grad_check_conv2d_input_and_kernel(padding):
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    weights = Tensor(rng.standard_normal((2, 3, 3 + 2 * padding, 3 + 2 * padding)))
    report = grad_check(lambda: (conv2d(x, w, padding=padding) * weights).sum(),
                        {"x": x, "w": w}, tolerance=1e-6)
    assert report.passed, report.failures()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_maxpool2x2_matches_take_put_exactly(n, c, h2, w2, seed):
    # coarse rounding forces ties inside the windows; the first maximum in
    # row-major window order must win in both
    _pool_bits_agree(maxpool2x2, _maxpool2x2_ref, n, c, h2, w2, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_maxpool_before_relu_equals_relu_before_maxpool(n, c, h2, w2, seed):
    # integer inputs put zeros and ties inside the windows
    _pool_bits_agree(lambda t: maxpool2x2(t).relu(),
                     lambda t: maxpool2x2(t.relu()), n, c, h2, w2, seed)


# -- batch norm ---------------------------------------------------------------

def _batch_norm_agrees(x, mode, rng):
    """``batch_norm`` and ``_batch_norm_ref`` agree on ``x`` in ``mode``, with
    random affine parameters and running buffers drawn from ``rng``: in
    values, in every gradient and in the running buffers."""
    c = x.shape[1]
    gamma = rng.uniform(0.5, 2.0, c)
    beta = rng.standard_normal(c)
    stats = (rng.standard_normal(c), rng.uniform(0.5, 2.0, c))
    buffers = {}

    def run(fn, key):
        def build(xt, gt, bt):
            rm, rv = (s.copy() for s in stats)
            buffers[key] = (rm, rv)
            return fn(xt, gt, bt, rm, rv, mode)
        return build

    _agree(run(batch_norm, "fused"), run(_batch_norm_ref, "ref"),
           [x, gamma, beta], [True, True, True], rng.standard_normal(x.shape))
    for got, want, before in zip(buffers["fused"], buffers["ref"], stats):
        assert _close(got, want)
        if mode != "train":
            assert np.array_equal(got, before)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(1, 5), st.booleans(),
       st.sampled_from(MODES), st.integers(0, 2 ** 32 - 1))
def test_batch_norm_matches_composition(n, c, four_d, mode, seed):
    rng = np.random.default_rng(seed)
    shape = (n, c, int(rng.integers(1, 4)), int(rng.integers(1, 4))) if four_d else (n, c)
    x = rng.standard_normal(shape) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
    _batch_norm_agrees(x, mode, rng)


@pytest.mark.parametrize("mode", MODES)
def test_batch_norm_matches_composition_at_a_conv_shape(mode):
    # a conv block's shape: N = 32*16*16 = 8192 values per channel, enough
    # for cancellation in the channel-row closed form's sums to show; the
    # Hypothesis test above reaches N <= 81
    rng = np.random.default_rng(5)
    _batch_norm_agrees(rng.standard_normal((32, 8, 16, 16)) * 2.0 + 3.0, mode, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(1, 6), st.sampled_from(MODES),
       st.integers(0, 2 ** 32 - 1))
def test_batch_norm_of_a_2d_batch_equals_it_as_1x1_images(n, f, mode, seed):
    # one body: an (N, F) batch and the same values as (N, F, 1, 1) run the
    # same (F, N) channel rows
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, f)) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
    gamma, beta = rng.uniform(0.5, 2.0, f), rng.standard_normal(f)
    stats = (rng.standard_normal(f), rng.uniform(0.5, 2.0, f))
    weights = rng.standard_normal((n, f))
    results = []
    for shape in ((n, f), (n, f, 1, 1)):
        xt = Tensor(x.reshape(shape), requires_grad=True)
        gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
        rm, rv = (s.copy() for s in stats)
        out = batch_norm(xt, gt, bt, rm, rv, mode)
        (out * Tensor(weights.reshape(shape))).sum().backward()
        results.append([out.data.reshape(n, f), xt.grad.reshape(n, f),
                        gt.grad, bt.grad, rm, rv])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(4,), (4, 3, 2)])
@pytest.mark.parametrize("mode", MODES)
def test_batch_norm_rejects_1d_and_3d_input(shape, mode):
    with pytest.raises(ShapeMismatch, match="batch_norm"):
        batch_norm(Tensor(np.zeros(shape)), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                   np.zeros(3), np.ones(3), mode)


def test_batch_norm_constant_input_gets_no_grad():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((6, 3)))
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3))
    (batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), "train") ** 2).sum().backward()
    assert gamma.grad is not None
    assert x.grad is None and beta.grad is None


@pytest.mark.parametrize("shape", [(5, 3), (3, 2, 2, 2)])
@pytest.mark.parametrize("batch_stats", [True, False])
def test_grad_check_batch_norm(shape, batch_stats):
    # the gradient depends on the mode only through the statistics it reads;
    # "train" folds each call into the buffers, which its output never reads
    for mode in [m for m in MODES if (m != "eval") == batch_stats]:
        rng = np.random.default_rng(3)
        c = shape[1]
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 2.0, c), requires_grad=True)
        beta = Tensor(rng.standard_normal(c), requires_grad=True)
        weights = Tensor(rng.standard_normal(shape))
        rm, rv = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)

        def loss_fn():
            return (batch_norm(x, gamma, beta, rm, rv, mode) * weights).sum()

        report = grad_check(loss_fn, {"x": x, "gamma": gamma, "beta": beta},
                            tolerance=1e-6)
        assert report.passed, (mode, report.failures())


# -- log-softmax and cross-entropies -------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_cross_entropy_hard_matches_composition(n, k, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, n)
    _agree(lambda z: cross_entropy_hard(z, labels),
           lambda z: _cross_entropy_hard_ref(z, labels),
           [rng.standard_normal((n, k)) * 3], [True])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_cross_entropy_soft_matches_composition(n, k, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((n, k)) * 3, rng.standard_normal((n, k)) * 3]
    _agree(cross_entropy_soft, _cross_entropy_soft_ref, arrays, [True, False])


def test_cross_entropy_soft_detached_teacher_gets_no_grad():
    rng = np.random.default_rng(4)
    s = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    t = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    cross_entropy_soft(s, t).backward()
    assert s.grad is not None and t.grad is None


def test_grad_check_log_softmax_and_cross_entropies():
    rng = np.random.default_rng(5)
    z = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    t = Tensor(rng.standard_normal((4, 3)))
    labels = rng.integers(0, 3, 4)
    for loss_fn, params in (
            (lambda: cross_entropy_hard(z, labels), {"z": z}),
            (lambda: cross_entropy_soft(z, t), {"student": z})):
        report = grad_check(loss_fn, params, tolerance=1e-6)
        assert report.passed, report.failures()


# -- pooled-distance MMD --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["fixed", "halving", "median"]),
       st.sampled_from([(True, True), (True, False), (False, True)]))
def test_mmd_matches_composition(n, m, d, seed, rule, grads):
    # "fixed" lists are mixed, and almost never hold a bandwidth exactly half
    # another; "halving" lists are b * 2^k over a subset of k in 0..4, in
    # shuffled order, so each k next to k + 1 takes the squaring path
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((m, d)) + rng.uniform(-1, 1)
    if rule == "fixed":
        bws = rng.uniform(0.3, 5.0, int(rng.integers(1, 4))).tolist()
        kernel = KernelSpec(bandwidths=bws)
    elif rule == "halving":
        ks = rng.permutation(5)[:int(rng.integers(1, 6))]
        bws = [rng.uniform(0.1, 1.0) * 2.0 ** k for k in ks]
        kernel = KernelSpec(bandwidths=bws)
    else:
        bws = _median_bandwidths(a, b)
        kernel = KernelSpec()
    _agree(lambda x, y: mmd_squared(x, y, kernel),
           lambda x, y: _mmd_ref(x, y, bws), [a, b], list(grads))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_mmd_one_sided_gradient_is_its_side_of_the_two_sided_one(n, m, d, seed,
                                                                 median):
    # each side's rows of the backward are built alone, whether or not the
    # other side requires a gradient: the same bits either way
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, d)), rng.standard_normal((m, d)) + 0.5
    kernel = KernelSpec() if median else KernelSpec(bandwidths=[0.7, 1.4, 5.0])
    runs = {}
    for grads in ((True, True), (True, False), (False, True)):
        a = Tensor(x.copy(), requires_grad=grads[0])
        b = Tensor(y.copy(), requires_grad=grads[1])
        out = mmd_squared(a, b, kernel)
        out.backward()
        runs[grads] = (out.item(), a.grad, b.grad)
    both, only_a, only_b = runs[True, True], runs[True, False], runs[False, True]
    assert both[0] == only_a[0] == only_b[0]
    assert np.array_equal(both[1], only_a[1]) and only_a[2] is None
    assert np.array_equal(both[2], only_b[2]) and only_b[1] is None


def test_mmd_fixed_bandwidths_in_any_order_give_the_same_bits():
    # the kernels run from the widest bandwidth down whatever the list's
    # order, so a chain given narrowest first still takes the squaring path
    rng = np.random.default_rng(13)
    x, y = rng.standard_normal((6, 3)), rng.standard_normal((5, 3)) + 0.5
    results = []
    for bws in ([0.5, 1.0, 2.0, 4.0, 3.0], [3.0, 4.0, 0.5, 2.0, 1.0],
                [4.0, 3.0, 2.0, 1.0, 0.5]):
        a, b = Tensor(x.copy(), requires_grad=True), Tensor(y.copy())
        out = mmd_squared(a, b, KernelSpec(bandwidths=bws))
        out.backward()
        results.append((out.item(), a.grad))
    for value, grad in results[1:]:
        assert value == results[0][0] and np.array_equal(grad, results[0][1])


def test_mmd_resolve_reads_the_pooled_distances():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((4, 3))
    seen = []

    class Recording(KernelSpec):
        def resolve(self, d2):
            seen.append(d2)
            return super().resolve(d2)

    mmd_squared(Tensor(a), Tensor(b), Recording())
    pool = np.concatenate([a, b])
    direct = ((pool[:, None] - pool[None]) ** 2).sum(axis=-1)
    assert seen[0].shape == (9, 9) and _close(seen[0], direct)
    assert np.allclose(Recording().resolve(seen[0]), _median_bandwidths(a, b),
                       rtol=1e-12)


def test_mmd_rejects_nonpositive_bandwidths():
    # when the spec is built, not at its first mmd_squared call
    with pytest.raises(ValueError, match="positive"):
        KernelSpec(bandwidths=[1.0, 0.0])
    # and at the call, for a list changed after that
    kernel = KernelSpec(bandwidths=[1.0])
    kernel.bandwidths.append(-1.0)
    with pytest.raises(ValueError, match="positive"):
        mmd_squared(Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2))), kernel)


def test_mmd_block_weights_are_one_read_only_matrix_per_batch_pair():
    weights = _block_weights(3, 5)
    assert _block_weights(3, 5) is weights
    with pytest.raises(ValueError, match="read-only"):
        weights[0, 0] = 0.0
    # (3, 5) and (5, 3) pool as many rows with other weights, so a matrix
    # cached under the wrong pair changes the value
    rng = np.random.default_rng(12)
    pairs = [(3, 5), (5, 3), (4, 4), (3, 5), (5, 3)]
    samples = {nm: (rng.standard_normal((nm[0], 4)),
                    rng.standard_normal((nm[1], 4)) + 0.5) for nm in pairs}
    kernel = KernelSpec(bandwidths=[0.5, 2.0])

    def value(nm):
        a, b = samples[nm]
        return mmd_squared(Tensor(a), Tensor(b), kernel).item()
    cached = [value(nm) for nm in pairs]
    fresh = []
    for nm in pairs:
        _block_weights.cache_clear()
        fresh.append(value(nm))
    assert cached == fresh


class _HeldMedian(KernelSpec):
    """The median rule, resolved at the first call and held after it: the
    node treats its bandwidths as constants, so finite differences must
    not move them."""

    held = None

    def resolve(self, d2):
        if self.held is None:
            self.held = super().resolve(d2)
        return self.held


def test_grad_check_mmd_one_sided():
    # the backward builds rows only for the side that requires a gradient
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3)) + 0.5
    for kernel in (KernelSpec(bandwidths=[0.5, 2.0]), _HeldMedian()):
        for side in ("a", "b"):
            a = Tensor(x.copy(), requires_grad=side == "a")
            b = Tensor(y.copy(), requires_grad=side == "b")
            t, other = (a, b) if side == "a" else (b, a)
            report = grad_check(lambda: mmd_squared(a, b, kernel), {side: t},
                                tolerance=1e-6)
            assert report.passed, (kernel, side, report.failures())
            assert other.grad is None, (kernel, side)


# -- NT-Xent --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.floats(0.1, 2.0),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(True, True), (True, False), (False, True)]))
def test_nt_xent_matches_composition(n, d, temperature, seed, grads):
    rng = np.random.default_rng(seed)
    _agree(lambda o, a: nt_xent(o, a, temperature),
           lambda o, a: _nt_xent_ref(o, a, temperature),
           [rng.standard_normal((n, d)), rng.standard_normal((n, d))],
           list(grads))


def test_grad_check_nt_xent():
    rng = np.random.default_rng(10)
    o = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    report = grad_check(lambda: nt_xent(o, a, 0.3),
                        {"originals": o, "augmented": a}, tolerance=1e-6)
    assert report.passed, report.failures()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.floats(0.1, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_nt_xent_stacked_form_equals_two_set_form(n, d, temperature, seed):
    # the originals' rows, then the views', as one tensor give the value
    # and gradients of the two row sets, bit for bit
    rng = np.random.default_rng(seed)
    o, a = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    pair = [Tensor(o, requires_grad=True), Tensor(a, requires_grad=True)]
    stacked = Tensor(np.concatenate([o, a]), requires_grad=True)
    two, one = nt_xent(*pair, temperature), nt_xent(stacked, None, temperature)
    two.backward()
    one.backward()
    assert one.item() == two.item()
    assert np.array_equal(stacked.grad, np.concatenate([t.grad for t in pair]))


def test_grad_check_nt_xent_stacked():
    rng = np.random.default_rng(11)
    p = Tensor(rng.standard_normal((10, 3)), requires_grad=True)
    report = grad_check(lambda: nt_xent(p, None, 0.3), {"projections": p},
                        tolerance=1e-6)
    assert report.passed, report.failures()


@pytest.mark.parametrize("shape", [(5, 3), (2, 3), (0, 3), (6,), (4, 2, 2)])
def test_nt_xent_stacked_rows_must_make_two_pairs(shape):
    with pytest.raises(ValueError, match=re.escape(
            "nt_xent: stacked projections need an even number of at least 4 "
            f"rows, got shape {shape}")):
        nt_xent(Tensor(np.ones(shape)), None, 0.5)


@pytest.mark.parametrize("row", [1, 3])
def test_nt_xent_stacked_rejects_zero_norm_row(row):
    p = np.ones((4, 3))
    p[row] = 0.0
    with pytest.raises(ValueError, match="nt_xent: zero-norm row"):
        nt_xent(Tensor(p), None, 0.5)


# -- dense stack ----------------------------------------------------------------

def _stack_copy(seed, dims, p, requires):
    """A DenseStack with random running buffers, dropout drawing from a
    fresh generator, and the given requires_grad flag per weight."""
    rng = np.random.default_rng(seed)
    stack = DenseStack(dims[0], dims[-1], rng, dims[1:-1], p)
    for bn in stack.bns:
        bn.running_mean[...] = rng.standard_normal(bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.5, 2.0, bn.running_var.shape)
    stack.rng = np.random.default_rng(seed + 1)
    for t, flag in zip(stack.named_parameters().values(), requires):
        t.requires_grad = flag
    return stack


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(1, 6), min_size=5, max_size=5),
       st.integers(2, 9), st.sampled_from(MODES),
       st.sampled_from([0.0, 0.3]), st.booleans(), st.integers(0, 2 ** 31))
def test_dense_stack_matches_composition(depth, widths, n, mode, p, residual,
                                         seed):
    dims = widths[:depth + 2]
    if residual:
        dims[-1] = dims[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dims[0]))
    weights = Tensor(rng.standard_normal((n, dims[-1])))
    x_grad = bool(rng.integers(2))
    requires = rng.integers(2, size=4 * depth + 2).astype(bool).tolist()
    results = []
    for build in (lambda s, t: s(t, mode, residual=residual),
                  lambda s, t: _dense_stack_ref(s, t, mode, residual)):
        stack = _stack_copy(seed, dims, p, requires)
        xt = Tensor(x.copy(), requires_grad=x_grad)
        out = build(stack, xt)
        leaves = [xt, *stack.named_parameters().values()]
        if any(t.requires_grad for t in leaves):
            (out * weights).sum().backward()
        else:
            assert out._backward is None
        results.append((out, [t.grad for t in leaves],
                        [b.copy() for b in stack.named_buffers().values()],
                        stack.rng.random()))
    (got, got_grads, got_bufs, got_draw), (want, want_grads, want_bufs, want_draw) = results
    if got._backward is not None:
        assert got._op == "dense_stack"
    assert _close(got.data, want.data)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert (g is None) == (w is None), i
        assert g is None or _close(g, w), i
    for g, w in zip(got_bufs, want_bufs):
        assert _close(g, w)
    assert got_draw == want_draw


def _grad_check_dense_stack(mode, residual):
    rng = np.random.default_rng(11)
    stack = DenseStack(4, 4, rng, (5, 3), dropout_p=0.0)
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    weights = Tensor(rng.standard_normal((6, 4)))
    # a bias in front of a batch-statistics batch norm has an exactly zero
    # gradient, which central differences see only as rounding noise
    params = {"x": x, **{name: t for name, t in stack.named_parameters().items()
                         if not (mode != "eval" and name.startswith("fcs")
                                 and name.endswith("bias"))}}
    report = grad_check(lambda: (stack(x, mode, residual=residual) * weights).sum(),
                        params, tolerance=1e-6)
    assert report.passed, report.failures()


@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("batch_stats", [True, False])
def test_grad_check_dense_stack(residual, batch_stats):
    # "teacher" normalizes by batch statistics like "train" but leaves the
    # running buffers alone over the check's many forwards
    _grad_check_dense_stack("teacher" if batch_stats else "eval", residual)


@pytest.mark.parametrize("residual", [False, True])
def test_grad_check_dense_stack_in_train_mode(residual):
    # with p = 0 a "train" forward draws no dropout mask; its running-buffer
    # updates do not feed its batch-statistics output
    _grad_check_dense_stack("train", residual)


def test_dense_stack_runs_feature_major_with_no_transposed_copy(monkeypatch):
    # the activations stay (F, N) rows from the input's transposed view to
    # the output layer, so no array is copied into its transpose
    def copy_transposed(a):
        raise AssertionError(f"a {a.shape} array was copied into its transpose")
    monkeypatch.setattr(autodiff, "_swap01", copy_transposed)
    rng = np.random.default_rng(13)
    stack = DenseStack(6, 6, rng, (8, 5, 8), dropout_p=0.3)
    x = Tensor(rng.standard_normal((16, 6)), requires_grad=True)
    out = stack(x, "train", residual=True)
    (out * Tensor(rng.standard_normal((16, 6)))).sum().backward()
    assert out.shape == (16, 6) and out.data.flags.c_contiguous
    assert x.grad.shape == (16, 6)
    assert all(t.grad is not None for t in stack.named_parameters().values())
    out = stack(Tensor(rng.standard_normal((300, 6))), "eval")
    assert out.shape == (300, 6) and out.data.flags.c_contiguous


def test_dense_stack_rejects_an_unknown_mode():
    stack = DenseStack(4, 4, np.random.default_rng(0), (5,), dropout_p=0.1)
    with pytest.raises(ValueError, match="unknown mode 'training'"):
        stack(Tensor(np.zeros((3, 4))), "training")


# -- conv stack -----------------------------------------------------------------

def _conv_blocks(seed, chain, kernels, pads, requires=None):
    """(Conv, BatchNorm) blocks with random weights, affine parameters and
    running buffers, and the given requires_grad flag per tensor."""
    rng = np.random.default_rng(seed)
    blocks = []
    for c_in, c_out, k, pad in zip(chain[:-1], chain[1:], kernels, pads):
        conv, bn = Conv(c_in, c_out, k, rng, padding=pad), BatchNorm(c_out)
        bn.gamma.data[...] = rng.uniform(0.5, 2.0, c_out)
        bn.beta.data[...] = rng.standard_normal(c_out)
        bn.running_mean[...] = rng.standard_normal(c_out)
        bn.running_var[...] = rng.uniform(0.5, 2.0, c_out)
        blocks.append((conv, bn))
    tensors = [t for conv, bn in blocks for t in (conv.weight, bn.gamma, bn.beta)]
    for t, flag in zip(tensors, requires or ()):
        t.requires_grad = flag
    return blocks, tensors


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(2, 4),
       st.lists(st.integers(1, 4), min_size=4, max_size=4),
       st.lists(st.sampled_from([1, 3]), min_size=3, max_size=3),
       st.lists(st.integers(0, 1), min_size=3, max_size=3),
       st.integers(1, 2), st.integers(1, 2), st.sampled_from(MODES),
       st.integers(0, 2 ** 31))
def test_conv_stack_matches_composition(depth, n, chain, kernels, pads,
                                        out_h, out_w, mode, seed):
    kernels, pads = kernels[:depth], pads[:depth]
    # input sizes worked back from the last block's pooled size, so every
    # conv output is even; an odd kernel keeps each block's input even too
    height, width = out_h, out_w
    for k, pad in zip(kernels[::-1], pads[::-1]):
        height, width = 2 * height - 2 * pad + k - 1, 2 * width - 2 * pad + k - 1
        assume(height >= 1 and width >= 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, chain[0], height, width)) * rng.uniform(0.5, 3.0)
    x_grad = bool(rng.integers(2))
    requires = rng.integers(2, size=3 * depth).astype(bool).tolist()
    weights = None
    results = []
    for build in (conv_stack, _conv_stack_ref):
        blocks, tensors = _conv_blocks(seed, chain[:depth + 1], kernels, pads,
                                       requires)
        xt = Tensor(x.copy(), requires_grad=x_grad)
        out = build(xt, blocks, mode)
        if weights is None:
            weights = Tensor(rng.standard_normal(out.shape))
        leaves = [xt, *tensors]
        if any(t.requires_grad for t in leaves):
            (out * weights).sum().backward()
        else:
            assert out._backward is None
        results.append((out, [t.grad for t in leaves],
                        [b.copy() for _, bn in blocks
                         for b in (bn.running_mean, bn.running_var)]))
    (got, got_grads, got_bufs), (want, want_grads, want_bufs) = results
    if got._backward is not None:
        assert got._op == "conv_stack"
    assert np.array_equal(got.data, want.data)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert (g is None) == (w is None), i
        assert g is None or np.array_equal(g, w), i
    for g, w in zip(got_bufs, want_bufs):
        assert np.array_equal(g, w)


# per channel, a block's gamma is positive, negative or zero, and its beta
# may be a negative zero
_GAMMAS = (0.5, 1.25, 2.0, -0.75, -1.5, 0.0)
_BETAS = (0.0, -0.0, 0.5, -1.0)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODES), st.booleans(), st.data())
def test_conv_stack_pools_first_only_where_that_changes_no_bit(mode, record, data):
    # a block whose gammas are all positive pools before its batch norm's
    # division and affine map; inputs, kernels and running means on a
    # coarse grid with signed zeros make tied windows and zero maxima common,
    # and an "eval" pass that records no node runs in chunks past 32 rows
    depth = data.draw(st.integers(1, 2))
    n = data.draw(st.sampled_from([2, 3, autodiff.EXTRACT_CHUNK - 1,
                                   autodiff.EXTRACT_CHUNK + 1]))
    chain = data.draw(st.lists(st.integers(1, 3), min_size=depth + 1, max_size=depth + 1))
    kernels = data.draw(st.lists(st.sampled_from([(1, 0), (3, 1)]),
                                 min_size=depth, max_size=depth))
    side = 2 ** depth * data.draw(st.integers(1, 2))
    affine = []
    for c in chain[1:]:
        gamma = np.array(data.draw(st.lists(st.sampled_from(_GAMMAS), min_size=c, max_size=c)))
        if data.draw(st.booleans()):
            gamma = np.where(gamma == 0.0, 1.0, np.abs(gamma))
        affine.append((gamma, data.draw(st.lists(st.sampled_from(_BETAS), min_size=c, max_size=c))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    shape = (n, chain[0], side, side)
    x = np.copysign(rng.integers(0, 3, shape) * 0.5, rng.standard_normal(shape))
    params = []
    for c_in, c_out, (k, _) in zip(chain, chain[1:], kernels):
        params.append((rng.integers(-1, 2, (c_out, c_in, k, k)) * 0.5,
                       rng.integers(-2, 3, c_out) * 0.25,
                       rng.choice([0.5, 1.0, 2.0], c_out)))
    weights = Tensor(rng.standard_normal((n, chain[-1] * (side >> depth) ** 2)))
    results = []
    for build in (conv_stack, _conv_stack_ref):
        blocks = []
        for (c_in, c_out, (k, pad)), (w, mean, var), (gamma, beta) in zip(
                zip(chain, chain[1:], kernels), params, affine):
            conv, bn = Conv(c_in, c_out, k, rng, padding=pad), BatchNorm(c_out)
            conv.weight.data[...] = w
            bn.gamma.data[...], bn.beta.data[...] = gamma, beta
            bn.running_mean[...], bn.running_var[...] = mean, var
            blocks.append((conv, bn))
        leaves = [Tensor(x.copy()), *[t for conv, bn in blocks
                                      for t in (conv.weight, bn.gamma, bn.beta)]]
        for t in leaves:
            t.requires_grad = record
        out = build(leaves[0], blocks, mode)
        if record:
            (out * weights).sum().backward()
        else:
            assert out._backward is None
        results.append((out.data, [t.grad for t in leaves],
                        [b.copy() for _, bn in blocks
                         for b in (bn.running_mean, bn.running_var)]))
    (got, got_grads, got_bufs), (want, want_grads, want_bufs) = results
    assert _same_bits(got, want)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert (g is None) == (w is None) == (not record), i
        assert g is None or _same_bits(g, w), i
    for g, w in zip(got_bufs, want_bufs):
        assert _same_bits(g, w)


def test_a_conv_block_with_a_negative_zero_beta_normalizes_before_it_pools():
    # an identity block but for gamma 0.5 and beta -0.0: the cells +-5e-324
    # map to underflowed zeros of their own sign, and the window's maximum
    # is the -0.0 of its last cell, where pooling first would give 0.0
    blocks, _ = _conv_blocks(0, (1, 1), (1,), (0,))
    conv, bn = blocks[0]
    conv.weight.data[...] = 1.0
    bn.gamma.data[...], bn.beta.data[...] = 0.5, -0.0
    bn.running_mean[...], bn.running_var[...] = 0.0, 1.0 - bn.eps
    x = Tensor(np.array([5e-324, -5e-324, -5e-324, -5e-324]).reshape(1, 1, 2, 2))
    out = conv_stack(x, blocks, "eval")
    assert _same_bits(out.data, _conv_stack_ref(x, blocks, "eval").data)
    assert np.signbit(out.data).all()


@pytest.mark.parametrize("mode", ["teacher", "eval"])
def test_grad_check_conv_stack(mode):
    # "teacher" normalizes by batch statistics like "train" but leaves the
    # running buffers alone over the check's many forwards
    blocks, tensors = _conv_blocks(12, (1, 2, 2), (3, 3), (1, 1))
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((3, 1, 8, 8)), requires_grad=True)
    weights = Tensor(rng.standard_normal((3, 8)))
    params = {"x": x, **{f"t{i}": t for i, t in enumerate(tensors)}}
    report = grad_check(lambda: (conv_stack(x, blocks, mode) * weights).sum(),
                        params, tolerance=1e-6)
    assert report.passed, report.failures()


def test_conv_stack_sends_a_tied_window_gradient_to_its_first_cell():
    # an identity block: a 1x1 kernel of one, and a batch norm that maps
    # each value to itself over unit running statistics in "eval"
    blocks, _ = _conv_blocks(0, (1, 1), (1,), (0,))
    conv, bn = blocks[0]
    conv.weight.data[...] = 1.0
    bn.gamma.data[...], bn.beta.data[...] = 1.0, 0.0
    bn.running_mean[...], bn.running_var[...] = 0.0, 1.0 - bn.eps
    rng = np.random.default_rng(4)
    windows = rng.uniform(1.0, 2.0, (2, 1, 3, 3))
    x = Tensor(np.kron(windows, np.ones((2, 2))), requires_grad=True)
    g = rng.standard_normal((2, 9))
    out = conv_stack(x, blocks, "eval")
    assert np.array_equal(out.data, windows.reshape(2, 9))
    (out * Tensor(g)).sum().backward()
    assert np.array_equal(x.grad[:, :, 0::2, 0::2], g.reshape(2, 1, 3, 3))
    for i, j in [(0, 1), (1, 0), (1, 1)]:
        assert not x.grad[:, :, i::2, j::2].any()


def _pooled_rows(monkeypatch):
    """The row count of each (c, n, h, w) map ``_pool_fwd`` pools from here
    on, in call order."""
    rows, pool = [], autodiff._pool_fwd

    def counted(x):
        rows.append(x.shape[1])
        return pool(x)
    monkeypatch.setattr(autodiff, "_pool_fwd", counted)
    return rows


def test_a_recorded_conv_stack_pools_once_per_block(monkeypatch):
    # the backward reads each block's ReLU mask and window maxima from the
    # block output the node keeps instead of pooling the rebuilt map again
    calls = _pooled_rows(monkeypatch)
    blocks, tensors = _conv_blocks(3, (1, 2, 3, 2), (3, 3, 3), (1, 1, 1))
    for t in tensors:
        t.requires_grad = True
    x = Tensor(np.random.default_rng(6).standard_normal((4, 1, 16, 16)),
               requires_grad=True)
    out = conv_stack(x, blocks, "train")
    assert len(calls) == 3
    out.sum().backward()
    assert len(calls) == 3
    assert x.grad is not None and all(t.grad is not None for t in tensors)


@pytest.mark.parametrize("n", [31, 32, 33, 64, 65])
def test_a_frozen_eval_conv_stack_runs_over_chunks_of_rows(n, monkeypatch):
    # an "eval" pass that records no node pools no more than EXTRACT_CHUNK
    # rows at a time and equals its slices' passes concatenated; a recorded
    # one stays one node over all the rows, with the same values
    assert autodiff.EXTRACT_CHUNK == 32
    rows = _pooled_rows(monkeypatch)
    blocks, _ = _conv_blocks(4, (1, 2, 3), (3, 3), (1, 1), requires=[False] * 6)
    x = np.random.default_rng(n).standard_normal((n, 1, 8, 8))
    out = conv_stack(Tensor(x), blocks, "eval")
    assert out._backward is None and not out.requires_grad
    assert max(rows) == min(n, 32) and sum(rows) == 2 * n
    chunks = [conv_stack(Tensor(x[i:i + 32]), blocks, "eval").data
              for i in range(0, n, 32)]
    assert np.array_equal(out.data, np.concatenate(chunks))
    xt = Tensor(x, requires_grad=True)
    node = conv_stack(xt, blocks, "eval")
    assert node._op == "conv_stack" and node._parents[0] is xt
    assert np.array_equal(node.data, out.data)


def test_an_eval_conv_stack_of_no_rows_is_an_empty_batch():
    blocks, _ = _conv_blocks(0, (1, 2, 3), (3, 3), (1, 1))
    out = conv_stack(Tensor(np.zeros((0, 1, 8, 8))), blocks, "eval")
    assert out.shape == (0, 12)
    for mode in ("train", "teacher"):
        with pytest.raises(ValueError, match=f"{mode} mode needs batch size >= 2"):
            conv_stack(Tensor(np.zeros((0, 1, 8, 8))), blocks, mode)


@pytest.mark.parametrize("shape, chain, message", [
    ((2, 1, 5, 5), (1, 2), r"\(2, 2, 5, 5\) and \(2, 2, 2, 2\)"),
    ((2, 2, 4, 4), (1, 2), r"\(2, 2, 4, 4\) and \(2, 1, 3, 3\)"),
    ((2, 16), (1, 2), r"\(2, 16\) and \(2, 1, 3, 3\)"),
])
def test_conv_stack_rejects_bad_shapes(shape, chain, message):
    # an odd conv output cannot be pooled; channels must match the kernel
    blocks, _ = _conv_blocks(0, chain, (3,), (1,))
    with pytest.raises(ShapeMismatch, match="conv_stack: incompatible shapes " + message):
        conv_stack(Tensor(np.zeros(shape)), blocks, "eval")


def test_conv_stack_rejects_an_unknown_mode_and_a_batch_of_one():
    blocks, _ = _conv_blocks(0, (1, 2), (3,), (1,))
    with pytest.raises(ValueError, match="unknown mode 'training'"):
        conv_stack(Tensor(np.zeros((2, 1, 4, 4))), blocks, "training")
    with pytest.raises(ValueError, match="train mode needs batch size >= 2"):
        conv_stack(Tensor(np.zeros((1, 1, 4, 4))), blocks, "train")


def test_an_eval_conv_backward_reads_the_statistics_its_forward_used():
    # the backward recomputes each block's normalized activations; moving
    # the running buffers between the forward and the backward must not
    # move a gradient
    results = []
    for overwrite in (False, True):
        rng = np.random.default_rng(5)
        ext = ConvExtractor(rng, feature_dim=32, proj_dim=16)
        for bn in ext.bns:
            bn.running_mean[...] = rng.standard_normal(bn.running_mean.shape)
            bn.running_var[...] = rng.uniform(0.5, 2.0, bn.running_var.shape)
        ext.mark_pretrained()
        leaves = [t for conv, bn in zip(ext.convs, ext.bns)
                  for t in (conv.weight, bn.gamma, bn.beta)]
        for t in leaves:
            t.requires_grad = True
        x = Tensor(rng.standard_normal((4, 1, 32, 32)), requires_grad=True)
        out = ext.features(x)
        assert out._parents[0]._op == "conv_stack"
        if overwrite:
            for bn in ext.bns:
                bn.running_mean[...] = 3.0
                bn.running_var[...] = 0.01
        (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
        results.append([x.grad] + [t.grad for t in leaves])
    for i, (want, got) in enumerate(zip(*results)):
        assert np.array_equal(got, want), i


def test_a_second_conv_stack_backward_raises():
    # the first backward drops the block records it recomputes from
    blocks, _ = _conv_blocks(0, (1, 2), (3,), (1,), requires=[True, True, True])
    loss = conv_stack(Tensor(np.ones((2, 1, 4, 4))), blocks, "train").sum()
    loss.backward()
    with pytest.raises(GradError, match="second backward"):
        loss.backward()


# -- memory kept for the conv backward ------------------------------------------

MIB = 2 ** 20


def _kept_bytes(fn):
    """``fn``'s result and the bytes, traced by tracemalloc, that stay
    allocated while the result is kept."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_a_recorded_conv_stack_keeps_only_its_output_and_block_inputs():
    # every block's normalized map, pooled output and ReLU mask came to
    # 21 MiB at batch 32; the backward recomputes them from each block's
    # input and its per-channel centring vector and std
    rng = np.random.default_rng(0)
    ext = ConvExtractor(rng, feature_dim=512, proj_dim=64)
    n = 32
    x = Tensor(rng.standard_normal((n, 1, 32, 32)))
    out, kept = _kept_bytes(lambda: conv_stack(x, zip(ext.convs, ext.bns), "train"))
    assert out._op == "conv_stack"
    inputs = sum(n * conv.weight.shape[1] * (32 >> i) ** 2 * 8
                 for i, conv in enumerate(ext.convs))
    assert kept <= out.data.nbytes + inputs + MIB, kept / MIB


def test_recorded_conv_forwards_keep_no_im2col_matrix_or_pre_pool_output():
    # with the default channels at batch 32, the im2col matrices come to
    # 29 MiB and the pre-pool batch-norm outputs to 14 MiB; the backward
    # rebuilds both, so a recorded forward keeps neither
    rng = np.random.default_rng(0)
    ext = ConvExtractor(rng, feature_dim=512, proj_dim=64)
    x = Tensor(rng.standard_normal((32, 1, 32, 32)))
    out, kept = _kept_bytes(lambda: conv_stack(x, zip(ext.convs, ext.bns), "train"))
    assert out._op == "conv_stack"
    assert kept <= 30 * MIB, kept / MIB
    # the second block's conv alone: a 4 MiB output over an 18 MiB im2col
    h = Tensor(rng.standard_normal((32, 32, 16, 16)))
    out, kept = _kept_bytes(lambda: conv2d(h, ext.convs[1].weight, padding=1))
    assert out._op == "conv2d"
    assert kept <= out.data.nbytes + MIB, kept / MIB


def _pretraining_step_peak(monkeypatch):
    """The tracemalloc peak of one conv pretraining step over 32 images,
    from the end of its set-up (the optimizer's construction)."""
    start = []

    class PeakAfterSetUp(Adam):
        """Adam whose construction ends the set-up: the step is measured
        from there."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(train, "Adam", PeakAfterSetUp)
    rng = np.random.default_rng(0)
    ext = ConvExtractor(rng, feature_dim=512, proj_dim=64)
    data = Dataset(Tensor(rng.random((32, 1, 32, 32))), None, "source")
    cfg = train.TrainConfig(pretrain_epochs=1, batch_size=32)
    tracemalloc.start()
    try:
        train.pretrain_contrastive(ext, data, cfg, rng=np.random.default_rng(cfg.seed))
        peak = tracemalloc.get_traced_memory()[1] - start[0]
    finally:
        tracemalloc.stop()
    return peak


def test_a_conv_pretraining_step_peaks_below_110_mib(monkeypatch):
    peak = _pretraining_step_peak(monkeypatch)
    assert peak <= 110 * MIB, peak / MIB


def test_a_conv_pretraining_step_keeps_no_activation_map_for_its_backward(monkeypatch):
    # keeping each block's normalized map, pooled output and ReLU mask
    # made the step peak at 83 MiB
    peak = _pretraining_step_peak(monkeypatch)
    assert peak <= 64 * MIB, peak / MIB


def _peak_bytes(fn):
    """The tracemalloc peak of ``fn()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_frozen_conv_extraction_peak_does_not_grow_with_the_set():
    # one whole-set conv_stack pass peaks at 24 MiB for 32 images and
    # 96 MiB for 128; a chunked pass adds only the 16 KiB of flattened
    # features per image
    rng = np.random.default_rng(0)
    ext = ConvExtractor(rng, feature_dim=32, proj_dim=64)
    ext.mark_pretrained()
    peaks = {}
    for n in (32, 128):
        x = Tensor(rng.random((n, 1, 32, 32)))
        peaks[n] = _peak_bytes(lambda: ext.features(x))
    assert peaks[128] - peaks[32] <= 4 * MIB, {n: p / MIB for n, p in peaks.items()}


# -- median-heuristic bandwidths -----------------------------------------------

def test_resolve_matches_np_median():
    # every n from 2 to 130 gives odd and even pair counts n(n-1)/2;
    # integer-valued matrices force ties and zero medians, continuous ones
    # make the partition leave the lower half unsorted; neither is
    # symmetric, so gathering the wrong triangle fails too
    for n in range(2, 131):
        rng = np.random.default_rng(n)
        for d2 in (np.round(rng.uniform(0.0, 4.0, (n, n))),
                   rng.standard_normal((n, n)) ** 2):
            med = float(np.median(d2[np.triu_indices(n, 1)]))
            med = med if med > 0.0 else 1.0
            assert KernelSpec().resolve(d2) == [med * s for s in MEDIAN_SCALES], n
    # a zero median falls back to unit bandwidths
    assert KernelSpec().resolve(np.zeros((3, 3))) == list(MEDIAN_SCALES)


# -- Adam ---------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=1, max_size=5),
       st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_adam_flat_step_matches_per_tensor_loop(shapes, steps, seed):
    rng = np.random.default_rng(seed)
    init = [rng.standard_normal(shape) for shape in shapes]
    flat = {f"p{i}": Tensor(a.copy(), requires_grad=True) for i, a in enumerate(init)}
    ref = {f"p{i}": Tensor(a.copy(), requires_grad=True) for i, a in enumerate(init)}
    opt, opt_ref = Adam(flat, 1e-2), _adam_ref(ref, 1e-2)
    for _ in range(steps):
        scale = 10.0 ** rng.uniform(-6, 3)
        grads = {name: rng.standard_normal(t.shape) * scale
                 for name, t in flat.items()}
        for name, g in grads.items():
            # one array for both: neither optimizer may write into a gradient
            flat[name].grad = ref[name].grad = g
        kept = {name: g.copy() for name, g in grads.items()}
        opt.step()
        opt_ref.step()
        for name, t in flat.items():
            assert np.array_equal(t.data, ref[name].data), name
            assert np.array_equal(grads[name], kept[name]), name


def test_train_interactive_with_flat_adam_matches_per_tensor_loop(monkeypatch):
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=24, class_separation=3.0,
                       rotation_angle=0.5, seed=4)
    source, target, eval_target = gen_synthetic_pda(spec)
    cfg = train.TrainConfig(pretrain_epochs=2, epochs=3, iters_per_step=3,
                            batch_size=16, desired_reward=1.0, seed=4)
    model_cfg = train.ModelConfig(feature_dim=8, mlp_hidden=(16,), proj_dim=4,
                                  rda_hidden=(12, 8, 12), clf_hidden=(10, 8))
    flat = train.train_interactive(source, target, cfg, model_cfg, eval_target)
    monkeypatch.setattr(train, "Adam", _adam_ref)
    ref = train.train_interactive(source, target, cfg, model_cfg, eval_target)
    assert flat.trace.to_csv() == ref.trace.to_csv()
    assert flat.best.arrays.keys() == ref.best.arrays.keys()
    for name, arr in flat.best.arrays.items():
        assert arr.tobytes() == ref.best.arrays[name].tobytes(), name


def _pair_with_grads(first_grad, second_grad):
    a = Tensor([1.0, -2.0], requires_grad=True)
    b = Tensor([[0.5, 0.25], [3.0, -1.0]], requires_grad=True)
    a.grad = None if first_grad is None else np.asarray(first_grad, dtype=float)
    b.grad = None if second_grad is None else np.asarray(second_grad, dtype=float)
    return {"a": a, "b": b}


def test_adam_missing_gradient_names_the_parameter():
    with pytest.raises(GradError, match="missing gradient for parameter 'b'"):
        Adam(_pair_with_grads([0.1, 0.2], None), 1e-3).step()


@pytest.mark.parametrize("index", [(0, 0), (1, 1)])
def test_adam_non_finite_value_names_its_tensor(index):
    # the first and the last offset of the second tensor
    bad = np.ones((2, 2))
    bad[index] = np.nan
    with pytest.raises(FloatingPointError,
                       match="non-finite values in parameter 'b'"):
        Adam(_pair_with_grads([0.1, 0.2], bad), 1e-3).step()


def test_adam_rejects_a_rebound_tensor():
    params = _pair_with_grads([0.1, 0.2], np.ones((2, 2)))
    opt = Adam(params, 1e-3)
    opt.step()
    params["b"].data = params["b"].data.copy()
    with pytest.raises(ValueError, match="parameter 'b' no longer views"):
        opt.step()
