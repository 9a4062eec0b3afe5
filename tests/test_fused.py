"""Oracle tests for the one-node layers and losses.

Each fused op is compared with the unfused composition of elementary Tensor
ops it replaces, written out below; values and gradients must agree to
1e-10 (relative to the larger magnitude when that exceeds 1). ``conv2d`` is
compared with an einsum + col2im node over a ``pad2d`` copy of the input,
and ``maxpool2x2`` with a take/put-along-axis node, bit for bit. ``nt_xent``
is compared with ``_nt_xent_ref``, its composition of row norms, matmuls,
exp, masks, log and mean. Pooling before a ReLU must equal pooling after it
bit for bit, in values and input gradient, since the extractors rely on
that order. Every op is also checked against central finite differences.
``Adam``'s one update over a flat buffer is compared with ``_adam_ref``, the
per-tensor loop with state per parameter name, bit for bit, step by step and
through a whole ``train_interactive``. ``dense_stack`` is compared with
``_dense_stack_ref``, the per-layer composition of ``linear``,
``batch_norm``, ReLU, ``dropout`` and the residual add, bit for bit in
values, gradients, running buffers and the dropout generator's next draw.
The median-heuristic bandwidths are compared with ``np.median`` over the
upper triangle, bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duoadapt import train
from duoadapt.autodiff import (MODES, Adam, GradError, ShapeMismatch, Tensor,
                               batch_norm, conv2d, dropout, grad_check, linear,
                               log_softmax, maxpool2x2)
from duoadapt.data import PdaTaskSpec, gen_synthetic_pda
from duoadapt.losses import (MEDIAN_SCALES, ContrastiveBatch, KernelSpec,
                             cross_entropy_hard, cross_entropy_soft,
                             mmd_squared, nt_xent)
from duoadapt.model import DenseStack

TOL = 1e-10


# -- unfused compositions (the oracles) ---------------------------------------

def _linear_ref(x, w, b):
    return x @ w + b


def _batch_norm_ref(x, gamma, beta, running_mean, running_var, training,
                    momentum=0.9, eps=1e-5, update_stats=True):
    if x.ndim == 2:
        axes, shape = (0,), (1, -1)
    else:
        axes, shape = (0, 2, 3), (1, -1, 1, 1)
    if training:
        mu = x.mean(axis=axes, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=axes, keepdims=True)
        if update_stats:
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
    probs = _log_softmax_ref(teacher.detach()).exp()
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
        h = batch_norm(fc(h), bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                       training=mode != "eval", momentum=bn.momentum, eps=bn.eps,
                       update_stats=mode == "train")
        h = dropout(h.relu(), stack.dropout_p, stack.rng, training=mode == "train")
    out = stack.out(h)
    return x + out if residual else out


class _adam_ref:
    """Adam as one loop over the tensors, with moments and a step count per
    parameter name; each update rebinds the tensor's ``.data``."""

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
            gg = (1 - self.beta2) * g
            gg *= g
            v *= self.beta2
            v += gg
            step = np.divide(m, 1 - self.beta1 ** ts)
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


# -- linear -------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_linear_matches_composition(n, i, o, seed, x_grad):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((n, i)), rng.standard_normal((i, o)),
              rng.standard_normal(o)]
    _agree(linear, _linear_ref, arrays, [x_grad, True, True],
           rng.standard_normal((n, o)))


def test_linear_is_exact_and_one_node():
    rng = np.random.default_rng(0)
    x, w, b = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (3,)))
    out = linear(Tensor(x), Tensor(w, requires_grad=True), Tensor(b))
    assert np.array_equal(out.data, x @ w + b)
    assert out._op == "linear" and len(out._parents) == 3


def test_linear_rejects_bad_shapes():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeMismatch, match="linear"):
        linear(x, Tensor(np.ones((2, 4))), Tensor(np.ones(4)))
    with pytest.raises(ShapeMismatch, match="linear"):
        linear(x, w, Tensor(np.ones(3)))


def test_grad_check_linear():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    report = grad_check(lambda: (linear(x, w, b) ** 2).mean(),
                        {"x": x, "w": w, "b": b}, tolerance=1e-6)
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

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(1, 5), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_batch_norm_matches_composition(n, c, four_d, training, update_stats,
                                        seed):
    rng = np.random.default_rng(seed)
    shape = (n, c, int(rng.integers(1, 4)), int(rng.integers(1, 4))) if four_d else (n, c)
    x = rng.standard_normal(shape) * rng.uniform(0.5, 3.0) + rng.uniform(-2, 2)
    gamma = rng.uniform(0.5, 2.0, c)
    beta = rng.standard_normal(c)
    stats = (rng.standard_normal(c), rng.uniform(0.5, 2.0, c))
    buffers = {}

    def run(fn, key):
        def build(xt, gt, bt):
            rm, rv = (s.copy() for s in stats)
            buffers[key] = (rm, rv)
            return fn(xt, gt, bt, rm, rv, training=training,
                      update_stats=update_stats)
        return build

    _agree(run(batch_norm, "fused"), run(_batch_norm_ref, "ref"),
           [x, gamma, beta], [True, True, True], rng.standard_normal(shape))
    for got, want, before in zip(buffers["fused"], buffers["ref"], stats):
        assert _close(got, want)
        if not (training and update_stats):
            assert np.array_equal(got, before)


def test_batch_norm_constant_input_gets_no_grad():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((6, 3)))
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3))
    (batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True) ** 2).sum().backward()
    assert gamma.grad is not None
    assert x.grad is None and beta.grad is None


@pytest.mark.parametrize("shape", [(5, 3), (3, 2, 2, 2)])
@pytest.mark.parametrize("training", [True, False])
def test_grad_check_batch_norm(shape, training):
    rng = np.random.default_rng(3)
    c = shape[1]
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 2.0, c), requires_grad=True)
    beta = Tensor(rng.standard_normal(c), requires_grad=True)
    weights = Tensor(rng.standard_normal(shape))
    rm, rv = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)

    def loss_fn():
        out = batch_norm(x, gamma, beta, rm, rv, training=training,
                         update_stats=False)
        return (out * weights).sum()

    report = grad_check(loss_fn, {"x": x, "gamma": gamma, "beta": beta},
                        tolerance=1e-6)
    assert report.passed, report.failures()


# -- log-softmax and cross-entropies -------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
def test_log_softmax_matches_composition(n, k, seed):
    rng = np.random.default_rng(seed)
    _agree(log_softmax, _log_softmax_ref, [rng.standard_normal((n, k)) * 5],
           [True], rng.standard_normal((n, k)))


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
    weights = Tensor(rng.standard_normal((4, 3)))
    for loss_fn, params in (
            (lambda: (log_softmax(z) * weights).sum(), {"z": z}),
            (lambda: cross_entropy_hard(z, labels), {"z": z}),
            (lambda: cross_entropy_soft(z, t), {"student": z})):
        report = grad_check(loss_fn, params, tolerance=1e-6)
        assert report.passed, report.failures()


# -- pooled-distance MMD --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(["fixed", "median"]),
       st.sampled_from([(True, True), (True, False), (False, True)]))
def test_mmd_matches_composition(n, m, d, seed, rule, grads):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((m, d)) + rng.uniform(-1, 1)
    if rule == "fixed":
        bws = rng.uniform(0.3, 5.0, int(rng.integers(1, 4))).tolist()
        kernel = KernelSpec(bandwidths=bws, bandwidth_rule="fixed")
    else:
        bws = _median_bandwidths(a, b)
        kernel = KernelSpec()
    _agree(lambda x, y: mmd_squared(x, y, kernel),
           lambda x, y: _mmd_ref(x, y, bws), [a, b], list(grads))


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
    kernel = KernelSpec(bandwidths=[1.0, 0.0], bandwidth_rule="fixed")
    with pytest.raises(ValueError, match="positive"):
        mmd_squared(Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2))), kernel)


def test_grad_check_mmd_one_sided():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((5, 3)) + 0.5, requires_grad=True)
    kernel = KernelSpec(bandwidths=[0.5, 2.0], bandwidth_rule="fixed")
    report = grad_check(lambda: mmd_squared(a, b, kernel), {"b": b},
                        tolerance=1e-6)
    assert report.passed, report.failures()
    assert a.grad is None


# -- NT-Xent --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.floats(0.1, 2.0),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(True, True), (True, False), (False, True)]))
def test_nt_xent_matches_composition(n, d, temperature, seed, grads):
    rng = np.random.default_rng(seed)
    _agree(lambda o, a: nt_xent(ContrastiveBatch(o, a, temperature)),
           lambda o, a: _nt_xent_ref(o, a, temperature),
           [rng.standard_normal((n, d)), rng.standard_normal((n, d))],
           list(grads))


def test_grad_check_nt_xent():
    rng = np.random.default_rng(10)
    o = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    report = grad_check(lambda: nt_xent(ContrastiveBatch(o, a, 0.3)),
                        {"originals": o, "augmented": a}, tolerance=1e-6)
    assert report.passed, report.failures()


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
    assert np.array_equal(got.data, want.data)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert (g is None) == (w is None), i
        assert g is None or np.array_equal(g, w), i
    for g, w in zip(got_bufs, want_bufs):
        assert np.array_equal(g, w)
    assert got_draw == want_draw


@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("batch_stats", [True, False])
def test_grad_check_dense_stack(residual, batch_stats):
    # "teacher" normalizes by batch statistics like "train" but leaves the
    # running buffers alone over the check's many forwards
    mode = "teacher" if batch_stats else "eval"
    rng = np.random.default_rng(11)
    stack = DenseStack(4, 4, rng, (5, 3), dropout_p=0.0)
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    weights = Tensor(rng.standard_normal((6, 4)))
    # a bias in front of a batch-statistics batch norm has an exactly zero
    # gradient, which central differences see only as rounding noise
    params = {"x": x, **{name: t for name, t in stack.named_parameters().items()
                         if not (batch_stats and name.startswith("fcs")
                                 and name.endswith("bias"))}}
    report = grad_check(lambda: (stack(x, mode, residual=residual) * weights).sum(),
                        params, tolerance=1e-6)
    assert report.passed, report.failures()


def test_dense_stack_rejects_an_unknown_mode():
    stack = DenseStack(4, 4, np.random.default_rng(0), (5,), dropout_p=0.1)
    with pytest.raises(ValueError, match="unknown mode 'training'"):
        stack(Tensor(np.zeros((3, 4))), "training")


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
