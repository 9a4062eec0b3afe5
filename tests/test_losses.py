import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duoadapt.autodiff import ShapeMismatch, Tensor, grad_check
from duoadapt.losses import (KernelSpec, cross_entropy_hard, cross_entropy_soft,
                             mmd_squared, nt_xent)


def _nt_xent_oracle(o, a, temp):
    """Double-loop reference: anchors are the augmented rows."""
    o = o / np.linalg.norm(o, axis=1, keepdims=True)
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    n = len(o)
    total = 0.0
    for i in range(n):
        pos = math.exp(float(a[i] @ o[i]) / temp)
        denom = 0.0
        for j in range(n):
            denom += math.exp(float(a[i] @ o[j]) / temp)
            if j != i:
                denom += math.exp(float(a[i] @ a[j]) / temp)
        total += -math.log(pos / denom)
    return total / n


def test_nt_xent_orthogonal_pair_is_ln3():
    # Two pairs, every vector orthogonal to every other: all similarities
    # are exp(0) except the self terms, so each anchor sees pos=1, denom=3.
    o = Tensor(np.eye(4)[:2])
    a = Tensor(np.eye(4)[2:])
    loss = nt_xent(o, a, 0.5)
    assert abs(loss.data - math.log(3.0)) <= 1e-10


def test_nt_xent_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        n = int(rng.integers(2, 8))
        o = rng.standard_normal((n, 6))
        a = rng.standard_normal((n, 6))
        temp = float(rng.uniform(0.2, 1.5))
        loss = nt_xent(Tensor(o), Tensor(a), temp)
        assert abs(loss.data - _nt_xent_oracle(o, a, temp)) <= 1e-10


def test_nt_xent_rewards_aligned_pairs():
    rng = np.random.default_rng(1)
    o = rng.standard_normal((8, 5))
    aligned = nt_xent(Tensor(o), Tensor(o * 1.3), 0.5)
    shuffled = nt_xent(Tensor(o), Tensor(o[::-1].copy()), 0.5)
    assert aligned.data < shuffled.data


def test_nt_xent_rejects_single_pair():
    with pytest.raises(ValueError, match="at least 2"):
        nt_xent(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))), 0.5)


def test_nt_xent_rejects_zero_norm_row():
    o = np.ones((3, 4))
    o[1] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        nt_xent(Tensor(o), Tensor(np.ones((3, 4))), 0.5)


def test_nt_xent_rejects_mismatched_shapes_and_nonpositive_temperature():
    with pytest.raises(ShapeMismatch, match=re.escape("nt_xent: incompatible "
                                                      "shapes (3, 4) and (4, 3)")):
        nt_xent(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 3))), 0.5)
    # rows of one value each used to fail inside numpy, naming no op
    with pytest.raises(ShapeMismatch, match=re.escape("nt_xent: incompatible "
                                                      "shapes (3,) and (3,)")):
        nt_xent(Tensor(np.ones(3)), Tensor(np.ones(3)), 0.5)
    # NaN passes a "<= 0" check and made a NaN loss; inf made a constant one
    for temperature in (0.0, -0.5, math.nan, math.inf):
        message = f"temperature must be positive and finite, got {temperature}"
        for args in ((Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4)))),
                     (Tensor(np.ones((4, 4))), None)):
            with pytest.raises(ValueError, match=re.escape(message)):
                nt_xent(*args, temperature)


def test_nt_xent_gradient_vs_finite_differences():
    rng = np.random.default_rng(2)
    o = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)

    def loss_fn():
        return nt_xent(o, a, 0.7)

    report = grad_check(loss_fn, {"o": o, "a": a}, tolerance=1e-4)
    assert report.passed, report.failures()


# -- kernel two-sample discrepancy --------------------------------------------

def _mmd_oracle(a, b, bws):
    total = 0.0
    for bw in bws:
        def k(u, v):
            return math.exp(-float(np.sum((u - v) ** 2)) / (2.0 * bw))
        kaa = np.mean([[k(u, v) for v in a] for u in a])
        kbb = np.mean([[k(u, v) for v in b] for u in b])
        kab = np.mean([[k(u, v) for v in b] for u in a])
        total += kaa + kbb - 2.0 * kab
    return total


def test_mmd_closed_form_two_points():
    # a = {0}, b = {1} in 1-D with unit bandwidth: k(a,a)=k(b,b)=1 and
    # k(a,b)=exp(-1/2), so the squared discrepancy is 2 - 2 exp(-1/2).
    kernel = KernelSpec(bandwidths=[1.0])
    a = Tensor(np.array([[0.0], [0.0]]))
    b = Tensor(np.array([[1.0], [1.0]]))
    out = mmd_squared(a, b, kernel)
    assert abs(out.data - (2.0 - 2.0 * math.exp(-0.5))) <= 1e-12


def test_mmd_identical_samples_is_zero():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 4))
    out = mmd_squared(Tensor(x), Tensor(x.copy()))
    assert abs(out.data) <= 1e-12


def test_mmd_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((7, 3))
    b = rng.standard_normal((5, 3)) + 1.0
    bws = [0.5, 2.0]
    kernel = KernelSpec(bandwidths=bws)
    out = mmd_squared(Tensor(a), Tensor(b), kernel)
    assert abs(out.data - _mmd_oracle(a, b, bws)) <= 1e-10


def test_mmd_median_heuristic_bandwidths():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((4, 3))
    pooled = np.concatenate([a, b])
    bws = KernelSpec().resolve(((pooled[:, None] - pooled[None]) ** 2).sum(axis=-1))
    pool = np.concatenate([a, b])
    d2 = np.array([np.sum((u - v) ** 2) for i, u in enumerate(pool)
                   for v in pool[i + 1:]])
    med = np.median(d2)
    assert np.allclose(bws, [med * s for s in (0.25, 0.5, 1, 2, 4)], rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_mmd_symmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((int(rng.integers(2, 8)), 3))
    b = rng.standard_normal((int(rng.integers(2, 8)), 3)) + rng.uniform(-1, 1)
    ab = mmd_squared(Tensor(a), Tensor(b)).data
    ba = mmd_squared(Tensor(b), Tensor(a)).data
    assert abs(ab - ba) <= 1e-10
    assert ab >= -1e-10


def test_mmd_shape_and_size_validation():
    with pytest.raises(ShapeMismatch):
        mmd_squared(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 4))))
    with pytest.raises(ValueError, match="at least 2"):
        mmd_squared(Tensor(np.ones((1, 2))), Tensor(np.ones((3, 2))))


def test_mmd_gradient_vs_finite_differences():
    rng = np.random.default_rng(6)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)) + 0.5, requires_grad=True)
    kernel = KernelSpec(bandwidths=[1.0, 4.0])

    def loss_fn():
        return mmd_squared(a, b, kernel)

    report = grad_check(loss_fn, {"a": a, "b": b}, tolerance=1e-4)
    assert report.passed, report.failures()


# -- cross-entropies ----------------------------------------------------------

def test_cross_entropy_hard_uniform_logits():
    logits = Tensor(np.zeros((4, 3)))
    out = cross_entropy_hard(logits, [0, 1, 2, 0])
    assert abs(out.data - math.log(3.0)) <= 1e-12


def test_cross_entropy_hard_matches_loop_oracle():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    expected = 0.0
    for i in range(6):
        p = np.exp(logits[i] - logits[i].max())
        p /= p.sum()
        expected += -math.log(p[labels[i]])
    expected /= 6
    out = cross_entropy_hard(Tensor(logits), labels)
    assert abs(out.data - expected) <= 1e-10


def test_cross_entropy_hard_rejects_bad_labels():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy_hard(Tensor(np.zeros((2, 3))), [0, 3])


@pytest.mark.parametrize("call, error, message", [
    (lambda: KernelSpec(bandwidths=[]).resolve(np.zeros((2, 2))),
     ValueError, "bandwidths must be positive and nonempty"),
    (lambda: KernelSpec(bandwidths=[1.0, math.nan]).resolve(np.zeros((2, 2))),
     ValueError, "bandwidths must be positive and nonempty, each finite, got [1.0, nan]"),
    (lambda: KernelSpec(bandwidths=[math.inf]).resolve(np.zeros((2, 2))),
     ValueError, "bandwidths must be positive and nonempty, each finite, got [inf]"),
    (lambda: KernelSpec(bandwidths=[2.0, -1.0]),
     ValueError, "bandwidths must be positive and nonempty, each finite, got [2.0, -1.0]"),
    (lambda: cross_entropy_hard(Tensor(np.zeros((3, 2))), [0, 1]), ShapeMismatch,
     "cross_entropy_hard: incompatible shapes (3, 2) and (2,)"),
    (lambda: cross_entropy_soft(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 4)))),
     ShapeMismatch, "cross_entropy_soft: incompatible shapes (3, 2) and (3, 4)"),
], ids=["empty-bandwidths", "nan-bandwidth", "inf-bandwidth",
        "negative-bandwidth-when-built", "hard-label-count", "soft-shapes"])
def test_bad_loss_arguments_raise(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_cross_entropy_soft_teacher_equals_student():
    # When the teacher equals the student the loss is the softmax entropy.
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((5, 4))
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    entropy = -np.mean(np.sum(p * np.log(p), axis=1))
    out = cross_entropy_soft(Tensor(logits), Tensor(logits.copy()))
    assert abs(out.data - entropy) <= 1e-10


def test_cross_entropy_soft_detaches_teacher():
    rng = np.random.default_rng(9)
    s = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    t = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    cross_entropy_soft(s, t).backward()
    assert s.grad is not None
    assert t.grad is None


def test_cross_entropy_gradients_vs_finite_differences():
    rng = np.random.default_rng(11)
    logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    labels = rng.integers(0, 3, 5)

    report = grad_check(lambda: cross_entropy_hard(logits, labels),
                        {"logits": logits}, tolerance=1e-4)
    assert report.passed, report.failures()
