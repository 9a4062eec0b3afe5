import re

import numpy as np
import pytest

from duoadapt.autodiff import (MODES, Adam, GradError, ShapeMismatch, Tensor,
                               _dropout_mask, batch_norm, conv2d, grad_check,
                               log_softmax_array, maxpool2x2)
from duoadapt.losses import cross_entropy_hard
from duoadapt.model import DenseStack


def test_add_scalar_values():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    assert np.array_equal(out.data, [4.0, 6.0])


def test_matmul_identity():
    a = np.random.default_rng(0).standard_normal((3, 3))
    out = Tensor(np.eye(3)) @ Tensor(a)
    assert np.allclose(out.data, a, atol=0)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    out = (Tensor(a) @ Tensor(b)).data
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_shape_mismatch_names_shapes():
    with pytest.raises(ShapeMismatch, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch, match="add"):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Tensor(np.zeros((2, 3))) - Tensor(np.zeros((4, 5))), ShapeMismatch,
     "sub: incompatible shapes (2, 3) and (4, 5)"),
    (lambda: Tensor(np.zeros((2, 3))) * Tensor(np.zeros((4, 5))), ShapeMismatch,
     "mul: incompatible shapes (2, 3) and (4, 5)"),
    (lambda: Tensor(np.zeros((2, 3))) / Tensor(np.zeros((4, 5))), ShapeMismatch,
     "div: incompatible shapes (2, 3) and (4, 5)"),
    (lambda: Tensor(np.zeros((2, 3, 4))).T, ShapeMismatch,
     "transpose: incompatible shapes (2, 3, 4)"),
    (lambda: conv2d(Tensor(np.zeros((1, 5, 5))), Tensor(np.zeros((1, 1, 3, 3)))),
     ShapeMismatch, "conv2d: incompatible shapes (1, 5, 5) and (1, 1, 3, 3)"),
    (lambda: DenseStack(3, 2, np.random.default_rng(0), (4,), 1.0)(
        Tensor(np.zeros((2, 3))), "train"),
     ValueError, "dropout probability must be in [0, 1), got 1.0"),
    (lambda: Adam({"w": Tensor([1.0], requires_grad=True)}, 0.0), ValueError,
     "learning_rate must be positive"),
    (lambda: Adam({"w": Tensor([1.0], requires_grad=True)}, float("nan")), ValueError,
     "learning_rate must be positive and finite, got nan"),
], ids=["sub", "mul", "div", "transpose-3d", "conv2d-3d", "dropout-p-1",
        "adam-zero-learning-rate", "adam-nan-learning-rate"])
def test_bad_operands_raise_naming_the_op(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


# -- conv / pool --------------------------------------------------------------

def test_conv2d_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 1, 5, 5))
    w = np.ones((1, 1, 1, 1))
    out = conv2d(Tensor(x), Tensor(w))
    assert np.array_equal(out.data, x)


def test_conv2d_constant_input_ones_kernel():
    c = 2.5
    x = np.full((1, 1, 6, 6), c)
    w = np.ones((1, 1, 3, 3))
    out = conv2d(Tensor(x), Tensor(w))
    assert np.allclose(out.data, 9 * c, atol=1e-12)


def test_conv2d_matches_nested_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 1, 8, 8))
    w = rng.standard_normal((2, 1, 3, 3))
    out = conv2d(Tensor(x), Tensor(w)).data
    expected = np.zeros((1, 2, 6, 6))
    for o in range(2):
        for p in range(6):
            for q in range(6):
                for i in range(3):
                    for j in range(3):
                        expected[0, o, p, q] += x[0, 0, p + i, q + j] * w[o, 0, i, j]
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_conv2d_kernel_exceeds_input():
    with pytest.raises(ShapeMismatch):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))


def test_maxpool_halves_dims():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 8, 8))
    out = maxpool2x2(Tensor(x))
    assert out.shape == (2, 3, 4, 4)
    assert out.data[0, 0, 0, 0] == x[0, 0, :2, :2].max()


# -- batch norm ---------------------------------------------------------------

def test_batch_norm_constant_column_is_zero():
    x = Tensor(np.full((8, 3), 4.0))
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.zeros(3))
    out = batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), "train")
    assert np.allclose(out.data, 0.0, atol=1e-9)


def test_batch_norm_beta_shifts_mean():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((64, 4)))
    out = batch_norm(x, Tensor(np.ones(4)), Tensor(np.full(4, 5.0)),
                     np.zeros(4), np.ones(4), "train")
    assert np.allclose(out.data.mean(axis=0), 5.0, atol=1e-9)


def test_batch_norm_standardizes_random_batch():
    # "train" and "teacher" normalize by the batch; only "train" moves the
    # running buffers, and "eval" reads them
    rng = np.random.default_rng(6)
    x = Tensor(3.0 + 2.0 * rng.standard_normal((128, 5)))
    eps = 1e-5
    raw_var = x.data.var(axis=0)
    for mode in MODES:
        rm, rv = np.zeros(5), np.ones(5)
        out = batch_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)), rm, rv,
                         mode, eps=eps)
        if mode == "eval":
            assert np.allclose(out.data, x.data / np.sqrt(1.0 + eps))
            continue
        assert np.max(np.abs(out.data.mean(axis=0))) <= 1e-9
        assert np.allclose(out.data.var(axis=0), raw_var / (raw_var + eps),
                           atol=1e-9)
        moved = not (np.array_equal(rm, np.zeros(5))
                     and np.array_equal(rv, np.ones(5)))
        assert moved == (mode == "train"), mode


def test_batch_norm_rejects_batch_of_one():
    for mode in ("train", "teacher"):
        with pytest.raises(ValueError, match=f"{mode} mode needs batch size"):
            batch_norm(Tensor(np.zeros((1, 3))), Tensor(np.ones(3)),
                       Tensor(np.zeros(3)), np.zeros(3), np.ones(3), mode)


def test_batch_norm_rejects_unknown_mode():
    with pytest.raises(ValueError, match="batch_norm: unknown mode True"):
        batch_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(3)),
                   Tensor(np.zeros(3)), np.zeros(3), np.ones(3), True)


def test_batch_norm_eval_uses_running_stats():
    x = Tensor(np.array([[2.0, 4.0]]))
    out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                     np.array([2.0, 4.0]), np.ones(2), "eval", eps=0.0)
    assert np.allclose(out.data, 0.0)


# -- activations --------------------------------------------------------------

def test_softmax_uniform():
    out = np.exp(log_softmax_array(np.zeros((1, 3))))
    assert np.allclose(out, 1 / 3)


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(7)
    out = np.exp(log_softmax_array(rng.standard_normal((10, 6)) * 30))
    assert np.all(out >= 0)
    assert np.max(np.abs(out.sum(axis=1) - 1)) <= 1e-12


def test_relu():
    assert np.array_equal(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])


def test_dropout_p_zero_is_identity():
    # the identity is no mask, and it leaves the generator untouched
    rng = np.random.default_rng(0)
    assert _dropout_mask((4, 4), 0.0, rng, training=True) is None
    assert rng.random() == np.random.default_rng(0).random()


def test_dropout_eval_is_identity():
    rng = np.random.default_rng(0)
    assert _dropout_mask((4, 4), 0.5, rng, training=False) is None
    assert rng.random() == np.random.default_rng(0).random()


def test_dropout_scales_survivors():
    mask = _dropout_mask((1000, 1), 0.25, np.random.default_rng(9), training=True)
    kept = mask[mask > 0]
    assert np.allclose(kept, 1 / 0.75)
    assert abs(len(kept) / 1000 - 0.75) < 0.05


# -- backward -----------------------------------------------------------------

def test_backward_quadratic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    (w * w).sum().backward()
    assert np.allclose(w.grad, [2.0, 4.0])


def test_backward_unused_parameter_gets_no_grad():
    w = Tensor([1.0], requires_grad=True)
    v = Tensor([3.0], requires_grad=True)
    (w * w).sum().backward()
    assert v.grad is None


def test_backward_accumulates_without_reset():
    w = Tensor([1.0, 2.0], requires_grad=True)
    (w * w).sum().backward()
    (w * w).sum().backward()
    assert np.allclose(w.grad, [4.0, 8.0])


def test_backward_rejects_nonscalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GradError, match="scalar"):
        (w * w).backward()


def test_backward_rejects_detached():
    with pytest.raises(GradError, match="detached"):
        Tensor([1.0]).sum().backward()


def test_backward_runs_each_closure_once_and_sums_a_shared_leaf_in_walk_order(
        monkeypatch):
    # the leaf ``a`` is read by three recorded nodes and the node ``m`` is
    # reached along two paths, through ``p`` and through ``q``; the closures
    # run in the order the walk gave them when it also pushed leaves, and
    # ``a`` sums its contributions in the order they arrive
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal(5), requires_grad=True)
    c = Tensor(rng.standard_normal(5))
    u, v, w = a * c, a.exp(), a ** 2.0
    m = u + v
    p, q = m.exp(), m * w
    s = p + q
    loss = s.sum()
    ran, into_a = [], []
    for name, t in dict(loss=loss, s=s, p=p, q=q, m=m, u=u, v=v, w=w).items():
        def closure(g, name=name, back=t._backward):
            ran.append(name)
            back(g)
        t._backward = closure
    accum = Tensor._accum

    def logging_accum(self, g):
        if self is a:
            # closures do not nest, so the last one to start is running
            into_a.append((ran[-1], np.array(g)))
        accum(self, g)
    monkeypatch.setattr(Tensor, "_accum", logging_accum)
    loss.backward()
    assert ran == ["loss", "s", "p", "q", "m", "u", "v", "w"]
    assert [name for name, _ in into_a] == ["u", "v", "w"]
    (_, g1), (_, g2), (_, g3) = into_a
    assert np.array_equal(a.grad, (g1 + g2) + g3)


def test_mlp_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(10)
    w1 = Tensor(rng.standard_normal((5, 4)) * 0.5, requires_grad=True)
    b1 = Tensor(np.zeros(4), requires_grad=True)
    w2 = Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)
    b2 = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(rng.standard_normal((6, 5)))
    labels = rng.integers(0, 3, 6)

    def loss_fn():
        h = (x @ w1 + b1).relu()
        return cross_entropy_hard(h @ w2 + b2, labels)

    report = grad_check(loss_fn, {"w1": w1, "b1": b1, "w2": w2, "b2": b2},
                        tolerance=1e-4)
    assert report.passed, report.failures()


# -- optimizers ---------------------------------------------------------------

def test_adam_first_step_matches_hand_formula():
    g = np.array([0.3, -1.7])
    w = Tensor([1.0, 1.0], requires_grad=True)
    w.grad = g.copy()
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    Adam({"w": w}, lr).step()
    mhat = (1 - b1) * g / (1 - b1)
    vhat = (1 - b2) * g * g / (1 - b2)
    expected = np.ones(2) - lr * mhat / (np.sqrt(vhat) + eps)
    assert np.max(np.abs(w.data - expected)) <= 1e-12


def test_optimizer_step_group_isolation():
    rng = np.random.default_rng(11)
    params = {}
    for group in ("theta_s", "phi_s", "eps_s"):
        t = Tensor(rng.standard_normal(4), requires_grad=True)
        t.grad = rng.standard_normal(4)
        params[f"{group}.w"] = t
    before = {name: t.data.tobytes() for name, t in params.items()}
    Adam({"theta_s.w": params["theta_s.w"]}, 1e-2).step()
    after = {name: t.data.tobytes() for name, t in params.items()}
    assert before["theta_s.w"] != after["theta_s.w"]
    assert before["phi_s.w"] == after["phi_s.w"]
    assert before["eps_s.w"] == after["eps_s.w"]


def test_optimizer_step_missing_gradient_raises():
    opt = Adam({"w": Tensor([1.0], requires_grad=True)}, 0.1)
    with pytest.raises(GradError, match="missing gradient"):
        opt.step()


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(12)
        w = Tensor(rng.standard_normal(8), requires_grad=True)
        opt = Adam({"w": w}, 1e-3)
        for _ in range(25):
            w.zero_grad()
            (w * w).sum().backward()
            opt.step()
        return w.data.tobytes()

    assert run() == run()


# -- grad_check on layers -----------------------------------------------------

def test_grad_check_linear_layer():
    rng = np.random.default_rng(13)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    x = Tensor(rng.standard_normal((5, 4)))

    def loss_fn():
        return ((x @ w + b) ** 2).mean()

    report = grad_check(loss_fn, {"w": w, "b": b}, tolerance=1e-8)
    assert report.passed, report.failures()


def test_grad_check_conv_layer():
    rng = np.random.default_rng(14)
    w = Tensor(rng.standard_normal((2, 1, 3, 3)) * 0.5, requires_grad=True)
    x = Tensor(rng.standard_normal((2, 1, 6, 6)))

    def loss_fn():
        return (maxpool2x2(conv2d(x, w, padding=1).relu()) ** 2).mean()

    report = grad_check(loss_fn, {"w": w}, tolerance=1e-6)
    assert report.passed, report.failures()
