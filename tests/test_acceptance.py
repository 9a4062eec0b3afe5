"""End-to-end acceptance checks for the whole package.

Each test prints a single PASS line (visible under ``pytest -s``);
a test failure is the corresponding FAIL.
"""
import math
import time

import numpy as np
import pytest

from duoadapt.autodiff import (Adam, Tensor, conv2d, grad_check, maxpool2x2)
from duoadapt.data import (PdaTaskSpec, _class_means, gen_synthetic_pda)
from duoadapt.losses import (KernelSpec, cross_entropy_hard, cross_entropy_soft,
                             mmd_squared, nt_xent)
from duoadapt.model import (MlpExtractor, RdaBlock, build_models,
                            classifier_logits, extract, load_checkpoint,
                            parameter_groups, rda_forward, save_checkpoint)
from duoadapt.train import (STEP_MAP, BatchSampler, ModelConfig, StepId,
                            TrainConfig, build_extractor, extract_dataset,
                            pretrain_contrastive, run_step, selection_study,
                            train_interactive, train_source_only_baseline)

N_SEEDS = 5


def _shifted_task(seed):
    """Partial-shift task whose offset drags the shared classes toward an
    absent source class, so a source-only classifier misreads the target."""
    base = dict(source_classes=4, target_classes=(0, 1), samples_per_class=200,
                dim=8, class_separation=3.0, rotation_angle=0.5)
    probe = PdaTaskSpec(seed=seed, **base)
    means = _class_means(probe, np.random.default_rng(seed + 7919))
    offset = tuple(means[2] - means[0])
    return PdaTaskSpec(seed=seed, mean_offset=offset, **base)


@pytest.fixture(scope="module")
def shifted_study():
    """Five-seed adapted-vs-baseline study shared by criteria 5 and 6."""
    runs = []
    for seed in range(N_SEEDS):
        spec = _shifted_task(seed)
        source, target, eval_target = gen_synthetic_pda(spec)
        cfg = TrainConfig(epochs=10, iters_per_step=20, desired_reward=1.0,
                          seed=seed)
        result = train_interactive(source, target, cfg, eval_target=eval_target)
        baseline = train_source_only_baseline(result.prepared, cfg,
                                              eval_target=eval_target)
        best_row = next(r for r in result.trace.rows
                        if r.checkpoint_id == result.best_checkpoint_id)
        runs.append({
            "adapted": best_row.target_accuracy,
            "baseline": baseline.target_accuracy,
            "study": selection_study(result.trace),
        })
    return runs


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(0)

    # linear layer at the tight tolerance (quadratic loss: finite differences
    # are exact up to roundoff, so keep the instance well conditioned)
    w = Tensor(rng.standard_normal((6, 4)) * 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal(4) * 0.5, requires_grad=True)
    x = Tensor(rng.standard_normal((8, 6)) * 0.5)
    rep = grad_check(lambda: ((x @ w + b) ** 2).mean(), {"w": w, "b": b},
                     tolerance=1e-8)
    assert rep.passed, rep.failures()

    # conv + pool + relu
    cw = Tensor(rng.standard_normal((2, 1, 3, 3)) * 0.5, requires_grad=True)
    cx = Tensor(rng.standard_normal((2, 1, 6, 6)))
    rep = grad_check(lambda: (maxpool2x2(conv2d(cx, cw, padding=1).relu()) ** 2)
                     .mean(), {"cw": cw}, tolerance=1e-6)
    assert rep.passed, rep.failures()

    # every loss
    o = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    rep = grad_check(lambda: nt_xent(o, a, 0.7),
                     {"o": o, "a": a}, tolerance=1e-4)
    assert rep.passed, rep.failures()

    ma = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    mb = Tensor(rng.standard_normal((4, 3)) + 0.5, requires_grad=True)
    kernel = KernelSpec(bandwidths=[1.0, 4.0])
    rep = grad_check(lambda: mmd_squared(ma, mb, kernel), {"a": ma, "b": mb},
                     tolerance=1e-4)
    assert rep.passed, rep.failures()

    logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    labels = rng.integers(0, 3, 5)
    rep = grad_check(lambda: cross_entropy_hard(logits, labels),
                     {"logits": logits}, tolerance=1e-4)
    assert rep.passed, rep.failures()

    s = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    t = Tensor(rng.standard_normal((4, 3)))
    rep = grad_check(lambda: cross_entropy_soft(s, t), {"s": s},
                     tolerance=1e-4)
    assert rep.passed, rep.failures()

    # composed cross-domain path: frozen extractor -> RDA residual -> head
    gs = MlpExtractor(5, np.random.default_rng(1), hidden=(8,), feature_dim=6,
                      proj_dim=4)
    gt = MlpExtractor(5, np.random.default_rng(1), hidden=(8,), feature_dim=6,
                      proj_dim=4)
    for g in (gs, gt):
        g.freeze()
        g.pretrained = True
    ms, mt = build_models(ModelConfig(rda_hidden=(6, 6, 6), clf_hidden=(6,),
                                      dropout_p=0.0), 3, gs, gt, 2)
    zt = extract(ms, Tensor(rng.standard_normal((6, 5))), "target")
    ys = rng.integers(0, 3, 6)
    groups = parameter_groups(ms, mt)
    trainable = {**groups["phi_s"], **groups["theta_s"]}
    rep = grad_check(lambda: cross_entropy_hard(
        classifier_logits(ms, zt, "target", "eval"), ys), trainable, tolerance=1e-4)
    assert rep.passed, rep.failures()

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 gradient fidelity: PASS ({elapsed:.1f}s)")


def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        o = rng.standard_normal((n, d))
        a = rng.standard_normal((n, d))
        temp = float(rng.uniform(0.2, 2.0))
        got = nt_xent(Tensor(o), Tensor(a), temp).item()
        on = o / np.linalg.norm(o, axis=1, keepdims=True)
        an = a / np.linalg.norm(a, axis=1, keepdims=True)
        total = 0.0
        for i in range(n):
            pos = math.exp(float(an[i] @ on[i]) / temp)
            denom = 0.0
            for j in range(n):
                denom += math.exp(float(an[i] @ on[j]) / temp)
                if j != i:
                    denom += math.exp(float(an[i] @ an[j]) / temp)
            total += -math.log(pos / denom)
        worst = max(worst, abs(got - total / n))
    assert worst <= 1e-10

    worst_mmd = 0.0
    for _ in range(20):
        na, nb = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        xa = rng.standard_normal((na, d))
        xb = rng.standard_normal((nb, d)) + rng.uniform(-1, 1)
        bws = rng.uniform(0.3, 5.0, int(rng.integers(1, 4))).tolist()
        kernel = KernelSpec(bandwidths=bws)
        got = mmd_squared(Tensor(xa), Tensor(xb), kernel).item()
        expected = 0.0
        for bw in bws:
            kaa = np.mean([[math.exp(-float(np.sum((u - v) ** 2)) / (2 * bw))
                            for v in xa] for u in xa])
            kbb = np.mean([[math.exp(-float(np.sum((u - v) ** 2)) / (2 * bw))
                            for v in xb] for u in xb])
            kab = np.mean([[math.exp(-float(np.sum((u - v) ** 2)) / (2 * bw))
                            for v in xb] for u in xa])
            expected += kaa + kbb - 2 * kab
        worst_mmd = max(worst_mmd, abs(got - expected))
    assert worst_mmd <= 1e-10
    print(f"\nACCEPTANCE 2 loss oracles: PASS (nt_xent err {worst:.2e}, "
          f"mmd err {worst_mmd:.2e})")


def test_criterion_3_identity_channel_exactness():
    rng = np.random.default_rng(7)
    for trial in range(100):
        dim = int(rng.integers(2, 12))
        block = RdaBlock(dim, "source" if trial % 2 == 0 else "target",
                         np.random.default_rng(trial), hidden=(8, 8),
                         dropout_p=0.1)
        z = Tensor(rng.standard_normal((int(rng.integers(2, 9)), dim)),
                   requires_grad=True)
        out = rda_forward(block, z, block.own_domain, "train")
        assert out is z  # bit-identical, not a copy
        (out * out).sum().backward()
        for name, p in block.named_parameters("F").items():
            assert p.grad is None, f"trial {trial}: {name} received gradient"
    print("\nACCEPTANCE 3 identity channel: PASS (100 batches)")


def test_criterion_4_schedule_isolation():
    spec = PdaTaskSpec(source_classes=3, target_classes=(0, 1),
                       samples_per_class=24, seed=0)
    source, target, _ = gen_synthetic_pda(spec)
    cfg = TrainConfig(pretrain_epochs=2, epochs=3, iters_per_step=2,
                      batch_size=16, seed=0)
    model_cfg = ModelConfig(feature_dim=8, mlp_hidden=(16,), proj_dim=4,
                            rda_hidden=(12, 8, 12), clf_hidden=(10, 8))
    g_s = build_extractor(model_cfg, 8, cfg.seed)
    g_t = build_extractor(model_cfg, 8, cfg.seed)
    pretrain_contrastive(g_s, source, cfg, rng=np.random.default_rng(11))
    pretrain_contrastive(g_t, target, cfg, rng=np.random.default_rng(13))
    ms, mt = build_models(model_cfg, 3, g_s, g_t, 17)
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    entries = {n: t for g in groups.values() for n, t in g.items()}
    sampler = BatchSampler(extract_dataset(ms, source, "source"),
                           extract_dataset(ms, target, "target"), 16,
                           np.random.default_rng(19))
    checks = 0
    for epoch in range(3):
        for step in StepId:
            _, group, _ = STEP_MAP[step]
            before = {n: t.data.tobytes() for n, t in entries.items()}
            run_step(step, ms, mt, sampler, cfg, optimizers)
            member = groups[group]
            for name, t in entries.items():
                changed = t.data.tobytes() != before[name]
                assert changed == (name in member), (epoch, step.name, name)
            checks += 1
    assert checks == 18
    print("\nACCEPTANCE 4 schedule isolation: PASS (18 step-level byte checks)")


def test_criterion_5_partial_shift_efficacy(shifted_study):
    gains = sorted(r["adapted"] - r["baseline"] for r in shifted_study)
    median_gain = float(np.median(gains))
    adapted = [r["adapted"] for r in shifted_study]
    baseline = [r["baseline"] for r in shifted_study]
    assert median_gain >= 0.10, (
        f"median gain {median_gain:.3f} (adapted {adapted}, baseline {baseline})")
    print(f"\nACCEPTANCE 5 partial-shift efficacy: PASS (median gain "
          f"{median_gain:.3f} over {N_SEEDS} seeds; adapted "
          f"{[round(a, 2) for a in adapted]}, baseline "
          f"{[round(b, 2) for b in baseline]})")


def test_criterion_6_stopping_rule_reliability(shifted_study):
    regret_v = float(np.median([r["study"]["regret_V_rule"]
                                for r in shifted_study]))
    regret_loss = float(np.median([r["study"]["regret_loss_rule"]
                                   for r in shifted_study]))
    assert regret_v <= regret_loss, (regret_v, regret_loss)
    print(f"\nACCEPTANCE 6 stopping reliability: PASS (median regret: "
          f"reward rule {regret_v:.4f} <= loss rule {regret_loss:.4f})")


def test_criterion_7_agreement_convergence():
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=200, seed=0)
    source, target, eval_target = gen_synthetic_pda(spec)
    cfg = TrainConfig(epochs=5, iters_per_step=40, desired_reward=0.98, seed=0)
    result = train_interactive(source, target, cfg, eval_target=eval_target)
    best_v = max(r.V for r in result.trace.rows)
    assert best_v >= 0.98, [r.V for r in result.trace.rows]
    assert result.trace.rows[-1].epoch <= 5
    print(f"\nACCEPTANCE 7 agreement convergence: PASS (V={best_v:.3f} "
          f"at epoch {result.trace.rows[-1].epoch})")


def test_criterion_8_determinism_and_persistence(tmp_path):
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=24, class_separation=4.0, seed=4)
    source, target, eval_target = gen_synthetic_pda(spec)
    cfg = TrainConfig(pretrain_epochs=2, epochs=2, iters_per_step=3,
                      batch_size=16, desired_reward=1.0, seed=4)
    model_cfg = ModelConfig(feature_dim=8, mlp_hidden=(16,), proj_dim=4,
                            rda_hidden=(12, 8, 12), clf_hidden=(10, 8))
    r1 = train_interactive(source, target, cfg, model_cfg, eval_target,
                           config_hash="fixed")
    r2 = train_interactive(source, target, cfg, model_cfg, eval_target,
                           config_hash="fixed")
    assert r1.trace.to_csv() == r2.trace.to_csv()

    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, r1.best)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_checkpoint(p1)
    for name, arr in r1.best.arrays.items():
        assert loaded.arrays[name].tobytes() == arr.tobytes(), name
    print("\nACCEPTANCE 8 determinism & persistence: PASS")
