import numpy as np
import pytest

from duoadapt import train as train_module
from duoadapt.autodiff import Adam, GradError, Tensor
from duoadapt.data import Dataset, PdaTaskSpec, gen_synthetic_pda
from duoadapt.model import (Checkpoint, build_models, extract, named_buffers,
                            parameter_groups)
from duoadapt.train import (STEP_MAP, TRACE_COLUMNS, BatchSampler, ModelConfig,
                            RewardTrace, StepId, TraceRow, TrainConfig,
                            build_extractor, build_pair, compute_reward,
                            ensemble_accuracy, extract_dataset,
                            pretrain_contrastive, run_epoch,
                            run_step, selection_study, stopping_check,
                            train_interactive, train_source_only_baseline)

FAST = TrainConfig(pretrain_epochs=2, epochs=2, iters_per_step=2,
                   batch_size=16, desired_reward=1.0)
SMALL = ModelConfig(feature_dim=8, mlp_hidden=(16,), proj_dim=4,
                    rda_hidden=(12, 8, 12), clf_hidden=(10, 8))


def _task(seed=0, **kw):
    kw.setdefault("source_classes", 2)
    kw.setdefault("target_classes", (0, 1))
    kw.setdefault("samples_per_class", 16)
    return gen_synthetic_pda(PdaTaskSpec(seed=seed, **kw))


def _pretrained_pair(source, target, cfg=FAST, model_cfg=SMALL):
    in_dim = source.inputs.shape[-1]
    g_s = build_extractor(model_cfg, in_dim, cfg.seed)
    g_t = build_extractor(model_cfg, in_dim, cfg.seed)
    pretrain_contrastive(g_s, source, cfg, rng=np.random.default_rng(1))
    pretrain_contrastive(g_t, target, cfg, rng=np.random.default_rng(2))
    n_classes = max(source.labels) + 1
    return build_models(n_classes, g_s, g_t, seed=3,
                        rda_hidden=model_cfg.rda_hidden,
                        clf_hidden=model_cfg.clf_hidden)


def _feature_sampler(ms, source, target, batch_size, seed):
    """A sampler over the frozen features of both domains, as in training."""
    return BatchSampler(extract_dataset(ms, source, "source"),
                        extract_dataset(ms, target, "target"),
                        batch_size, np.random.default_rng(seed))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(desired_reward=0.0)
    with pytest.raises(ValueError):
        TrainConfig(desired_reward=1.5)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=1)


def test_step_map_schedule():
    assert STEP_MAP[StepId.S1_train_Cs] == ("L_s_s", "theta_s")
    assert STEP_MAP[StepId.S2_align_Fs] == ("MMD_s", "phi_s")
    assert STEP_MAP[StepId.S3_guide_Ct] == ("L_t_t", "theta_t")
    assert STEP_MAP[StepId.S4_align_Ft] == ("MMD_t", "phi_t")
    assert STEP_MAP[StepId.S5_source_Ct] == ("L_t_s", "theta_t")
    assert STEP_MAP[StepId.S6_feedback_Fs] == ("L_st_t", "phi_s")
    # frozen extractor groups are never scheduled
    scheduled = {g for _, g in STEP_MAP.values()}
    assert scheduled == {"theta_s", "theta_t", "phi_s", "phi_t"}


def test_reward_trace_validation_and_csv():
    trace = RewardTrace(config_hash="deadbeef")
    losses = {c: 0.5 for c in TRACE_COLUMNS[2:8]}
    trace.append(TraceRow(1, 0.25, losses, "epoch_1", 0.5))
    with pytest.raises(ValueError, match="out of"):
        trace.append(TraceRow(2, 1.5, losses, "epoch_2"))
    with pytest.raises(ValueError, match="strictly increase"):
        trace.append(TraceRow(1, 0.5, losses, "epoch_1b"))
    trace.append(TraceRow(2, 0.75, losses, "epoch_2"))
    csv_text = trace.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[2] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 5


def test_batch_sampler_shapes_and_determinism():
    source, target, _ = _task(samples_per_class=20)
    s1 = BatchSampler(source, target, 8, np.random.default_rng(5))
    s2 = BatchSampler(source, target, 8, np.random.default_rng(5))
    x1, y1 = s1.source_batch()
    x2, y2 = s2.source_batch()
    assert x1.shape == (8, 8) and len(y1) == 8
    assert np.array_equal(x1.data, x2.data) and y1 == y2
    t1 = s1.target_batch()
    assert t1.shape == (8, 8)
    # batch is capped at the dataset size
    tiny = Dataset(Tensor(np.ones((3, 2))), [0, 1, 0], "source")
    s3 = BatchSampler(tiny, target, 8, np.random.default_rng(6))
    xb, yb = s3.source_batch()
    assert xb.shape[0] == 3 and sorted(yb) == [0, 0, 1]


def test_pretrain_reduces_loss_and_freezes():
    source, _, _ = _task(samples_per_class=32, class_separation=4.0)
    cfg = TrainConfig(pretrain_epochs=6, epochs=1, iters_per_step=1,
                      batch_size=32)
    g = build_extractor(SMALL, 8, 0)
    history = pretrain_contrastive(g, source, cfg,
                                   rng=np.random.default_rng(7))
    assert len(history) == 6
    assert history[-1] < history[0]
    assert g.pretrained
    assert all(not t.requires_grad for t in g.named_parameters("G").values())


def test_pretraining_rejects_fewer_than_two_rows():
    # one row makes no contrastive pair and no batch statistics
    source, _, _ = _task()
    one = Dataset(Tensor(source.inputs.data[:1]), source.labels[:1], source.domain)
    with pytest.raises(ValueError, match="at least 2 rows, got 1"):
        pretrain_contrastive(build_extractor(SMALL, 8, 0), one, FAST)


def test_pretraining_zero_norm_row_names_epoch_and_batch():
    # proj2's bias starts at zero, so a row whose proj1 ReLU units are all
    # off projects to exactly zero; on this task and seed that happens in
    # the first batch, and the failure is reported rather than clamped
    source, target, eval_target = gen_synthetic_pda(PdaTaskSpec(
        seed=5, source_classes=2, target_classes=(0, 1), samples_per_class=24,
        rotation_angle=0.5))
    model_cfg = ModelConfig(feature_dim=8, mlp_hidden=(16,), proj_dim=4,
                            rda_hidden=(16, 8, 16), clf_hidden=(16, 8))
    cfg = TrainConfig(seed=5, epochs=1, iters_per_step=1)
    with pytest.raises(ValueError, match="pretraining epoch 1, batch 1: "
                                         "nt_xent: zero-norm row"):
        train_interactive(source, target, cfg, model_cfg, eval_target)


def test_run_step_touches_only_its_group():
    source, target, _ = _task(seed=1)
    ms, mt = _pretrained_pair(source, target)
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    entries = {n: t for g in groups.values() for n, t in g.items()}
    sampler = _feature_sampler(ms, source, target, 16, 8)
    for step in StepId:
        _, group = STEP_MAP[step]
        before = {n: t.data.tobytes() for n, t in entries.items()}
        run_step(step, ms, mt, sampler, FAST, optimizers)
        for name, t in entries.items():
            changed = t.data.tobytes() != before[name]
            if name in groups[group]:
                assert changed, f"{step.name}: {name} should move"
            else:
                assert not changed, f"{step.name}: {name} must stay"


def test_run_step_leaves_gradients_only_on_its_group():
    # every other group is frozen for the step, the teacher's included, so
    # its forward records no graph and the backward reaches only the group
    source, target, _ = _task(seed=1)
    ms, mt = _pretrained_pair(source, target)
    groups = parameter_groups(ms, mt)
    entries = {n: t for g in groups.values() for n, t in g.items()}
    flags = {name: t.requires_grad for name, t in entries.items()}
    # trainable RDA and head weights, frozen extractor weights
    assert any(flags.values()) and not all(flags.values())
    seen = []

    class Spy(Adam):
        def step(self):
            seen.append({n for n, t in entries.items() if t.requires_grad})
            super().step()

    optimizers = {g: Spy(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    sampler = _feature_sampler(ms, source, target, 16, 8)
    for step in StepId:
        _, group = STEP_MAP[step]
        seen.clear()
        run_step(step, ms, mt, sampler, FAST, optimizers)
        for name, t in entries.items():
            if name not in groups[group]:
                assert t.grad is None, f"{step.name}: {name} got a gradient"
        assert seen == [set(groups[group])] * FAST.iters_per_step, step.name
        assert {n: t.requires_grad for n, t in entries.items()} == flags

    class Failing(Adam):
        def step(self):
            raise FloatingPointError("non-finite")

    with pytest.raises(FloatingPointError, match="S6_feedback_Fs"):
        run_step(StepId.S6_feedback_Fs, ms, mt, sampler, FAST,
                 {"phi_s": Failing(groups["phi_s"], 1e-3)})
    assert {n: t.requires_grad for n, t in entries.items()} == flags


def _buffer_owners(ms, mt):
    """Snapshot of every batch norm's running buffers, and a function that
    names the batch norms (by module prefix) whose buffers have changed."""
    buffers = named_buffers(ms, mt)
    before = {n: b.copy() for n, b in buffers.items()}

    def changed():
        return {n.split(".bns")[0] for n, b in buffers.items()
                if not np.array_equal(b, before[n])}
    return changed


def test_run_step_updates_running_stats_of_its_students_only():
    # each step's students run in "train" mode and fold their batch
    # statistics into the running buffers; the S3/S6 teacher runs in
    # "teacher" mode and the own-domain RDA block is never called
    source, target, _ = _task(source_classes=3, samples_per_class=24)
    ms, mt = _pretrained_pair(source, target)
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    sampler = _feature_sampler(ms, source, target, 16, 19)
    students = {StepId.S1_train_Cs: {"Ms.Cs"}, StepId.S2_align_Fs: {"Ms.Fs"},
                StepId.S3_guide_Ct: {"Mt.Ct"}, StepId.S4_align_Ft: {"Mt.Ft"},
                StepId.S5_source_Ct: {"Mt.Ct", "Mt.Ft"},
                StepId.S6_feedback_Fs: {"Ms.Cs", "Ms.Fs"}}
    for step in StepId:
        changed = _buffer_owners(ms, mt)
        run_step(step, ms, mt, sampler, FAST, optimizers)
        assert changed() == students[step], step.name


def test_eval_passes_leave_buffers_and_dropout_stream_untouched():
    source, target, eval_target = _task(seed=3)
    ms, mt = _pretrained_pair(source, target)
    changed = _buffer_owners(ms, mt)
    streams = {id(s.rng): s.rng for m in (ms, mt) for s in (m.rda, m.classifier)}
    states = {k: g.bit_generator.state for k, g in streams.items()}
    compute_reward(ms, mt, extract(ms, target.inputs, "target"))
    ensemble_accuracy(ms, mt, eval_target)
    assert changed() == set()
    assert {k: g.bit_generator.state for k, g in streams.items()} == states


def test_missing_gradient_names_epoch_step_group_and_parameter(monkeypatch):
    # a loss that never reaches the trained group leaves it without gradients
    source, target, _ = _task(seed=1)
    ms, mt = _pretrained_pair(source, target)
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    sampler = _feature_sampler(ms, source, target, 16, 8)
    stray = Tensor([1.0], requires_grad=True)
    monkeypatch.setattr(train_module, "_step_loss", lambda *args: (stray * stray).sum())
    first = next(iter(groups["theta_s"]))
    with pytest.raises(GradError) as info:
        run_epoch(ms, mt, sampler, FAST, optimizers, RewardTrace(), 2)
    assert str(info.value) == ("epoch 2: step S1_train_Cs, group theta_s: "
                               f"missing gradient for parameter '{first}'")


def test_compute_reward_agreement():
    source, target, _ = _task(seed=2)
    ms, mt = _pretrained_pair(source, target)
    z_t = extract(ms, target.inputs, "target")
    r = compute_reward(ms, mt, z_t)
    assert 0.0 <= r <= 1.0
    # a model always agrees with itself
    assert compute_reward(ms, ms, z_t) == 1.0
    with pytest.raises(ValueError, match="empty"):
        compute_reward(ms, mt, Tensor(np.zeros((0, 8))))


def test_run_epoch_records_all_losses():
    source, target, eval_target = _task(seed=3)
    ms, mt = _pretrained_pair(source, target)
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    sampler = _feature_sampler(ms, source, target, 16, 9)
    trace = RewardTrace()
    row = run_epoch(ms, mt, sampler, FAST, optimizers, trace, 1,
                    eval_target=extract_dataset(ms, eval_target, "target"))
    assert set(row.losses) == set(TRACE_COLUMNS[2:8])
    assert all(np.isfinite(v) for v in row.losses.values())
    assert 0.0 <= row.V <= 1.0
    assert row.checkpoint_id == "epoch_1"
    assert row.target_accuracy is not None
    assert trace.rows == [row]


def test_stopping_check_threshold_budget_and_tie_break():
    losses = {c: 0.0 for c in TRACE_COLUMNS[2:8]}
    cfg = TrainConfig(epochs=5, desired_reward=0.9)
    trace = RewardTrace()
    trace.append(TraceRow(1, 0.7, losses, "epoch_1"))
    assert stopping_check(trace, cfg) == ("continue", "epoch_1")
    trace.append(TraceRow(2, 0.95, losses, "epoch_2"))
    assert stopping_check(trace, cfg) == ("stop", "epoch_2")
    # ties go to the earliest epoch; budget exhaustion also stops
    trace2 = RewardTrace()
    for e in range(1, 6):
        trace2.append(TraceRow(e, 0.8 if e in (2, 4) else 0.6, losses,
                               f"epoch_{e}"))
    assert stopping_check(trace2, cfg) == ("stop", "epoch_2")


def test_train_interactive_end_to_end_and_determinism():
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=24, class_separation=4.0, seed=4)
    source, target, eval_target = gen_synthetic_pda(spec)
    cfg = TrainConfig(pretrain_epochs=2, epochs=2, iters_per_step=3,
                      batch_size=16, desired_reward=1.0, seed=4)
    r1 = train_interactive(source, target, cfg, SMALL, eval_target)
    r2 = train_interactive(source, target, cfg, SMALL, eval_target)
    assert r1.trace.to_csv() == r2.trace.to_csv()
    assert r1.best_checkpoint_id == f"epoch_{r1.best.epoch}"
    assert r1.best.reward == max(row.V for row in r1.trace.rows)
    # returned models carry the best checkpoint's weights
    entries = {n: t for g in parameter_groups(r1.ms, r1.mt).values()
               for n, t in g.items()}
    for name, arr in r1.best.arrays.items():
        if not name.startswith("buffer:"):
            assert np.array_equal(entries[name].data, arr), name


def test_train_interactive_captures_only_new_best_epochs(monkeypatch):
    # V by epoch is 0.271, 0.375, 0.354, 0.5, 0.417: epochs 1, 2 and 4 are
    # each a new best, and the selected epoch is not the last
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=24, class_separation=3.0,
                       rotation_angle=0.5, seed=4)
    source, target, eval_target = gen_synthetic_pda(spec)
    cfg = TrainConfig(pretrain_epochs=2, epochs=5, iters_per_step=3,
                      batch_size=16, desired_reward=1.0, seed=4)
    captured = []
    original = Checkpoint.capture

    def recording(ms, mt, epoch, *args):
        captured.append(epoch)
        return original(ms, mt, epoch, *args)
    monkeypatch.setattr(Checkpoint, "capture", recording)
    result = train_interactive(source, target, cfg, SMALL, eval_target)

    rows = result.trace.rows
    new_best = [r.epoch for i, r in enumerate(rows)
                if all(r.V > p.V for p in rows[:i])]
    assert captured == new_best == [1, 2, 4]
    top = max(r.V for r in rows)
    best_row = next(r for r in rows if r.V == top)
    assert result.best.epoch == best_row.epoch
    assert result.best_checkpoint_id == best_row.checkpoint_id
    assert ensemble_accuracy(result.ms, result.mt, eval_target) \
        == best_row.target_accuracy


def test_train_interactive_extracts_shared_target_inputs_once(monkeypatch):
    source, target, eval_target = _task(seed=6)
    assert eval_target.inputs is target.inputs
    calls = []
    original = train_module.extract

    def counting(model, x, domain_of_x):
        calls.append(domain_of_x)
        return original(model, x, domain_of_x)
    monkeypatch.setattr(train_module, "extract", counting)
    shared = train_interactive(source, target, FAST, SMALL, eval_target)
    assert calls == ["source", "target"]
    # a separate copy of the same inputs is extracted on its own, with the
    # same features and therefore the same trace
    calls.clear()
    copy = Dataset(Tensor(eval_target.inputs.data.copy()), eval_target.labels,
                   eval_target.domain)
    separate = train_interactive(source, target, FAST, SMALL, copy)
    assert calls == ["source", "target", "target"]
    assert shared.trace.to_csv() == separate.trace.to_csv()


def test_train_interactive_stops_at_desired_reward():
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=50, class_separation=6.0, seed=0)
    source, target, eval_target = gen_synthetic_pda(spec)
    cfg = TrainConfig(pretrain_epochs=2, epochs=10, iters_per_step=40,
                      batch_size=64, desired_reward=1.0, seed=0)
    result = train_interactive(source, target, cfg, SMALL, eval_target)
    # easy well-separated task: full agreement well before the epoch budget
    assert result.trace.rows[-1].V == 1.0
    assert len(result.trace.rows) < cfg.epochs


def test_train_interactive_requires_labels():
    source, target, _ = _task()
    with pytest.raises(ValueError, match="labeled"):
        train_interactive(source.without_labels(), target, FAST, SMALL)


def test_source_only_baseline_learns_source():
    spec = PdaTaskSpec(source_classes=2, target_classes=(0, 1),
                       samples_per_class=40, class_separation=5.0, seed=5)
    source, _, eval_target = gen_synthetic_pda(spec)
    cfg = TrainConfig(pretrain_epochs=2, epochs=2, iters_per_step=10,
                      batch_size=32, seed=5)
    result = train_source_only_baseline(source, cfg, SMALL, eval_target)
    # zero shift: the source-only classifier transfers essentially intact
    assert result.target_accuracy is not None
    assert result.target_accuracy > 0.8


def test_selection_study_regrets():
    losses = {c: 0.0 for c in TRACE_COLUMNS[2:8]}
    trace = RewardTrace()
    rows = [(1, 0.5, 3.0, 0.60), (2, 0.9, 2.0, 0.80), (3, 0.7, 1.0, 0.90)]
    for e, v, loss_val, acc in rows:
        l = dict(losses)
        l["L_s_s"] = loss_val
        trace.append(TraceRow(e, v, l, f"epoch_{e}", acc))
    out = selection_study(trace)
    assert out["epoch_argmax_V"] == 2.0
    assert out["epoch_argmin_loss"] == 3.0
    assert out["epoch_true_best"] == 3.0
    assert abs(out["regret_V_rule"] - 0.10) <= 1e-12
    assert out["regret_loss_rule"] == 0.0
    trace.rows[0].target_accuracy = None
    with pytest.raises(ValueError, match="accuracies"):
        selection_study(trace)


def test_graph_nodes_per_backward_stay_small(monkeypatch):
    # one epoch of the schedule with the default model: each layer and loss
    # is one graph node (114 nodes per backward when they were composed),
    # and every node recorded before a backward is reachable from its loss
    source, target, _ = _task(samples_per_class=40)
    cfg = TrainConfig(iters_per_step=2, batch_size=32)
    ms, mt = build_pair(ModelConfig(), 2, source.inputs.shape[-1], seed=0)
    ms.extractor_s.mark_pretrained()
    ms.extractor_t.mark_pretrained()
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    sampler = _feature_sampler(ms, source, target, cfg.batch_size, 0)
    counts = {"nodes": 0, "backward": 0}
    recorded = []
    from_op, backward = Tensor._from_op, Tensor.backward

    def counting_from_op(data, parents, op, back):
        out = from_op(data, parents, op, back)
        if out._backward is not None:
            counts["nodes"] += 1
            recorded.append(out)
        return out

    def counting_backward(self):
        counts["backward"] += 1
        reached, stack = set(), [self]
        while stack:
            node = stack.pop()
            if id(node) not in reached:
                reached.add(id(node))
                stack.extend(node._parents)
        unused = [t._op for t in recorded if id(t) not in reached]
        assert not unused, f"nodes no backward reaches: {unused}"
        recorded.clear()
        backward(self)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting_from_op))
    monkeypatch.setattr(Tensor, "backward", counting_backward)
    for step in StepId:
        run_step(step, ms, mt, sampler, cfg, optimizers)
    assert counts["backward"] == 6 * cfg.iters_per_step
    assert counts["nodes"] / counts["backward"] <= 30, counts


def test_interactive_steps_record_at_most_three_nodes_per_backward(monkeypatch):
    # each dense stack is one node and only the trained group records any:
    # a classifier step is the stack and its loss, an alignment step the RDA
    # stack and the MMD node, and S6 the RDA stack, the classifier stack and
    # the loss (about 16 nodes per backward with a node per layer)
    source, target, _ = _task(samples_per_class=40)
    cfg = TrainConfig(iters_per_step=2, batch_size=32)
    ms, mt = build_pair(ModelConfig(), 2, source.inputs.shape[-1], seed=0)
    ms.extractor_s.mark_pretrained()
    ms.extractor_t.mark_pretrained()
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], 1e-3)
                  for g in ("phi_s", "phi_t", "theta_s", "theta_t")}
    sampler = _feature_sampler(ms, source, target, cfg.batch_size, 0)
    recorded, per_backward = [], {}
    from_op, backward = Tensor._from_op, Tensor.backward

    def counting_from_op(data, parents, op, back):
        out = from_op(data, parents, op, back)
        if out._backward is not None:
            recorded.append(op)
        return out

    def counting_backward(self):
        per_backward.setdefault(step.name, []).append(len(recorded))
        recorded.clear()
        backward(self)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting_from_op))
    monkeypatch.setattr(Tensor, "backward", counting_backward)
    for step in StepId:
        run_step(step, ms, mt, sampler, cfg, optimizers)
    assert len(per_backward) == 6
    assert max(n for counts in per_backward.values() for n in counts) <= 3, per_backward


def test_pretraining_graph_nodes_per_backward_stay_small(monkeypatch):
    # the default MLP records one node per layer in each of the two branches
    # (linear, relu, linear; linear, relu, linear) plus one for nt_xent: 13
    # per backward (41 when nt_xent was composed of generic ops)
    source, _, _ = _task(samples_per_class=40)
    extractor = build_extractor(ModelConfig(), source.inputs.shape[-1], 0)
    counts = {"nodes": 0, "backward": 0}
    from_op, backward = Tensor._from_op, Tensor.backward

    def counting_from_op(data, parents, op, back):
        out = from_op(data, parents, op, back)
        counts["nodes"] += out._backward is not None
        return out

    def counting_backward(self):
        counts["backward"] += 1
        backward(self)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting_from_op))
    monkeypatch.setattr(Tensor, "backward", counting_backward)
    pretrain_contrastive(extractor, source,
                         TrainConfig(pretrain_epochs=1, batch_size=32))
    assert counts["backward"] == 3
    assert counts["nodes"] / counts["backward"] <= 13, counts
