import math
import re
from dataclasses import replace

import numpy as np
import pytest

from duoadapt import model as model_module
from duoadapt import train as train_module
from duoadapt.autodiff import Adam, GradError, Tensor
from duoadapt.data import Dataset, PdaTaskSpec, gen_synthetic_pda
from duoadapt.losses import cross_entropy_hard, cross_entropy_soft, mmd_squared
from duoadapt.model import (Checkpoint, build_models, classifier_logits,
                            extract, named_buffers, parameter_groups,
                            rda_forward)
from duoadapt.train import (STEP_MAP, TRACE_COLUMNS, BatchSampler, ModelConfig,
                            RewardTrace, StepId, TraceRow, TrainConfig, adapt,
                            build_extractor, compute_reward,
                            ensemble_accuracy, extract_dataset,
                            prepare, pretrain_contrastive, run_step,
                            selection_study, train_interactive,
                            train_source_only_baseline)

FAST = TrainConfig(pretrain_epochs=2, epochs=2, iters_per_step=2,
                   batch_size=16, desired_reward=1.0)
SMALL = ModelConfig(feature_dim=8, mlp_hidden=(16,), proj_dim=4,
                    rda_hidden=(12, 8, 12), clf_hidden=(10, 8))
ADAPTATION_GROUPS = ("phi_s", "theta_s", "phi_t", "theta_t")


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
    return build_models(model_cfg, n_classes, g_s, g_t, 3)


def _fresh_pair(model_cfg, n_classes, in_dim, seed):
    """The source and target models around two extractors not yet
    pretrained, from ``seed``'s init as ``prepare`` and ``adapt`` build them."""
    return build_models(model_cfg, n_classes, build_extractor(model_cfg, in_dim, seed),
                        build_extractor(model_cfg, in_dim, seed), seed + 17)


def _feature_sampler(ms, source, target, batch_size, seed):
    """A sampler over the frozen features of both domains, as in training."""
    return BatchSampler(extract_dataset(ms, source, "source"),
                        extract_dataset(ms, target, "target"),
                        batch_size, np.random.default_rng(seed))


@pytest.mark.parametrize("key", ["temperature", "learning_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.5])
def test_train_config_rejects_a_nonpositive_or_nonfinite_rate(key, value):
    # NaN passes a "<= 0" check; a NaN temperature used to fail only later,
    # as a non-finite parameter at pretraining epoch 1, batch 1
    with pytest.raises(ValueError, match=re.escape(
            f"train.{key} must be positive and finite, got {value}")):
        TrainConfig(**{key: value})


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


@pytest.mark.parametrize("call, message", [
    (lambda: TrainConfig(seed=-1), "train.seed must be at least 0, got -1"),
    (lambda: ModelConfig(extractor="resnet"),
     "model.extractor must be one of mlp, conv_stack, got 'resnet'"),
    (lambda: BatchSampler(Dataset(Tensor(np.zeros((0, 2))), [], "source"),
                          Dataset(Tensor(np.zeros((2, 2))), None, "target"),
                          2, np.random.default_rng(0)),
     "empty dataset"),
    (lambda: prepare(_task()[0].without_labels(), _task()[1], FAST, SMALL),
     "source dataset must be labeled"),
], ids=["negative-train-seed", "unknown-extractor", "empty-sampler-source",
        "unlabeled-baseline-source"])
def test_bad_inputs_raise_naming_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_step_map_schedule():
    assert STEP_MAP[StepId.S1_train_Cs] == ("L_s_s", "theta_s", "source")
    assert STEP_MAP[StepId.S2_align_Fs] == ("MMD_s", "phi_s", "align")
    assert STEP_MAP[StepId.S3_guide_Ct] == ("L_t_t", "theta_t", "guide")
    assert STEP_MAP[StepId.S4_align_Ft] == ("MMD_t", "phi_t", "align")
    assert STEP_MAP[StepId.S5_source_Ct] == ("L_t_s", "theta_t", "source")
    assert STEP_MAP[StepId.S6_feedback_Fs] == ("L_st_t", "phi_s", "feedback")
    # frozen extractor groups are never scheduled
    scheduled = {g for _, g, _ in STEP_MAP.values()}
    assert scheduled == {"theta_s", "theta_t", "phi_s", "phi_t"}


def test_reward_trace_validation_and_csv():
    trace = RewardTrace(config_hash="deadbeef")
    losses = {c: 0.5 for c in TRACE_COLUMNS[2:8]}
    trace.append(TraceRow(1, 0.25, losses, 0.5))
    with pytest.raises(ValueError, match="out of"):
        trace.append(TraceRow(2, 1.5, losses))
    with pytest.raises(ValueError, match="strictly increase"):
        trace.append(TraceRow(1, 0.5, losses))
    trace.append(TraceRow(2, 0.75, losses))
    csv_text = trace.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[2] == ",".join(TRACE_COLUMNS)
    assert lines[3].endswith(",epoch_1,0.5") and lines[4].endswith(",epoch_2,")
    assert len(lines) == 5


def test_batch_sampler_shapes_and_determinism():
    source, target, _ = _task(samples_per_class=20)
    s1 = BatchSampler(source, target, 8, np.random.default_rng(5))
    s2 = BatchSampler(source, target, 8, np.random.default_rng(5))
    x1, y1 = s1.source_batch()
    x2, y2 = s2.source_batch()
    assert x1.shape == (8, 8) and len(y1) == 8
    assert np.array_equal(x1.data, x2.data) and np.array_equal(y1, y2)
    t1 = s1.target_batch()
    assert t1.shape == (8, 8)
    # batch is capped at the dataset size
    tiny = Dataset(Tensor(np.ones((3, 2))), [0, 1, 0], "source")
    s3 = BatchSampler(tiny, target, 8, np.random.default_rng(6))
    xb, yb = s3.source_batch()
    assert xb.shape[0] == 3 and sorted(yb) == [0, 0, 1]


def test_batch_sampler_gives_each_row_its_own_label():
    # each row's first feature is its label, so a batch whose labels were
    # gathered in another order than its rows fails
    labels = np.arange(40) * 7 % 11
    x = np.random.default_rng(0).standard_normal((40, 3))
    x[:, 0] = labels
    source = Dataset(Tensor(x), labels, "source")
    sampler = BatchSampler(source, source.without_labels(), 8,
                           np.random.default_rng(1))
    for _ in range(5):
        xb, yb = sampler.source_batch()
        assert yb.dtype == np.int64
        assert np.array_equal(xb.data[:, 0], yb)


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


def test_pretraining_skips_a_one_row_tail_batch(monkeypatch):
    # 2 full batches and a one-row tail, which makes no contrastive pair:
    # each epoch takes two updates, the count perfbench/tracer.py expects
    source, _, _ = _task(samples_per_class=17)
    rows = 2 * FAST.batch_size + 1
    data = Dataset(Tensor(source.inputs.data[:rows]), source.labels[:rows],
                   source.domain)
    steps = []
    step = Adam.step

    def counting(opt):
        steps.append(opt)
        step(opt)
    monkeypatch.setattr(Adam, "step", counting)
    history = pretrain_contrastive(build_extractor(SMALL, 8, 0), data, FAST,
                                   rng=np.random.default_rng(FAST.seed))
    assert len(history) == FAST.pretrain_epochs
    assert len(steps) == 2 * FAST.pretrain_epochs


def test_pretraining_draws_one_view_per_kept_batch():
    # 9 rows in batches of 4 leave a one-row tail each epoch, which draws
    # nothing; each kept batch draws its view's noise, then its amplitudes
    source, _, _ = _task()
    data = Dataset(Tensor(source.inputs.data[:9]), source.labels[:9], source.domain)
    cfg = replace(FAST, batch_size=4, pretrain_epochs=2)
    rng = np.random.default_rng(5)
    pretrain_contrastive(build_extractor(SMALL, 8, 0), data, cfg, rng)
    replay = np.random.default_rng(5)
    for _ in range(cfg.pretrain_epochs):
        replay.permutation(9)
        for b in (4, 4):
            replay.standard_normal((b, 8))
            replay.uniform(0.8, 1.2, (b, 1))
    assert rng.random() == replay.random()


@pytest.mark.parametrize("spec, model_cfg, stacked", [
    (dict(samples_per_class=20), SMALL, True),
    (dict(source_classes=4, input_kind="image", samples_per_class=9),
     ModelConfig(extractor="conv_stack"), False),
], ids=["mlp", "conv_stack"])
def test_pretraining_never_pools_the_views_through_batch_norm(
        monkeypatch, spec, model_cfg, stacked):
    # the MLP has no batch statistics and projects a batch and its view as
    # one stack of 2b rows, one call per kept batch; the conv extractor's
    # train-mode batch norm sees one view at a time, never more than a batch
    source, _, _ = _task(**spec)
    data = Dataset(Tensor(source.inputs.data[:17]), source.labels[:17],
                   source.domain)
    extractor = build_extractor(model_cfg, source.inputs.shape[-1], 0)
    projected, conv_rows = [], []
    project, conv_stack = type(extractor).project, model_module.conv_stack

    def recording_project(self, x):
        projected.append(x.shape[0])
        return project(self, x)

    def recording_conv_stack(x, blocks, mode):
        if mode == "train":
            conv_rows.append(x.shape[0])
        return conv_stack(x, blocks, mode)
    monkeypatch.setattr(type(extractor), "project", recording_project)
    monkeypatch.setattr(model_module, "conv_stack", recording_conv_stack)
    cfg = replace(FAST, pretrain_epochs=1, batch_size=8)
    pretrain_contrastive(extractor, data, cfg, np.random.default_rng(0))
    # 17 rows in batches of 8 keep two batches; the one-row tail is skipped
    assert extractor.stacks_views is stacked
    if stacked:
        assert projected == [16, 16]
        assert conv_rows == []
    else:
        assert projected == [8, 8, 8, 8]
        assert conv_rows == projected


def test_pretraining_rejects_fewer_than_two_rows():
    # one row makes no contrastive pair and no batch statistics
    source, _, _ = _task()
    one = Dataset(Tensor(source.inputs.data[:1]), source.labels[:1], source.domain)
    with pytest.raises(ValueError, match="at least 2 rows, got 1"):
        pretrain_contrastive(build_extractor(SMALL, 8, 0), one, FAST,
                             rng=np.random.default_rng(FAST.seed))


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
        _, group, _ = STEP_MAP[step]
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
        _, group, _ = STEP_MAP[step]
        seen.clear()
        # an update clears only its own group's gradients, so the groups
        # stepped before keep theirs: start every step from none
        for t in entries.values():
            t.zero_grad()
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

    # the frozen pair ``adapt`` keeps between steps: a step thaws exactly
    # its own group for its iterations and freezes it again, also on a raise;
    # the failing optimizer above rebound phi_s's arrays, so spy afresh
    ms.freeze()
    mt.freeze()
    optimizers = {g: Spy(groups[g], 1e-3) for g in ADAPTATION_GROUPS}
    frozen = dict.fromkeys(entries, False)
    for step in StepId:
        _, group, _ = STEP_MAP[step]
        seen.clear()
        run_step(step, ms, mt, sampler, FAST, optimizers)
        assert seen == [set(groups[group])] * FAST.iters_per_step, step.name
        assert {n: t.requires_grad for n, t in entries.items()} == frozen
    with pytest.raises(FloatingPointError, match="S6_feedback_Fs"):
        run_step(StepId.S6_feedback_Fs, ms, mt, sampler, FAST,
                 {"phi_s": Failing(groups["phi_s"], 1e-3)})
    assert {n: t.requires_grad for n, t in entries.items()} == frozen


def test_reward_and_accuracy_passes_run_frozen_and_record_no_node(monkeypatch):
    # V and the accuracy are passes over the whole target set that no
    # backward follows: the four adaptation groups are frozen between
    # steps, so their stacks record nothing, and the pair comes back frozen
    source, target, eval_target = _task(seed=4)
    recorded, calls = [], {"compute_reward": 0, "_accuracy": 0}
    from_op = Tensor._from_op

    def counting_from_op(data, parents, op, back):
        out = from_op(data, parents, op, back)
        if out._backward is not None:
            recorded.append(op)
        return out

    def checked(name):
        run = getattr(train_module, name)

        def wrapper(ms, mt, *args):
            groups = parameter_groups(ms, mt)
            thawed = [n for g in ADAPTATION_GROUPS for n, t in groups[g].items()
                      if t.requires_grad]
            assert not thawed, (name, thawed)
            start = len(recorded)
            value = run(ms, mt, *args)
            assert recorded[start:] == [], name
            calls[name] += 1
            return value
        return wrapper

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting_from_op))
    for name in calls:
        monkeypatch.setattr(train_module, name, checked(name))
    result = train_interactive(source, target, FAST, SMALL, eval_target)
    assert calls == dict.fromkeys(calls, FAST.epochs)
    assert not any(t.requires_grad for g in parameter_groups(result.ms, result.mt).values()
                   for t in g.values())


def test_every_node_adapt_records_is_consumed_by_a_backward(monkeypatch):
    source, target, eval_target = _task(seed=4)
    prepared = prepare(source, target, FAST, SMALL, eval_target)
    nodes = []
    from_op = Tensor._from_op

    def marking_from_op(data, parents, op, back):
        ran = [op, False]

        def marked(g):
            ran[1] = True
            back(g)
        out = from_op(data, parents, op, marked)
        if out._backward is not None:
            nodes.append(ran)
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(marking_from_op))
    adapt(prepared, FAST, SMALL)
    assert nodes
    assert [op for op, ran in nodes if not ran] == []


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


def test_hard_pseudo_labels_apply_to_the_guidance_step_only():
    # every step's loss, recomputed from the same batch: the sampler is
    # re-seeded and the dropout streams are rewound. S1 and S5 take the
    # student's cross-entropy on source labels, S2 and S4 the MMD of its RDA
    # outputs on both domains; with soft_pseudo off, S3 trains on the
    # teacher's argmax, while S6 still follows the target model's soft
    # predictions
    source, target, _ = _task(seed=2, source_classes=3, samples_per_class=24)
    ms, mt = _pretrained_pair(source, target)
    sampler = _feature_sampler(ms, source, target, 16, 0)
    cfg = TrainConfig(pretrain_epochs=2, epochs=2, iters_per_step=2,
                      batch_size=16, soft_pseudo=False)
    streams = {id(s.rng): s.rng for m in (ms, mt) for s in (m.rda, m.classifier)}
    losses = {StepId.S1_train_Cs: (ms, mt, "source"),
              StepId.S2_align_Fs: (ms, mt, "align"),
              StepId.S3_guide_Ct: (mt, ms, "hard"),
              StepId.S4_align_Ft: (mt, ms, "align"),
              StepId.S5_source_Ct: (mt, ms, "source"),
              StepId.S6_feedback_Fs: (ms, mt, "soft")}
    for step, (student, teacher, kind) in losses.items():
        states = {k: g.bit_generator.state for k, g in streams.items()}
        sampler.rng = np.random.default_rng(5)
        loss = train_module._step_loss(step, student, teacher, sampler, cfg).item()
        for k, g in streams.items():
            g.bit_generator.state = states[k]
        sampler.rng = np.random.default_rng(5)
        if kind == "source":
            zs, ys = sampler.source_batch()
            s = classifier_logits(student, zs, "source", "train")
            expected = cross_entropy_hard(s, ys).item()
        elif kind == "align":
            zs, _ = sampler.source_batch()
            zt = sampler.target_batch()
            expected = mmd_squared(rda_forward(student.rda, zs, "source", "train"),
                                   rda_forward(student.rda, zt, "target", "train")).item()
        else:
            zt = sampler.target_batch()
            t = classifier_logits(teacher, zt, "target", "teacher")
            s = classifier_logits(student, zt, "target", "train")
            hard = cross_entropy_hard(s, t.data.argmax(axis=1)).item()
            soft = cross_entropy_soft(s, t).item()
            assert hard != soft
            expected = hard if kind == "hard" else soft
        assert loss == expected, step.name


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
    stray = Tensor([1.0], requires_grad=True)
    monkeypatch.setattr(train_module, "_step_loss", lambda *args: (stray * stray).sum())
    first = next(iter(parameter_groups(*_fresh_pair(SMALL, 2, 8, FAST.seed))["theta_s"]))
    with pytest.raises(GradError) as info:
        train_interactive(source, target, replace(FAST, epochs=1), SMALL)
    assert str(info.value) == ("epoch 1: step S1_train_Cs, group theta_s: "
                               f"missing gradient for parameter '{first}'")


@pytest.mark.parametrize("prefix, after, error, where", [
    ("G.", 2, FloatingPointError, "pretraining epoch 2, batch 1"),
    ("Mt.Ft.", 1, FloatingPointError, "epoch 1: step S4_align_Ft, group phi_t"),
    ("C.", 2, GradError, "baseline iteration 3"),
])
def test_a_failed_update_names_where_it_happened(monkeypatch, prefix, after,
                                                 error, where):
    # a stub raises, since the suite turns a real overflow into a
    # RuntimeWarning before the optimizer's finiteness check sees it
    class Failing(Adam):
        """Adam over tensors named ``prefix...`` that fails its update
        after ``after`` good ones."""

        def step(self):
            if self._t == after and next(iter(self.params)).startswith(prefix):
                raise error("bad update")
            super().step()

    monkeypatch.setattr(train_module, "Adam", Failing)
    source, target, _ = _task()
    with pytest.raises(error) as info:
        if prefix == "C.":
            train_source_only_baseline(prepare(source, target, FAST, SMALL),
                                       FAST, SMALL)
        else:
            train_interactive(source, target, FAST, SMALL)
    assert str(info.value) == f"{where}: bad update"


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


def test_an_epoch_records_all_losses():
    source, target, eval_target = _task(seed=3)
    result = train_interactive(source, target, replace(FAST, epochs=1), SMALL,
                               eval_target)
    [row] = result.trace.rows
    assert set(row.losses) == set(TRACE_COLUMNS[2:8])
    assert all(np.isfinite(v) for v in row.losses.values())
    assert row.train_loss == sum(row.losses.values())
    assert 0.0 <= row.V <= 1.0
    assert row.checkpoint_id == result.best_checkpoint_id == "epoch_1"
    assert row.target_accuracy is not None


@pytest.mark.parametrize("rewards", [
    # below desired_reward the budget ends the run; the tie at 4 is no new best
    (0.6, 0.8, 0.6, 0.8, 0.6),
    (0.7, 0.95),
], ids=["tie-runs-the-budget", "desired-reward-stops"])
def test_train_interactive_keeps_the_earliest_best_v_and_stops_at_desired_reward(
        monkeypatch, rewards):
    scripted = iter(rewards)
    monkeypatch.setattr(train_module, "compute_reward", lambda *args: next(scripted))
    epochs = []
    original = Checkpoint.capture

    def recording(ms, mt, epoch, *args):
        epochs.append(epoch)
        return original(ms, mt, epoch, *args)
    monkeypatch.setattr(Checkpoint, "capture", recording)
    source, target, _ = _task()
    cfg = replace(FAST, epochs=5, desired_reward=0.9)
    result = train_interactive(source, target, cfg, SMALL)
    assert [r.V for r in result.trace.rows] == list(rewards)
    assert epochs == [1, 2]
    assert result.best.epoch == 2 and result.best_checkpoint_id == "epoch_2"


def test_train_interactive_records_no_accuracy_without_eval_labels():
    source, target, eval_target = _task()
    result = train_interactive(source, target, FAST, SMALL,
                               eval_target.without_labels())
    assert len(result.trace.rows) == FAST.epochs
    assert all(r.target_accuracy is None for r in result.trace.rows)


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
    # the same rows in another order are extracted on their own, with the
    # same features and therefore the same trace
    calls.clear()
    copy = Dataset(Tensor(eval_target.inputs.data[::-1].copy()),
                   eval_target.labels[::-1], eval_target.domain)
    separate = train_interactive(source, target, FAST, SMALL, copy)
    assert calls == ["source", "target", "target"]
    assert shared.trace.to_csv() == separate.trace.to_csv()


def test_train_interactive_extracts_equal_target_rows_once(monkeypatch):
    # target.ds and eval_target.ds load as two tensors with equal rows
    source, target, eval_target = _task(seed=6)
    copy = Dataset(Tensor(eval_target.inputs.data.copy()), eval_target.labels,
                   eval_target.domain)
    calls = []
    original = train_module.extract

    def counting(model, x, domain_of_x):
        calls.append(domain_of_x)
        return original(model, x, domain_of_x)
    monkeypatch.setattr(train_module, "extract", counting)
    result = train_interactive(source, target, FAST, SMALL, copy)
    assert calls == ["source", "target"]
    assert np.array_equal(result.prepared.eval_z.labels, eval_target.labels)


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
    source, target, eval_target = gen_synthetic_pda(spec)
    cfg = TrainConfig(pretrain_epochs=2, epochs=2, iters_per_step=10,
                      batch_size=32, seed=5)
    result = train_source_only_baseline(prepare(source, target, cfg, SMALL), cfg,
                                        SMALL, eval_target)
    # zero shift: the source-only classifier transfers essentially intact
    assert result.target_accuracy is not None
    assert result.target_accuracy > 0.8


def test_the_model_config_reaches_every_stack_a_run_builds():
    # ModelConfig.dropout_p is the one dropout default: both RDA blocks,
    # both heads and the baseline's head carry the configured one and widths
    source, target, eval_target = _task()
    model_cfg = replace(SMALL, rda_hidden=(12,), clf_hidden=(10,), dropout_p=0.3)
    result = train_interactive(source, target, FAST, model_cfg, eval_target)
    baseline = train_source_only_baseline(result.prepared, FAST, model_cfg,
                                          eval_target)
    stacks = {"Ms.Fs": (result.ms.rda, model_cfg.rda_hidden),
              "Mt.Ft": (result.mt.rda, model_cfg.rda_hidden),
              "Ms.Cs": (result.ms.classifier, model_cfg.clf_hidden),
              "Mt.Ct": (result.mt.classifier, model_cfg.clf_hidden),
              "baseline": (baseline.classifier, model_cfg.clf_hidden)}
    for name, (stack, hidden) in stacks.items():
        assert stack.dropout_p == 0.3, name
        assert tuple(fc.weight.shape[1] for fc in stack.fcs) == hidden, name
        assert stack.out.weight.shape[0] == hidden[-1], name


def _extractor_arrays(extractor, prefix):
    """An extractor's parameter and batch-norm buffer arrays by name."""
    return {**{name: t.data for name, t in extractor.named_parameters(prefix).items()},
            **extractor.named_buffers(prefix)}


def _bits(arrays):
    return {name: a.tobytes() for name, a in arrays.items()}


def test_the_prepared_source_extractor_is_one_pretrained_on_its_own():
    # the source-only baseline used to build and pretrain this extractor
    # again, bit-equal to the prepared one; it now reads the prepared one
    source, target, _ = _task(seed=3)
    cfg = replace(FAST, seed=3)
    prepared = prepare(source, target, cfg, SMALL)
    alone = build_extractor(SMALL, source.inputs.shape[-1], cfg.seed)
    pretrain_contrastive(alone, source, cfg, np.random.default_rng(cfg.seed + 11))
    assert _bits(_extractor_arrays(alone, "G")) \
        == _bits(_extractor_arrays(prepared.extractor_s, "G"))


@pytest.mark.parametrize("spec, cfg, model_cfg, seeds", [
    (dict(), FAST, SMALL, (0, 1)),
    # conv_stack's image task as the CI session runs it: 36 source rows
    # cross its 32-row eval chunk
    (dict(source_classes=4, input_kind="image", samples_per_class=9),
     TrainConfig(pretrain_epochs=1, epochs=1, iters_per_step=1, batch_size=8,
                 desired_reward=1.0),
     ModelConfig(extractor="conv_stack"), (0,)),
], ids=["mlp", "conv_stack"])
def test_one_prepared_set_serves_two_columns(monkeypatch, spec, cfg, model_cfg,
                                             seeds):
    # two soft_pseudo columns adapt from one prepared set per seed: each
    # seed pretrains two extractors, not four, each column equals its own
    # train_interactive run bit for bit, and adapting changes no feature,
    # extractor parameter or batch-norm buffer of the prepared set
    columns = [replace(cfg, soft_pseudo=soft) for soft in (True, False)]
    calls = []
    pretrain = train_module.pretrain_contrastive

    def counting(*args, **kwargs):
        calls.append(args[0])
        return pretrain(*args, **kwargs)
    monkeypatch.setattr(train_module, "pretrain_contrastive", counting)
    runs = []
    for seed in seeds:
        source, target, eval_target = _task(seed=seed, **spec)
        prepared = prepare(source, target, replace(cfg, seed=seed), model_cfg,
                           eval_target)

        def frozen():
            return _bits({**_extractor_arrays(prepared.extractor_s, "Gs"),
                          **_extractor_arrays(prepared.extractor_t, "Gt"),
                          **{name: getattr(prepared, name).inputs.data
                             for name in ("source", "target", "eval_z")}})
        before = frozen()
        adapted = [adapt(prepared, replace(c, seed=seed), model_cfg)
                   for c in columns]
        assert frozen() == before
        runs.append((source, target, eval_target, seed, adapted))
    assert len(calls) == 2 * len(seeds)

    monkeypatch.undo()
    for source, target, eval_target, seed, adapted in runs:
        assert adapted[0].trace.to_csv() != adapted[1].trace.to_csv()
        for c, result in zip(columns, adapted):
            alone = train_interactive(source, target, replace(c, seed=seed),
                                      model_cfg, eval_target)
            assert result.trace.to_csv() == alone.trace.to_csv()
            assert _bits(result.best.arrays) == _bits(alone.best.arrays)
            assert ensemble_accuracy(result.ms, result.mt, eval_target) \
                == ensemble_accuracy(alone.ms, alone.mt, eval_target)


def test_selection_study_regrets():
    losses = {c: 0.0 for c in TRACE_COLUMNS[2:8]}
    trace = RewardTrace()
    rows = [(1, 0.5, 3.0, 0.60), (2, 0.9, 2.0, 0.80), (3, 0.7, 1.0, 0.90)]
    for e, v, loss_val, acc in rows:
        l = dict(losses)
        l["L_s_s"] = loss_val
        trace.append(TraceRow(e, v, l, acc))
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
    ms, mt = _fresh_pair(ModelConfig(), 2, source.inputs.shape[-1], seed=0)
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
    ms, mt = _fresh_pair(ModelConfig(), 2, source.inputs.shape[-1], seed=0)
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
    # the projection of a batch and its view stacked (the default MLP's
    # layers, proj1, its ReLU and proj2) is one linear_chain node, plus one
    # for nt_xent over the stacked rows: 2 per backward (3 with one
    # projection per view, 13 with a node per layer and ReLU, 41 when
    # nt_xent was composed of generic ops)
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
    cfg = TrainConfig(pretrain_epochs=1, batch_size=32)
    pretrain_contrastive(extractor, source, cfg, rng=np.random.default_rng(cfg.seed))
    assert counts["backward"] == 3
    assert counts["nodes"] == 2 * counts["backward"], counts
