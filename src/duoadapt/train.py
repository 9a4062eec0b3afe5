"""Training drivers: contrastive pretraining, the six-step interactive
schedule, the agreement reward, stopping, and a source-only baseline.

One epoch runs six sequential steps, each minimizing exactly one loss
over exactly one parameter group. The agreement reward (fraction of
target samples on which the two models predict the same class) is
measured once per epoch, right after step 1, and drives both stopping
and best-model selection. The extractors are frozen once pretrained, so
each dataset is extracted once and everything after reads feature rows.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from .autodiff import Adam, GradError, Tensor
from .data import Dataset, augment_pair
from .losses import (ContrastiveBatch, cross_entropy_hard, cross_entropy_soft,
                     mmd_squared, nt_xent)
from .model import (Checkpoint, ConvExtractor, DomainClassifier,
                    DomainWiseModel, MlpExtractor, build_models,
                    classifier_logits, extract, fused_logits,
                    parameter_groups, rda_forward)


@dataclass
class TrainConfig:
    pretrain_epochs: int = 20
    temperature: float = 0.5
    epochs: int = 10
    iters_per_step: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 64
    desired_reward: float = 0.95
    seed: int = 0
    soft_pseudo: bool = True    # soft teacher targets vs hard pseudo-labels

    def __post_init__(self):
        if min(self.pretrain_epochs, self.epochs, self.iters_per_step) < 1:
            raise ValueError("all counts must be positive")
        if self.batch_size < 2:
            # batch norm needs two rows, and pretraining skips smaller batches
            raise ValueError(f"batch_size must be at least 2, got {self.batch_size}")
        if not 0.0 < self.desired_reward <= 1.0:
            raise ValueError("desired_reward must be in (0, 1]")
        if self.learning_rate <= 0 or self.temperature <= 0:
            raise ValueError("learning_rate and temperature must be positive")


@dataclass
class ModelConfig:
    extractor: str = "mlp"              # mlp | conv_stack
    feature_dim: int = 32
    mlp_hidden: Tuple[int, ...] = (64,)
    proj_dim: int = 16
    rda_hidden: Tuple[int, ...] = (32, 16, 32)
    clf_hidden: Tuple[int, ...] = (32, 16)
    dropout_p: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"model.dropout_p must be in [0, 1), got {self.dropout_p}")
        for key in ("feature_dim", "proj_dim"):
            if getattr(self, key) < 1:
                raise ValueError(f"model.{key} must be at least 1, got {getattr(self, key)}")
        for key in ("mlp_hidden", "rda_hidden", "clf_hidden"):
            if any(w < 1 for w in getattr(self, key)):
                raise ValueError(f"model.{key} widths must be at least 1, "
                                 f"got {getattr(self, key)}")


class StepId(Enum):
    S1_train_Cs = 1
    S2_align_Fs = 2
    S3_guide_Ct = 3
    S4_align_Ft = 4
    S5_source_Ct = 5
    S6_feedback_Fs = 6


# step -> (trace column, trainable group); a group ending in _s belongs to
# the source model, one ending in _t to the target model
STEP_MAP: Dict[StepId, Tuple[str, str]] = {
    StepId.S1_train_Cs: ("L_s_s", "theta_s"),
    StepId.S2_align_Fs: ("MMD_s", "phi_s"),
    StepId.S3_guide_Ct: ("L_t_t", "theta_t"),
    StepId.S4_align_Ft: ("MMD_t", "phi_t"),
    StepId.S5_source_Ct: ("L_t_s", "theta_t"),
    StepId.S6_feedback_Fs: ("L_st_t", "phi_s"),
}

# the three mirrored pairs; the remaining steps (S3, S6) are teacher -> student
SOURCE_CE_STEPS = (StepId.S1_train_Cs, StepId.S5_source_Ct)
ALIGN_STEPS = (StepId.S2_align_Fs, StepId.S4_align_Ft)

TRACE_COLUMNS = ("epoch", "V", *(column for column, _ in STEP_MAP.values()),
                 "checkpoint_id", "target_accuracy")


@dataclass
class TraceRow:
    epoch: int
    V: float
    losses: Dict[str, float]
    checkpoint_id: str
    target_accuracy: Optional[float] = None


@dataclass
class RewardTrace:
    rows: List[TraceRow] = field(default_factory=list)
    pretrain_loss_s: Optional[float] = None
    pretrain_loss_t: Optional[float] = None
    config_hash: str = ""

    def append(self, row: TraceRow) -> None:
        if not 0.0 <= row.V <= 1.0:
            raise ValueError(f"reward out of [0,1]: {row.V}")
        if self.rows and row.epoch <= self.rows[-1].epoch:
            raise ValueError("epochs must strictly increase")
        self.rows.append(row)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# config_hash={self.config_hash}\n")
        buf.write(f"# pretrain_loss_s={_fmt(self.pretrain_loss_s)}"
                  f" pretrain_loss_t={_fmt(self.pretrain_loss_t)}\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for r in self.rows:
            w.writerow([r.epoch, repr(r.V)]
                       + [repr(r.losses[c]) for c, _ in STEP_MAP.values()]
                       + [r.checkpoint_id, _fmt(r.target_accuracy)])
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv())


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


# -- batch sampling -----------------------------------------------------------

class BatchSampler:
    """Fresh random minibatches of (feature) rows, all draws from one stream."""

    def __init__(self, source: Dataset, target: Dataset, batch_size: int,
                 rng: np.random.Generator):
        if len(source) == 0 or len(target) == 0:
            raise ValueError("empty dataset")
        self.source = source
        self.target = target
        self.batch_size = batch_size
        self.rng = rng

    def source_batch(self) -> Tuple[Tensor, List[int]]:
        idx = self.rng.choice(len(self.source),
                              size=min(self.batch_size, len(self.source)),
                              replace=False)
        x = Tensor(self.source.inputs.data[idx])
        return x, [self.source.labels[i] for i in idx]

    def target_batch(self) -> Tensor:
        idx = self.rng.choice(len(self.target),
                              size=min(self.batch_size, len(self.target)),
                              replace=False)
        return Tensor(self.target.inputs.data[idx])


# -- contrastive pretraining --------------------------------------------------

def build_extractor(model_cfg: ModelConfig, in_dim: int, seed: int):
    rng = np.random.default_rng(seed)
    if model_cfg.extractor == "mlp":
        return MlpExtractor(in_dim, rng, hidden=model_cfg.mlp_hidden,
                            feature_dim=model_cfg.feature_dim,
                            proj_dim=model_cfg.proj_dim)
    if model_cfg.extractor == "conv_stack":
        return ConvExtractor(rng, feature_dim=model_cfg.feature_dim,
                             proj_dim=model_cfg.proj_dim)
    raise ValueError(f"unknown extractor kind {model_cfg.extractor!r}")


def build_pair(model_cfg: ModelConfig, n_classes: int, in_dim: int,
               seed: int) -> Tuple[DomainWiseModel, DomainWiseModel]:
    """The source and target models, extractors not yet pretrained.

    Both extractors start from the same init (``seed``): with comparable
    domains their feature spaces start close, which keeps the residual
    corrections small. RDA blocks and heads draw from ``seed + 17``.
    """
    g_s = build_extractor(model_cfg, in_dim, seed)
    g_t = build_extractor(model_cfg, in_dim, seed)
    return build_models(n_classes, g_s, g_t, seed=seed + 17,
                        rda_hidden=model_cfg.rda_hidden,
                        clf_hidden=model_cfg.clf_hidden,
                        dropout_p=model_cfg.dropout_p)


def extract_dataset(model: DomainWiseModel, ds: Dataset, domain: str) -> Dataset:
    """``ds`` with its inputs replaced by ``domain``'s frozen features."""
    return Dataset(extract(model, ds.inputs, domain), ds.labels, ds.domain)


def pretrain_contrastive(extractor, data: Dataset, cfg: TrainConfig,
                         rng: Optional[np.random.Generator] = None
                         ) -> List[float]:
    """Train an extractor on original/augmented pairs, then freeze it.

    Returns the per-epoch mean contrastive loss; the projection head is
    unused after this call.
    """
    if len(data) < 2:
        # one row makes no contrastive pair and no batch-norm statistics
        raise ValueError(f"pretraining needs at least 2 rows, got {len(data)}")
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    params = extractor.named_parameters("G")
    opt = Adam(params, cfg.learning_rate)
    n = len(data)
    history: List[float] = []
    for epoch in range(1, cfg.pretrain_epochs + 1):
        order = rng.permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            x = Tensor(data.inputs.data[idx])
            view, _ = augment_pair(x, rng)
            batch = ContrastiveBatch(originals=extractor.project(x),
                                     augmented=extractor.project(view),
                                     temperature=cfg.temperature)
            try:
                loss = nt_xent(batch)
            except ValueError as e:
                # a zero-norm projection row is reported, not clamped: a
                # clamped norm would send a 1/eps-scaled gradient upstream
                raise ValueError(f"pretraining epoch {epoch}, batch {b}: {e}") from e
            for t in params.values():
                t.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
            # drop this step's graph before the next forward builds its own
            del x, view, batch, loss
        history.append(float(np.mean(losses)))
    extractor.mark_pretrained()
    return history


# -- interactive schedule -----------------------------------------------------

def _step_loss(step: StepId, model: DomainWiseModel, other: DomainWiseModel,
               sampler: BatchSampler, cfg: TrainConfig) -> Tensor:
    """One iteration's loss for ``model``, the one ``step`` trains. In S3
    and S6 ``other`` is the teacher: batch statistics, but no running-buffer
    update and no dropout. It records no graph because ``run_step`` freezes
    every group but the trained one."""
    if step in SOURCE_CE_STEPS:
        zs, ys = sampler.source_batch()
        return cross_entropy_hard(classifier_logits(model, zs, "source", "train"), ys)
    if step in ALIGN_STEPS:
        zs, _ = sampler.source_batch()
        zt = sampler.target_batch()
        return mmd_squared(rda_forward(model.rda, zs, "source", "train"),
                           rda_forward(model.rda, zt, "target", "train"))
    zt = sampler.target_batch()
    teacher = classifier_logits(other, zt, "target", "teacher")
    student = classifier_logits(model, zt, "target", "train")
    # hard pseudo-labels are an option of the guidance step S3 only; the
    # feedback step S6 always follows the target model's soft predictions
    if cfg.soft_pseudo or step is StepId.S6_feedback_Fs:
        return cross_entropy_soft(student, teacher)
    return cross_entropy_hard(student, teacher.data.argmax(axis=1))


def run_step(step: StepId, ms: DomainWiseModel, mt: DomainWiseModel,
             sampler: BatchSampler, cfg: TrainConfig,
             optimizers: Dict[str, Adam]) -> float:
    """Run one schedule step: iters_per_step updates of one group only.

    The other optimizers' tensors are frozen for the step, so the graph
    reaches only the trained group's tensors and the backward computes no
    other gradient. Their ``requires_grad`` flags are restored afterwards,
    also when the step raises."""
    _, group = STEP_MAP[step]
    opt = optimizers[group]
    model, other = (ms, mt) if group.endswith("_s") else (mt, ms)
    tensors = [t for o in optimizers.values() for t in o.params.values()]
    frozen = [t for o in optimizers.values() if o is not opt
              for t in o.params.values()]
    saved = [t.requires_grad for t in frozen]
    for t in frozen:
        t.requires_grad = False
    losses = []
    try:
        for _ in range(cfg.iters_per_step):
            loss = _step_loss(step, model, other, sampler, cfg)
            for t in tensors:
                t.zero_grad()
            loss.backward()
            try:
                opt.step()
            except (FloatingPointError, GradError) as e:
                raise type(e)(f"step {step.name}, group {group}: {e}") from e
            losses.append(loss.item())
    finally:
        for t, flag in zip(frozen, saved):
            t.requires_grad = flag
    return float(np.mean(losses))


def compute_reward(ms: DomainWiseModel, mt: DomainWiseModel, z_t: Tensor) -> float:
    """Agreement fraction of the two models' argmax predictions on targets."""
    if z_t.shape[0] == 0:
        raise ValueError("empty target set")
    p_s = classifier_logits(ms, z_t, "target", "eval").data.argmax(axis=1)
    p_t = classifier_logits(mt, z_t, "target", "eval").data.argmax(axis=1)
    return float(np.mean(p_s == p_t))


def _accuracy(ms: DomainWiseModel, mt: DomainWiseModel, eval_z: Dataset) -> float:
    """Logit-fusion accuracy on labeled target features."""
    preds = fused_logits(ms, mt, eval_z.inputs).argmax(axis=1)
    return float(np.mean(preds == np.asarray(eval_z.labels)))


def ensemble_accuracy(ms: DomainWiseModel, mt: DomainWiseModel,
                      eval_target: Dataset) -> float:
    """Logit-fusion accuracy on a labeled raw-input target set."""
    return _accuracy(ms, mt, extract_dataset(ms, eval_target, "target"))


def run_epoch(ms: DomainWiseModel, mt: DomainWiseModel, sampler: BatchSampler,
              cfg: TrainConfig, optimizers: Dict[str, Adam],
              trace: RewardTrace, epoch: int,
              eval_target: Optional[Dataset] = None) -> TraceRow:
    """One pass of S1..S6; the reward is measured right after S1. The
    sampler and ``eval_target`` hold features."""
    losses: Dict[str, float] = {}
    reward = None
    for step in StepId:
        column, _ = STEP_MAP[step]
        try:
            losses[column] = run_step(step, ms, mt, sampler, cfg, optimizers)
        except (FloatingPointError, GradError) as e:
            raise type(e)(f"epoch {epoch}: {e}") from e
        if step is StepId.S1_train_Cs:
            reward = compute_reward(ms, mt, sampler.target.inputs)
    acc = None
    if eval_target is not None and eval_target.labels is not None:
        acc = _accuracy(ms, mt, eval_target)
    row = TraceRow(epoch, reward, losses, f"epoch_{epoch}", acc)
    trace.append(row)
    return row


def stopping_check(trace: RewardTrace, cfg: TrainConfig) -> Tuple[str, str]:
    """('stop'|'continue', best checkpoint id). Best = max V, earliest tie."""
    if not trace.rows:
        raise ValueError("empty trace")
    best = max(trace.rows, key=lambda r: (r.V, -r.epoch))
    latest = trace.rows[-1]
    done = latest.V >= cfg.desired_reward or len(trace.rows) >= cfg.epochs
    return ("stop" if done else "continue"), best.checkpoint_id


@dataclass
class TrainResult:
    ms: DomainWiseModel
    mt: DomainWiseModel
    trace: RewardTrace
    best: Checkpoint
    best_checkpoint_id: str
    eval_z: Optional[Dataset]    # the eval target's features, if one was given


def train_interactive(source: Dataset, target: Dataset, cfg: TrainConfig,
                      model_cfg: Optional[ModelConfig] = None,
                      eval_target: Optional[Dataset] = None,
                      config_hash: str = "") -> TrainResult:
    """Full pipeline: pretrain both extractors, extract each dataset once,
    then interactive epochs until the reward threshold or the epoch budget
    is hit. The returned models are restored to the best checkpoint."""
    model_cfg = model_cfg or ModelConfig()
    if source.labels is None:
        raise ValueError("source dataset must be labeled")
    n_classes = max(source.labels) + 1
    ms, mt = build_pair(model_cfg, n_classes, source.inputs.shape[-1], cfg.seed)
    trace = RewardTrace(config_hash=config_hash)
    trace.pretrain_loss_s = pretrain_contrastive(
        ms.extractor_s, source, cfg, np.random.default_rng(cfg.seed + 11))[-1]
    trace.pretrain_loss_t = pretrain_contrastive(
        ms.extractor_t, target, cfg, np.random.default_rng(cfg.seed + 13))[-1]

    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], cfg.learning_rate) for _, g in STEP_MAP.values()}
    sampler = BatchSampler(extract_dataset(ms, source, "source"),
                           extract_dataset(ms, target, "target"),
                           cfg.batch_size, np.random.default_rng(cfg.seed + 19))
    if eval_target is None:
        eval_z = None
    elif eval_target.inputs is target.inputs:
        # gen_synthetic_pda hands out one input tensor for both target sets
        eval_z = Dataset(sampler.target.inputs, eval_target.labels,
                         eval_target.domain)
    else:
        eval_z = extract_dataset(ms, eval_target, "target")
    for epoch in range(1, cfg.epochs + 1):
        row = run_epoch(ms, mt, sampler, cfg, optimizers, trace, epoch, eval_z)
        verdict, best_id = stopping_check(trace, cfg)
        if best_id == row.checkpoint_id:
            best = Checkpoint.capture(ms, mt, epoch, row.V, config_hash)
        if verdict == "stop":
            break
    best.restore(ms, mt)
    return TrainResult(ms=ms, mt=mt, trace=trace, best=best,
                       best_checkpoint_id=best_id, eval_z=eval_z)


# -- source-only baseline -----------------------------------------------------

@dataclass
class BaselineResult:
    extractor: object
    classifier: object
    target_accuracy: Optional[float]


def train_source_only_baseline(source: Dataset, cfg: TrainConfig,
                               model_cfg: Optional[ModelConfig] = None,
                               eval_target: Optional[Dataset] = None
                               ) -> BaselineResult:
    """Reference point with no adaptation: one extractor pretrained on the
    source, one classifier fit on source labels, applied to targets as-is."""
    model_cfg = model_cfg or ModelConfig()
    if source.labels is None:
        raise ValueError("source dataset must be labeled")
    n_classes = max(source.labels) + 1
    g = build_extractor(model_cfg, source.inputs.shape[-1], cfg.seed)
    pretrain_contrastive(g, source, cfg, np.random.default_rng(cfg.seed + 11))
    rng = np.random.default_rng(cfg.seed + 23)
    clf = DomainClassifier(g.feature_dim, n_classes, rng,
                           hidden=model_cfg.clf_hidden,
                           dropout_p=model_cfg.dropout_p)
    params = clf.named_parameters("C")
    opt = Adam(params, cfg.learning_rate)
    srng = np.random.default_rng(cfg.seed + 29)
    n = len(source)
    z = g.features(source.inputs).data
    for _ in range(cfg.epochs * 6 * cfg.iters_per_step):
        idx = srng.choice(n, size=min(cfg.batch_size, n), replace=False)
        ys = [source.labels[i] for i in idx]
        loss = cross_entropy_hard(clf(Tensor(z[idx]), "train"), ys)
        for t in params.values():
            t.zero_grad()
        loss.backward()
        opt.step()
    acc = None
    if eval_target is not None and eval_target.labels is not None:
        preds = clf(g.features(eval_target.inputs), "eval").data.argmax(axis=1)
        acc = float(np.mean(preds == np.asarray(eval_target.labels)))
    return BaselineResult(extractor=g, classifier=clf, target_accuracy=acc)


# -- stopping-criterion study -------------------------------------------------

def selection_study(trace: RewardTrace) -> Dict[str, float]:
    """Compare epoch selection by max reward vs min summed training loss.

    Requires per-epoch target accuracies in the trace. Regret is the gap
    from the true-best epoch's accuracy to the selected epoch's accuracy.
    """
    rows = trace.rows
    if not rows or any(r.target_accuracy is None for r in rows):
        raise ValueError("selection_study needs per-epoch target accuracies")
    by_v = max(rows, key=lambda r: (r.V, -r.epoch))
    by_loss = min(rows, key=lambda r: (sum(r.losses.values()), r.epoch))
    best = max(rows, key=lambda r: (r.target_accuracy, -r.epoch))
    return {
        "accuracy_at_argmax_V": by_v.target_accuracy,
        "accuracy_at_argmin_loss": by_loss.target_accuracy,
        "accuracy_at_true_best": best.target_accuracy,
        "regret_V_rule": best.target_accuracy - by_v.target_accuracy,
        "regret_loss_rule": best.target_accuracy - by_loss.target_accuracy,
        "epoch_argmax_V": float(by_v.epoch),
        "epoch_argmin_loss": float(by_loss.epoch),
        "epoch_true_best": float(best.epoch),
    }
