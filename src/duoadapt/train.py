"""Training drivers: contrastive pretraining, the six-step interactive
schedule, the agreement reward, stopping, and a source-only baseline.

One epoch runs six sequential steps, each minimizing exactly one loss
over exactly one parameter group. The agreement reward (fraction of
target samples on which the two models predict the same class) is
measured once per epoch, right after step 1, and drives both stopping
and best-model selection. The extractors are frozen once pretrained, so
``prepare`` extracts each dataset once, and ``adapt`` and the baseline
read only its feature rows.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from .autodiff import Adam, GradError, Tensor
from .data import Dataset, augment_pair
from .losses import cross_entropy_hard, cross_entropy_soft, mmd_squared, nt_xent
from .model import (Checkpoint, DenseStack, DomainWiseModel, Extractor,
                    ModelConfig, build_extractor, build_models,
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
        # batch norm needs two rows, and pretraining skips smaller batches
        for key, low in (("pretrain_epochs", 1), ("epochs", 1),
                         ("iters_per_step", 1), ("batch_size", 2), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"train.{key} must be at least {low}, "
                                 f"got {getattr(self, key)}")
        for key in ("learning_rate", "temperature"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"train.{key} must be positive and finite, "
                                 f"got {getattr(self, key)}")
        if not 0.0 < self.desired_reward <= 1.0:
            raise ValueError(f"train.desired_reward must be in (0, 1], "
                             f"got {self.desired_reward}")


class StepId(Enum):
    S1_train_Cs = 1
    S2_align_Fs = 2
    S3_guide_Ct = 3
    S4_align_Ft = 4
    S5_source_Ct = 5
    S6_feedback_Fs = 6


# step -> (trace column, trainable group, loss); a group ending in _s
# belongs to the source model, one ending in _t to the target model. A
# "source" loss is cross-entropy on source labels, "align" the MMD of the
# RDA outputs on both domains; "guide" and "feedback" follow the other
# model's soft target predictions, or "guide" its argmax with soft_pseudo off
STEP_MAP: Dict[StepId, Tuple[str, str, str]] = {
    StepId.S1_train_Cs: ("L_s_s", "theta_s", "source"),
    StepId.S2_align_Fs: ("MMD_s", "phi_s", "align"),
    StepId.S3_guide_Ct: ("L_t_t", "theta_t", "guide"),
    StepId.S4_align_Ft: ("MMD_t", "phi_t", "align"),
    StepId.S5_source_Ct: ("L_t_s", "theta_t", "source"),
    StepId.S6_feedback_Fs: ("L_st_t", "phi_s", "feedback"),
}

TRACE_COLUMNS = ("epoch", "V", *(column for column, _, _ in STEP_MAP.values()),
                 "checkpoint_id", "target_accuracy")


@dataclass
class TraceRow:
    epoch: int
    V: float
    losses: Dict[str, float]
    target_accuracy: Optional[float] = None

    @property
    def checkpoint_id(self) -> str:
        return f"epoch_{self.epoch}"

    @property
    def train_loss(self) -> float:
        """The loss rule's key: the sum of the epoch's step losses."""
        return sum(self.losses.values())


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
                       + [repr(r.losses[c]) for c, _, _ in STEP_MAP.values()]
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

    def source_batch(self) -> Tuple[Tensor, np.ndarray]:
        idx = self.rng.choice(len(self.source),
                              size=min(self.batch_size, len(self.source)),
                              replace=False)
        return Tensor(self.source.inputs.data[idx]), self.source.labels[idx]

    def target_batch(self) -> Tensor:
        idx = self.rng.choice(len(self.target),
                              size=min(self.batch_size, len(self.target)),
                              replace=False)
        return Tensor(self.target.inputs.data[idx])


# -- contrastive pretraining --------------------------------------------------

def extract_dataset(model, ds: Dataset, domain: str) -> Dataset:
    """``ds`` with its inputs replaced by ``domain``'s frozen features."""
    return Dataset(extract(model, ds.inputs, domain), ds.labels, ds.domain)


def _update(loss: Tensor, opt: Adam, where: str) -> float:
    """Clear ``opt``'s gradients, backpropagate ``loss``, step ``opt`` and
    return the loss; a failed update is re-raised naming ``where``."""
    for t in opt.params.values():
        t.zero_grad()
    try:
        loss.backward()
        opt.step()
    except (FloatingPointError, GradError) as e:
        raise type(e)(f"{where}: {e}") from e
    return loss.item()


def pretrain_contrastive(extractor, data: Dataset, cfg: TrainConfig,
                         rng: np.random.Generator) -> List[float]:
    """Train an extractor on original/augmented pairs, then freeze it.

    Returns the per-epoch mean contrastive loss; the projection head is
    unused after this call. An extractor that ``stacks_views`` projects a
    batch's rows and then its view's as one pass and one loss; the conv
    extractor projects each on its own, so its batch norm never pools the
    two views' statistics.
    """
    if len(data) < 2:
        # one row makes no contrastive pair and no batch-norm statistics
        raise ValueError(f"pretraining needs at least 2 rows, got {len(data)}")
    opt = Adam(extractor.named_parameters("G"), cfg.learning_rate)
    n = len(data)
    history: List[float] = []
    for epoch in range(1, cfg.pretrain_epochs + 1):
        order = rng.permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            x, view = augment_pair(Tensor(data.inputs.data[idx]), rng)
            if extractor.stacks_views:
                rows = Tensor(np.concatenate([x.data, view.data]))
                projections = extractor.project(rows), None
            else:
                projections = extractor.project(x), extractor.project(view)
            where = f"pretraining epoch {epoch}, batch {b}"
            try:
                loss = nt_xent(*projections, cfg.temperature)
            except ValueError as e:
                # a zero-norm projection row is reported, not clamped: a
                # clamped norm would send a 1/eps-scaled gradient upstream
                raise ValueError(f"{where}: {e}") from e
            losses.append(_update(loss, opt, where))
            # drop this step's graph before the next forward builds its own
            del x, view, projections, loss
        history.append(float(np.mean(losses)))
    extractor.mark_pretrained()
    return history


# -- interactive schedule -----------------------------------------------------

def _step_loss(step: StepId, model: DomainWiseModel, other: DomainWiseModel,
               sampler: BatchSampler, cfg: TrainConfig) -> Tensor:
    """One iteration of the loss ``step``'s row names, for ``model``, the
    one it trains. In "guide" and "feedback" ``other`` is the teacher: batch
    statistics, no running-buffer update, no dropout. Only the trained
    group requires gradients while ``run_step`` runs this, so the teacher
    and S5's train-mode RDA block, whose group is frozen, record no node:
    their stacks run in place and keep nothing."""
    _, _, loss = STEP_MAP[step]
    if loss == "source":
        zs, ys = sampler.source_batch()
        return cross_entropy_hard(classifier_logits(model, zs, "source", "train"), ys)
    if loss == "align":
        zs, _ = sampler.source_batch()
        zt = sampler.target_batch()
        return mmd_squared(rda_forward(model.rda, zs, "source", "train"),
                           rda_forward(model.rda, zt, "target", "train"))
    zt = sampler.target_batch()
    teacher = classifier_logits(other, zt, "target", "teacher")
    student = classifier_logits(model, zt, "target", "train")
    if cfg.soft_pseudo or loss == "feedback":
        return cross_entropy_soft(student, teacher)
    return cross_entropy_hard(student, teacher.data.argmax(axis=1))


def run_step(step: StepId, ms: DomainWiseModel, mt: DomainWiseModel,
             sampler: BatchSampler, cfg: TrainConfig,
             optimizers: Dict[str, Adam]) -> float:
    """Run one schedule step: iters_per_step updates of one group only.

    For the step's iterations exactly the trained group's tensors require
    gradients and every other optimizer's tensors do not, so the graph
    reaches only the trained group and the backward computes no other
    gradient. Every flag is restored afterwards, also when the step
    raises: between steps ``adapt`` keeps all four groups frozen."""
    _, group, _ = STEP_MAP[step]
    opt = optimizers[group]
    model, other = (ms, mt) if group.endswith("_s") else (mt, ms)
    tensors = [(t, o is opt) for o in optimizers.values() for t in o.params.values()]
    saved = [t.requires_grad for t, _ in tensors]
    for t, trained in tensors:
        t.requires_grad = trained
    where = f"step {step.name}, group {group}"
    try:
        losses = [_update(_step_loss(step, model, other, sampler, cfg), opt, where)
                  for _ in range(cfg.iters_per_step)]
    finally:
        for (t, _), flag in zip(tensors, saved):
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
    return float(np.mean(preds == eval_z.labels))


def ensemble_accuracy(ms: DomainWiseModel, mt: DomainWiseModel,
                      eval_target: Dataset) -> float:
    """Logit-fusion accuracy on a labeled raw-input target set."""
    return _accuracy(ms, mt, extract_dataset(ms, eval_target, "target"))


def _by_v(row: TraceRow) -> Tuple[float, int]:
    """The V rule's sort key: the highest V, and of equal V the earliest epoch."""
    return row.V, -row.epoch


@dataclass
class Prepared:
    """The frozen extractors, named as in a model so that ``extract`` reads a
    ``Prepared`` too, each dataset's features and the last pretraining losses."""
    extractor_s: Extractor
    extractor_t: Extractor
    pretrain_loss_s: float
    pretrain_loss_t: float
    source: Optional[Dataset] = None    # source features, with their labels
    target: Optional[Dataset] = None    # target features
    eval_z: Optional[Dataset] = None    # the eval target's features, if one was given


@dataclass
class TrainResult:
    ms: DomainWiseModel
    mt: DomainWiseModel
    trace: RewardTrace
    best: Checkpoint
    prepared: Prepared

    @property
    def best_checkpoint_id(self) -> str:
        return f"epoch_{self.best.epoch}"


def prepare(source: Dataset, target: Dataset, cfg: TrainConfig,
            model_cfg: Optional[ModelConfig] = None,
            eval_target: Optional[Dataset] = None) -> Prepared:
    """Pretrain both extractors, on the ``+ 11`` and ``+ 13`` streams, and
    extract each dataset once. Both start from ``cfg.seed``'s init: with
    comparable domains their feature spaces start close, which keeps the
    residual corrections small."""
    model_cfg = model_cfg or ModelConfig()
    if source.labels is None:
        raise ValueError("source dataset must be labeled")
    g_s, g_t = (build_extractor(model_cfg, source.inputs.shape[-1], cfg.seed)
                for _ in range(2))
    losses = [pretrain_contrastive(g, ds, cfg, np.random.default_rng(cfg.seed + k))[-1]
              for g, ds, k in ((g_s, source, 11), (g_t, target, 13))]
    p = Prepared(g_s, g_t, *losses)
    p.source = extract_dataset(p, source, "source")
    p.target = extract_dataset(p, target, "target")
    if eval_target is not None:
        # gen_synthetic_pda and gen-data's files give both target sets the
        # same rows: reuse their features
        same = np.array_equal(eval_target.inputs.data, target.inputs.data)
        p.eval_z = (Dataset(p.target.inputs, eval_target.labels, eval_target.domain)
                    if same else extract_dataset(p, eval_target, "target"))
    return p


def adapt(prepared: Prepared, cfg: TrainConfig,
          model_cfg: Optional[ModelConfig] = None,
          config_hash: str = "") -> TrainResult:
    """Interactive epochs on ``prepared``'s features, which it only reads,
    until V reaches ``cfg.desired_reward`` or the epoch budget ends. The RDA
    blocks and heads draw from the ``+ 17`` stream, the batches from ``+ 19``.
    Each epoch runs S1..S6 (V right after S1) and scores labeled eval
    features; the models end restored to the epoch of highest V, the
    earliest on a tie. The pair is frozen from the start: ``run_step``
    thaws one group for its own iterations, so the V and accuracy passes
    record no graph, and the pair is returned frozen."""
    ms, mt = build_models(model_cfg or ModelConfig(),
                          int(prepared.source.labels.max()) + 1,
                          prepared.extractor_s, prepared.extractor_t, cfg.seed + 17)
    ms.freeze()
    mt.freeze()
    trace = RewardTrace(pretrain_loss_s=prepared.pretrain_loss_s,
                        pretrain_loss_t=prepared.pretrain_loss_t,
                        config_hash=config_hash)
    groups = parameter_groups(ms, mt)
    optimizers = {g: Adam(groups[g], cfg.learning_rate) for _, g, _ in STEP_MAP.values()}
    sampler = BatchSampler(prepared.source, prepared.target, cfg.batch_size,
                           np.random.default_rng(cfg.seed + 19))
    for epoch in range(1, cfg.epochs + 1):
        losses: Dict[str, float] = {}
        for step in StepId:
            column, _, _ = STEP_MAP[step]
            try:
                losses[column] = run_step(step, ms, mt, sampler, cfg, optimizers)
            except (FloatingPointError, GradError) as e:
                raise type(e)(f"epoch {epoch}: {e}") from e
            if step is StepId.S1_train_Cs:
                reward = compute_reward(ms, mt, sampler.target.inputs)
        acc = None
        if prepared.eval_z is not None and prepared.eval_z.labels is not None:
            acc = _accuracy(ms, mt, prepared.eval_z)
        row = TraceRow(epoch, reward, losses, acc)
        trace.append(row)
        if max(trace.rows, key=_by_v) is row:
            best = Checkpoint.capture(ms, mt, epoch, row.V, config_hash)
        if row.V >= cfg.desired_reward:
            break
    best.restore(ms, mt)
    return TrainResult(ms=ms, mt=mt, trace=trace, best=best, prepared=prepared)


def train_interactive(source: Dataset, target: Dataset, cfg: TrainConfig,
                      model_cfg: Optional[ModelConfig] = None,
                      eval_target: Optional[Dataset] = None,
                      config_hash: str = "") -> TrainResult:
    """Full pipeline: ``adapt(prepare(...))``."""
    return adapt(prepare(source, target, cfg, model_cfg, eval_target), cfg,
                 model_cfg, config_hash)


# -- source-only baseline -----------------------------------------------------

@dataclass
class BaselineResult:
    classifier: DenseStack
    target_accuracy: Optional[float]


def train_source_only_baseline(prepared: Prepared, cfg: TrainConfig,
                               model_cfg: Optional[ModelConfig] = None,
                               eval_target: Optional[Dataset] = None
                               ) -> BaselineResult:
    """Reference point with no adaptation: one classifier fit on the prepared
    source features, applied to the eval target's source-extractor features."""
    model_cfg = model_cfg or ModelConfig()
    n_classes = int(prepared.source.labels.max()) + 1
    clf = DenseStack(prepared.extractor_s.feature_dim, n_classes,
                     np.random.default_rng(cfg.seed + 23), model_cfg.clf_hidden,
                     model_cfg.dropout_p)
    opt = Adam(clf.named_parameters("C"), cfg.learning_rate)
    sampler = BatchSampler(prepared.source, prepared.target, cfg.batch_size,
                           np.random.default_rng(cfg.seed + 29))
    for i in range(1, cfg.epochs * 6 * cfg.iters_per_step + 1):
        zs, ys = sampler.source_batch()
        loss = cross_entropy_hard(clf(zs, "train"), ys)
        _update(loss, opt, f"baseline iteration {i}")
    clf.freeze()
    acc = None
    if eval_target is not None and eval_target.labels is not None:
        z = extract(prepared, eval_target.inputs, "source")
        preds = clf(z, "eval").data.argmax(axis=1)
        acc = float(np.mean(preds == eval_target.labels))
    return BaselineResult(classifier=clf, target_accuracy=acc)


# -- stopping-criterion study -------------------------------------------------

def selection_study(trace: RewardTrace) -> Dict[str, float]:
    """Compare epoch selection by max reward vs min summed training loss.

    Requires per-epoch target accuracies in the trace. Regret is the gap
    from the true-best epoch's accuracy to the selected epoch's accuracy.
    """
    rows = trace.rows
    if not rows or any(r.target_accuracy is None for r in rows):
        raise ValueError("selection_study needs per-epoch target accuracies")
    by_v = max(rows, key=_by_v)
    by_loss = min(rows, key=lambda r: (r.train_loss, r.epoch))
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
