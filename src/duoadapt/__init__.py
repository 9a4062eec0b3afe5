"""Co-trained domain-wise classifiers with residual feature adaptation.

Two independently parameterized classifiers (one per domain) share frozen
contrastively-pretrained feature extractors, adapt cross-domain features
through residual correction blocks aligned by a kernel two-sample
discrepancy, and are trained by a six-step per-epoch schedule with an
agreement-based stopping rule.
"""

from .autodiff import Adam, GradError, ShapeMismatch, Tensor, grad_check
from .data import (Dataset, PdaTaskSpec, augment_pair, gen_synthetic_pda,
                   load_dataset, save_dataset, spectrogram_ingest)
from .losses import (KernelSpec, cross_entropy_hard, cross_entropy_soft,
                     mmd_squared, nt_xent)
from .model import (Checkpoint, DomainWiseModel, ModelConfig, RdaBlock,
                    build_extractor, build_models, classifier_logits,
                    ensemble_predict, extract, load_checkpoint,
                    parameter_groups, rda_forward, save_checkpoint)
from .train import (Prepared, RewardTrace, StepId, TrainConfig, adapt,
                    compute_reward, ensemble_accuracy, prepare,
                    pretrain_contrastive, run_step, selection_study,
                    train_interactive, train_source_only_baseline)

__version__ = "0.1.0"
