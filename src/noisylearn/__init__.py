"""Learning from noisy labels at desk scale.

Three stages: a contrastive encoder trained without labels, a frozen-
representation probe whose per-sample loss and confidence feed two
Gaussian mixtures that triage labels into kept/corrected/unknown, and a
semi-supervised retraining pass with a class-balanced sampler and a
neighbor-graph consistency penalty. A harness reproduces the
representation/classifier decoupling study and the sampler/regularizer
ablation on synthetic Gaussian blobs.
"""

from .credibility import (CredibilityScores, Gmm1D, Stage2Result,
                          TransferredLabels, assess_credibility, fit_gmm_em,
                          gmm_posterior, labeled_records, per_sample_stats,
                          train_frozen_classifier, transfer_labels)
from .data import (AugmentationSpec, DatasetSpec, LabeledDataset, NoiseSpec,
                   apply_noise, augment_batch, default_pair_map,
                   inject_asymmetric_noise, inject_symmetric_noise,
                   make_blobs, train_test_split)
from .errors import (CheckpointError, ConfigError, DegenerateMixtureError,
                     NumericError, PipelineError)
from .graphreg import (NeighborGraph, build_neighbor_graph, graph_regularizer,
                       sharpen_t)
from .harness import (ExperimentConfig, MetricsLog, best_last, evaluate,
                      load_config, run_ablation, run_decoupling_experiment,
                      run_pipeline, run_stage2)
from .numnet import (EmaState, Layer, MlpParams, OptState, cosine_lr,
                     ema_init, ema_params, ema_update, fit, grad, init_mlp,
                     mlp_forward, one_hot, optimizer_step, predict, softmax)
from .semi import (BalancedSamplerState, MixMatchConfig, Stage3Result,
                   balanced_sample_L, make_balanced_sampler, mixup,
                   sample_U_candidates, stage3_loss, train_stage3)
from .ssrl import ContrastiveConfig, EncoderTrainResult, embed, nt_xent_loss, train_encoder

__version__ = "0.1.0"

__all__ = [
    "AugmentationSpec", "BalancedSamplerState", "CheckpointError",
    "ConfigError", "ContrastiveConfig", "CredibilityScores", "DatasetSpec",
    "DegenerateMixtureError", "EmaState", "EncoderTrainResult",
    "ExperimentConfig", "Gmm1D", "LabeledDataset", "Layer", "MetricsLog",
    "MixMatchConfig", "MlpParams", "NeighborGraph", "NoiseSpec",
    "NumericError", "OptState", "PipelineError", "Stage2Result",
    "Stage3Result", "TransferredLabels", "apply_noise", "assess_credibility",
    "augment_batch", "balanced_sample_L", "best_last",
    "build_neighbor_graph", "cosine_lr", "default_pair_map",
    "ema_init", "ema_params", "ema_update", "embed", "evaluate", "fit",
    "fit_gmm_em", "gmm_posterior", "grad", "graph_regularizer", "init_mlp",
    "inject_asymmetric_noise", "inject_symmetric_noise", "labeled_records",
    "load_config", "make_balanced_sampler", "make_blobs", "mixup",
    "mlp_forward", "nt_xent_loss", "one_hot", "optimizer_step",
    "per_sample_stats", "predict", "run_ablation", "run_decoupling_experiment",
    "run_pipeline", "run_stage2", "sample_U_candidates", "sharpen_t", "softmax",
    "stage3_loss", "train_encoder", "train_frozen_classifier", "train_stage3",
    "train_test_split", "transfer_labels",
]
