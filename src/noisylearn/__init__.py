"""Learning from noisy labels at desk scale.

Three stages: a contrastive encoder trained without labels, a frozen-
representation probe whose per-sample loss and confidence feed two
Gaussian mixtures that triage labels into kept/corrected/unknown, and a
semi-supervised retraining pass with a class-balanced sampler and a
neighbor-graph consistency penalty. A harness reproduces the
representation/classifier decoupling study and the sampler/regularizer
ablation on synthetic Gaussian blobs.
"""

__version__ = "0.1.0"
