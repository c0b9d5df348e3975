"""Max-margin contrastive learning.

Per-positive kernel-SVM dual solves pick weighted hard negatives, and the
resulting decision hyperplane drives the contrastive loss. The dual weights
are constants during backpropagation; gradients reach the encoder only
through kernel evaluations.
"""

from .kernels import KernelSpec, kernel_eval, gram, kernel_grad
from .svm import (SvmInstance, DualSolution, SolverConfig, SingularInstanceError,
                  build_instance, dual_objective, solve_inv, solve_oracle, solve_pgd,
                  classify_support)
from .loss import (LossBatch, LossGrads, mmcl_loss, mmcl_grad, fn_correct, nce_loss, nce_grad,
                   batch_loss, nce_batch_loss)
from .encoder import (EncoderParams, AdamState, ForwardTape, StaleTapeError,
                      forward, forward_features, backward, adam_step, init_params,
                      init_adam, save_params, load_params)
from .data import (Dataset, AugmentationSpec, augment_batch, make_blobs,
                   make_moons, load_csv, save_csv, load_binary, save_binary, stream_rng)
from .evaluate import knn_readout, linear_probe, fit_linear_probe
from .training import (TrainConfig, TrainState, TrainingAbort, apply_schedules,
                       run_epoch, train, init_state, save_state, load_state)

__version__ = "0.1.0"
