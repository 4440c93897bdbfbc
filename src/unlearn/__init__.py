"""Certified data deletion for convex ERM via noisy projected descent."""

from .core import (MODES, ResolvedSchedule, UnlearnConfig, UnlearnState,
                   drift_bound, fresh_mean, gaussian_mechanism_epsilon,
                   gaussian_tail_radius, learn, mean_gap_bound,
                   perfect_drift_bound, perfect_iters_floor, publish,
                   regularized_strong_params, sensitivity_bound,
                   sigma_perfect, sigma_strong, unlearn, weak_params,
                   weak_schedule)
from .data import (DataPoint, Dataset, Update, UpdateSequence,
                   gen_adversarial_sequence, gen_synthetic_dataset,
                   load_updates, save_updates)
from .distributed import (DistConfig, PartitionedState, dist_learn,
                          dist_params, dist_publish, dist_unlearn,
                          reservoir_update, select_best)
from .harness import (CertificateError, ExperimentConfig, MetricsRecord,
                      emit_report, run_chain, run_retrain_baseline,
                      verify_unlearning_certificate)
from .losses import (LogisticLoss, LossModel, ParamSpace, RegularizedLoss,
                     RidgeLoss, closed_form_ridge_optimizer)
from .optimizer import GDConfig, GDTrace, contraction_factor, pgd
from .rng import substream

__version__ = "0.1.0"
