"""Distribution-prototype anomaly detection on precomputed feature maps.

The package couples a diagonal Gaussian mixture of prototypes to data
through an entropic bridge with closed-form conditionals and drift, adds
a hyperspherical dispersion regularizer, and scores anomalies with
per-cell linear heads pooled over the top-scoring cells.
"""

from .bridge import (CondGMM, Trajectory, conditional_plan, drift_batch, log_partition,
                     posterior_mode_index, quadrature_oracle_log_bridge_potential,
                     quadrature_oracle_log_partition, sample_endpoint, simulate_sde_batch,
                     sinkhorn_eot_oracle, terminal_plan)
from .errors import (CorruptionError, DegenerateInputError, DomainError, DpdlError,
                     FormatError, NumericError, ProtocolError, UndefinedMetricError,
                     UnsupportedError, ValidationError)
from .evaluation import (Report, auc, nearest_prototype_baseline_auc, run_experiment,
                         score_dataset, write_report)
from .features import (Dataset, FeatureMap, SplitPlan, SynthConfig, cutmix_pseudo_anomaly,
                       make_splits, read_feature_file, synth_generate, write_feature_file)
from .losses import loss_dfl, loss_dpl_anomaly, loss_dpl_normal, unitize
from .prototypes import (MGP, MGPParams, PrototypeInit, mgp_log_density, mgp_new,
                         mgp_realize, vq_init)
from .scoring import (HeadLoss, LinearHead, ScoringHeads, anomaly_score, bce_with_logits,
                      head_loss_anomaly, head_loss_normal, head_loss_residual,
                      pixel_scores, residual_grid, topk_mean, write_scores_csv)
from .training import (Checkpoint, EpochLog, OptimizerState, TrainConfig, TrainResult,
                       load_checkpoint, optimizer_step, parse_train_config,
                       save_checkpoint, train)
from .verify import run_bridge_suite

__version__ = "0.1.0"
