"""Weighted heterogeneous contrastive learning in pure numpy.

Losses with exact hand-derived gradients, a small MLP encoder/classifier
stack, layer-adaptive (LARS) momentum SGD, synthetic multi-view data
machinery, evaluation metrics, and empirical mutual-information bound
checks, wired together by a reproducible command-line interface.
"""

from .config import (
    METHODS,
    MODES,
    RunConfig,
    config_for_seed,
    resolve_config,
)
from .data import (
    Dataset,
    inject_noise,
    load_csv,
    load_manifest,
    make_cluster_dataset,
    make_scene_like,
    make_views,
    mask_features,
    rescale01,
    sample_batch,
    split,
    synth_multiview,
    take_rows,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateBatchError,
    HclError,
    IngestionError,
    NumericError,
    ShapeError,
)
from .losses import (
    ContrastiveBatch,
    LossBreakdown,
    SimilarityConfig,
    cross_entropy,
    full_negatives,
    supcon_loss,
    total_loss,
    unsup_loss_multiview,
    unsup_loss_single,
    weighted_sup_loss,
)
from .metrics import EvalReport, auc, evaluate, f1_score, per_label_auc
from .mi import (
    BoundReport,
    BoundTrainSpec,
    GaussianPairSpec,
    RingProtoSpec,
    check_sup_bound,
    check_unsup_bound,
    discrete_mi,
    gaussian_mi,
)
from .model import (
    ModelParams,
    classify,
    encode,
    init_params,
    load_checkpoint,
    model_backward,
    named_parameters,
    save_checkpoint,
)
from .numeric import Matrix, Rng, make_rng
from .optimizer import OptimizerState, lars_step
from .train import (
    RunRecord,
    TrainResult,
    build_dataset,
    dataset_checksum,
    metrics_csv,
    replay_eval,
    run_training,
)

__version__ = "0.1.0"
