"""Scenario construction, exemplar-memory auditing, and loss/metric kernels
for class-incremental semantic segmentation datasets."""

from .errors import CissError, FormatError, ValidationError
from .grid import BACKGROUND, IGNORE, LabelGrid, relabel
from .losses import (
    ATOMIC_LOSSES,
    GradCheckReport,
    LossCase,
    LossConfig,
    LossItem,
    TaskClassLayout,
    bce_replay_objective,
    grad_check,
    grad_logits,
    load_loss_case,
    loss_value,
    memory_augmented_objective,
    probs_bg_absorbing_new,
    probs_bg_absorbing_old,
    pseudo_replay_objective,
)
from .manifest import DatasetManifest, OracleRecord, load_manifest, save_manifest
from .memory import (
    BatchItem,
    ExemplarEntry,
    ExemplarMemory,
    ReplayBatch,
    compose_batch,
    extend_class_balanced,
    load_memory,
    make_non_overlapping_variant,
    overlap_ratio,
    resolve_batch_labels,
    sample_class_balanced,
    save_memory,
)
from .metrics import (
    ConfusionAccumulator,
    accumulate,
    evaluation_report,
    iou_per_class,
    miou,
    pseudo_label_retrieval_rate,
)
from .pgm import read_pgm, write_pgm
from .pseudo import PseudoConfig, pseudo_label
from .scenario import (
    SCENARIO_KINDS,
    SplitManifest,
    TaskSplit,
    assign_partition_class,
    build_disjoint,
    build_overlapped,
    build_partitioned,
    load_split,
    save_split,
    split_overlapping,
)
from .scores import ScoreMatrix, predict_labels, read_scores, softmax_probs, write_scores
from .tasks import (
    TaskSpec,
    classes_up_to,
    load_class_order,
    parse_layout,
    task_classes,
    task_of_class,
)

__version__ = "0.1.0"
