"""Scenario construction, exemplar-memory auditing, and loss/metric kernels
for class-incremental semantic segmentation datasets.

Public names resolve on first use (PEP 562), so `import ciss` loads no
submodule and a CLI command loads only the modules it calls.
"""

from importlib import import_module

# submodule -> the public names `ciss` takes from it
_EXPORTS = {
    "errors": ("CissError", "FormatError", "ValidationError"),
    "grid": ("BACKGROUND", "IGNORE", "LabelGrid", "relabel"),
    "losses": (
        "ATOMIC_LOSSES",
        "GradCheckReport",
        "LossCase",
        "LossConfig",
        "LossItem",
        "TaskClassLayout",
        "bce_replay_objective",
        "grad_check",
        "grad_logits",
        "load_loss_case",
        "loss_value",
        "memory_augmented_objective",
        "probs_bg_absorbing_new",
        "probs_bg_absorbing_old",
        "pseudo_replay_objective",
    ),
    "manifest": ("DatasetManifest", "OracleRecord", "load_manifest", "save_manifest"),
    "memory": (
        "BatchItem",
        "ExemplarEntry",
        "ExemplarMemory",
        "ReplayBatch",
        "compose_batch",
        "extend_class_balanced",
        "load_memory",
        "make_non_overlapping_variant",
        "overlap_ratio",
        "resolve_batch_labels",
        "sample_class_balanced",
        "save_memory",
        "stored_labels",
    ),
    "metrics": (
        "ConfusionAccumulator",
        "accumulate",
        "evaluation_report",
        "iou_per_class",
        "miou",
        "pseudo_label_retrieval_rate",
    ),
    "pgm": ("read_pgm", "write_pgm"),
    "pseudo": ("PseudoConfig", "pseudo_label"),
    "scenario": (
        "SCENARIO_KINDS",
        "SplitManifest",
        "assign_partition_class",
        "build_disjoint",
        "build_overlapped",
        "build_partitioned",
        "load_split",
        "save_split",
        "split_overlapping",
    ),
    "scores": ("ScoreMatrix", "predict_labels", "read_scores", "softmax_probs", "write_scores"),
    "tasks": ("TaskSpec", "classes_up_to", "load_class_order", "parse_layout", "task_classes", "task_of_class"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "artifacts", "cli", "ids")

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
