"""Scenario construction, exemplar-memory auditing, and loss/metric kernels
for class-incremental semantic segmentation datasets.

The error types and the ids the library dispatches on are defined here, the
ids so that the CLI parser offers them without loading `scenario` or `losses`,
which re-export them. Every other public name is looked up in its module on
each access (PEP 562), so `import ciss` loads no submodule, a CLI command loads
only the modules it calls, and a name rebound in its module is seen here.
"""


class CissError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(CissError):
    """A file or payload does not conform to its declared format."""


class ValidationError(CissError):
    """Inputs violate a documented precondition or invariant."""


SCENARIO_KINDS = ("overlapped", "disjoint", "partitioned")
# the per-pixel losses `losses.loss_value` scores, and the objectives built from them
ATOMIC_LOSSES = ("ce_current", "ce_memory", "kd_old", "bce_new", "bce_old", "ce_plain")
COMPOSITE_LOSSES = ("memory_augmented", "bce_replay", "pseudo_replay")

# submodule -> the public names `ciss` takes from it
_EXPORTS = {
    "grid": ("BACKGROUND", "IGNORE", "LabelGrid", "relabel"),
    "losses": (
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
        "pseudo_replay_objective",
    ),
    "manifest": ("DatasetManifest", "OracleRecord", "load_manifest", "save_manifest"),
    "memory": (
        "BatchItem",
        "ExemplarEntry",
        "ExemplarMemory",
        "ReplayBatch",
        "compose_batch",
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
    "scenario": (
        "SplitManifest",
        "assign_partition_class",
        "build_disjoint",
        "build_overlapped",
        "build_partitioned",
        "load_split",
        "save_split",
        "split_overlapping",
    ),
    "scores": ("PseudoConfig", "ScoreMatrix", "pseudo_label", "read_scores", "softmax_probs", "write_scores"),
    "tasks": ("TaskSpec", "classes_up_to", "load_class_order", "parse_layout", "task_classes", "task_of_class"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "artifacts", "cli")

__all__ = sorted([*_MODULE_OF, "ATOMIC_LOSSES", "COMPOSITE_LOSSES", "SCENARIO_KINDS",
                  "CissError", "FormatError", "ValidationError"])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULES and name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # imported as an import statement would, so that `python -X importtime` lists it
    module = __import__(f"{__name__}.{_MODULE_OF.get(name, name)}", fromlist=["*"])
    return module if name in _SUBMODULES else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
