"""Per-class IoU, subset mIoU, and pseudo-label retrieval scoring.

Confusion counts are kept per class id as exact integers and merge
associatively, so evaluation can be sharded over images and reduced in any
order. A class absent from both prediction and ground truth (zero
denominator) contributes 0 to a subset mean and is reported as null in
detailed output.

Each image pair is counted in one pass: a 256x256 joint histogram of
(ground truth, prediction) ids, whose diagonal, column and row sums give the
tp, fp and fn counts. The retrieval rate takes its pairs from any iterable
and scores them one at a time, so only one pair's grids need be in memory.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from . import ValidationError
from .grid import BACKGROUND, IGNORE, LabelGrid
from .tasks import TaskSpec

_N_IDS = 256  # class ids fit in a byte; 255 is the ignore index


class ConfusionAccumulator:
    """Mergeable per-class true-positive / false-positive / false-negative counts."""

    __slots__ = ("tp", "fp", "fn")

    def __init__(self) -> None:
        self.tp = np.zeros(_N_IDS, dtype=np.int64)
        self.fp = np.zeros(_N_IDS, dtype=np.int64)
        self.fn = np.zeros(_N_IDS, dtype=np.int64)

    def __add__(self, other: "ConfusionAccumulator") -> "ConfusionAccumulator":
        out = ConfusionAccumulator()
        out.tp = self.tp + other.tp
        out.fp = self.fp + other.fp
        out.fn = self.fn + other.fn
        return out

    def counts(self, class_id: int) -> tuple[int, int, int]:
        return int(self.tp[class_id]), int(self.fp[class_id]), int(self.fn[class_id])


def accumulate(
    pred: LabelGrid, gt: LabelGrid, acc: ConfusionAccumulator | None = None
) -> ConfusionAccumulator:
    """Add one prediction/ground-truth pair; pixels ignored in gt are skipped."""
    if (pred.width, pred.height) != (gt.width, gt.height):
        raise ValidationError(
            f"prediction {pred.width}x{pred.height} does not match ground truth {gt.width}x{gt.height}"
        )
    if acc is None:
        acc = ConfusionAccumulator()
    # joint[g, p]: pixels with ground truth g predicted as p; bincount copies no intp index
    index = gt.data.astype(np.intp)
    index <<= 8
    index |= pred.data
    joint = np.bincount(index, minlength=_N_IDS * _N_IDS).reshape(_N_IDS, _N_IDS)
    joint[IGNORE] = 0
    hits = joint.diagonal()
    acc.tp += hits
    acc.fp += joint.sum(axis=0) - hits
    acc.fn += joint.sum(axis=1) - hits
    return acc


def iou_per_class(acc: ConfusionAccumulator, classes: Iterable[int]) -> dict[int, float | None]:
    """IoU percentage per class; None where the class never occurred."""
    out: dict[int, float | None] = {}
    for c in sorted(set(int(c) for c in classes)):
        if not BACKGROUND <= c < IGNORE:
            raise ValidationError(f"class id {c} is outside {BACKGROUND}..{IGNORE - 1}")
        tp, fp, fn = acc.counts(c)
        denom = tp + fp + fn
        out[c] = None if denom == 0 else 100.0 * tp / denom
    return out


def miou(acc: ConfusionAccumulator, classes: Iterable[int]) -> float:
    """Mean IoU percentage over the given classes; absent classes count as 0."""
    per_class = iou_per_class(acc, classes)
    if not per_class:
        raise ValidationError("mIoU over an empty class set is undefined")
    return sum(v if v is not None else 0.0 for v in per_class.values()) / len(per_class)


def pseudo_label_retrieval_rate(
    pairs: Iterable[tuple[LabelGrid, LabelGrid]], old_classes: set[int]
) -> float:
    """How well pseudo-labels recover the oracle annotation of old classes.

    Each (oracle, pseudo) pair scores the per-image mIoU over the old classes
    plus background; the result is the dataset mean of those per-image scores.
    Classes that occur in neither grid of an image are left out of that
    image's mean instead of deflating it. Pairs are consumed one at a time.
    """
    measured = set(old_classes) | {BACKGROUND}
    total = 0.0
    count = 0
    for oracle, pseudo in pairs:
        defined = [v for v in iou_per_class(accumulate(pseudo, oracle), measured).values() if v is not None]
        total += sum(defined) / len(defined) if defined else 0.0
        count += 1
    if not count:
        raise ValidationError("retrieval rate of an empty evaluation set is undefined")
    return total / count


def evaluation_report(acc: ConfusionAccumulator, spec: TaskSpec) -> dict:
    """Per-class IoU plus group means: base classes, incremental classes, and
    all classes including background."""
    foreground = list(spec.class_order)
    base = spec.class_order[: spec.base_count]
    incremental = spec.class_order[spec.base_count :]
    per_class = iou_per_class(acc, foreground + [BACKGROUND])
    groups: dict[str, float | None] = {
        "base": miou(acc, base),
        "incremental": miou(acc, incremental) if incremental else None,
        "all": miou(acc, foreground + [BACKGROUND]),
    }
    return {
        "per_class_iou": {str(c): per_class[c] for c in sorted(per_class)},
        "miou_groups": groups,
    }
