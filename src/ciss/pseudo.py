"""Pseudo-labeling of background pixels from a previous model's scores.

Ground-truth pixels of the current task's classes are kept. A background
pixel takes the previous model's argmax class when its top softmax
probability strictly exceeds the threshold; everything else stays
background, and ignored pixels are untouched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ValidationError
from .grid import BACKGROUND, LabelGrid, class_ids, relabel
from .scores import ScoreMatrix, top_probs


@dataclass(frozen=True)
class PseudoConfig:
    tau: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"threshold must be in [0, 1], got {self.tau}")


def pseudo_label(
    gt: LabelGrid,
    prev_scores: ScoreMatrix,
    current_classes: set[int],
    cfg: PseudoConfig,
) -> LabelGrid:
    keep = class_ids(current_classes)
    if not keep:
        raise ValidationError("at least one current class is needed: with none, every "
                              "current-task label would be lost")
    if gt.n_pixels != prev_scores.n_pixels:
        raise ValidationError(
            f"grid has {gt.n_pixels} pixels, scores have {prev_scores.n_pixels}"
        )
    best_class, confidence = top_probs(prev_scores)
    fill = (gt.data == BACKGROUND) & (confidence > cfg.tau)
    return LabelGrid(width=gt.width, height=gt.height, data=np.where(fill, best_class, relabel(gt, keep).data))
