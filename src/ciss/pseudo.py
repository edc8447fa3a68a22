"""Pseudo-labeling of background pixels from a previous model's scores.

Ground-truth pixels of the current task's classes are kept. A background
pixel takes the previous model's argmax class when its top softmax
probability strictly exceeds the threshold; everything else stays
background, and ignored pixels are untouched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import BACKGROUND, IGNORE, LabelGrid, class_ids
from .scores import ScoreMatrix, softmax_probs, top_class


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
    if gt.n_pixels != prev_scores.n_pixels:
        raise ValidationError(
            f"grid has {gt.n_pixels} pixels, scores have {prev_scores.n_pixels}"
        )
    probs = softmax_probs(prev_scores)
    best_class = top_class(prev_scores, probs)
    confidence = probs.max(axis=1)

    current = np.isin(gt.data, np.asarray(keep, dtype=np.uint8))
    out = np.full(gt.n_pixels, BACKGROUND, dtype=np.uint8)
    out[current] = gt.data[current]
    fill = (gt.data == BACKGROUND) & (confidence > cfg.tau)
    out[fill] = best_class[fill].astype(np.uint8)
    keep_ignore = gt.data == IGNORE
    out[keep_ignore] = IGNORE
    out.setflags(write=False)
    return LabelGrid(width=gt.width, height=gt.height, data=out)
