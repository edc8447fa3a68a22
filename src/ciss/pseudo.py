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
from .scores import ScoreMatrix, softmax_probs


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
    order = np.argsort(prev_scores.class_map, kind="stable")
    ordered_ids = np.asarray(prev_scores.class_map, dtype=np.int64)[order]
    best_col = np.argmax(probs[:, order], axis=1)  # ties resolve to lowest id
    best_class = ordered_ids[best_col]
    confidence = probs[np.arange(probs.shape[0]), order[best_col]]

    current = np.isin(gt.data, np.asarray(keep, dtype=np.uint8))
    out = np.full(gt.n_pixels, BACKGROUND, dtype=np.uint8)
    out[current] = gt.data[current]
    fill = (gt.data == BACKGROUND) & (confidence > cfg.tau)
    out[fill] = best_class[fill].astype(np.uint8)
    keep_ignore = gt.data == IGNORE
    out[keep_ignore] = IGNORE
    return LabelGrid(width=gt.width, height=gt.height, data=out)
