"""Pseudo-labeling rules and threshold behavior."""
import numpy as np
import pytest

from ciss import (
    BACKGROUND,
    IGNORE,
    LabelGrid,
    PseudoConfig,
    ScoreMatrix,
    ValidationError,
    pseudo_label,
    relabel,
)
from conftest import grid_with, one_hot_scores, random_scores


def test_tau_one_is_identity():
    gt = LabelGrid(width=6, height=1, data=np.array([3, 3, 0, 0, 255, 3], dtype=np.uint8))
    prev = random_scores(6, (0, 1, 2), seed=0)
    out = pseudo_label(gt, prev, current_classes={3}, cfg=PseudoConfig(tau=1.0))
    assert out == gt


def test_output_raster_is_kept_uncopied():
    gt = LabelGrid(width=6, height=1, data=np.array([3, 3, 0, 0, 255, 3], dtype=np.uint8))
    out = pseudo_label(gt, random_scores(6, (0, 1, 2), seed=0), current_classes={3}, cfg=PseudoConfig(tau=0.5))
    assert not out.data.flags.writeable
    assert out.data.base is not None and out.data.base.flags.owndata  # a view of the raster it made


def test_current_class_pixels_never_change():
    gt = LabelGrid(width=4, height=1, data=np.array([3, 3, 0, 0], dtype=np.uint8))
    prev = one_hot_scores(
        LabelGrid(width=4, height=1, data=np.array([1, 1, 1, 1], dtype=np.uint8)), (0, 1, 2)
    )
    out = pseudo_label(gt, prev, current_classes={3}, cfg=PseudoConfig(tau=0.0))
    assert out.data[:2].tolist() == [3, 3]
    assert out.data[2:].tolist() == [1, 1]


def test_confident_background_stays_background():
    gt = LabelGrid(width=2, height=1, data=np.array([0, 0], dtype=np.uint8))
    bg_grid = LabelGrid(width=2, height=1, data=np.array([0, 0], dtype=np.uint8))
    prev = one_hot_scores(bg_grid, (0, 1, 2))
    out = pseudo_label(gt, prev, current_classes={3}, cfg=PseudoConfig(tau=0.0))
    assert out.data.tolist() == [0, 0]


def test_oracle_recovery_with_perfect_previous_model():
    """One-hot scores built from the oracle recover all old-class pixels on
    background regions at threshold zero."""
    oracle = grid_with({1, 2}, width=5, height=2)
    current_classes = {3}
    gt = relabel(oracle, current_classes)  # all old classes shifted to bg
    prev = one_hot_scores(oracle, (0, 1, 2))
    out = pseudo_label(gt, prev, current_classes, cfg=PseudoConfig(tau=0.0))
    expected = relabel(oracle, {1, 2})
    assert out == expected


def test_ignore_pixels_untouched():
    gt = LabelGrid(width=3, height=1, data=np.array([255, 0, 255], dtype=np.uint8))
    oracle = LabelGrid(width=3, height=1, data=np.array([1, 1, 1], dtype=np.uint8))
    prev = one_hot_scores(oracle, (0, 1))
    out = pseudo_label(gt, prev, current_classes={2}, cfg=PseudoConfig(tau=0.0))
    assert out.data.tolist() == [255, 1, 255]


def test_output_classes_stay_in_contract():
    gt = grid_with({4}, width=8, height=4)
    prev = random_scores(32, (0, 1, 2, 3), seed=1)
    out = pseudo_label(gt, prev, current_classes={4}, cfg=PseudoConfig(tau=0.2))
    allowed = {BACKGROUND, IGNORE, 1, 2, 3, 4}
    assert set(np.unique(out.data).tolist()) <= allowed


@pytest.mark.parametrize("seed", range(6))
def test_monotone_in_threshold(seed):
    gt = grid_with({4}, width=6, height=4)
    prev = random_scores(24, (0, 1, 2, 3), seed=seed)
    filled_counts = []
    for tau in (0.0, 0.3, 0.6, 0.9, 1.0):
        out = pseudo_label(gt, prev, {4}, PseudoConfig(tau=tau))
        filled_counts.append(int(np.sum((out.data != BACKGROUND) & (gt.data == BACKGROUND))))
    assert filled_counts == sorted(filled_counts, reverse=True)


def test_tie_breaks_to_lowest_class_id():
    gt = LabelGrid(width=1, height=1, data=np.array([0], dtype=np.uint8))
    prev = ScoreMatrix(class_map=(2, 1, 0), logits=np.zeros((1, 3)))
    out = pseudo_label(gt, prev, current_classes={3}, cfg=PseudoConfig(tau=0.1))
    assert out.data.tolist() == [BACKGROUND]  # the three-way tie picks bg (id 0)


def test_misaligned_sizes_rejected():
    gt = LabelGrid(width=2, height=1, data=np.array([0, 0], dtype=np.uint8))
    prev = random_scores(3, (0, 1), seed=0)
    with pytest.raises(ValidationError):
        pseudo_label(gt, prev, {2}, PseudoConfig(tau=0.5))


def test_threshold_range_validated():
    with pytest.raises(ValidationError):
        PseudoConfig(tau=1.5)
