"""Pseudo-labeling rules and threshold behavior."""
import tracemalloc

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
from ciss.scores import BLOCK_ROWS, softmax_probs, top_probs
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
    assert np.shares_memory(out.data, np.frombuffer(out.raster, np.uint8))  # a view of the grid's raster


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


@pytest.mark.parametrize("current", [set(), ()])
def test_empty_current_class_set_rejected(current):
    gt = LabelGrid(width=2, height=1, data=np.array([3, 0], dtype=np.uint8))
    with pytest.raises(ValidationError, match="at least one current class"):
        pseudo_label(gt, random_scores(2, (0, 1), seed=0), current, PseudoConfig(tau=0.5))


def full_matrix_softmax(scores: ScoreMatrix) -> np.ndarray:
    """The row-wise softmax of the whole N x K matrix in one pass: the
    reference the class-major blocks must match bit for bit."""
    z = scores.logits
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def assert_same_top(scores: ScoreMatrix) -> None:
    probs = full_matrix_softmax(scores)
    order = np.argsort(scores.class_map, kind="stable")
    want_best = np.asarray(scores.class_map, dtype=np.int64)[order][np.argmax(probs[:, order], axis=1)]
    best, confidence = top_probs(scores)
    assert np.array_equal(best, want_best)
    assert np.array_equal(confidence, probs.max(axis=1))
    assert np.array_equal(softmax_probs(scores), probs)


@pytest.mark.parametrize("class_map", [tuple(range(16)), (7, 0, 15, 3, 9, 1, 12, 5, 2, 14, 4, 11, 6, 13, 8, 10)],
                         ids=["sorted", "unsorted"])
@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 17])
def test_blocked_top_is_bit_identical_to_the_full_matrix(class_map, n):
    rng = np.random.default_rng(n)
    assert_same_top(ScoreMatrix(class_map=class_map, logits=rng.normal(scale=4.0, size=(n, 16))))


@pytest.mark.parametrize("class_map", [(0, 1, 2, 3), (3, 1, 0, 2)], ids=["sorted", "unsorted"])
def test_blocked_top_breaks_exact_ties_to_the_lowest_id(class_map):
    """Logits drawn from three values, so most rows tie two or more classes."""
    logits = np.random.default_rng(0).choice([0.0, 1.0, 2.0], size=(BLOCK_ROWS + 1, 4))
    scores = ScoreMatrix(class_map=class_map, logits=logits)
    assert_same_top(scores)
    best, _ = top_probs(scores)
    top = logits == logits.max(axis=1, keepdims=True)
    assert best.tolist() == [min(c for c, t in zip(class_map, row) if t) for row in top]


def test_confidence_equal_to_tau_is_not_filled():
    """Classes 1 and 2 tie and background's probability is exactly 0, so
    every row's top probability is exactly 0.5; the fill needs a confidence
    strictly above tau."""
    n = BLOCK_ROWS + 1
    logits = np.zeros((n, 3))
    logits[:, 0] = -1e300
    scores = ScoreMatrix(class_map=(0, 2, 1), logits=logits)
    assert_same_top(scores)
    best, confidence = top_probs(scores)
    assert np.all(confidence == 0.5) and np.all(best == 1)
    gt = LabelGrid(width=n, height=1, data=np.zeros(n, dtype=np.uint8))
    assert pseudo_label(gt, scores, {3}, PseudoConfig(tau=0.5)) == gt
    below = pseudo_label(gt, scores, {3}, PseudoConfig(tau=float(np.nextafter(0.5, 0.0))))
    assert np.all(below.data == 1)


def test_full_size_image_takes_a_few_mb():
    """One 500 x 375 image over 16 classes: the row blocks keep pseudo_label's
    temporaries far below one N x K float64 matrix (24 MB)."""
    n = 187_500
    rng = np.random.default_rng(0)
    scores = ScoreMatrix(class_map=tuple(range(16)), logits=rng.normal(size=(n, 16)))
    gt = LabelGrid(width=500, height=375, data=rng.choice(np.array([0, 16, 255], dtype=np.uint8), n))
    tracemalloc.start()
    try:
        pseudo_label(gt, scores, {16}, PseudoConfig(tau=0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def mask_rule(gt: LabelGrid, prev: ScoreMatrix, current: set[int], tau: float) -> np.ndarray:
    """The pixel rule written out as masks: current-class ground truth kept,
    confident background filled with the top class, ignore restored, the
    rest background."""
    best, confidence = top_probs(prev)
    out = np.full(gt.n_pixels, BACKGROUND, dtype=np.uint8)
    current_pixels = np.isin(gt.data, np.asarray(sorted(current), dtype=np.uint8))
    out[current_pixels] = gt.data[current_pixels]
    fill = (gt.data == BACKGROUND) & (confidence > tau)
    out[fill] = best[fill]
    out[gt.data == IGNORE] = IGNORE
    return out


@pytest.mark.parametrize("class_map", [(0, 1, 2, 3, 4), (3, 0, 4, 1, 2)], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
def test_pseudo_label_matches_the_mask_rule(class_map, tau):
    """Random grids over background, ignore and ids 1..8, against scores over
    0..4: current sets mix ids the score map holds with ids it lacks (5..8),
    and the grid holds ids outside the current set."""
    rng = np.random.default_rng([int(tau * 10), class_map[0]])
    values = np.array([BACKGROUND, IGNORE, *range(1, 9)], dtype=np.uint8)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        gt = LabelGrid(width=n, height=1, data=rng.choice(values, n))
        prev = ScoreMatrix(class_map=class_map, logits=rng.normal(scale=2.0, size=(n, len(class_map))))
        current = {int(c) for c in rng.choice(np.arange(1, 9), int(rng.integers(1, 5)), replace=False)}
        out = pseudo_label(gt, prev, current, PseudoConfig(tau=tau))
        assert np.array_equal(out.data, mask_rule(gt, prev, current, tau))
