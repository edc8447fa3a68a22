"""Confusion accumulation, mIoU, and the retrieval-rate metric."""
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciss import (
    ConfusionAccumulator,
    LabelGrid,
    ValidationError,
    accumulate,
    evaluation_report,
    iou_per_class,
    miou,
    parse_layout,
    pseudo_label_retrieval_rate,
)
from ciss.cli import main
from ciss.pgm import write_pgm


def g(values, width=None):
    values = list(values)
    width = width or len(values)
    return LabelGrid(width=width, height=len(values) // width, data=np.array(values, dtype=np.uint8))


def brute_force_iou(pred: LabelGrid, gt: LabelGrid, classes) -> dict:
    """Independent per-pixel counter used as the oracle."""
    out = {}
    for c in classes:
        tp = fp = fn = 0
        for p, t in zip(pred.data.tolist(), gt.data.tolist()):
            if t == 255:
                continue
            if p == c and t == c:
                tp += 1
            elif p == c and t != c:
                fp += 1
            elif p != c and t == c:
                fn += 1
        out[c] = None if tp + fp + fn == 0 else 100.0 * tp / (tp + fp + fn)
    return out


def brute_force_counts(pred: LabelGrid, gt: LabelGrid):
    """Per-id tp, fp, fn by walking the pixels; gt pixels of 255 are skipped."""
    tp, fp, fn = (np.zeros(256, dtype=np.int64) for _ in range(3))
    for p, t in zip(pred.data.tolist(), gt.data.tolist()):
        if t == 255:
            continue
        if p == t:
            tp[t] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    return tp, fp, fn


@st.composite
def all_byte_pairs(draw):
    """(pred, gt) of equal length, each holding every byte value 0..255 at
    least once, shuffled; gt's extra pixels are ignore about half the time."""
    extra = draw(st.integers(0, 64))
    out = []
    for elements in (st.integers(0, 255), st.just(255) | st.integers(0, 255)):
        tail = draw(st.lists(elements, min_size=extra, max_size=extra))
        values = np.concatenate([np.arange(256), np.array(tail, dtype=np.int64)]).astype(np.uint8)
        shuffle = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(values.size)
        out.append(LabelGrid(width=values.size, height=1, data=values[shuffle]))
    return tuple(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(all_byte_pairs())
def test_accumulate_matches_per_pixel_count(pair):
    pred, gt = pair
    acc = accumulate(pred, gt)
    tp, fp, fn = brute_force_counts(pred, gt)
    assert np.array_equal(acc.tp, tp)
    assert np.array_equal(acc.fp, fp)
    assert np.array_equal(acc.fn, fn)


def test_predicted_ignore_id_is_a_false_positive_of_255():
    acc = accumulate(g([255, 1, 255]), g([1, 1, 255]))
    assert acc.counts(255) == (0, 1, 0)
    assert acc.counts(1) == (1, 0, 1)


def test_perfect_prediction_has_no_errors():
    grid = g([1, 2, 0, 255])
    acc = accumulate(grid, grid)
    for c in (0, 1, 2):
        tp, fp, fn = acc.counts(c)
        assert fp == 0 and fn == 0
    assert miou(acc, {1, 2}) == 100.0


def test_hand_counted_two_by_two():
    pred = g([1, 1, 2, 0], width=2)
    gt = g([1, 2, 2, 0], width=2)
    acc = accumulate(pred, gt)
    assert acc.counts(1) == (1, 1, 0)
    assert acc.counts(2) == (1, 0, 1)
    assert miou(acc, {1, 2}) == pytest.approx(50.0)


def test_all_ignore_changes_nothing():
    pred = g([1, 2])
    gt = g([255, 255])
    acc = accumulate(pred, gt)
    assert acc.tp.sum() == acc.fp.sum() == acc.fn.sum() == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        accumulate(g([1, 2]), g([1, 2, 0]))


def test_absent_class_is_null_and_counts_zero():
    pred = g([1, 1])
    gt = g([1, 1])
    per = iou_per_class(accumulate(pred, gt), {1, 2})
    assert per[1] == 100.0 and per[2] is None
    assert miou(accumulate(pred, gt), {1, 2}) == pytest.approx(50.0)


@pytest.mark.parametrize("class_id", [-1, 255, 256, 300])
def test_ids_outside_0_to_254_rejected(class_id):
    acc = accumulate(g([1, 255]), g([1, 1]))
    with pytest.raises(ValidationError):
        iou_per_class(acc, [1, class_id])
    with pytest.raises(ValidationError):
        miou(acc, [class_id])


def test_empty_class_set_rejected():
    with pytest.raises(ValidationError):
        miou(ConfusionAccumulator(), set())


@pytest.mark.parametrize("seed", range(8))
def test_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    pred = g(rng.integers(0, 4, size=64).tolist(), width=8)
    gt_values = rng.integers(0, 4, size=64)
    gt_values[rng.random(64) < 0.1] = 255
    gt = g(gt_values.tolist(), width=8)
    acc = accumulate(pred, gt)
    expected = brute_force_iou(pred, gt, range(4))
    got = iou_per_class(acc, range(4))
    for c in range(4):
        if expected[c] is None:
            assert got[c] is None
        else:
            assert got[c] == pytest.approx(expected[c], abs=1e-12)


def test_merge_equals_sequential_accumulation():
    rng = np.random.default_rng(12)
    grids = [
        (g(rng.integers(0, 3, 16).tolist(), width=4), g(rng.integers(0, 3, 16).tolist(), width=4))
        for _ in range(6)
    ]
    sequential = ConfusionAccumulator()
    for pred, gt in grids:
        accumulate(pred, gt, sequential)
    left = ConfusionAccumulator()
    right = ConfusionAccumulator()
    for pred, gt in grids[:3]:
        accumulate(pred, gt, left)
    for pred, gt in grids[3:]:
        accumulate(pred, gt, right)
    merged = left + right
    assert np.array_equal(merged.tp, sequential.tp)
    assert np.array_equal(merged.fp, sequential.fp)
    assert np.array_equal(merged.fn, sequential.fn)
    assert miou(merged, {0, 1, 2}) == miou(sequential, {0, 1, 2})


class TestRetrievalRate:
    def test_perfect_pseudo_labels_score_100(self):
        pairs = []
        rng = np.random.default_rng(3)
        for _ in range(5):
            grid = g(rng.integers(0, 3, 20).tolist(), width=5)
            pairs.append((grid, grid))
        assert pseudo_label_retrieval_rate(pairs, {1, 2}) == 100.0

    def test_all_background_closed_form(self):
        # oracle holds every old class; the only defined-positive class is bg
        oracle = g([1, 2, 0, 0, 0])
        blank = g([0, 0, 0, 0, 0])
        # bg: tp=3, fp=2, fn=0 -> 60; classes 1, 2: IoU 0; mean over 3 classes
        value = pseudo_label_retrieval_rate([(oracle, blank)], {1, 2})
        assert value == pytest.approx((60.0 + 0.0 + 0.0) / 3)

    def test_dataset_mean_of_per_image_scores(self):
        # image A: class 1 IoU 60, bg IoU 100 -> 80
        oracle_a = g([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        pseudo_a = g([1, 1, 1, 9, 9, 0, 0, 0, 0, 0])
        # image B: class 1 IoU 20, bg IoU 100 -> 60
        oracle_b = g([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        pseudo_b = g([1, 9, 9, 9, 9, 0, 0, 0, 0, 0])
        value = pseudo_label_retrieval_rate([(oracle_a, pseudo_a), (oracle_b, pseudo_b)], {1})
        assert value == pytest.approx(70.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        pairs = [
            (g(rng.integers(0, 3, 12).tolist(), width=4), g(rng.integers(0, 3, 12).tolist(), width=4))
            for _ in range(5)
        ]
        forward = pseudo_label_retrieval_rate(pairs, {1, 2})
        backward = pseudo_label_retrieval_rate(list(reversed(pairs)), {1, 2})
        assert forward == pytest.approx(backward)

    def test_pixels_outside_measured_classes_do_not_leak(self):
        # relabeling unmeasured pixels to a current-task class leaves the
        # measured counts alone as long as they stay outside the measured set
        oracle = g([1, 0, 7, 7])
        pseudo = g([1, 0, 7, 7])
        moved = g([1, 0, 9, 9])
        base = pseudo_label_retrieval_rate([(oracle, pseudo)], {1})
        assert base == pseudo_label_retrieval_rate([(oracle, moved)], {1})

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            pseudo_label_retrieval_rate([], {1})
        with pytest.raises(ValidationError):
            pseudo_label_retrieval_rate(iter([]), {1})

    def test_generator_matches_list(self):
        rng = np.random.default_rng(4)
        pairs = [
            (g(rng.integers(0, 4, 12).tolist(), width=4), g(rng.integers(0, 4, 12).tolist(), width=4))
            for _ in range(5)
        ]
        assert pseudo_label_retrieval_rate(iter(pairs), {1, 2}) == pseudo_label_retrieval_rate(pairs, {1, 2})

    def test_pairs_are_held_one_at_a_time(self):
        width, height = 200, 150

        def pairs(n):
            rng = np.random.default_rng(5)
            for _ in range(n):
                oracle = LabelGrid(width, height, rng.integers(0, 4, width * height, dtype=np.uint8))
                pseudo = LabelGrid(width, height, rng.integers(0, 4, width * height, dtype=np.uint8))
                yield oracle, pseudo

        def peak(n):
            tracemalloc.start()
            try:
                pseudo_label_retrieval_rate(pairs(n), {1, 2})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(2), peak(60)
        # holding the 60 pairs' grids would add 58 * 2 * 30,000 bytes
        assert many < few + 2**20


def test_evaluation_report_groups():
    spec = parse_layout("2-1", 3)
    pred = g([1, 2, 3, 0])
    gt = g([1, 2, 3, 0])
    report = evaluation_report(accumulate(pred, gt), spec)
    assert report["miou_groups"]["base"] == 100.0
    assert report["miou_groups"]["incremental"] == 100.0
    assert report["miou_groups"]["all"] == 100.0
    assert report["per_class_iou"]["0"] == 100.0
    single = parse_layout("3-3", 3)
    report = evaluation_report(accumulate(pred, gt), single)
    assert report["miou_groups"]["incremental"] is None


def _eval_fixture(tmp_path):
    """Six seeded 40x30 pairs with ignore pixels in gt and 255 and an
    unknown class 6 in the predictions; returns the miou and prr argv."""
    rng = np.random.default_rng(2024)
    miou_pairs, prr_pairs = [], []
    for i in range(6):
        gt = rng.integers(0, 6, size=(30, 40))
        gt[rng.random(gt.shape) < 0.1] = 255
        pred = np.where(rng.random(gt.shape) < 0.3, rng.integers(0, 7, size=gt.shape), gt)
        pred[rng.random(gt.shape) < 0.02] = 255
        write_pgm(LabelGrid.from_rows(gt.astype(np.uint8)), tmp_path / f"gt{i}.pgm")
        write_pgm(LabelGrid.from_rows(pred.astype(np.uint8)), tmp_path / f"pred{i}.pgm")
        miou_pairs.append({"pred": f"pred{i}.pgm", "gt": f"gt{i}.pgm"})
        prr_pairs.append({"oracle": f"gt{i}.pgm", "pseudo": f"pred{i}.pgm"})
    (tmp_path / "miou.json").write_text(json.dumps(miou_pairs))
    (tmp_path / "prr.json").write_text(json.dumps(prr_pairs))
    layout = ["--task", "3-1", "--class-count", "5"]
    return {
        "miou": ["eval", "miou", "--pairs", str(tmp_path / "miou.json"), *layout],
        "prr": ["eval", "prr", "--pairs", str(tmp_path / "prr.json"), *layout, "--current-task", "1"],
    }


@pytest.mark.parametrize(
    "command, digest",
    [
        ("miou", "3c869d7a2e586d268254d5913130be9c462346de0f0ac47df705baac19e8eb37"),
        ("prr", "cdab7a96abd67f46c6f274b3946efe1dbcb25db3ab6e7d9a34aedb66aac212ec"),
    ],
)
def test_eval_stdout_is_pinned(capsys, tmp_path, command, digest):
    # digests of the stdout of the three-bincount accumulator this one replaced
    assert main(_eval_fixture(tmp_path)[command]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
