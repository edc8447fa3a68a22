"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v`; a per-criterion PASS/FAIL/SKIP
summary is printed at the end of the session.
"""
import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

import ciss
from ciss import (
    BACKGROUND,
    LabelGrid,
    LossConfig,
    LossItem,
    PseudoConfig,
    ScoreMatrix,
    TaskClassLayout,
    accumulate,
    build_disjoint,
    build_overlapped,
    build_partitioned,
    classes_up_to,
    compose_batch,
    grad_check,
    iou_per_class,
    loss_value,
    make_non_overlapping_variant,
    miou,
    overlap_ratio,
    parse_layout,
    pseudo_label,
    pseudo_label_retrieval_rate,
    relabel,
    resolve_batch_labels,
    sample_class_balanced,
    save_memory,
    save_split,
    split_overlapping,
    task_classes,
)
from ciss.cli import main as cli_main
from conftest import make_record, random_scores, synthetic_manifest
from test_scenario import TestBackgroundShift


@pytest.fixture
def fig3(fig3_manifest, fig3_spec):
    return fig3_manifest, fig3_spec


def test_criterion_01_scenario_memberships(fig3):
    manifest, spec = fig3
    started = time.monotonic()
    over = build_overlapped(manifest, spec)
    assert [set(t) for t in over.tasks] == [
        {"Img1", "Img2", "Img4", "Img5"},
        {"Img1", "Img2"},
        {"Img1", "Img3", "Img4"},
    ]
    disj = build_disjoint(manifest, spec)
    assert [set(t) for t in disj.tasks] == [
        {"Img5"},
        {"Img2"},
        {"Img1", "Img3", "Img4"},
    ]
    part = build_partitioned(
        manifest, spec, seed=0, assignments={"Img1": 2, "Img2": 2, "Img4": 1}
    )
    assert [set(t) for t in part.tasks] == [
        {"Img4", "Img5"},
        {"Img1", "Img2"},
        {"Img3"},
    ]
    assert time.monotonic() - started < 1.0


def test_criterion_02_partitioned_invariants():
    started = time.monotonic()
    spec = parse_layout("15-1", 20)
    for manifest_seed in (101, 102, 103):
        manifest = synthetic_manifest(1000, 20, seed=manifest_seed, min_classes=1, max_classes=4)
        over = build_overlapped(manifest, spec)
        for seed in (0, 1, 2):
            part = build_partitioned(manifest, spec, seed=seed)
            seen = set()
            total = 0
            for t in range(spec.num_tasks):
                block = set(part.task_ids(t))
                assert not block & seen, "partitioned task lists must be pairwise disjoint"
                assert block <= set(over.task_ids(t)), "partitioned must nest inside overlapped"
                seen |= block
                total += len(block)
            assert total == len(manifest), "partitioned tasks must cover the dataset"
    assert time.monotonic() - started < 10.0


def test_criterion_03_background_shift():
    spec = parse_layout("15-1", 20)
    for manifest_seed in (101, 102, 103):
        manifest = synthetic_manifest(1000, 20, seed=manifest_seed, min_classes=1, max_classes=4)
        part = build_partitioned(manifest, spec, seed=0)
        future, past = TestBackgroundShift.shift_kinds(manifest, part)
        assert future, "partitioned must shift some future-class pixels to background"
        assert past, "partitioned must shift some past-class pixels to background"
        disj = build_disjoint(manifest, spec)
        future, _ = TestBackgroundShift.shift_kinds(manifest, disj)
        assert not future, "disjoint must never contain future-class pixels"


def test_criterion_04_memory_labels_stay_saved_at():
    manifest = synthetic_manifest(400, 20, seed=77, min_classes=2, max_classes=4)
    spec = parse_layout("15-1", 20)
    split = build_overlapped(manifest, spec)
    memory = sample_class_balanced(split, manifest, upto_task=0, capacity=60, seed=0)
    current_task = 1
    batch = compose_batch(list(split.task_ids(current_task)), memory, batch_size=24, seed=0)
    labels = resolve_batch_labels(batch, memory, manifest, spec, current_task)
    conflicts = 0
    for item, grid in zip(batch.items, labels):
        if item.source != "memory":
            continue
        entry = memory.entry(item.image_id)
        oracle = manifest.record(item.image_id).oracle_labels
        saved_view = relabel(oracle, classes_up_to(spec, entry.saved_at))
        current_view = relabel(oracle, task_classes(spec, current_task))
        assert grid == saved_view, "memory items must train on saved-at labels"
        if saved_view != current_view:
            conflicts += 1
            assert grid != current_view, "memory labels must not collapse to the current view"
    assert conflicts > 0, "fixture must contain at least one conflicting labeling"


def test_criterion_05_overlap_ratio_oracle_and_variant():
    manifest = synthetic_manifest(500, 20, seed=55, min_classes=1, max_classes=4)
    spec = parse_layout("15-1", 20)
    split = build_overlapped(manifest, spec)
    t = 1
    current = set(split.task_ids(t))
    for seed in range(100):
        memory = sample_class_balanced(split, manifest, upto_task=0, capacity=30, seed=seed)
        expected = sum(1 for e in memory.entries if e.image_id in current) / len(memory.entries)
        assert overlap_ratio(memory, split, t) == expected
        overlapping = sum(1 for e in memory.entries if e.image_id in current)
        supply = len(set(split.task_ids(0)) - current - memory.ids())
        variant = make_non_overlapping_variant(memory, split, manifest, t, seed=seed)
        if supply >= overlapping:
            assert overlap_ratio(variant, split, t) == 0.0
        assert len(variant) == len(memory)


def test_criterion_06_seen_unseen_halving():
    for overlap_size, want in [(1131, (566, 565)), (334, (167, 167)), (5, (3, 2)), (0, (0, 0))]:
        records = [make_record(f"b{k}", {1, 16}) for k in range(overlap_size)]
        records += [make_record(f"s{k}", {k % 15 + 1}) for k in range(20)]
        manifest = ciss.DatasetManifest(class_count=20, records=tuple(records))
        seen, unseen = split_overlapping(manifest, parse_layout("15-5", 20), t=1, seed=3)
        assert (len(seen), len(unseen)) == want
        assert not seen & unseen
        assert seen | unseen == {f"b{k}" for k in range(overlap_size)}


def test_criterion_07_retrieval_rate_properties():
    rng = np.random.default_rng(0)
    # pseudo equal to oracle scores exactly 100.00
    pairs = []
    for _ in range(10):
        data = rng.integers(0, 4, size=30).astype(np.uint8)
        grid = LabelGrid(width=6, height=5, data=data)
        pairs.append((grid, grid))
    assert pseudo_label_retrieval_rate(pairs, {1, 2, 3}) == 100.0

    # threshold 1.0 keeps the ground truth untouched
    gt = LabelGrid(width=8, height=1, data=np.array([4, 4, 0, 0, 0, 255, 4, 0], dtype=np.uint8))
    for seed in range(5):
        prev = random_scores(8, (0, 1, 2, 3), seed)
        assert pseudo_label(gt, prev, {4}, PseudoConfig(tau=1.0)) == gt

    # raising the threshold never adds pseudo-labeled pixels
    taus = (0.0, 0.25, 0.5, 0.75, 1.0)
    for seed in range(50):
        prev = random_scores(24, (0, 1, 2, 3), seed)
        gt = LabelGrid(width=24, height=1, data=np.zeros(24, dtype=np.uint8))
        filled = [
            int(np.sum(pseudo_label(gt, prev, {4}, PseudoConfig(tau=t)).data != BACKGROUND))
            for t in taus
        ]
        assert filled == sorted(filled, reverse=True)


def test_criterion_08_miou_bruteforce_equivalence():
    from test_metrics import brute_force_iou

    rng = np.random.default_rng(8)
    for _ in range(200):
        pred = LabelGrid(width=8, height=8, data=rng.integers(0, 4, 64).astype(np.uint8))
        gt_values = rng.integers(0, 4, 64).astype(np.uint8)
        gt_values[rng.random(64) < 0.05] = 255
        gt = LabelGrid(width=8, height=8, data=gt_values)
        acc = accumulate(pred, gt)
        expected = brute_force_iou(pred, gt, range(4))
        got = iou_per_class(acc, range(4))
        for c in range(4):
            if expected[c] is None:
                assert got[c] is None
            else:
                assert abs(got[c] - expected[c]) <= 1e-9
        want_mean = sum(v if v is not None else 0.0 for v in expected.values()) / 4
        assert abs(miou(acc, range(4)) - want_mean) <= 1e-9


def test_criterion_09_loss_closed_forms():
    layout = TaskClassLayout(old_classes=frozenset({1}), new_classes=frozenset({2, 3}))
    uniform = ScoreMatrix(class_map=(0, 1, 2, 3), logits=np.zeros((1, 4)))
    bg = LabelGrid(width=1, height=1, data=np.zeros(1, dtype=np.uint8))
    item = LossItem(uniform, bg)
    assert abs(loss_value("ce_current", item, layout, LossConfig()) - math.log(2.0)) <= 1e-9
    assert abs(loss_value("ce_memory", item, layout, LossConfig()) - (-math.log(0.75))) <= 1e-9
    assert abs(loss_value("bce_new", item, layout, LossConfig()) - (-2 * math.log(0.75))) <= 1e-9


def test_criterion_10_gradient_checks():
    from test_losses import WIDE, _random_item

    started = time.monotonic()
    cfg = LossConfig(kd_weight=5.0, positive_weight=2.0)
    for loss_id in ciss.ATOMIC_LOSSES:
        for seed in range(20):
            item = _random_item(loss_id, seed)
            report = grad_check(loss_id, item, WIDE, cfg, step=1e-5, tol=1e-6, max_coords=48, seed=seed)
            assert report.passed, f"{loss_id} seed {seed}: max_rel_err={report.max_rel_err:.3e}"
    assert time.monotonic() - started < 30.0


def _criterion_11_artifacts(base):
    """Write criterion 11's split, overlapped split, memory and batch listing under `base`."""
    manifest = synthetic_manifest(300, 20, seed=31, min_classes=1, max_classes=4)
    spec = parse_layout("15-1", 20)
    base.mkdir()
    split = build_partitioned(manifest, spec, seed=1234)
    save_split(split, base / "split.json")
    over = build_overlapped(manifest, spec)
    save_split(over, base / "over.json")
    memory = sample_class_balanced(over, manifest, upto_task=0, capacity=40, seed=99)
    save_memory(memory, base / "memory.json", manifest, spec)
    batch = compose_batch(list(over.task_ids(1)), memory, batch_size=24, seed=7)
    listing = json.dumps(
        [{"image_id": it.image_id, "source": it.source} for it in batch.items], indent=2
    )
    (base / "batch.json").write_text(listing)


def test_criterion_11_determinism(tmp_path):
    artifacts = []
    for run in ("run1", "run2"):
        base = tmp_path / run
        _criterion_11_artifacts(base)
        artifacts.append(
            {
                name: (base / name).read_bytes()
                for name in ("split.json", "over.json", "memory.json", "batch.json")
            }
        )
    assert artifacts[0] == artifacts[1]


# sha256 of criterion 11's artifacts: the splits, the memory and its grids as
# written before class sets came from a byte histogram and relabeling from a
# lookup table, the batch listing as written when its digest was added; the
# memory grids are hashed as one stream of (file name, NUL, file bytes) in name order.
PINNED_DIGESTS = {
    "split.json": "865cac66165c0bdb6215f5e21bbc327405ac337095bbd85e68dc43987e802a27",
    "over.json": "6a53d375018c88500df9df63163f62ec7cb0a665dff57e7541f07345418bf507",
    "memory.json": "69a3f23f1b7fbbfff8a53a3eb36b58ae50cf85ca4b530de05e6c2733311a8fe6",
    "memory_grids": "71783be1d238c7280067cf642a17597de3019edc168e7a2532510d4c66b32e4a",
    "batch.json": "98b80b063d0d0096cdac53410a6ab0005c80049ec9686eee84e0a7515bb8a257",
}


def test_criterion_11_artifacts_match_pinned_digests(tmp_path):
    base = tmp_path / "run"
    _criterion_11_artifacts(base)
    got = {name: hashlib.sha256((base / name).read_bytes()).hexdigest()
           for name in ("split.json", "over.json", "memory.json", "batch.json")}
    grids = sorted((base / "memory_grids").iterdir())
    assert len(grids) == 40
    stream = hashlib.sha256()
    for path in grids:
        stream.update(path.name.encode() + b"\0" + path.read_bytes())
    got["memory_grids"] = stream.hexdigest()
    assert got == PINNED_DIGESTS
    assert not list(base.rglob("*.tmp"))


@pytest.mark.skipif(
    "CISS_VOC_MANIFEST" not in os.environ,
    reason="reference dataset not present; set CISS_VOC_MANIFEST to run",
)
def test_criterion_12_reference_dataset_counts(capsys, tmp_path):
    manifest_path = os.environ["CISS_VOC_MANIFEST"]
    argv = [
        "build",
        "--manifest", manifest_path,
        "--scenario", "overlapped",
        "--task", "15-1",
        "--out", str(tmp_path / "voc_split.json"),
    ]
    order = os.environ.get("CISS_VOC_CLASS_ORDER")
    if order:
        argv += ["--class-order", order]
    code = cli_main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["task_counts"] == [9568, 487, 299, 491, 500, 548]
