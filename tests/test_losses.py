"""Loss kernel: closed forms, independent recomputation oracles, composite
objectives, and finite-difference gradient checks."""
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ciss import (
    ATOMIC_LOSSES,
    FormatError,
    LabelGrid,
    LossConfig,
    LossItem,
    ScoreMatrix,
    TaskClassLayout,
    ValidationError,
    bce_replay_objective,
    grad_check,
    grad_logits,
    load_loss_case,
    loss_value,
    memory_augmented_objective,
    pseudo_replay_objective,
    write_scores,
)
from ciss import losses as losses_module
from ciss.losses import GradCheckReport
from ciss.pgm import write_pgm
from ciss.scores import BLOCK_ROWS

LAYOUT = TaskClassLayout(old_classes=frozenset({1}), new_classes=frozenset({2, 3}))
WIDE = TaskClassLayout(old_classes=frozenset({1, 2}), new_classes=frozenset({3, 4, 5}))
CFG = LossConfig(kd_weight=5.0, positive_weight=1.0)


def labels_of(values) -> LabelGrid:
    values = list(values)
    return LabelGrid(width=len(values), height=1, data=np.array(values, dtype=np.uint8))


def uniform_scores(n=1, cmap=(0, 1, 2, 3)) -> ScoreMatrix:
    return ScoreMatrix(class_map=cmap, logits=np.zeros((n, len(cmap))))


def rand_scores(n, cmap, seed) -> ScoreMatrix:
    rng = np.random.default_rng(seed)
    return ScoreMatrix(class_map=cmap, logits=rng.uniform(-5, 5, size=(n, len(cmap))))


def rand_labels(n, choices, seed) -> LabelGrid:
    rng = np.random.default_rng(seed + 1000)
    values = rng.choice(np.array(sorted(choices), dtype=np.uint8), size=n)
    values[0] = sorted(c for c in choices if c != 255)[0]  # at least one valid pixel
    return labels_of(values)


# --- independent oracles (plain loops, no shared code with the library) -----


def oracle_softmax(row):
    m = max(row)
    e = [math.exp(v - m) for v in row]
    s = sum(e)
    return [v / s for v in e]


def oracle_bucket_ce(scores, labels, absorbed):
    total, n = 0.0, 0
    for i in range(scores.n_pixels):
        y = int(labels.data[i])
        if y == 255:
            continue
        p = oracle_softmax(scores.logits[i].tolist())
        if y == 0:
            q = sum(p[scores.class_map.index(c)] for c in sorted(absorbed | {0}))
        else:
            q = p[scores.class_map.index(y)]
        total += -math.log(q)
        n += 1
    return total / n


def oracle_kd(prev, curr, layout, include_bg):
    total = 0.0
    old = sorted(layout.old_classes)
    bucket = sorted(layout.new_classes | {0})
    for i in range(curr.n_pixels):
        a = oracle_softmax(prev.logits[i].tolist())
        p = oracle_softmax(curr.logits[i].tolist())
        for c in old:
            total += a[prev.class_map.index(c)] * math.log(p[curr.class_map.index(c)])
        if include_bg:
            q = sum(p[curr.class_map.index(c)] for c in bucket)
            total += a[prev.class_map.index(0)] * math.log(q)
    return -total / curr.n_pixels


def oracle_bce(scores, labels, selected, gamma):
    total, n = 0.0, 0
    for i in range(scores.n_pixels):
        y = int(labels.data[i])
        if y == 255:
            continue
        p = oracle_softmax(scores.logits[i].tolist())
        for c in sorted(selected):
            pc = p[scores.class_map.index(c)]
            if y == c:
                total += gamma * math.log(pc)
            else:
                total += math.log(1.0 - pc)
        n += 1
    return -total / n


def oracle_plain_ce(scores, labels):
    total, n = 0.0, 0
    for i in range(scores.n_pixels):
        y = int(labels.data[i])
        if y == 255:
            continue
        p = oracle_softmax(scores.logits[i].tolist())
        total += -math.log(p[scores.class_map.index(y)])
        n += 1
    return total / n


# --- task class layouts ------------------------------------------------------


class TestTaskClassLayout:
    def test_layout_mismatch_rejected(self):
        item = LossItem(uniform_scores(cmap=(0, 1, 2)), labels_of([0]))
        with pytest.raises(ValidationError, match=r"^score class map \[0, 1, 2\] does not cover \[0, 1, 2, 3\]$"):
            loss_value("ce_current", item, LAYOUT, LossConfig())

    @pytest.mark.parametrize("side", ["old_classes", "new_classes"])
    @pytest.mark.parametrize("class_id", [0, 255, 300, -1])
    def test_layout_ids_must_lie_in_1_to_254(self, side, class_id):
        classes = {"old_classes": {1}, "new_classes": {2, 3}}
        classes[side] = classes[side] | {class_id}
        with pytest.raises(ValidationError, match=rf"^class id {class_id} is reserved or outside 1\.\.254$"):
            TaskClassLayout(**classes)


# --- closed forms and oracles -------------------------------------------------


class TestClosedForms:
    def test_current_ce_uniform(self):
        value = loss_value("ce_current", LossItem(uniform_scores(), labels_of([0])), LAYOUT, LossConfig())
        assert value == pytest.approx(math.log(2.0), abs=1e-9)

    def test_memory_ce_uniform(self):
        value = loss_value("ce_memory", LossItem(uniform_scores(), labels_of([0])), LAYOUT, LossConfig())
        assert value == pytest.approx(-math.log(0.75), abs=1e-9)

    def test_bce_uniform_hand_value(self):
        value = loss_value("bce_new", LossItem(uniform_scores(), labels_of([0])), LAYOUT, LossConfig())
        assert value == pytest.approx(-2.0 * math.log(0.75), abs=1e-9)

    def test_one_hot_limits(self):
        margin = np.zeros((1, 4))
        margin[0, 2] = 60.0  # class 2 column
        item = LossItem(ScoreMatrix(class_map=(0, 1, 2, 3), logits=margin), labels_of([2]))
        value = loss_value("ce_current", item, LAYOUT, LossConfig())
        assert value < 1e-12
        item = LossItem(ScoreMatrix(class_map=(0, 1, 2, 3), logits=margin * 1.0), labels_of([2]))
        value = loss_value("bce_new", item, LAYOUT, LossConfig())
        assert value < 1e-10


class TestOracleRecomputation:
    @pytest.mark.parametrize("seed", range(5))
    def test_current_ce(self, seed):
        scores = rand_scores(12, (0, 3, 1, 2), seed)
        labels = rand_labels(12, {0, 2, 3, 255}, seed)
        got = loss_value("ce_current", LossItem(scores, labels), LAYOUT, LossConfig())
        assert got == pytest.approx(oracle_bucket_ce(scores, labels, LAYOUT.old_classes), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_memory_ce(self, seed):
        scores = rand_scores(12, (0, 3, 1, 2), seed)
        labels = rand_labels(12, {0, 1, 255}, seed)
        got = loss_value("ce_memory", LossItem(scores, labels), LAYOUT, LossConfig())
        assert got == pytest.approx(oracle_bucket_ce(scores, labels, LAYOUT.new_classes), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("include_bg", [True, False])
    def test_kd(self, seed, include_bg):
        prev = rand_scores(10, (0, 1), seed + 50)
        curr = rand_scores(10, (0, 1, 2, 3), seed)
        cfg = LossConfig(kd_includes_bg=include_bg)
        got = loss_value("kd_old", LossItem(curr, prev_scores=prev), LAYOUT, cfg)
        assert got == pytest.approx(oracle_kd(prev, curr, LAYOUT, include_bg), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_bce_both_directions(self, seed):
        cfg = LossConfig(positive_weight=2.0)
        scores = rand_scores(12, (0, 1, 2, 3), seed)
        cur_labels = rand_labels(12, {0, 2, 3, 255}, seed)
        got = loss_value("bce_new", LossItem(scores, cur_labels), LAYOUT, cfg)
        assert got == pytest.approx(oracle_bce(scores, cur_labels, LAYOUT.new_classes, 2.0), abs=1e-10)
        mem_labels = rand_labels(12, {0, 1, 255}, seed)
        got = loss_value("bce_old", LossItem(scores, mem_labels), LAYOUT, cfg)
        assert got == pytest.approx(oracle_bce(scores, mem_labels, LAYOUT.old_classes, 2.0), abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_plain_ce(self, seed):
        scores = rand_scores(10, (0, 1, 2, 3), seed)
        labels = rand_labels(10, {0, 1, 2, 3, 255}, seed)
        got = loss_value("ce_plain", LossItem(scores, labels), None, LossConfig())
        assert got == pytest.approx(oracle_plain_ce(scores, labels), abs=1e-10)


class TestStructure:
    def test_kd_limit_is_previous_entropy(self):
        """Matching old-class logits with no new-class mass reduce the
        distillation term to the previous distribution's entropy."""
        rng = np.random.default_rng(8)
        zp = rng.uniform(-3, 3, size=(6, 2))
        prev = ScoreMatrix(class_map=(0, 1), logits=zp)
        z = np.full((6, 4), -1000.0)
        z[:, 0] = zp[:, 0]
        z[:, 1] = zp[:, 1]
        curr = ScoreMatrix(class_map=(0, 1, 2, 3), logits=z)
        got = loss_value("kd_old", LossItem(curr, prev_scores=prev), LAYOUT, LossConfig(kd_includes_bg=True))
        a = np.exp(zp - zp.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        entropy = float(-(a * np.log(a)).sum() / 6)
        assert got == pytest.approx(entropy, abs=1e-10)

    def test_kd_one_hot_previous_model_matched(self):
        z = np.zeros((1, 2))
        z[0, 1] = 60.0
        prev = ScoreMatrix(class_map=(0, 1), logits=z)
        zc = np.full((1, 4), -60.0)
        zc[0, 1] = 60.0
        curr = ScoreMatrix(class_map=(0, 1, 2, 3), logits=zc)
        got = loss_value("kd_old", LossItem(curr, prev_scores=prev), LAYOUT, LossConfig())
        assert got == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_memory_ce_is_current_ce_under_role_swap(self, seed):
        scores = rand_scores(9, (0, 1, 2, 3), seed)
        labels = rand_labels(9, {0, 1, 255}, seed)
        swapped = TaskClassLayout(old_classes=LAYOUT.new_classes, new_classes=LAYOUT.old_classes)
        item = LossItem(scores, labels)
        assert loss_value("ce_memory", item, LAYOUT, LossConfig()) == pytest.approx(
            loss_value("ce_current", item, swapped, LossConfig()), abs=1e-12
        )

    @pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
    def test_translation_invariance(self, loss_id):
        item = _random_item(loss_id, seed=13)
        base = loss_value(loss_id, item, WIDE, CFG)
        shift = np.arange(1.0, item.scores.n_pixels + 1.0)[:, None]
        shifted = LossItem(
            scores=ScoreMatrix(class_map=item.scores.class_map, logits=item.scores.logits + shift),
            labels=item.labels,
            source=item.source,
            prev_scores=item.prev_scores,
        )
        assert loss_value(loss_id, shifted, WIDE, CFG) == pytest.approx(base, abs=1e-10)

    def test_losses_nonnegative(self):
        for loss_id in ATOMIC_LOSSES:
            item = _random_item(loss_id, seed=99)
            assert loss_value(loss_id, item, WIDE, CFG) >= 0.0

    def test_label_contract_enforced(self):
        scores = rand_scores(3, (0, 1, 2, 3), 0)
        with pytest.raises(ValidationError):  # old class in current data
            loss_value("ce_current", LossItem(scores, labels_of([1, 0, 0])), LAYOUT, LossConfig())
        with pytest.raises(ValidationError):  # new class in memory data
            loss_value("ce_memory", LossItem(scores, labels_of([2, 0, 0])), LAYOUT, LossConfig())
        with pytest.raises(ValidationError):
            loss_value("ce_plain", LossItem(scores, labels_of([9, 0, 0])), None, LossConfig())

    def test_all_ignore_rejected(self):
        scores = rand_scores(2, (0, 1, 2, 3), 0)
        with pytest.raises(ValidationError):
            loss_value("ce_current", LossItem(scores, labels_of([255, 255])), LAYOUT, LossConfig())

    def test_positive_weight_must_be_positive(self):
        with pytest.raises(ValidationError):
            LossConfig(positive_weight=0.0)


_S3 = rand_scores(3, (0, 1, 2, 3), 0)
_ITEM3 = LossItem(_S3, labels_of([0, 1, 2]))
_EMPTY, _EMPTY_PREV = (ScoreMatrix(class_map=cmap, logits=np.zeros((0, len(cmap)))) for cmap in ((0, 1, 2, 3), (0, 1)))
# the composites' refusals come before any file is read, so their items name files that do not exist
_MISSING = Path("no-such-dir", "item.scores")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: loss_value("ce_current", LossItem(_S3), LAYOUT, CFG), "item is missing its label grid"),
        (lambda: loss_value("bce_new", LossItem(_S3, labels_of([0, 2])), LAYOUT, CFG),
         "labels have 2 pixels, scores have 3"),
        (lambda: loss_value("kd_old", LossItem(_S3, prev_scores=rand_scores(2, (0, 1), 1)), LAYOUT, CFG),
         "previous scores cover 2 pixels, current 3"),
        (lambda: loss_value("kd_old", LossItem(_EMPTY, prev_scores=_EMPTY_PREV), LAYOUT, CFG),
         "previous scores hold no pixels; loss undefined"),
        (lambda: pseudo_replay_objective([], LAYOUT, CFG), "objective requires at least one item"),
        (lambda: memory_augmented_objective([LossItem(_MISSING, _MISSING, "memory")], LAYOUT, CFG),
         "objective requires at least one current-task item"),
        (lambda: bce_replay_objective([LossItem(_MISSING, _MISSING, "memory", kd=0.1, dkd=0.1)], LAYOUT, CFG),
         "objective requires at least one current-task item"),
        (lambda: bce_replay_objective([LossItem(_MISSING, _MISSING, kd=0.1, ac=0.1)], LAYOUT, CFG),
         "every item needs externally computed kd and dkd values"),
        (lambda: bce_replay_objective([LossItem(_MISSING, _MISSING, kd=0.1, dkd=0.1)], LAYOUT, CFG),
         "current items need an externally computed ac value"),
        (lambda: pseudo_replay_objective([LossItem(_MISSING, _MISSING)], LAYOUT, CFG),
         "every item needs an externally computed pod value"),
        (lambda: grad_check("ce_plain", _ITEM3, LAYOUT, CFG, step=0.0),
         "step and tol must be finite numbers > 0, got 0.0 and 1e-06"),
        (lambda: grad_check("ce_plain", _ITEM3, LAYOUT, CFG, max_coords=0),
         "at least one coordinate must be checked, got 0"),
        (lambda: grad_check("ce_plain", _ITEM3, LAYOUT, CFG, seed=-1),
         "seed must be >= 0, got -1"),
    ],
    ids=["no-labels", "label-pixels", "prev-pixels", "prev-empty", "no-items", "augm-no-current",
         "bce-no-current", "bce-no-kd", "bce-no-ac", "pseudo-no-pod", "grad-step", "grad-coords", "grad-seed"],
)
def test_refusal_names_its_cause(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


# --- composites ---------------------------------------------------------------


def _case_items(seed=0):
    cur_scores = rand_scores(8, (0, 1, 2, 3), seed)
    mem_scores = rand_scores(8, (0, 1, 2, 3), seed + 1)
    cur_prev = rand_scores(8, (0, 1), seed + 2)
    mem_prev = rand_scores(8, (0, 1), seed + 3)
    cur = LossItem(
        scores=cur_scores,
        labels=rand_labels(8, {0, 2, 3, 255}, seed),
        source="current",
        prev_scores=cur_prev,
        kd=0.3,
        dkd=0.7,
        ac=0.2,
        pod=0.1,
    )
    mem = LossItem(
        scores=mem_scores,
        labels=rand_labels(8, {0, 1, 255}, seed + 1),
        source="memory",
        prev_scores=mem_prev,
        kd=0.4,
        dkd=0.6,
        pod=0.15,
    )
    return cur, mem


class TestMemoryAugmentedObjective:
    def test_degenerate_composition_is_plain_current_ce(self):
        cur, _ = _case_items()
        cfg = LossConfig(kd_weight=0.0)
        got = memory_augmented_objective([cur], LAYOUT, cfg)
        assert got == pytest.approx(loss_value("ce_current", cur, LAYOUT, LossConfig()), abs=1e-12)

    def test_hand_composed_sum(self):
        cur, mem = _case_items(3)
        cfg = LossConfig(kd_weight=5.0)
        got = memory_augmented_objective([cur, mem], LAYOUT, cfg)
        want = (
            loss_value("ce_current", cur, LAYOUT, LossConfig())
            + 5.0
            * (
                loss_value("kd_old", cur, LAYOUT, cfg)
                + loss_value("kd_old", mem, LAYOUT, cfg)
            )
            / 2.0
            + loss_value("ce_memory", mem, LAYOUT, LossConfig())
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_kd_denominator_counts_both_sides(self):
        # one current and one memory item: the distillation mean divides by 2
        cur, mem = _case_items(5)
        cfg = LossConfig(kd_weight=1.0)
        with_mem = memory_augmented_objective([cur, mem], LAYOUT, cfg)
        kd_cur = loss_value("kd_old", cur, LAYOUT, cfg)
        kd_mem = loss_value("kd_old", mem, LAYOUT, cfg)
        expected_kd = (kd_cur + kd_mem) / 2.0
        residual = (
            with_mem
            - loss_value("ce_current", cur, LAYOUT, LossConfig())
            - loss_value("ce_memory", mem, LAYOUT, LossConfig())
        )
        assert residual == pytest.approx(expected_kd, abs=1e-12)

    def test_requires_current_items(self):
        _, mem = _case_items()
        with pytest.raises(ValidationError):
            memory_augmented_objective([mem], LAYOUT, LossConfig())

    def test_requires_prev_scores_when_weighted(self):
        cur, _ = _case_items()
        bare = LossItem(scores=cur.scores, labels=cur.labels, source="current")
        with pytest.raises(ValidationError):
            memory_augmented_objective([bare], LAYOUT, LossConfig(kd_weight=1.0))


class TestBceReplayObjective:
    def test_zero_externals_reduce_to_bce_pair(self):
        cur, mem = _case_items(7)
        cur = LossItem(scores=cur.scores, labels=cur.labels, source="current", kd=0.0, dkd=0.0, ac=0.0)
        mem = LossItem(scores=mem.scores, labels=mem.labels, source="memory", kd=0.0, dkd=0.0)
        cfg = LossConfig(kd_alpha=5.0, kd_beta=5.0)
        got = bce_replay_objective([cur, mem], LAYOUT, cfg)
        want = loss_value("bce_new", cur, LAYOUT, cfg) + loss_value("bce_old", mem, LAYOUT, cfg)
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_weights_ignore_external_values(self):
        cur, mem = _case_items(8)
        cfg = LossConfig(kd_alpha=0.0, kd_beta=0.0)
        got = bce_replay_objective([cur, mem], LAYOUT, cfg)
        bumped_cur = LossItem(
            scores=cur.scores, labels=cur.labels, source="current", kd=9.0, dkd=9.0, ac=cur.ac
        )
        bumped_mem = LossItem(scores=mem.scores, labels=mem.labels, source="memory", kd=9.0, dkd=9.0)
        assert bce_replay_objective([bumped_cur, bumped_mem], LAYOUT, cfg) == pytest.approx(
            got, abs=1e-12
        )

    def test_hand_composition(self):
        cur, mem = _case_items(9)
        cfg = LossConfig(kd_alpha=5.0, kd_beta=2.0)
        got = bce_replay_objective([cur, mem], LAYOUT, cfg)
        want = (
            (5.0 * cur.kd + 2.0 * cur.dkd + 5.0 * mem.kd + 2.0 * mem.dkd) / 2.0
            + loss_value("bce_new", cur, LAYOUT, cfg)
            + cur.ac
            + loss_value("bce_old", mem, LAYOUT, cfg)
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_missing_external_term_rejected(self):
        cur, mem = _case_items(10)
        stripped = LossItem(scores=mem.scores, labels=mem.labels, source="memory", kd=0.1)
        with pytest.raises(ValidationError):
            bce_replay_objective([cur, stripped], LAYOUT, LossConfig())


class TestPseudoReplayObjective:
    def test_zero_pod_is_mean_ce(self):
        cur, mem = _case_items(11)
        cur = LossItem(scores=cur.scores, labels=cur.labels, source="current", pod=0.0)
        mem = LossItem(scores=mem.scores, labels=mem.labels, source="memory", pod=0.0)
        got = pseudo_replay_objective([cur, mem], LAYOUT, LossConfig(kd_weight=3.0))
        want = (
            loss_value("ce_plain", cur, None, LossConfig()) + loss_value("ce_plain", mem, None, LossConfig())
        ) / 2.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_memory_enters_the_same_mean(self):
        cur, mem = _case_items(12)
        cfg = LossConfig(kd_weight=2.0)
        got = pseudo_replay_objective([cur, mem], LAYOUT, cfg)
        want = (
            loss_value("ce_plain", cur, None, LossConfig())
            + 2.0 * cur.pod
            + loss_value("ce_plain", mem, None, LossConfig())
            + 2.0 * mem.pod
        ) / 2.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_one_hot_scores_give_zero_ce(self):
        labels = labels_of([1, 0, 2])
        z = np.full((3, 3), -40.0)
        for i, v in enumerate([1, 0, 2]):
            z[i, (0, 1, 2).index(v)] = 40.0
        item = LossItem(scores=ScoreMatrix(class_map=(0, 1, 2), logits=z), labels=labels, pod=0.0)
        assert pseudo_replay_objective([item], LAYOUT, LossConfig()) == pytest.approx(0.0, abs=1e-12)

    def test_missing_pod_rejected(self):
        cur, _ = _case_items(13)
        bare = LossItem(scores=cur.scores, labels=cur.labels)
        with pytest.raises(ValidationError):
            pseudo_replay_objective([bare], LAYOUT, LossConfig())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20))
def test_mean_is_fmean_bit_for_bit(values):
    import statistics

    assert losses_module._mean(iter(values)) == statistics.fmean(values)


# --- gradients -----------------------------------------------------------------


def _random_item(loss_id, seed, n=8):
    cmap = (0, 1, 2, 3, 4, 5)
    scores = rand_scores(n, cmap, seed)
    prev = rand_scores(n, (0, 1, 2), seed + 500)
    if loss_id in ("ce_current", "bce_new"):
        labels = rand_labels(n, {0, 3, 4, 5, 255}, seed)
    elif loss_id in ("ce_memory", "bce_old"):
        labels = rand_labels(n, {0, 1, 2, 255}, seed)
    elif loss_id == "ce_plain":
        labels = rand_labels(n, {0, 1, 2, 3, 4, 5, 255}, seed)
    else:
        labels = None
    return LossItem(scores=scores, labels=labels, prev_scores=prev)


class TestGradients:
    @pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference_agreement(self, loss_id, seed):
        item = _random_item(loss_id, seed)
        report = grad_check(loss_id, item, WIDE, CFG, max_coords=48, seed=seed)
        assert report.passed, f"{loss_id}: max relative error {report.max_rel_err}"
        assert report.max_rel_err < 1e-6

    @pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
    def test_gradient_rows_sum_to_zero(self, loss_id):
        item = _random_item(loss_id, seed=2)
        g = grad_logits(loss_id, item, WIDE, CFG)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_uniform_logit_current_ce_gradient_rows_sum_to_zero(self):
        item = LossItem(scores=uniform_scores(4), labels=labels_of([0, 2, 3, 0]))
        g = grad_logits("ce_current", item, LAYOUT, CFG)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-15)

    def test_memory_ce_rewards_new_class_mass_at_bg_pixels(self):
        # pushing up a new-class logit at a background-labeled pixel lowers
        # the loss, because that mass folds into the background bucket
        item = LossItem(scores=rand_scores(1, (0, 1, 2, 3), 4), labels=labels_of([0]))
        g = grad_logits("ce_memory", item, LAYOUT, CFG)
        for c in LAYOUT.new_classes:
            col = item.scores.class_map.index(c)
            assert g[0, col] < 0.0

    def test_gradcheck_report_fields(self):
        item = _random_item("ce_plain", seed=6)
        report = grad_check("ce_plain", item, WIDE, CFG, step=1e-5, tol=1e-6, max_coords=10, seed=0)
        assert report.coords_checked == 10
        assert report.step == 1e-5
        assert math.isfinite(report.loss)

    def test_unknown_loss_id_rejected(self):
        item = _random_item("ce_plain", seed=6)
        with pytest.raises(ValidationError):
            grad_check("no_such_loss", item, WIDE, CFG)

    @pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
    def test_scaled_kernel_gradient_is_caught(self, loss_id, monkeypatch):
        """The finite differences come from loss values alone, so a kernel
        whose gradient is off by 0.1% fails the check."""
        name = "_binary_ce" if loss_id.startswith("bce") else "_bucket_ce"
        kernel = getattr(losses_module, name)

        def scaled(*args):
            loss, grad = kernel(*args)
            return loss, None if grad is None else grad * 1.001

        monkeypatch.setattr(losses_module, name, scaled)
        report = grad_check(loss_id, _random_item(loss_id, seed=4), WIDE, CFG)
        assert report.passed is False
        assert report.max_rel_err > 1e-4


B = BLOCK_ROWS


@pytest.mark.parametrize("loss_id, cfg", [*((lid, CFG) for lid in ATOMIC_LOSSES),
                                          ("kd_old", LossConfig(kd_weight=5.0, kd_includes_bg=False))],
                         ids=[*ATOMIC_LOSSES, "kd_old-no-bg"])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
def test_blocked_kernel_is_bit_identical_to_one_call(loss_id, cfg, n):
    """Row blocks, of all rows in order or of a shuffled subset, give the
    loss vector and gradient of one class-major call over the whole matrix,
    bit for bit."""
    item = _random_item(loss_id, seed=n, n=n)
    kernel, _, _ = losses_module._prepare(loss_id, item, WIDE, cfg)
    z = item.scores.logits
    rows = np.random.default_rng(n).permutation(n)[: max(1, n - 5)]
    zt, zt_rows = np.ascontiguousarray(z.T), np.ascontiguousarray(z[rows].T)
    for grad in (False, True):
        for blocked, whole in (
            (losses_module._blocked(kernel, z, grad), kernel(zt, slice(None), grad)),
            (losses_module._blocked(kernel, z[rows], grad, rows), kernel(zt_rows, rows, grad)),
        ):
            assert np.array_equal(blocked[0], whole[0])
            if grad:
                assert np.array_equal(blocked[1], whole[1].T)


def _permuted(scores: ScoreMatrix, order) -> ScoreMatrix:
    """The same scores with their columns, and their class map, in `order`."""
    return ScoreMatrix(class_map=tuple(scores.class_map[j] for j in order), logits=scores.logits[:, order])


@pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
@pytest.mark.parametrize("order", [(5, 4, 3, 2, 1, 0), (3, 0, 5, 1, 4, 2), (1, 3, 5, 0, 2, 4)])
def test_column_order_changes_no_loss(loss_id, order):
    """A kernel takes each bucket's rows by class, not by position: by index,
    whether the bucket's columns are one ascending run, as in the identity
    order, or are permuted together with the class map. Every loss moves by
    at most 1e-12 relative, and its gradient columns move with the
    permutation."""
    item = _random_item(loss_id, seed=7, n=B + 5)
    moved = LossItem(_permuted(item.scores, order), item.labels,
                     prev_scores=_permuted(item.prev_scores, (2, 0, 1)))
    value = loss_value(loss_id, item, WIDE, CFG)
    assert loss_value(loss_id, moved, WIDE, CFG) == pytest.approx(value, rel=1e-12, abs=0)
    grad = grad_logits(loss_id, item, WIDE, CFG)
    np.testing.assert_allclose(grad_logits(loss_id, moved, WIDE, CFG), grad[:, order],
                               rtol=1e-12, atol=1e-12 * np.abs(grad).max())


def _checked_coords(monkeypatch, item, **kwargs):
    """grad_check's report and the flat coordinates it differenced, read off
    the nudged logits it handed to the kernel."""
    seen = []
    blocked = losses_module._blocked

    def spy(kernel, z, grad, rows=None):
        if rows is not None:
            seen.append((z, rows))
        return blocked(kernel, z, grad, rows)

    monkeypatch.setattr(losses_module, "_blocked", spy)
    report = grad_check("ce_plain", item, WIDE, CFG, **kwargs)
    (plus, rows), (minus, _) = seen
    moved_rows, cols = np.nonzero(plus != item.scores.logits[rows])
    assert np.array_equal(moved_rows, np.arange(len(rows)))  # one coordinate per differenced row
    assert np.array_equal(np.nonzero(minus != item.scores.logits[rows])[1], cols)
    return report, rows * item.scores.n_classes + cols


class TestGradCheckSampling:
    ITEM = _random_item("ce_plain", seed=9)  # 8 x 6: 48 coordinates

    def test_picks_are_distinct_and_in_range(self, monkeypatch):
        _, picks = _checked_coords(monkeypatch, self.ITEM, max_coords=20, seed=3)
        assert len(set(picks.tolist())) == 20
        assert picks.min() >= 0 and picks.max() < 48

    @pytest.mark.parametrize("max_coords", [1, 47, 48, 49, 1000])
    def test_coords_checked_is_capped_by_the_matrix(self, max_coords):
        report = grad_check("ce_plain", self.ITEM, WIDE, CFG, max_coords=max_coords)
        assert report.coords_checked == min(max_coords, 48)
        assert report.passed

    def test_same_seed_same_report(self, monkeypatch):
        first, picks = _checked_coords(monkeypatch, self.ITEM, max_coords=10, seed=5)
        again, picks_again = _checked_coords(monkeypatch, self.ITEM, max_coords=10, seed=5)
        assert first == again
        assert np.array_equal(picks, picks_again)

    def test_oversampling_checks_every_coordinate_once(self, monkeypatch):
        report, picks = _checked_coords(monkeypatch, self.ITEM, max_coords=1000, seed=1)
        assert report.coords_checked == 48
        assert sorted(picks.tolist()) == list(range(48))


FULL_LAYOUT = TaskClassLayout(old_classes=frozenset(range(1, 16)), new_classes=frozenset({16}))


@pytest.fixture(scope="module")
def full_size_items():
    """One item per atomic loss at 500x375 pixels and K=17, labels drawn
    within each loss's contract."""
    n, rng = 500 * 375, np.random.default_rng(21)
    scores = ScoreMatrix(class_map=tuple(range(17)), logits=rng.uniform(-5, 5, size=(n, 17)))
    prev = ScoreMatrix(class_map=tuple(range(16)), logits=rng.uniform(-5, 5, size=(n, 16)))
    allowed = {"new": (0, 16, 255), "old": (0, *range(1, 16), 255), "all": (0, *range(1, 17), 255)}
    grids = {
        side: LabelGrid(width=500, height=375, data=rng.choice(np.array(ids, dtype=np.uint8), size=n))
        for side, ids in allowed.items()
    }
    side_of = {"ce_current": "new", "bce_new": "new", "ce_memory": "old", "bce_old": "old", "ce_plain": "all"}
    return {
        lid: LossItem(scores=scores, labels=grids[side_of[lid]] if lid in side_of else None, prev_scores=prev)
        for lid in ATOMIC_LOSSES
    }


@pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
def test_full_size_gradcheck_passes_at_defaults(full_size_items, loss_id):
    """Row-local differences stay accurate at N=187,500, where differencing
    the whole-image mean loses the 1e-5 nudge to rounding."""
    cfg = LossConfig(kd_weight=0.5, positive_weight=2.0)
    report = grad_check(loss_id, full_size_items[loss_id], FULL_LAYOUT, cfg, max_coords=3)
    assert report.coords_checked == 3
    assert report.passed, f"{loss_id}: max relative error {report.max_rel_err}"


@pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
def test_gradcheck_report_matches_the_full_gradient(full_size_items, loss_id):
    """grad_check takes the gradient block by block; its report is, field for
    field, the one computed from grad_logits' N x K gradient."""
    item, cfg, k, seed = full_size_items[loss_id], LossConfig(kd_weight=0.5, positive_weight=2.0), 5, 3
    report = grad_check(loss_id, item, FULL_LAYOUT, cfg, max_coords=k, seed=seed)
    grad = grad_logits(loss_id, item, FULL_LAYOUT, cfg)
    z = item.scores.logits
    picks = np.array(random.Random(seed).sample(range(z.size), k))
    rows, cols = np.divmod(picks, z.shape[1])
    kernel, norm, _ = losses_module._prepare(loss_id, item, FULL_LAYOUT, cfg)
    nudge = np.zeros((k, z.shape[1]))
    nudge[np.arange(k), cols] = 1e-5
    plus = losses_module._blocked(kernel, z[rows] + nudge, False, rows)[0]
    minus = losses_module._blocked(kernel, z[rows] - nudge, False, rows)[0]
    fd = (plus - minus) / (2.0 * 1e-5) / norm
    scale = max(float(np.abs(grad).max()), float(np.abs(fd).max()), 1e-300)
    max_rel = float(np.abs(grad.reshape(-1)[picks] - fd).max() / scale)
    loss = loss_value(loss_id, item, FULL_LAYOUT, cfg)
    assert report == GradCheckReport(loss_id, loss, max_rel, k, 1e-5, 1e-6, max_rel < 1e-6)


def lse_rows(z):
    """Row-wise log-sum-exp of an N x K array."""
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def exact_bucket_ce(z, w, singles, pooled):
    """Row-major and in log space: the summed loss -sum_b w_b log P(B_b) and
    its gradient W p - sum_b w_b 1[j in B_b] exp(z_j - lse(B_b)), w holding
    one column per bucket (one per single column, then the pooled one)."""
    lse_all = lse_rows(z)
    lse_pool = lse_rows(z[:, pooled])
    log_b = np.column_stack([z[:, singles] - lse_all[:, None], lse_pool - lse_all])
    g = np.exp(z - lse_all[:, None]) * w.sum(axis=1, keepdims=True)
    g[:, singles] -= w[:, :-1]
    g[:, pooled] -= w[:, -1:] * np.exp(z[:, pooled] - lse_pool[:, None])
    return -(w * log_b).sum(), g


@pytest.fixture(scope="module")
def far_pool_items():
    """500x375 logits at K=17. In the even rows the classes ce_current pools
    with background (0..15) sit 800 to 900 below the row max, in the odd rows
    those ce_memory and kd_old pool (0 and 16). ce_current labels the even
    rows background, ce_memory the odd ones; the other rows and every item's
    ignored pixels are drawn at random."""
    n, rng = 500 * 375, np.random.default_rng(33)
    z = rng.uniform(-5, 5, size=(n, 17))
    z[0::2, :16] = z[0::2, 16:] - rng.uniform(800, 900, size=(n // 2, 16))
    odd_top = z[1::2, 1:16].max(axis=1, keepdims=True)
    z[1::2, [0, 16]] = odd_top - rng.uniform(800, 900, size=(n // 2, 2))
    scores = ScoreMatrix(class_map=tuple(range(17)), logits=z)
    prev = ScoreMatrix(class_map=tuple(range(16)), logits=rng.uniform(-5, 5, size=(n, 16)))
    current = rng.choice(np.array([0, 16, 255], dtype=np.uint8), size=n)
    current[0::2] = np.where(rng.random(n // 2) < 0.9, 0, 255)
    memory = rng.choice(np.array([0, *range(1, 16), 255], dtype=np.uint8), size=n)
    memory[1::2] = np.where(rng.random(n // 2) < 0.9, 0, 255)
    grid = {"ce_current": current, "ce_memory": memory}
    return {lid: LossItem(scores=scores, prev_scores=prev,
                          labels=LabelGrid(500, 375, grid[lid]) if lid in grid else None)
            for lid in ("ce_current", "ce_memory", "kd_old")}


@pytest.mark.parametrize("loss_id", ["ce_current", "ce_memory", "kd_old"])
def test_far_pooled_rows_match_exact_oracle(far_pool_items, loss_id):
    """P(pool) below 1e-347: the pooled log-sum-exp keeps the pooled logits'
    own max, so loss and gradient match the log-space oracle."""
    item, cfg = far_pool_items[loss_id], LossConfig(kd_weight=0.5)
    z = item.scores.logits
    singles, pooled = (list(range(1, 16)), [0, 16]) if loss_id != "ce_current" else ([16], list(range(16)))
    if loss_id == "kd_old":
        a = item.prev_scores.logits
        w = np.exp(a - lse_rows(a)[:, None])[:, [*range(1, 16), 0]]
        norm = len(z)
    else:
        y = item.labels.data.astype(np.intp)
        w = np.zeros((len(z), len(singles) + 1))
        valid = y != 255
        bucket = np.array([singles.index(c) if c in singles else len(singles) for c in y[valid]])
        w[np.flatnonzero(valid), bucket] = 1.0
        norm = int(valid.sum())
        far = slice(0, None, 2) if loss_id == "ce_current" else slice(1, None, 2)
        assert (w[far, -1] == 1).mean() > 0.85  # most far rows are labeled background
    want_loss, want_grad = exact_bucket_ce(z, w, singles, pooled)
    assert loss_value(loss_id, item, FULL_LAYOUT, cfg) == pytest.approx(want_loss / norm, rel=1e-10)
    grad = grad_logits(loss_id, item, FULL_LAYOUT, cfg)
    np.testing.assert_allclose(grad * norm, want_grad, rtol=0, atol=1e-12)
    report = grad_check(loss_id, item, FULL_LAYOUT, cfg)
    assert report.passed, f"{loss_id}: max relative error {report.max_rel_err}"


# --- the binary cross-entropy kernel ----------------------------------------------


def exact_bce(scores, labels, selected, gamma):
    """oracle_bce with log(1 - p) taken as the log-sum-exp of the other
    columns minus that of the whole row, so it stays exact where 1 - p
    rounds away in math.log(1 - p)."""
    def lse(values):
        m = max(values)
        return m + math.log(math.fsum(math.exp(v - m) for v in values))

    total, n = 0.0, 0
    for i in range(scores.n_pixels):
        y = int(labels.data[i])
        if y == 255:
            continue
        row = scores.logits[i].tolist()
        for c in sorted(selected):
            j = scores.class_map.index(c)
            total += gamma * (row[j] - lse(row)) if y == c else lse(row[:j] + row[j + 1:]) - lse(row)
        n += 1
    return -total / n


def reference_binary_ce(z, bucket, cols, gamma):
    """The O(N*K^2) kernel on N x K logits: for each selected column,
    log(1 - p) from the log-sum-exp of the other K - 1 columns."""
    lse_all = lse_rows(z)
    valid = bucket >= 0
    loss, u = np.zeros(len(z)), np.zeros_like(z)
    for s, col in enumerate(cols):
        log_p = z[:, col] - lse_all
        log_1m = lse_rows(np.delete(z, col, axis=1)) - lse_all
        pos, neg = bucket == s, valid & (bucket != s)
        loss -= np.where(pos, gamma * log_p, np.where(neg, log_1m, 0.0))
        u[pos, col] += gamma
        u[neg, col] -= np.exp(log_p[neg] - log_1m[neg])
    return loss, np.exp(z - lse_all[:, None]) * u.sum(axis=1, keepdims=True) - u


LEADS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)


def confident_item(loss_id):
    """Rows where a selected class leads the runner-up by each of LEADS
    logits, so its p runs from just over 1/2 to within 1e-26 of 1. Each
    such row is labeled in turn the leading class, another selected class,
    background and ignore."""
    selected = sorted(WIDE.old_classes if loss_id == "bce_old" else WIDE.new_classes)
    cmap, rng = (0, 1, 2, 3, 4, 5), np.random.default_rng(9)
    rows, labels = [], []
    for lead in LEADS:
        for leader in selected:
            runner_up = 0 if leader != selected[0] else selected[-1]
            for label in (leader, *[c for c in selected if c != leader][:1], 0, 255):
                base = rng.uniform(-5, 5)
                row = base - 40.0 + rng.uniform(-1, 1, size=len(cmap))
                row[cmap.index(runner_up)] = base
                row[cmap.index(leader)] = base + lead
                rows.append(row)
                labels.append(label)
    return LossItem(scores=ScoreMatrix(class_map=cmap, logits=np.array(rows)), labels=labels_of(labels))


def exact_bce_grad(z, bucket, cols, gamma):
    """Row-major and in log space: each term's gradient on its own, gamma
    (p - e_c) for a positive and, for a negative, p_c at c and -p_c q_j at
    every other column j, q the softmax over the columns other than c."""
    lse_all = lse_rows(z)
    g = np.zeros_like(z)
    for s, col in enumerate(cols):
        pos, neg = bucket == s, (bucket >= 0) & (bucket != s)
        g[pos] += gamma * np.exp(z[pos] - lse_all[pos, None])
        g[pos, col] -= gamma
        others = np.delete(z[neg], col, axis=1)
        log_p = z[neg, col] - lse_all[neg]
        term = -np.exp(log_p[:, None] + z[neg] - lse_rows(others)[:, None])
        term[:, col] = np.exp(log_p)
        g[neg] += term
    return g


@pytest.fixture(scope="module")
def confident_full_size():
    """500x375 logits at K=17 where every row has a leading class, 0.05 to 50
    logits above the rest, so its p runs from about 1/2 to within 1e-20 of
    1; labels drawn at random, so the leader is mostly a negative."""
    n, rng = 500 * 375, np.random.default_rng(44)
    z = rng.uniform(-5, 5, size=(n, 17))
    leader = rng.integers(1, 17, size=n)
    z[np.arange(n), leader] = z.max(axis=1) + rng.uniform(0.05, 50, size=n)
    scores = ScoreMatrix(class_map=tuple(range(17)), logits=z)
    ids = {"bce_new": (0, 16, 255), "bce_old": (0, *range(1, 16), 255)}
    return {lid: LossItem(scores=scores, labels=LabelGrid(500, 375, rng.choice(np.array(v, np.uint8), size=n)))
            for lid, v in ids.items()}


class TestBinaryCE:
    @pytest.mark.parametrize("loss_id", ["bce_old", "bce_new"])
    def test_full_size_confident_negatives_match_exact_oracle(self, confident_full_size, loss_id):
        """Negatives with p > 1/2 at N=187,500: log(1 - p) from the other
        classes' log-sum-exp, and their gradients on their own, match the
        log-space oracles."""
        item, cfg = confident_full_size[loss_id], LossConfig(positive_weight=2.0)
        z, y = item.scores.logits, item.labels.data
        cols = list(range(1, 16)) if loss_id == "bce_old" else [16]
        bucket = np.array([cols.index(c) if c in cols else (-1 if c == 255 else len(cols)) for c in range(256)])[y]
        p = np.exp(z - lse_rows(z)[:, None])
        lead = p[:, cols].argmax(axis=1)
        negative = (bucket >= 0) & (bucket != lead) & (p[:, cols].max(axis=1) > 0.5)
        assert negative.sum() > 1000 and (1.0 - p[:, cols].max(axis=1))[negative].min() < 1e-20
        norm = int((bucket >= 0).sum())
        ref_loss, _ = reference_binary_ce(z, bucket, np.array(cols), 2.0)
        assert loss_value(loss_id, item, FULL_LAYOUT, cfg) == pytest.approx(ref_loss.sum() / norm, rel=1e-10)
        grad = grad_logits(loss_id, item, FULL_LAYOUT, cfg)
        np.testing.assert_allclose(grad * norm, exact_bce_grad(z, bucket, cols, 2.0), rtol=0, atol=1e-12)
        report = grad_check(loss_id, item, FULL_LAYOUT, cfg)
        assert report.passed, f"{loss_id}: max relative error {report.max_rel_err}"

    @pytest.mark.parametrize("loss_id", ["bce_old", "bce_new"])
    def test_confident_rows_match_exact_oracle(self, loss_id):
        item, cfg = confident_item(loss_id), LossConfig(positive_weight=2.0)
        p = np.exp(item.scores.logits - lse_rows(item.scores.logits)[:, None]).max(axis=1)
        assert p.min() < 0.53 and 1.0 - p.max() < 1e-26
        selected = WIDE.old_classes if loss_id == "bce_old" else WIDE.new_classes
        got = loss_value(loss_id, item, WIDE, cfg)
        assert got == pytest.approx(exact_bce(item.scores, item.labels, selected, 2.0), rel=1e-10)
        assert np.all(np.isfinite(grad_logits(loss_id, item, WIDE, cfg)))
        report = grad_check(loss_id, item, WIDE, cfg)
        assert report.passed, f"{loss_id}: max relative error {report.max_rel_err}"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_kernel(self, data):
        """Against the O(N*K^2) kernel, up to that kernel's own rounding: each
        of its log-sum-exps rounds at eps times the largest logit, and its
        gradient p sum(u) - u cancels at eps times p / (1 - p)."""
        n, k = data.draw(st.integers(1, 12)), data.draw(st.integers(2, 7))
        ties = data.draw(st.lists(st.floats(-50, 50), min_size=1, max_size=3))
        z = data.draw(hnp.arrays(np.float64, (n, k), elements=st.sampled_from(ties) | st.floats(-50, 50)))
        cols = np.array(data.draw(st.permutations(range(k)))[: data.draw(st.integers(1, k - 1))])
        bucket = data.draw(hnp.arrays(np.intp, n, elements=st.integers(-1, len(cols))))
        assume((bucket >= 0).any())
        gamma = data.draw(st.floats(0.1, 4.0))
        loss, grad_t = losses_module._binary_ce(np.ascontiguousarray(z.T), bucket, cols, gamma, True)
        grad = grad_t.T
        ref_loss, ref_grad = reference_binary_ce(z, bucket, cols, gamma)

        norm, eps = (bucket >= 0).sum(), np.finfo(np.float64).eps
        rounding = eps * len(cols) * max(1.0, np.abs(z).max())
        value, ref_value = loss.sum() / norm, ref_loss.sum() / norm
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value) + 4 * rounding
        p = np.exp(z - lse_rows(z)[:, None])[:, cols]
        odds = float((p / np.maximum(1.0 - p, np.finfo(np.float64).tiny)).max())
        assert np.all(np.isfinite(grad))
        assert np.abs(grad - ref_grad).max() / norm <= 1e-15 + 8 * rounding * max(1.0, odds) / norm


# --- extreme finite logits ---------------------------------------------------------

EXTREME = (0.0, 700.0, -700.0, 1e5, -1e5, 1e300, -1e300, 1e308, -1e308)
# the label ids each loss accepts on WIDE, ignore included; kd_old reads none
LABEL_IDS = {"ce_current": (0, 3, 4, 5, 255), "bce_new": (0, 3, 4, 5, 255), "ce_memory": (0, 1, 2, 255),
             "bce_old": (0, 1, 2, 255), "ce_plain": (0, 1, 2, 3, 4, 5, 255), "kd_old": None}


@pytest.mark.parametrize("loss_id", ATOMIC_LOSSES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_extreme_finite_logits_give_no_nan(loss_id, data):
    """Logits whose differences overflow: every value is finite or +inf, and
    a finite value has a finite gradient that grad_check accepts. numpy's
    warnings are off, as in the CLI."""
    def logits(k):
        return data.draw(hnp.arrays(np.float64, (4, k), elements=st.sampled_from(EXTREME)))

    scores, prev = ScoreMatrix((0, 1, 2, 3, 4, 5), logits(6)), ScoreMatrix((0, 1, 2), logits(3))
    labels = None
    if LABEL_IDS[loss_id] is not None:
        labels = labels_of(data.draw(st.lists(st.sampled_from(LABEL_IDS[loss_id]), min_size=4, max_size=4)))
        assume((labels.data != 255).any())
    item = LossItem(scores=scores, labels=labels, prev_scores=prev)
    with np.errstate(all="ignore"):
        value = loss_value(loss_id, item, WIDE, CFG)
        assert math.isfinite(value) or value == math.inf
        if math.isfinite(value):
            assert np.all(np.isfinite(grad_logits(loss_id, item, WIDE, CFG)))
            grad_check(loss_id, item, WIDE, CFG)


def test_zero_weight_bucket_at_minus_inf_adds_nothing():
    """A background pixel whose other buckets sit 2e308 below it: their
    log-probabilities are -inf at weight 0, and the loss is 0, not NaN."""
    item = LossItem(ScoreMatrix(class_map=(0, 1, 2, 3), logits=np.array([[1e308, -1e308, -1e308, -1e308]])),
                    labels_of([0]))
    with np.errstate(all="ignore"):
        assert loss_value("ce_current", item, LAYOUT, LossConfig()) == 0.0
        assert np.array_equal(grad_logits("ce_current", item, LAYOUT, LossConfig()), np.zeros((1, 4)))


def test_bce_gradient_at_an_ignored_overflowing_pixel():
    """An ignored pixel where the old class has p near 1 and log(1 - p) is
    -1e300: it scores 0 and adds 0 to the gradient, so the finite loss of the
    other pixel keeps its finite gradient and passes grad_check."""
    logits = np.array([[0.0, 0.0, 0.0, 0.0], [700.0, -1e5, 1e300, -700.0]])
    item = LossItem(ScoreMatrix(class_map=(0, 2, 1, 3), logits=logits), labels_of([0, 255]))
    with np.errstate(all="ignore"):
        assert loss_value("bce_old", item, LAYOUT, LossConfig()) == pytest.approx(-math.log(0.75), abs=1e-12)
        grad = grad_logits("bce_old", item, LAYOUT, LossConfig())
        assert np.array_equal(grad[1], np.zeros(4))
        report = grad_check("bce_old", item, LAYOUT, LossConfig())
    assert report.passed, f"max relative error {report.max_rel_err}"


# --- loss case files -------------------------------------------------------------


class TestLossCaseFiles:
    def _write_case(self, tmp_path, seed=0):
        cur, mem = _case_items(seed)
        write_scores(cur.scores, tmp_path / "cur.scores")
        write_scores(mem.scores, tmp_path / "mem.scores", binary=True)
        write_scores(cur.prev_scores, tmp_path / "cur_prev.scores")
        write_scores(mem.prev_scores, tmp_path / "mem_prev.scores")
        write_pgm(cur.labels, tmp_path / "cur.pgm")
        write_pgm(mem.labels, tmp_path / "mem.pgm")
        doc = {
            "layout": {"old": [1], "new": [2, 3]},
            "config": {"lambda": 5.0, "gamma": 1.0, "alpha": 0.0, "beta": 0.0, "kd_includes_bg": True},
            "items": [
                {
                    "source": "current",
                    "scores": "cur.scores",
                    "labels": "cur.pgm",
                    "prev_scores": "cur_prev.scores",
                    "kd": 0.3,
                    "dkd": 0.7,
                    "ac": 0.2,
                    "pod": 0.1,
                },
                {
                    "source": "memory",
                    "scores": "mem.scores",
                    "labels": "mem.pgm",
                    "prev_scores": "mem_prev.scores",
                    "kd": 0.4,
                    "dkd": 0.6,
                    "pod": 0.15,
                },
            ],
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        return path, cur, mem

    def test_roundtrip_matches_in_memory_values(self, tmp_path):
        path, cur, mem = self._write_case(tmp_path)
        case = load_loss_case(path)
        assert case.cfg.kd_weight == 5.0
        got = memory_augmented_objective(case.items, case.layout, case.cfg)
        want = memory_augmented_objective([cur, mem], LAYOUT, LossConfig(kd_weight=5.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({"layout": {"old": [], "new": [1]}}))
        with pytest.raises(FormatError):
            load_loss_case(path)
        path.write_text("not json")
        with pytest.raises(FormatError):
            load_loss_case(path)

    def test_path_given_fields_read_by_each_loss_that_scores_them(self, tmp_path, monkeypatch):
        """An item given the paths of its files scores as the item given the
        objects; each loss reads the files it scores, and the item keeps its paths."""
        _, cur, _ = self._write_case(tmp_path)
        reads = []

        def counted(read):
            def wrapper(path):
                reads.append(path.name)
                return read(path)
            return wrapper

        monkeypatch.setattr(losses_module, "read_scores", counted(losses_module.read_scores))
        monkeypatch.setattr(losses_module, "read_pgm", counted(losses_module.read_pgm))
        item = LossItem(tmp_path / "cur.scores", tmp_path / "cur.pgm", prev_scores=tmp_path / "cur_prev.scores")
        assert reads == []
        assert loss_value("ce_current", item, LAYOUT, CFG) == loss_value("ce_current", cur, LAYOUT, CFG)
        assert reads == ["cur.scores", "cur.pgm"]
        assert loss_value("kd_old", item, LAYOUT, CFG) == loss_value("kd_old", cur, LAYOUT, CFG)
        assert loss_value("ce_current", item, LAYOUT, CFG) == loss_value("ce_current", cur, LAYOUT, CFG)
        assert reads == ["cur.scores", "cur.pgm", "cur.scores", "cur_prev.scores", "cur.scores", "cur.pgm"]
        assert item.scores == tmp_path / "cur.scores"

    def test_case_without_items_is_a_format_error(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({"layout": {"old": [1], "new": [2, 3]}, "items": []}))
        with pytest.raises(FormatError) as err:
            load_loss_case(path)
        assert str(err.value) == f"{path}: loss case has no items"

    @pytest.mark.parametrize("old", [{}, "", {"1": 1}, ["a"]],
                             ids=["empty-object", "empty-string", "object", "string-id"])
    def test_layout_sides_must_be_lists_of_integers(self, tmp_path, old):
        """Read as no old classes, `{}` and `""` scored every loss against a layout without them."""
        path = tmp_path / "case.json"
        path.write_text(json.dumps({"layout": {"old": old, "new": [2, 3]}, "items": []}))
        with pytest.raises(FormatError, match="layout old and new must be lists of integer class ids"):
            load_loss_case(path)

    def test_bad_source_rejected_at_construction(self, tmp_path):
        _, cur, _ = self._write_case(tmp_path)
        for scores in (cur.scores, tmp_path / "cur.scores"):
            with pytest.raises(ValidationError, match="unknown item source 'past'"):
                LossItem(scores, source="past")


def test_replay_objectives_hold_one_score_matrix_at_a_time(tmp_path):
    """The composites score each item given by paths, reading its files and
    dropping them after its last term: the traced peak stays under 1.5 of the
    items' 13.6 MB score matrices for bce_replay and pseudo_replay, and under
    2 for memory_augmented, which distils from a 7.2 MB previous-model matrix
    as well; the values are those of the items given the objects."""
    n, k = 400 * 250, 17
    rng = np.random.default_rng(32)
    layout = TaskClassLayout(old_classes=frozenset(range(1, 9)), new_classes=frozenset(range(9, 17)))
    scalars = {"kd": 0.3, "dkd": 0.4, "ac": 0.2, "pod": 0.1}
    objects, paths = [], []
    for i, (source, ids) in enumerate((("current", (0, *range(9, 17), 255)), ("memory", (0, *range(1, 9), 255)))):
        scores = ScoreMatrix(class_map=tuple(range(k)), logits=rng.normal(size=(n, k)))
        labels = LabelGrid(width=400, height=250, data=rng.choice(np.array(ids, dtype=np.uint8), size=n))
        prev = ScoreMatrix(class_map=tuple(range(9)), logits=rng.normal(size=(n, 9)))
        write_scores(scores, tmp_path / f"s{i}.scores", binary=True)
        write_pgm(labels, tmp_path / f"l{i}.pgm")
        write_scores(prev, tmp_path / f"p{i}.scores", binary=True)
        objects.append(LossItem(scores, labels, source, prev, **scalars))
        paths.append(LossItem(tmp_path / f"s{i}.scores", tmp_path / f"l{i}.pgm", source, tmp_path / f"p{i}.scores",
                              **scalars))
    cfg = LossConfig(kd_weight=0.5, kd_alpha=0.5, kd_beta=0.5)
    for objective, matrices in ((bce_replay_objective, 1.5), (pseudo_replay_objective, 1.5),
                                (memory_augmented_objective, 2)):
        tracemalloc.start()
        try:
            value = objective(paths, layout, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrices * n * k * 8, (objective.__name__, peak)
        assert value.hex() == objective(objects, layout, cfg).hex()
