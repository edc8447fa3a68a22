"""Loss kernel for incremental segmentation training on raw score matrices.

Two per-pixel kernels compute every loss on N x K logits, run over fixed
blocks of rows so that their temporaries stay in cache, each block taken
class-major (K x b) so that every per-pixel reduction runs over contiguous
rows. The bucket cross-entropy scores one-class buckets plus background
pooled with absorbed classes (new ones for memory replay, old ones for
current-task labels), weighted one-hot by labels or by the previous model's
distribution for distillation; the binary cross-entropy scores each selected
class on its own. Everything is float64, bucket probabilities are taken in
log space, and `grad_check` validates every gradient against finite
differences.
"""
from __future__ import annotations

import math
import os
import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import ATOMIC_LOSSES, COMPOSITE_LOSSES, FormatError, ValidationError
from .artifacts import is_int, read_json, reading
from .grid import BACKGROUND, IGNORE, LabelGrid, class_ids
from .pgm import read_pgm
from .scores import ScoreMatrix, read_scores, row_blocks

_LN2 = math.log(2.0)


def _finite(value, name: str) -> float:
    """A finite JSON number (booleans are not numbers here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class LossConfig:
    """Weights of the loss family: kd_weight scales the old-class distillation
    term; positive_weight the label-matching half of the binary
    cross-entropies; kd_alpha and kd_beta the external distillation scalars of
    the binary-CE replay objective. kd_includes_bg extends distillation to the
    aggregated background bucket, as common references do; off, only old classes count."""

    kd_weight: float = 0.0
    positive_weight: float = 1.0
    kd_alpha: float = 0.0
    kd_beta: float = 0.0
    kd_includes_bg: bool = True

    def __post_init__(self) -> None:
        if not (self.kd_weight >= 0 and self.kd_alpha >= 0 and self.kd_beta >= 0):
            raise ValidationError("kd_weight, kd_alpha and kd_beta must be >= 0")
        if not self.positive_weight > 0:
            raise ValidationError("positive_weight must be > 0")

    @classmethod
    def from_mapping(cls, doc: dict) -> "LossConfig":
        if not isinstance(doc, dict):
            raise ValidationError(f"config must be an object, got {doc!r}")
        include_bg = doc.get("kd_includes_bg", True)
        if not isinstance(include_bg, bool):
            raise ValidationError(f"kd_includes_bg must be true or false, got {include_bg!r}")
        names = {"lambda": "kd_weight", "gamma": "positive_weight", "alpha": "kd_alpha", "beta": "kd_beta"}
        weights = {name: _finite(doc.get(key, getattr(cls, name)), key) for key, name in names.items()}
        return cls(**weights, kd_includes_bg=include_bg)


@dataclass(frozen=True)
class TaskClassLayout:
    old_classes: frozenset[int]
    new_classes: frozenset[int]

    def __post_init__(self) -> None:
        old = frozenset(class_ids(self.old_classes))
        new = frozenset(class_ids(self.new_classes))
        object.__setattr__(self, "old_classes", old)
        object.__setattr__(self, "new_classes", new)
        if old & new:
            raise ValidationError(f"old and new classes overlap: {sorted(old & new)}")
        if not new:
            raise ValidationError("layout needs at least one new class")


def _on_first_use(value, read):
    """`value`, or what `read` makes of it when it is the path of a file."""
    return read(value) if isinstance(value, (str, os.PathLike)) else value


class LossItem:
    """One batch element: scores, labels, which side of the batch it came
    from, and optional previous-model scores and externally computed
    kd/dkd/ac/pod scalars. `scores`, `labels` and `prev_scores` each take the
    object or the path of its file; a file is read on first use and kept, so
    a loss reads only the files that it scores."""

    def __init__(
        self, scores: ScoreMatrix | str | os.PathLike, labels: LabelGrid | str | os.PathLike | None = None,
        source: str = "current", prev_scores: ScoreMatrix | str | os.PathLike | None = None,
        kd: float | None = None, dkd: float | None = None, ac: float | None = None, pod: float | None = None,
    ) -> None:
        if source not in ("current", "memory"):
            raise ValidationError(f"unknown item source {source!r}")
        self._scores, self._labels, self._prev = scores, labels, prev_scores
        self.source, self.kd, self.dkd, self.ac, self.pod = source, kd, dkd, ac, pod

    @cached_property
    def scores(self) -> ScoreMatrix:
        return _on_first_use(self._scores, read_scores)

    @cached_property
    def labels(self) -> LabelGrid | None:
        return _on_first_use(self._labels, read_pgm)

    @cached_property
    def prev_scores(self) -> ScoreMatrix | None:
        return _on_first_use(self._prev, read_scores)


# --- the two per-pixel kernels ------------------------------------------------
# Both take a block of b pixels class-major, zt of shape K x b (one column per
# pixel), so that every per-pixel reduction runs along axis 0 over contiguous
# rows, and return the block's loss per pixel and, when asked, its K x b
# gradient.
def _slice_if_run(index: np.ndarray):
    """Row indices as a slice when they are one ascending run, so that the rows they take are a view."""
    if len(index) and np.array_equal(index, np.arange(index[0], index[0] + len(index))):
        return slice(int(index[0]), int(index[0]) + len(index))
    return index


def _bucket_log_probs(zt, singles, pooled):
    """log P(B_b) per pixel, (S+1) x b: the one-row buckets `singles`, then
    the bucket of the rows `pooled`; and exp(z - max) over the pooled rows
    with its column sums. The pooled log-sum-exp takes the pooled rows' own
    max, so P(pool) stays exact when every pooled logit sits far below the
    row's max."""
    pool = zt[pooled]
    top = pool.max(axis=0)
    pool = np.exp(pool - top)
    pool_sum = pool.sum(axis=0)
    log_b = np.vstack((zt[singles], top + np.log(pool_sum)))
    log_b -= log_b.max(axis=0)
    log_b -= np.log(np.exp(log_b).sum(axis=0))
    return log_b, pool, pool_sum


def _bucket_ce(zt, singles, pooled, w, grad: bool):
    """Per-pixel l = -sum_b w_b log P(B_b) and, when asked, its gradient
    (sum_b w_b) p - sum_b w_b p 1[B_b] / P(B_b): W P_b - w_b on a one-row
    bucket, (W P(pool) - w_pool) q on the pooled rows, q the softmax within
    the pool. The weights w hold one row per bucket, the pooled bucket last.
    A bucket of weight 0 adds 0, also where its log P(B_b) is -inf."""
    log_b, pool, pool_sum = _bucket_log_probs(zt, singles, pooled)
    terms = w * log_b
    np.copyto(terms, 0.0, where=np.isnan(terms))  # the NaNs of 0 x -inf
    loss = -terms.sum(axis=0)
    if not grad:
        return loss, None
    w_sum = w.sum(axis=0)
    g = np.empty(zt.shape)
    g[singles] = np.exp(log_b[:-1]) * w_sum - w[:-1]
    g[pooled] = pool * ((np.exp(log_b[-1]) * w_sum - w[-1]) / pool_sum)
    return loss, g


def _binary_ce(zt, bucket, selected, gamma: float, grad: bool):
    """Per-pixel binary cross-entropy summed over the rows `selected`: gamma log p
    where the label is that row's class (bucket == its index), and
    log(1 - p) at every other valid pixel (bucket >= 0). log(1 - p) is
    log1p(-p) where p <= 1/2; where p > 1/2, at most one row per pixel, it
    is the log-sum-exp of the pixel's other rows with their own max, exact
    as p nears 1. An ignored pixel (bucket -1) takes p = 0 in every row, so
    it scores 0 and adds 0 to the gradient, also where its log(1 - p) would
    be -inf."""
    top = zt.max(axis=0)
    e = np.exp(zt - top)
    e_sum = e.sum(axis=0)
    valid = bucket >= 0
    lse = np.where(valid, top + np.log(e_sum), np.inf)
    log_p = zt[selected] - lse
    terms = np.log1p(-np.exp(np.minimum(log_p, -_LN2)))  # log(1 - p), then the positives' terms
    # the pixels j where a row's p exceeds 1/2, and that row s: the pixel's
    # largest p, since rounding can put a second one just over 1/2, where its
    # log1p(-p) is exact
    j = np.flatnonzero(log_p.max(axis=0) > -_LN2)
    s = log_p[:, j].argmax(axis=0)
    others = zt[:, j]
    others[selected[s], np.arange(len(j))] = -np.inf
    others_top = others.max(axis=0)
    q = np.exp(others - others_top)
    q_sum = q.sum(axis=0)
    terms[s, j] = others_top + np.log(q_sum) - lse[j]
    own = np.flatnonzero(valid & (bucket < len(selected)))  # pixels labeled a selected class
    label = bucket[own]
    # a term's gradient is u (e_c - p): u = -p_c / (1 - p_c) on a negative, gamma on a positive
    u = -np.exp(log_p - terms) if grad else None
    terms[label, own] = gamma * log_p[label, own]
    loss = -terms.sum(axis=0)
    if not grad:
        return loss, None
    u[label, own] = gamma
    big = valid[j] & (bucket[j] != s)  # negatives with p > 1/2, where p sum(u) - u would cancel
    s, j, q, q_sum = s[big], j[big], q[:, big], q_sum[big]
    u[s, j] = 0.0
    g = e * (u.sum(axis=0) / e_sum)
    g[selected] -= u
    # their terms' gradients on their own: p_c (e_c - q), q the softmax over the other rows
    p_c = np.exp(log_p[s, j])
    term = q * (-p_c / q_sum)
    term[selected[s], np.arange(len(j))] = p_c
    g[:, j] += term
    return loss, g


# --- validation and the loss table --------------------------------------------
def _check_classes(scores: ScoreMatrix, classes: frozenset[int], what: str) -> None:
    want = classes | {BACKGROUND}
    if set(scores.class_map) != want:
        raise ValidationError(f"{what} class map {sorted(scores.class_map)} does not cover {sorted(want)}")


def _cols(scores: ScoreMatrix, class_ids) -> np.ndarray:
    return np.asarray([scores.column(c) for c in class_ids], dtype=np.intp)


def _label_buckets(scores: ScoreMatrix, labels: LabelGrid | None, singles: list[int]) -> np.ndarray:
    """Each pixel's label through a 256-entry table: its index in `singles`,
    len(singles) for background, -1 for ignore; other labels break the contract."""
    if labels is None:
        raise ValidationError("item is missing its label grid")
    if labels.n_pixels != scores.n_pixels:
        raise ValidationError(f"labels have {labels.n_pixels} pixels, scores have {scores.n_pixels}")
    index = {c: b for b, c in enumerate(singles)} | {IGNORE: -1, BACKGROUND: len(singles)}
    # int16 holds every bucket index in a quarter of intp's bytes
    table = np.array([index.get(c, -2) for c in range(256)], dtype=np.int16)
    bucket = table[labels.data]
    if not (bucket >= 0).any():
        raise ValidationError("every pixel is ignored; loss undefined")
    if (bucket == -2).any():
        bad = np.unique(labels.data[bucket == -2]).tolist()
        raise ValidationError(f"labels contain out-of-contract class ids {bad}")
    return bucket


def _bucket_rows(scores: ScoreMatrix, singles, pooled: frozenset[int]):
    """The class-major rows of the one-row buckets `singles` (in order) and of the pooled bucket."""
    return _slice_if_run(_cols(scores, singles)), _slice_if_run(_cols(scores, pooled | {BACKGROUND}))


def _bucket_kernel(scores: ScoreMatrix, singles: list[int], pooled: frozenset[int], weights):
    """The bucket cross-entropy with `weights(rows)`, (S+1) x b, for the item's pixels `rows`."""
    buckets = _bucket_rows(scores, singles, pooled)
    return lambda zt, rows, grad: _bucket_ce(zt, *buckets, weights(rows), grad)


def _ce(item: LossItem, singles: list[int], pooled: frozenset[int], cfg: LossConfig):
    """Cross-entropy: one-hot label weights, normalized by the valid pixel count."""
    bucket = _label_buckets(item.scores, item.labels, singles)
    buckets = np.arange(len(singles) + 1)[:, None]

    def one_hot(rows):
        return (bucket[rows] == buckets).astype(np.float64)

    return _bucket_kernel(item.scores, singles, pooled, one_hot), int((bucket >= 0).sum())


def _kd(item: LossItem, singles: list[int], pooled: frozenset[int], cfg: LossConfig):
    """Distillation: the previous model's distribution as weights, normalized by N."""
    prev = item.prev_scores
    if prev is None:
        raise ValidationError("distillation requires previous-model scores")
    _check_classes(prev, frozenset(singles), "previous-model")
    if prev.n_pixels != item.scores.n_pixels:
        raise ValidationError(f"previous scores cover {prev.n_pixels} pixels, current {item.scores.n_pixels}")
    if prev.n_pixels == 0:
        raise ValidationError("previous scores hold no pixels; loss undefined")
    cols = _cols(prev, singles + [BACKGROUND])

    def prev_probs(rows):
        e = prev.logits[rows].T.copy()
        e -= e.max(axis=0)
        np.exp(e, out=e)
        w = e[cols]
        w /= e.sum(axis=0)
        if not cfg.kd_includes_bg:
            w[-1] = 0.0
        return w

    return _bucket_kernel(item.scores, singles, pooled, prev_probs), prev.n_pixels


def _bce(item: LossItem, singles: list[int], pooled: frozenset[int], cfg: LossConfig):
    """Binary cross-entropy over `singles`, normalized by the valid pixel count."""
    bucket = _label_buckets(item.scores, item.labels, singles)
    cols, gamma = _cols(item.scores, singles), cfg.positive_weight
    return (lambda zt, rows, grad: _binary_ce(zt, bucket[rows], cols, gamma, grad)), int((bucket >= 0).sum())


# loss id -> (preparation, layout side scored class by class, side pooled
# with background), a row per id of ATOMIC_LOSSES; ce_plain scores every
# class of the score matrix on its own
_LOSSES = dict(zip(ATOMIC_LOSSES, (
    (_ce, "new_classes", "old_classes"),
    (_ce, "old_classes", "new_classes"),
    (_kd, "old_classes", "new_classes"),
    (_bce, "new_classes", "old_classes"),
    (_bce, "old_classes", "new_classes"),
    (_ce, None, None),
), strict=True))


def _prepare(loss_id: str, item: LossItem, layout: TaskClassLayout | None, cfg: LossConfig):
    """Validate the item once; return (kernel(zt, rows, grad), normalizer), the
    kernel scoring the class-major logits zt (K x b) of the item's pixels `rows`."""
    if loss_id not in _LOSSES:
        raise ValidationError(f"unknown loss id {loss_id!r}; expected one of {ATOMIC_LOSSES}")
    prepare, own, pooled = _LOSSES[loss_id]
    if own is None:
        return prepare(item, sorted(set(item.scores.class_map) - {BACKGROUND}), frozenset(), cfg)
    _check_classes(item.scores, layout.old_classes | layout.new_classes, "score")
    return prepare(item, sorted(getattr(layout, own)), getattr(layout, pooled), cfg)


def _blocked(kernel, z: np.ndarray, grad: bool, rows: np.ndarray | None = None):
    """Run `kernel` over the blocks of the logits z, which hold the item's
    pixels `rows` (all of them, in order, when None); return the loss per row
    and, when asked, the N x K gradient. Every kernel is pixel-local, so the
    blocks change no bit of either."""
    loss = np.empty(len(z))
    g = np.empty(z.shape) if grad else None
    for block, zt in row_blocks(z):
        loss[block], block_grad = kernel(zt, block if rows is None else rows[block], grad)
        if grad:
            g[block] = block_grad.T
    return loss, g


def loss_value(loss_id: str, item: LossItem, layout: TaskClassLayout, cfg: LossConfig) -> float:
    kernel, norm = _prepare(loss_id, item, layout, cfg)
    return float(_blocked(kernel, item.scores.logits, False)[0].sum()) / norm


def grad_logits(loss_id: str, item: LossItem, layout: TaskClassLayout, cfg: LossConfig) -> np.ndarray:
    """Analytic derivative of the loss with respect to every logit."""
    kernel, norm = _prepare(loss_id, item, layout, cfg)
    grad = _blocked(kernel, item.scores.logits, True)[1]
    grad /= norm
    if not np.all(np.isfinite(grad)):
        raise ValidationError(f"{loss_id}: non-finite gradient")
    return grad


# --- composite objectives -----------------------------------------------------
def _mean(values) -> float:
    """statistics.fmean without importing statistics (and with it fractions
    and decimal) into every command: an fsum over the count."""
    values = list(values)
    return math.fsum(values) / len(values)


def _sides(items: Sequence[LossItem]) -> tuple[list[LossItem], list[LossItem]]:
    current = [it for it in items if it.source == "current"]
    if not current:
        raise ValidationError("objective requires at least one current-task item")
    return current, [it for it in items if it.source == "memory"]


def memory_augmented_objective(items: Sequence[LossItem], layout: TaskClassLayout, cfg: LossConfig) -> float:
    """Current-task cross-entropy, weighted old-class distillation over the
    whole batch, and memory cross-entropy over the replayed items. Each term
    averages over its own item set; the distillation denominator is the
    combined batch length (items appearing on both sides count twice)."""
    current, stored = _sides(items)
    total = _mean(loss_value("ce_current", it, layout, cfg) for it in current)
    if cfg.kd_weight > 0:
        total += cfg.kd_weight * _mean([loss_value("kd_old", it, layout, cfg) for it in items])
    if stored:
        total += _mean(loss_value("ce_memory", it, layout, cfg) for it in stored)
    return total


def bce_replay_objective(items: Sequence[LossItem], layout: TaskClassLayout, cfg: LossConfig) -> float:
    """Binary-CE objective with externally supplied distillation scalars:
    kd/dkd averaged over the whole batch (weighted by kd_alpha/kd_beta), the
    new-class binary CE plus the external ac term over current items, and the
    old-class binary CE over memory items."""
    current, stored = _sides(items)
    if any(it.kd is None or it.dkd is None for it in items):
        raise ValidationError("every item needs externally computed kd and dkd values")
    if any(it.ac is None for it in current):
        raise ValidationError("current items need an externally computed ac value")
    total = _mean(cfg.kd_alpha * it.kd + cfg.kd_beta * it.dkd for it in items)
    total += _mean(loss_value("bce_new", it, layout, cfg) + it.ac for it in current)
    if stored:
        total += _mean(loss_value("bce_old", it, layout, cfg) for it in stored)
    return total


def pseudo_replay_objective(items: Sequence[LossItem], layout: TaskClassLayout, cfg: LossConfig) -> float:
    """Plain cross-entropy against pseudo-labels plus a weighted external
    feature-distillation scalar, averaged over the concatenated batch
    (current and memory items enter the same mean). ce_plain scores every
    class of the score matrix, so `layout` goes unused."""
    if not items:
        raise ValidationError("objective requires at least one item")
    if any(it.pod is None for it in items):
        raise ValidationError("every item needs an externally computed pod value")
    return _mean(loss_value("ce_plain", it, layout, cfg) + cfg.kd_weight * it.pod for it in items)


# --- loss-case files and finite-difference validation -------------------------
def _case_item(root: Path, entry) -> LossItem:
    """A loss-case item, its files named relative to `root` and its scalars checked."""
    if not isinstance(entry, dict):
        raise ValidationError(f"loss case item must be an object, got {entry!r}")
    scores = root / entry["scores"]
    paths = {key: root / entry[key] for key in ("labels", "prev_scores") if key in entry}
    scalars = {key: _finite(entry[key], key) for key in ("kd", "dkd", "ac", "pod") if entry.get(key) is not None}
    return LossItem(scores, source=entry.get("source", "current"), **paths, **scalars)


@dataclass(frozen=True)
class LossCase:
    layout: TaskClassLayout
    cfg: LossConfig
    items: tuple[LossItem, ...]


def load_loss_case(path: str | os.PathLike) -> LossCase:
    """Read a loss-case file: JSON with `layout` ({old, new} class-id lists),
    `config` (lambda, gamma, alpha, beta, kd_includes_bg), and `items`, each
    naming score/label files (paths relative to the case file) plus optional
    prev_scores and external kd/dkd/ac/pod scalars. Every item's fields are
    checked here; its files are read when a loss first uses them."""
    path = Path(path)
    doc = read_json(path, "loss case")
    with reading(path, "loss case"):
        old, new = doc["layout"]["old"], doc["layout"]["new"]
        if not all(isinstance(ids, list) and all(map(is_int, ids)) for ids in (old, new)):
            raise ValidationError(f"layout old and new must be lists of integer class ids, got {doc['layout']!r}")
        layout = TaskClassLayout(old_classes=frozenset(old), new_classes=frozenset(new))
        cfg = LossConfig.from_mapping(doc.get("config", {}))
        items = tuple(_case_item(path.parent, entry) for entry in doc["items"])
    if not items:
        raise FormatError(f"{path}: loss case has no items")
    return LossCase(layout=layout, cfg=cfg, items=items)


@dataclass(frozen=True)
class GradCheckReport:
    loss_id: str
    loss: float
    max_rel_err: float
    coords_checked: int
    step: float
    tol: float
    passed: bool


def grad_check(
    loss_id: str, item: LossItem, layout: TaskClassLayout, cfg: LossConfig, *,
    step: float = 1e-5, tol: float = 1e-6, max_coords: int = 64, seed: int = 0,
) -> GradCheckReport:
    """Compare the analytic gradient against central finite differences on a
    seeded sample of coordinates. Nudging logit (i, j) moves only pixel i's
    term, so each difference is of that row's loss value alone over the full
    normalizer: O(K) per coordinate, no cancellation against other pixels.
    The error is relative to the largest gradient magnitude, so near-zero
    derivatives are judged on the gradient's scale. The gradient is taken
    block by block, its largest magnitude and its values at the picks kept,
    so the N x K gradient is never built."""
    if not (math.isfinite(step) and step > 0 and math.isfinite(tol) and tol > 0):
        raise ValidationError(f"step and tol must be finite numbers > 0, got {step} and {tol}")
    if max_coords < 1:
        raise ValidationError(f"at least one coordinate must be checked, got {max_coords}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    kernel, norm = _prepare(loss_id, item, layout, cfg)
    z = item.scores.logits
    # `random`, not `numpy.random`, whose import loads hashlib and OpenSSL
    picks = random.Random(seed).sample(range(z.size), min(max_coords, z.size))
    rows, cols = np.divmod(picks, z.shape[1])
    # the gradient's scale and its values at the picks, block by block
    loss, grad, top = np.empty(len(z)), np.empty(len(picks)), 0.0
    for block, zt in row_blocks(z):
        loss[block], block_grad = kernel(zt, block, True)
        block_top = float(np.abs(block_grad).max())
        if not math.isfinite(block_top):
            raise ValidationError(f"{loss_id}: non-finite gradient")
        top = max(top, block_top)
        here = (block.start <= rows) & (rows < block.stop)
        grad[here] = block_grad[cols[here], rows[here] - block.start]
    grad /= norm
    nudge = np.zeros((len(picks), z.shape[1]))
    nudge[np.arange(len(picks)), cols] = step
    plus = _blocked(kernel, z[rows] + nudge, False, rows)[0]
    minus = _blocked(kernel, z[rows] - nudge, False, rows)[0]
    fd = (plus - minus) / (2.0 * step) / norm
    scale = max(top / norm, float(np.abs(fd).max()), 1e-300)
    max_rel = float(np.abs(grad - fd).max() / scale)
    passed = bool(np.isfinite(max_rel) and max_rel < tol)
    return GradCheckReport(loss_id, float(loss.sum()) / norm, max_rel, len(picks), step, tol, passed)
