"""Loss kernel for incremental segmentation training on raw score matrices.

Two per-pixel kernels compute every loss on N x K logits. The bucket
cross-entropy scores one-column buckets plus background pooled with absorbed
classes (new ones for memory replay, old ones for current-task labels),
weighted one-hot by labels or by the previous model's distribution for
distillation; the binary cross-entropy scores each selected class on its own.
Everything is float64, bucket probabilities are taken in log space, and
`grad_check` validates every gradient against finite differences.
"""
from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

import numpy as np

from .artifacts import read_json, reading
from .errors import FormatError, ValidationError
from .grid import BACKGROUND, IGNORE, LabelGrid
from .pgm import read_pgm
from .scores import ScoreMatrix, read_scores, softmax_probs

COMPOSITE_LOSSES = ("memory_augmented", "bce_replay", "pseudo_replay")


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
        old = frozenset(int(c) for c in self.old_classes)
        new = frozenset(int(c) for c in self.new_classes)
        object.__setattr__(self, "old_classes", old)
        object.__setattr__(self, "new_classes", new)
        if old & new:
            raise ValidationError(f"old and new classes overlap: {sorted(old & new)}")
        reserved = (old | new) & {BACKGROUND, IGNORE}
        if reserved:
            raise ValidationError(f"reserved class ids {sorted(reserved)} cannot be old or new")
        if not new:
            raise ValidationError("layout needs at least one new class")


@dataclass(frozen=True)
class LossItem:
    """One batch element: scores, labels, which side of the batch it came
    from, and optional previous-model scores and externally computed
    kd/dkd/ac/pod scalars."""

    scores: ScoreMatrix
    labels: LabelGrid | None = None
    source: str = "current"
    prev_scores: ScoreMatrix | None = None
    kd: float | None = None
    dkd: float | None = None
    ac: float | None = None
    pod: float | None = None

    def __post_init__(self) -> None:
        if self.source not in ("current", "memory"):
            raise ValidationError(f"unknown item source {self.source!r}")


# --- the two per-pixel kernels ------------------------------------------------
def _lse(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def _bucket_log_probs(z: np.ndarray, single_cols: np.ndarray, pooled_cols: np.ndarray):
    """The log-softmax, and log P(B_b) per pixel for the one-column buckets
    followed by the pooled bucket."""
    log_p = z - _lse(z)[:, None]
    log_b = np.empty((len(z), len(single_cols) + 1))
    log_b[:, :-1] = log_p[:, single_cols]
    log_b[:, -1] = _lse(log_p[:, pooled_cols])
    return log_p, log_b


def _bucket_ce(z, single_cols, pooled_cols, w, grad: bool):
    """Per-pixel l_i = -sum_b w_ib log P_i(B_b) and, when asked, its gradient
    (sum_b w_ib) p_i - sum_b w_ib p_i 1[B_b] / P_i(B_b). The weights hold one
    column per bucket, the pooled bucket last."""
    log_p, log_b = _bucket_log_probs(z, single_cols, pooled_cols)
    loss = -(w * log_b).sum(axis=1)
    if not grad:
        return loss, None
    g = np.exp(log_p)
    g *= w.sum(axis=1)[:, None]
    g[:, single_cols] -= w[:, :-1]
    g[:, pooled_cols] -= w[:, -1:] * np.exp(log_p[:, pooled_cols] - log_b[:, -1:])
    return loss, g


def _binary_ce(z, bucket, cols, gamma: float, grad: bool):
    """Per-pixel binary cross-entropy summed over the columns `cols`: gamma
    log p where the label is that column's class (bucket == its index), and
    log(1 - p) at every other valid pixel (bucket >= 0)."""
    lse_all = _lse(z)
    valid = bucket >= 0
    loss = np.zeros(len(z))
    u = np.zeros_like(z) if grad else None
    for s, col in enumerate(cols):
        log_p = z[:, col] - lse_all
        log_1m = _lse(np.delete(z, col, axis=1)) - lse_all  # log(1 - p) without cancellation
        pos, neg = bucket == s, valid & (bucket != s)
        loss -= np.where(pos, gamma * log_p, np.where(neg, log_1m, 0.0))
        if grad:
            u[pos, col] += gamma
            u[neg, col] -= np.exp(log_p[neg] - log_1m[neg])  # p / (1 - p)
    if not grad:
        return loss, None
    g = np.exp(z - lse_all[:, None]) * u.sum(axis=1, keepdims=True) - u
    g[~valid] = 0.0
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
    table = np.array([index.get(c, -2) for c in range(256)], dtype=np.intp)
    bucket = table[labels.data]
    if not (bucket >= 0).any():
        raise ValidationError("every pixel is ignored; loss undefined")
    if (bucket == -2).any():
        bad = np.unique(labels.data[bucket == -2]).tolist()
        raise ValidationError(f"labels contain out-of-contract class ids {bad}")
    return bucket


def _bucket_kernel(scores: ScoreMatrix, singles: list[int], pooled: frozenset[int], w: np.ndarray):
    cols = _cols(scores, singles), _cols(scores, pooled | {BACKGROUND})
    return lambda z, rows, grad: _bucket_ce(z, *cols, w[rows], grad)


def _ce(item: LossItem, singles: list[int], pooled: frozenset[int], cfg: LossConfig):
    """Cross-entropy: one-hot label weights, normalized by the valid pixel count."""
    bucket = _label_buckets(item.scores, item.labels, singles)
    w = (bucket[:, None] == np.arange(len(singles) + 1)).astype(np.float64)
    return _bucket_kernel(item.scores, singles, pooled, w), int((bucket >= 0).sum())


def _kd(item: LossItem, singles: list[int], pooled: frozenset[int], cfg: LossConfig):
    """Distillation: the previous model's distribution as weights, normalized by N."""
    prev = item.prev_scores
    if prev is None:
        raise ValidationError("distillation requires previous-model scores")
    _check_classes(prev, frozenset(singles), "previous-model")
    if prev.n_pixels != item.scores.n_pixels:
        raise ValidationError(f"previous scores cover {prev.n_pixels} pixels, current {item.scores.n_pixels}")
    w = softmax_probs(prev)[:, _cols(prev, singles + [BACKGROUND])]
    if not cfg.kd_includes_bg:
        w[:, -1] = 0.0
    return _bucket_kernel(item.scores, singles, pooled, w), len(w)


def _bce(item: LossItem, singles: list[int], pooled: frozenset[int], cfg: LossConfig):
    """Binary cross-entropy over `singles`, normalized by the valid pixel count."""
    bucket = _label_buckets(item.scores, item.labels, singles)
    cols, gamma = _cols(item.scores, singles), cfg.positive_weight
    return (lambda z, rows, grad: _binary_ce(z, bucket[rows], cols, gamma, grad)), int((bucket >= 0).sum())


# loss id -> (preparation, layout side scored class by class, side pooled with
# background); ce_plain scores every class of the score matrix on its own
_LOSSES = {
    "ce_current": (_ce, "new_classes", "old_classes"),
    "ce_memory": (_ce, "old_classes", "new_classes"),
    "kd_old": (_kd, "old_classes", "new_classes"),
    "bce_new": (_bce, "new_classes", "old_classes"),
    "bce_old": (_bce, "old_classes", "new_classes"),
    "ce_plain": (_ce, None, None),
}
ATOMIC_LOSSES = tuple(_LOSSES)


def _prepare(loss_id: str, item: LossItem, layout: TaskClassLayout | None, cfg: LossConfig):
    """Validate the item once; return (kernel(z, rows, grad), normalizer), the
    kernel scoring logits z of the item's pixels `rows`."""
    if loss_id not in _LOSSES:
        raise ValidationError(f"unknown loss id {loss_id!r}; expected one of {ATOMIC_LOSSES}")
    prepare, own, pooled = _LOSSES[loss_id]
    if own is None:
        return prepare(item, sorted(set(item.scores.class_map) - {BACKGROUND}), frozenset(), cfg)
    _check_classes(item.scores, layout.old_classes | layout.new_classes, "score")
    return prepare(item, sorted(getattr(layout, own)), getattr(layout, pooled), cfg)


def loss_value(loss_id: str, item: LossItem, layout: TaskClassLayout, cfg: LossConfig) -> float:
    kernel, norm = _prepare(loss_id, item, layout, cfg)
    return float(kernel(item.scores.logits, slice(None), False)[0].sum()) / norm


def grad_logits(loss_id: str, item: LossItem, layout: TaskClassLayout, cfg: LossConfig) -> np.ndarray:
    """Analytic derivative of the loss with respect to every logit."""
    kernel, norm = _prepare(loss_id, item, layout, cfg)
    grad = kernel(item.scores.logits, slice(None), True)[1]
    grad /= norm
    if not np.all(np.isfinite(grad)):
        raise ValidationError(f"{loss_id}: non-finite gradient")
    return grad


def _bucket_probs(scores: ScoreMatrix, layout: TaskClassLayout, singles, pooled) -> np.ndarray:
    _check_classes(scores, layout.old_classes | layout.new_classes, "score")
    cols = _cols(scores, sorted(singles)), _cols(scores, pooled | {BACKGROUND})
    return np.exp(_bucket_log_probs(scores.logits, *cols)[1])


def probs_bg_absorbing_new(scores: ScoreMatrix, layout: TaskClassLayout) -> np.ndarray:
    """Softmax reduced to the sorted old classes plus background (last column),
    the new classes' mass added to background; rows sum to 1."""
    return _bucket_probs(scores, layout, layout.old_classes, layout.new_classes)


def probs_bg_absorbing_old(scores: ScoreMatrix, layout: TaskClassLayout) -> np.ndarray:
    """Mirror reduction: new classes plus background, old mass into background."""
    return _bucket_probs(scores, layout, layout.new_classes, layout.old_classes)


def ce_current(scores: ScoreMatrix, labels: LabelGrid, layout: TaskClassLayout) -> float:
    """Cross-entropy for current-task labels; old-class mass counts as background."""
    return loss_value("ce_current", LossItem(scores, labels), layout, LossConfig())


def ce_memory(scores: ScoreMatrix, labels: LabelGrid, layout: TaskClassLayout) -> float:
    """Cross-entropy for replayed memory labels; new-class mass counts as background."""
    return loss_value("ce_memory", LossItem(scores, labels), layout, LossConfig())


def kd_old_classes(
    prev_scores: ScoreMatrix, curr_scores: ScoreMatrix, layout: TaskClassLayout, cfg: LossConfig
) -> float:
    return loss_value("kd_old", LossItem(curr_scores, prev_scores=prev_scores), layout, cfg)


def bce_new_classes(scores: ScoreMatrix, labels: LabelGrid, layout: TaskClassLayout, cfg: LossConfig) -> float:
    """Binary cross-entropy summed over the new classes (current-task data)."""
    return loss_value("bce_new", LossItem(scores, labels), layout, cfg)


def bce_old_classes(scores: ScoreMatrix, labels: LabelGrid, layout: TaskClassLayout, cfg: LossConfig) -> float:
    """Binary cross-entropy summed over the old classes (memory data)."""
    return loss_value("bce_old", LossItem(scores, labels), layout, cfg)


def ce_plain(scores: ScoreMatrix, labels: LabelGrid) -> float:
    return loss_value("ce_plain", LossItem(scores, labels), None, LossConfig())


# --- composite objectives -----------------------------------------------------
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
    total = fmean(loss_value("ce_current", it, layout, cfg) for it in current)
    if cfg.kd_weight > 0:
        total += cfg.kd_weight * fmean([loss_value("kd_old", it, layout, cfg) for it in items])
    if stored:
        total += fmean(loss_value("ce_memory", it, layout, cfg) for it in stored)
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
    total = fmean(cfg.kd_alpha * it.kd + cfg.kd_beta * it.dkd for it in items)
    total += fmean(loss_value("bce_new", it, layout, cfg) + it.ac for it in current)
    if stored:
        total += fmean(loss_value("bce_old", it, layout, cfg) for it in stored)
    return total


def pseudo_replay_objective(items: Sequence[LossItem], cfg: LossConfig) -> float:
    """Plain cross-entropy against pseudo-labels plus a weighted external
    feature-distillation scalar, averaged over the concatenated batch
    (current and memory items enter the same mean)."""
    if not items:
        raise ValidationError("objective requires at least one item")
    if any(it.pod is None for it in items):
        raise ValidationError("every item needs an externally computed pod value")
    return fmean(loss_value("ce_plain", it, None, cfg) + cfg.kd_weight * it.pod for it in items)


# --- loss-case files and finite-difference validation -------------------------
@dataclass(frozen=True)
class LossCase:
    layout: TaskClassLayout
    cfg: LossConfig
    items: tuple[LossItem, ...]


def _load_item(root: Path, entry) -> LossItem:
    if not isinstance(entry, dict):
        raise ValidationError(f"loss case item must be an object, got {entry!r}")
    return LossItem(
        scores=read_scores(root / entry["scores"]),
        labels=read_pgm(root / entry["labels"]) if "labels" in entry else None,
        source=entry.get("source", "current"),
        prev_scores=read_scores(root / entry["prev_scores"]) if "prev_scores" in entry else None,
        **{k: _finite(entry[k], k) for k in ("kd", "dkd", "ac", "pod") if entry.get(k) is not None},
    )


def load_loss_case(path: str | os.PathLike) -> LossCase:
    """Read a loss-case file: JSON with `layout` ({old, new} class-id lists),
    `config` (lambda, gamma, alpha, beta, kd_includes_bg), and `items`, each
    naming score/label files (paths relative to the case file) plus optional
    prev_scores and external kd/dkd/ac/pod scalars."""
    path = Path(path)
    doc = read_json(path, "loss case")
    with reading(path, "loss case"):
        old, new = doc["layout"]["old"], doc["layout"]["new"]
        if any(isinstance(c, bool) or not isinstance(c, int) for c in [*old, *new]):
            raise ValidationError(f"layout class ids must be integers, got {doc['layout']!r}")
        layout = TaskClassLayout(old_classes=frozenset(old), new_classes=frozenset(new))
        cfg = LossConfig.from_mapping(doc.get("config", {}))
        items = tuple(_load_item(path.parent, entry) for entry in doc["items"])
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
    derivatives are judged on the gradient's scale."""
    if not (math.isfinite(step) and step > 0 and math.isfinite(tol) and tol > 0):
        raise ValidationError(f"step and tol must be finite numbers > 0, got {step} and {tol}")
    if max_coords < 1:
        raise ValidationError(f"at least one coordinate must be checked, got {max_coords}")
    kernel, norm = _prepare(loss_id, item, layout, cfg)
    z = item.scores.logits
    loss, grad = kernel(z, slice(None), True)
    grad /= norm
    if not np.all(np.isfinite(grad)):
        raise ValidationError(f"{loss_id}: non-finite gradient")
    picks = np.random.default_rng(seed).permutation(z.size)[:max_coords]
    rows, cols = np.divmod(picks, z.shape[1])
    nudge = np.zeros((len(picks), z.shape[1]))
    nudge[np.arange(len(picks)), cols] = step
    plus, minus = kernel(z[rows] + nudge, rows, False)[0], kernel(z[rows] - nudge, rows, False)[0]
    fd = (plus - minus) / (2.0 * step) / norm
    scale = max(float(np.abs(grad).max()), float(np.abs(fd).max()), 1e-300)
    max_rel = float(np.abs(grad.reshape(-1)[picks] - fd).max() / scale)
    passed = bool(np.isfinite(max_rel) and max_rel < tol)
    return GradCheckReport(loss_id, float(loss.sum()) / norm, max_rel, len(picks), step, tol, passed)
