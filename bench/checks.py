"""Output checks, computed apart from the ``ciss`` package.

Nothing here imports ``ciss``. Expected values come from the generator's own
record of what it planted and from direct numpy formulas: the layout rule
for splits, a 256-entry byte table for relabeling, a confusion matrix for
the metrics and float64 log-softmax for the losses. Every check returns a
list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from gen import BASE, CLASS_COUNT, IGNORE, NEW_CLASSES, OLD_CLASSES, STEP, read_pgm

REL_TOL = 1e-9
N_TASKS = 1 + (CLASS_COUNT - BASE) // STEP


def task_of(cls: int) -> int:
    """Task introducing a class at layout 15-1 with the identity class order."""
    return 0 if cls <= BASE else 1 + (cls - BASE - 1) // STEP


def task_block(t: int) -> set[int]:
    return set(range(1, BASE + 1)) if t == 0 else set(range(BASE + 1 + (t - 1) * STEP, BASE + 1 + t * STEP))


def visible_up_to(t: int) -> set[int]:
    return set(range(1, BASE + t * STEP + 1))


def relabel_table(keep: set[int]) -> np.ndarray:
    lut = np.zeros(256, dtype=np.uint8)
    for c in keep:
        lut[c] = c
    lut[IGNORE] = IGNORE
    return lut


def close(a: float | None, b: float | None, tol: float = REL_TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# ---------------------------------------------------------------------------
# split-memory
# ---------------------------------------------------------------------------


def expected_task_lists(classes: dict[str, frozenset[int]], scenario: str) -> list[list[str]]:
    lists: list[list[str]] = [[] for _ in range(N_TASKS)]
    for image_id in sorted(classes):
        tasks = {task_of(c) for c in classes[image_id]}
        for t in sorted(tasks) if scenario == "overlapped" else [max(tasks)]:
            lists[t].append(image_id)
    return lists


def check_build(scenario: str, doc: dict, split: dict, classes: dict[str, frozenset[int]]) -> list[str]:
    problems = []
    tasks = [t["image_ids"] for t in split["tasks"]]
    if doc.get("task_counts") != [len(ids) for ids in tasks]:
        problems.append(f"{scenario}: printed task_counts do not match the split file")
    if [sorted(t["classes"]) for t in split["tasks"]] != [sorted(task_block(t)) for t in range(N_TASKS)]:
        problems.append(f"{scenario}: task class blocks differ from layout 15-1")
    if scenario in ("overlapped", "disjoint"):
        want = expected_task_lists(classes, scenario)
        for t, (got, exp) in enumerate(zip(tasks, want)):
            if got != exp:
                problems.append(f"{scenario}: task {t} lists {len(got)} images, expected {len(exp)}")
        if scenario == "overlapped":
            sets = [set(ids) for ids in tasks]
            pairs = [
                {"a": i, "b": j, "size": len(sets[i] & sets[j])}
                for i in range(len(sets))
                for j in range(i + 1, len(sets))
            ]
            if doc.get("pairwise_overlaps") != pairs:
                problems.append("overlapped: pairwise_overlaps differ from set enumeration")
        return problems
    assigned = split.get("assignments") or {}
    placed: dict[str, int] = {}
    for t, ids in enumerate(tasks):
        for image_id in ids:
            if image_id in placed:
                problems.append(f"partitioned: {image_id} sits in tasks {placed[image_id]} and {t}")
            placed[image_id] = t
            cls = assigned.get(image_id)
            if cls not in classes.get(image_id, ()):
                problems.append(f"partitioned: {image_id} assigned class {cls}, not one of its own")
            elif cls not in task_block(t):
                problems.append(f"partitioned: {image_id} in task {t}, whose block lacks class {cls}")
    if set(placed) != set(classes):
        problems.append(f"partitioned: {len(placed)} images placed, dataset has {len(classes)}")
    return problems


def _load_memory(path: Path) -> tuple[dict, list[np.ndarray]]:
    doc = json.loads(Path(path).read_text())
    grids = [read_pgm(Path(path).parent / e["labels_path"]) for e in doc["entries"]]
    return doc, grids


def _entry_problems(mem: dict, grids, split: dict, classes, oracles, upto: int) -> list[str]:
    problems = []
    task_ids = [set(t["image_ids"]) for t in split["tasks"]]
    ids = [e["image_id"] for e in mem["entries"]]
    if len(set(ids)) != len(ids):
        problems.append("memory holds an image twice")
    for entry, grid in zip(mem["entries"], grids):
        image_id, saved_at, anchor = entry["image_id"], entry["saved_at"], entry["anchor_class"]
        if not 0 <= saved_at <= upto or image_id not in task_ids[saved_at]:
            problems.append(f"{image_id}: saved_at {saved_at} is not a task holding it")
            continue
        if anchor not in classes[image_id] or anchor not in visible_up_to(saved_at):
            problems.append(f"{image_id}: anchor {anchor} is not visible in it at task {saved_at}")
        want = relabel_table(visible_up_to(saved_at))[oracles[image_id]]
        if not np.array_equal(grid, want):
            problems.append(f"{image_id}: stored grid differs from its labels at task {saved_at}")
    return problems


def check_memory_sample(doc, mem_path, split, classes, oracles, upto: int, capacity: int) -> list[str]:
    mem, grids = _load_memory(mem_path)
    seen = visible_up_to(upto)
    pools = {c: {i for i, cs in classes.items() if c in cs} for c in seen}
    supply = len(set().union(*pools.values()))
    problems = []
    stored = len(mem["entries"])
    if doc.get("stored") != stored or stored != min(capacity, supply):
        problems.append(f"stored {doc.get('stored')}/{stored}, expected min({capacity}, {supply})")
    counts = {c: 0 for c in seen}
    for e in mem["entries"]:
        counts[e["anchor_class"]] = counts.get(e["anchor_class"], 0) + 1
    top = max(counts.values())
    taken = {e["image_id"] for e in mem["entries"]}
    for c, n in counts.items():
        if n < top - 1 and not pools.get(c, set()) <= taken:
            problems.append(f"class {c} anchors {n} entries, {top} for another, with supply left")
    return problems + _entry_problems(mem, grids, split, classes, oracles, upto)


def overlap_ratio(mem: dict, split: dict, t: int) -> float:
    current = set(split["tasks"][t]["image_ids"])
    return sum(e["image_id"] in current for e in mem["entries"]) / len(mem["entries"])


def check_overlap_ratio(doc: dict, mem_path, split: dict, t: int) -> list[str]:
    want = overlap_ratio(json.loads(Path(mem_path).read_text()), split, t)
    if not close(doc.get("overlap_ratio"), want):
        return [f"overlap ratio {doc.get('overlap_ratio')}, set enumeration gives {want}"]
    return []


def check_variant(doc, var_path, mem_path, split, classes, oracles, t: int, upto: int) -> list[str]:
    var, grids = _load_memory(var_path)
    mem = json.loads(Path(mem_path).read_text())
    problems = []
    if len(var["entries"]) != len(mem["entries"]):
        problems.append(f"variant holds {len(var['entries'])} entries, memory {len(mem['entries'])}")
    current = set(split["tasks"][t]["image_ids"])
    needed = sum(e["image_id"] in current for e in mem["entries"])
    supply = len(set(split["tasks"][0]["image_ids"]) - current - {e["image_id"] for e in mem["entries"]})
    ratio = overlap_ratio(var, split, t)
    if needed <= supply and ratio != 0:
        problems.append(f"variant overlaps task {t} at {ratio} though supply {supply} >= {needed}")
    if not close(doc.get("overlap_ratio"), ratio):
        problems.append(f"printed overlap ratio {doc.get('overlap_ratio')}, enumeration gives {ratio}")
    return problems + _entry_problems(var, grids, split, classes, oracles, upto)


def check_batch(doc: dict, mem_path, split: dict, t: int, size: int) -> list[str]:
    mem_ids = {e["image_id"] for e in json.loads(Path(mem_path).read_text())["entries"]}
    current = set(split["tasks"][t]["image_ids"])
    items = doc.get("items", [])
    cur = [it["image_id"] for it in items if it["source"] == "current"]
    rep = [it["image_id"] for it in items if it["source"] == "memory"]
    problems = []
    if (len(cur), len(rep)) != (math.ceil(size / 2), size // 2) or len(items) != size:
        problems.append(f"batch holds {len(cur)} current and {len(rep)} memory items for size {size}")
    if (doc.get("n_current"), doc.get("n_memory")) != (len(cur), len(rep)):
        problems.append("printed n_current/n_memory do not match the items")
    if not set(cur) <= current:
        problems.append(f"current items outside task {t}")
    if not set(rep) <= mem_ids:
        problems.append("memory items outside the memory")
    return problems


# ---------------------------------------------------------------------------
# pseudo-eval
# ---------------------------------------------------------------------------


def expected_pseudo(gt: np.ndarray, planted: np.ndarray, confident: np.ndarray) -> np.ndarray:
    out = np.zeros_like(gt)
    current = np.isin(gt, NEW_CLASSES)
    out[current] = gt[current]
    fill = (gt == 0) & confident
    out[fill] = planted[fill]
    out[gt == IGNORE] = IGNORE
    return out


def check_pseudo(doc: dict, out_path, expected: np.ndarray, gt: np.ndarray) -> list[str]:
    got = read_pgm(out_path).reshape(-1)
    problems = []
    if not np.array_equal(got, expected):
        problems.append(f"pseudo-label differs from the planted result at {int((got != expected).sum())} pixels")
    if doc.get("relabeled_pixels") != int((expected != gt).sum()):
        problems.append(f"relabeled_pixels {doc.get('relabeled_pixels')}, expected {int((expected != gt).sum())}")
    return problems


def confusion(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """256x256 counts indexed [gt, pred] over pixels not ignored in gt."""
    valid = gt != IGNORE
    codes = gt[valid].astype(np.int64) * 256 + pred[valid]
    return np.bincount(codes, minlength=256 * 256).reshape(256, 256)


def _iou(conf: np.ndarray, c: int) -> float | None:
    tp = int(conf[c, c])
    denom = int(conf[c, :].sum()) + int(conf[:, c].sum()) - tp
    return None if denom == 0 else 100.0 * tp / denom


def expected_miou(preds, oracles) -> dict:
    total = sum(confusion(p, g) for p, g in zip(preds, oracles))
    per_class = {c: _iou(total, c) for c in range(0, CLASS_COUNT + 1)}

    def mean(cs):
        return sum(per_class[c] or 0.0 for c in cs) / len(cs)

    return {
        "per_class_iou": {str(c): v for c, v in per_class.items()},
        "miou_groups": {
            "base": mean(range(1, BASE + 1)),
            "incremental": mean(range(BASE + 1, CLASS_COUNT + 1)),
            "all": mean(range(0, CLASS_COUNT + 1)),
        },
    }


def expected_prr(pseudos, oracles, current_task: int) -> float:
    measured = [0] + sorted(visible_up_to(current_task - 1))
    total = 0.0
    for pseudo, oracle in zip(pseudos, oracles):
        conf = confusion(pseudo, oracle)
        defined = [v for v in (_iou(conf, c) for c in measured) if v is not None]
        total += sum(defined) / len(defined) if defined else 0.0
    return total / len(pseudos)


def check_miou(doc: dict, want: dict) -> list[str]:
    problems = []
    got_pc = doc.get("per_class_iou", {})
    if set(got_pc) != set(want["per_class_iou"]):
        problems.append("per-class IoU covers other classes than 0..20")
    for c, v in want["per_class_iou"].items():
        if not close(got_pc.get(c), v):
            problems.append(f"class {c}: IoU {got_pc.get(c)}, brute force gives {v}")
    for g, v in want["miou_groups"].items():
        if not close(doc.get("miou_groups", {}).get(g), v):
            problems.append(f"group {g}: mIoU {doc.get('miou_groups', {}).get(g)}, brute force gives {v}")
    return problems


def check_prr(doc: dict, want: float) -> list[str]:
    if not close(doc.get("prr"), want):
        return [f"prr {doc.get('prr')}, brute force gives {want}"]
    return []


# ---------------------------------------------------------------------------
# loss-kernel
# ---------------------------------------------------------------------------

ATOMIC_ITEM = {"ce_current": 0, "ce_memory": 1, "kd_old": 0, "bce_new": 0, "bce_old": 1, "ce_plain": 0}
COMPOSITES = ("memory_augmented", "bce_replay", "pseudo_replay")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    s = z - z.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def _log_bucket(ls: np.ndarray, cols) -> np.ndarray:
    part = ls[:, sorted(cols)]
    m = part.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(part - m).sum(axis=1, keepdims=True)))[:, 0]


def _bucket_ce(ls, y, absorbed) -> float:
    """Labels name allowed classes or background; background scores the
    bucket of background plus the absorbed classes."""
    valid = y != IGNORE
    fg = valid & (y != 0)
    bg = valid & (y == 0)
    total = ls[np.flatnonzero(fg), y[fg]].sum() + _log_bucket(ls, {0, *absorbed})[bg].sum()
    return -float(total) / int(valid.sum())


def _binary_ce(ls, y, selected, gamma) -> float:
    valid = y != IGNORE
    total = 0.0
    for c in selected:
        log_p = ls[:, c]
        log_1m = np.log1p(-np.exp(log_p))
        total += gamma * log_p[valid & (y == c)].sum() + log_1m[valid & (y != c)].sum()
    return -float(total) / int(valid.sum())


def expected_losses(rec) -> dict[str, float]:
    """Atomic values on their items, composites as affine mixes of atomic
    values over both items and the external scalars."""
    cfg = rec.config
    per_item = []
    for labels, logits, prev, source in zip(rec.labels, rec.logits, rec.prev_logits, rec.sources):
        ls = _log_softmax(logits)
        p_prev = np.exp(_log_softmax(prev))
        kd = (p_prev[:, 1:] * ls[:, list(OLD_CLASSES)]).sum()
        if cfg["kd_includes_bg"]:
            kd += (p_prev[:, 0] * _log_bucket(ls, {0, *NEW_CLASSES})).sum()
        valid = labels != IGNORE
        values = {
            "kd_old": -float(kd) / len(labels),
            "ce_plain": -float(ls[np.flatnonzero(valid), labels[valid]].sum()) / int(valid.sum()),
        }
        if source == "current":
            values["ce_current"] = _bucket_ce(ls, labels, OLD_CLASSES)
            values["bce_new"] = _binary_ce(ls, labels, NEW_CLASSES, cfg["gamma"])
        else:
            values["ce_memory"] = _bucket_ce(ls, labels, NEW_CLASSES)
            values["bce_old"] = _binary_ce(ls, labels, OLD_CLASSES, cfg["gamma"])
        per_item.append(values)
    out = {lid: per_item[i][lid] for lid, i in ATOMIC_ITEM.items()}
    cur = [i for i, s in enumerate(rec.sources) if s == "current"]
    mem = [i for i, s in enumerate(rec.sources) if s == "memory"]
    sc = rec.scalars
    n = len(rec.sources)

    def avg(vals):
        vals = list(vals)
        return sum(vals) / len(vals)

    out["memory_augmented"] = (
        avg(per_item[i]["ce_current"] for i in cur)
        + cfg["lambda"] * avg(per_item[i]["kd_old"] for i in range(n))
        + avg(per_item[i]["ce_memory"] for i in mem)
    )
    out["bce_replay"] = (
        avg(cfg["alpha"] * sc[i]["kd"] + cfg["beta"] * sc[i]["dkd"] for i in range(n))
        + avg(per_item[i]["bce_new"] + sc[i]["ac"] for i in cur)
        + avg(per_item[i]["bce_old"] for i in mem)
    )
    out["pseudo_replay"] = avg(per_item[i]["ce_plain"] + cfg["lambda"] * sc[i]["pod"] for i in range(n))
    return out


def check_loss_value(doc: dict, loss_id: str, want: float) -> list[str]:
    if doc.get("loss_id") != loss_id or not close(doc.get("loss"), want):
        return [f"{loss_id}: value {doc.get('loss')}, direct formula gives {want}"]
    return []


def check_gradcheck(doc: dict, loss_id: str, want: float) -> list[str]:
    """A gradcheck that ran to exit 0 must report a pass and the loss value."""
    problems = []
    if doc.get("loss_id") != loss_id or doc.get("passed") is not True:
        problems.append(f"{loss_id}: gradcheck exited 0 without passed: true")
    if not close(doc.get("loss"), want):
        problems.append(f"{loss_id}: gradcheck loss {doc.get('loss')}, direct formula gives {want}")
    return problems
