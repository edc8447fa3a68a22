"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and an output directory, writes only files the
``ciss`` CLI reads, and returns a record of what it planted (classes per
image, planted argmax and confidence per pixel, label grids, logits) so the
checks can recompute every expected output without calling the package.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 500, 375  # VOC-sized label grids
N_PIXELS = WIDTH * HEIGHT
CLASS_COUNT = 20
LAYOUT = "15-1"
BASE, STEP = 15, 1
IGNORE = 255

# Class frequencies are skewed like VOC's (one dominant class, a long tail);
# the fixed scramble keeps the rare classes spread over base and incremental
# tasks instead of all landing at the end of the class order.
_RANK = [(7 * c) % CLASS_COUNT for c in range(CLASS_COUNT)]
CLASS_WEIGHTS = np.array([1.0 / (1.0 + r) ** 0.8 for r in _RANK])
CLASS_WEIGHTS /= CLASS_WEIGHTS.sum()


def write_pgm(path: Path, rows: np.ndarray) -> None:
    h, w = rows.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + rows.astype(np.uint8).tobytes())


def read_pgm(path: Path) -> np.ndarray:
    """Minimal P5 reader: the header, one whitespace byte, then the raster."""
    blob = Path(path).read_bytes()
    head = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", blob)
    if head is None:
        raise ValueError(f"{path}: not a P5 grid with maxval 255")
    w, h = int(head[1]), int(head[2])
    raster = blob[head.end():]
    if len(raster) != w * h:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def draw_grid(rng: np.random.Generator) -> tuple[np.ndarray, frozenset[int]]:
    """One VOC-like label grid: 1-4 ellipse objects on background, each
    ringed by ignore pixels. Objects sit in separate vertical strips, so none
    hides another and every drawn class is present in the grid."""
    rows = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    k = int(rng.integers(1, 5))
    classes = rng.choice(CLASS_COUNT, size=k, p=CLASS_WEIGHTS) + 1
    strip = WIDTH // k
    for i, cls in enumerate(classes):
        ring = int(rng.integers(2, 6))
        a = rng.uniform(0.2, 0.45) * strip
        b = rng.uniform(0.15, 0.45) * HEIGHT
        cx = i * strip + strip / 2 + rng.uniform(-0.4, 0.4) * (strip / 2 - a - ring)
        cy = HEIGHT / 2 + rng.uniform(-1.0, 1.0) * (HEIGHT / 2 - b - ring - 1)
        y0, y1 = max(0, int(cy - b - ring - 1)), min(HEIGHT, int(cy + b + ring + 2))
        x0, x1 = max(0, int(cx - a - ring - 1)), min(WIDTH, int(cx + a + ring + 2))
        yy, xx = np.ogrid[y0:y1, x0:x1]
        outer = ((xx - cx) / (a + ring)) ** 2 + ((yy - cy) / (b + ring)) ** 2 <= 1.0
        inner = ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0
        box = rows[y0:y1, x0:x1]
        box[outer] = IGNORE
        box[inner] = cls
    return rows, frozenset(int(c) for c in classes)


@dataclass
class Dataset:
    """A manifest on disk plus the generator's own record of it."""

    manifest: Path
    ids: list[str]
    classes: dict[str, frozenset[int]]
    grids: dict[str, np.ndarray] = field(repr=False)


def make_dataset(rng: np.random.Generator, out: Path, n_images: int, name: str = "manifest") -> Dataset:
    grid_dir = out / f"{name}_grids"
    grid_dir.mkdir(parents=True, exist_ok=True)
    ids, classes, grids, images = [], {}, {}, []
    for i in range(n_images):
        image_id = f"img{i:05d}"
        rows, cls = draw_grid(rng)
        rel = f"{name}_grids/{i:05d}.pgm"
        write_pgm(out / rel, rows)
        ids.append(image_id)
        classes[image_id] = cls
        grids[image_id] = rows
        images.append({"id": image_id, "labels": rel})
    path = out / f"{name}.json"
    path.write_text(json.dumps({"class_count": CLASS_COUNT, "images": images}))
    return Dataset(manifest=path, ids=ids, classes=classes, grids=grids)


# ---------------------------------------------------------------------------
# loss-kernel: a loss case of full-size items with binary score files
# ---------------------------------------------------------------------------

OLD_CLASSES = tuple(range(1, BASE + 1))  # classes of task 0 at layout 15-1
NEW_CLASSES = (BASE + 1,)  # the class task 1 introduces
LOSS_CONFIG = {"lambda": 0.5, "gamma": 2.0, "alpha": 0.7, "beta": 0.3, "kd_includes_bg": True}


def write_scores(path: Path, class_map: tuple[int, ...], logits: np.ndarray) -> None:
    """Binary score file: "N K" line, class-id line, little-endian float64."""
    n, k = logits.shape
    head = f"{n} {k}\n" + " ".join(str(c) for c in class_map) + "\n"
    path.write_bytes(head.encode("ascii") + np.ascontiguousarray(logits, dtype="<f8").tobytes())


def _item_labels(rng: np.random.Generator, width: int, height: int, keep: tuple[int, ...]) -> np.ndarray:
    """A label grid whose foreground is drawn from `keep`: VOC-like objects at
    full size, scattered pixels on small items, with ignore kept."""
    if (width, height) == (WIDTH, HEIGHT):
        rows, _ = draw_grid(rng)
        labels = rows.reshape(-1).copy()
        drawn = (labels != 0) & (labels != IGNORE)
        labels[drawn] = np.asarray(keep, dtype=np.uint8)[labels[drawn] % len(keep)]
    else:
        labels = rng.choice(np.asarray((0,) + keep + (IGNORE,), dtype=np.uint8), size=width * height)
    labels[: len(keep)] = keep  # every allowed class occurs at least once
    return labels


@dataclass
class LossCaseRecord:
    """A loss case on disk plus everything written into it."""

    path: Path
    config: dict
    labels: list[np.ndarray]
    logits: list[np.ndarray]
    prev_logits: list[np.ndarray]
    scalars: list[dict]
    sources: list[str]


def make_loss_case(rng: np.random.Generator, out: Path, name: str, width: int, height: int) -> LossCaseRecord:
    """Two items, one current (labels: new classes) and one memory (labels:
    old classes), each with current scores at K=17 and previous-model scores
    at K=16, plus the external kd/dkd/ac/pod scalars the composites read."""
    n = width * height
    cmap = tuple(range(0, BASE + 2))
    prev_cmap = tuple(range(0, BASE + 1))
    rec = LossCaseRecord(out / f"{name}.json", dict(LOSS_CONFIG), [], [], [], [], [])
    items = []
    for i, (source, keep) in enumerate((("current", NEW_CLASSES), ("memory", OLD_CLASSES))):
        labels = _item_labels(rng, width, height, keep)
        logits = rng.uniform(-5.0, 5.0, size=(n, len(cmap)))
        prev = rng.uniform(-5.0, 5.0, size=(n, len(prev_cmap)))
        scalars = {k: round(float(rng.uniform(0.1, 2.0)), 6) for k in ("kd", "dkd", "ac", "pod")}
        write_scores(out / f"{name}_{i}.scores", cmap, logits)
        write_scores(out / f"{name}_{i}_prev.scores", prev_cmap, prev)
        write_pgm(out / f"{name}_{i}.pgm", labels.reshape(height, width))
        items.append(
            {
                "source": source,
                "scores": f"{name}_{i}.scores",
                "prev_scores": f"{name}_{i}_prev.scores",
                "labels": f"{name}_{i}.pgm",
                **scalars,
            }
        )
        rec.labels.append(labels)
        rec.logits.append(logits)
        rec.prev_logits.append(prev)
        rec.scalars.append(scalars)
        rec.sources.append(source)
    doc = {"layout": {"old": list(OLD_CLASSES), "new": list(NEW_CLASSES)}, "config": rec.config, "items": items}
    rec.path.write_text(json.dumps(doc))
    return rec


# ---------------------------------------------------------------------------
# pseudo-eval: text score files with planted argmax and confidence, plus
# (oracle, prediction) pairs over a dataset
# ---------------------------------------------------------------------------

TAU = 0.6
PSEUDO_TASK = 1  # current task: old classes 1..15, current class NEW_CLASSES
PREV_CLASS_MAP = tuple(range(0, BASE + 1))  # previous model: background and old classes
_HIGH, _LOW = 5.0, 1.0  # peak logit of a confident / an unsure row
_VARIANTS = 12  # distinct noise patterns per (class, level)
MARGIN = 0.1  # planted confidences sit at least this far from TAU


@dataclass
class PseudoImage:
    gt: Path
    scores: Path
    out: Path
    gt_rows: np.ndarray = field(repr=False)
    planted_class: np.ndarray = field(repr=False)  # per pixel, a previous-model class id
    confident: np.ndarray = field(repr=False)  # per pixel, planted confidence above TAU


def _row_table(rng: np.random.Generator, class_map: tuple[int, ...]):
    """Text rows for every (class, level, variant): the peak logit on the
    class's column, noise in [0, 0.5] elsewhere, every value written with two
    decimals so a file's size does not depend on the seed. Each row's softmax
    confidence is computed here in float64 and must clear TAU by MARGIN."""
    k = len(class_map)
    texts, conf = [], []
    for cls in PREV_CLASS_MAP:
        col = class_map.index(cls)
        for peak in (_HIGH, _LOW):
            for _ in range(_VARIANTS):
                row = np.round(rng.uniform(0.0, 0.5, size=k), 2)
                row[col] = peak
                texts.append((" ".join(f"{v:.2f}" for v in row) + "\n").encode("ascii"))
                e = np.exp(row - row.max())
                conf.append(e[col] / e.sum())
    conf = np.asarray(conf)
    high = conf.reshape(len(PREV_CLASS_MAP), 2, _VARIANTS)[:, 0]
    low = conf.reshape(len(PREV_CLASS_MAP), 2, _VARIANTS)[:, 1]
    if high.min() < TAU + MARGIN or low.max() > TAU - MARGIN:
        raise RuntimeError("planted confidences do not clear the threshold margin")
    return np.asarray(texts, dtype=object)


def make_pseudo_image(rng: np.random.Generator, out: Path, index: int, oracle: np.ndarray) -> PseudoImage:
    """Current-task ground truth for one oracle grid, and a previous-model
    text score file whose per-pixel argmax and confidence are planted:
    old-class pixels mostly point at their own class confidently, other
    pixels at background or a random old class, confidently or not."""
    class_map = tuple(int(c) for c in rng.permutation(PREV_CLASS_MAP))
    texts = _row_table(rng, class_map)
    flat = oracle.reshape(-1)
    gt = np.where(np.isin(flat, NEW_CLASSES) | (flat == IGNORE), flat, 0).astype(np.uint8)

    n_old = len(PREV_CLASS_MAP) - 1
    planted = np.where(rng.random(flat.size) < 0.5, 0, rng.integers(1, n_old + 1, size=flat.size))
    own = (flat >= 1) & (flat <= n_old)
    planted[own] = flat[own]
    confident = rng.random(flat.size) < np.where(own, 0.8, 0.4)
    variant = rng.integers(0, _VARIANTS, size=flat.size)
    row_index = (planted * 2 + (~confident).astype(np.int64)) * _VARIANTS + variant

    scores = out / f"prev_{index:03d}.scores"
    head = f"{flat.size} {len(class_map)}\n" + " ".join(map(str, class_map)) + "\n"
    scores.write_bytes(head.encode("ascii") + b"".join(texts[row_index].tolist()))
    gt_path = out / f"gt_{index:03d}.pgm"
    write_pgm(gt_path, gt.reshape(oracle.shape))
    return PseudoImage(gt_path, scores, out / f"pseudo_{index:03d}.pgm", gt, planted, confident)


@dataclass
class EvalSet:
    """(oracle, prediction) pair files; together the sets cover the dataset."""

    miou_pairs: list[Path]
    prr_pairs: list[Path]
    oracles: list[list[np.ndarray]] = field(repr=False)
    preds: list[list[np.ndarray]] = field(repr=False)


def make_eval_set(rng: np.random.Generator, out: Path, dataset: Dataset, n_sets: int) -> EvalSet:
    """One prediction per dataset image: the oracle with ignore read as
    background, 8% of pixels set to random class ids and, for a third of the
    images, one class swapped for another. The images are dealt round-robin
    into `n_sets` pair sets."""
    pred_dir = out / "pred"
    pred_dir.mkdir(parents=True, exist_ok=True)
    ev = EvalSet([], [], [[] for _ in range(n_sets)], [[] for _ in range(n_sets)])
    miou, prr = [[] for _ in range(n_sets)], [[] for _ in range(n_sets)]
    for i, image_id in enumerate(dataset.ids):
        oracle = dataset.grids[image_id]
        pred = np.where(oracle == IGNORE, 0, oracle).astype(np.uint8)
        if rng.random() < 1 / 3:
            src = int(rng.choice(sorted(dataset.classes[image_id])))
            pred[pred == src] = int(rng.integers(1, CLASS_COUNT + 1))
        noisy = rng.random(pred.shape) < 0.08
        pred[noisy] = rng.integers(0, CLASS_COUNT + 1, size=int(noisy.sum()))
        rel = f"pred/{i:05d}.pgm"
        write_pgm(out / rel, pred)
        gt_rel = f"manifest_grids/{i:05d}.pgm"
        k = i % n_sets
        miou[k].append({"pred": rel, "gt": gt_rel})
        prr[k].append({"oracle": gt_rel, "pseudo": rel})
        ev.oracles[k].append(oracle)
        ev.preds[k].append(pred)
    for k in range(n_sets):
        ev.miou_pairs.append(out / f"miou_pairs_{k}.json")
        ev.prr_pairs.append(out / f"prr_pairs_{k}.json")
        ev.miou_pairs[k].write_text(json.dumps(miou[k]))
        ev.prr_pairs[k].write_text(json.dumps(prr[k]))
    return ev
