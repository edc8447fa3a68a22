"""Fixed-capacity exemplar memory with correct saved-at-task labels.

Every stored grid is the oracle grid relabeled with the classes visible at
the task the image was saved, so a replayed image keeps ground-truth labels
for the classes known back then instead of being re-annotated with only the
current task's classes. Batches replayed from memory therefore train against
the stored grids, never against a current-task relabeling.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from pathlib import Path

from .artifacts import grid_name, is_int, read_json, reading, write_artifact
from .errors import FormatError, ValidationError
from .grid import LabelGrid, relabel
from .manifest import DatasetManifest
from .pgm import read_pgm, write_pgm
from .scenario import SplitManifest
from .tasks import TaskSpec, classes_up_to, task_classes, task_of_class


@dataclass(frozen=True)
class ExemplarEntry:
    image_id: str
    stored_labels: LabelGrid
    saved_at: int
    anchor_class: int


@dataclass(frozen=True)
class ExemplarMemory:
    capacity: int
    entries: tuple[ExemplarEntry, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValidationError("memory capacity must be >= 1")
        if len(self.entries) > self.capacity:
            raise ValidationError(
                f"{len(self.entries)} entries exceed capacity {self.capacity}"
            )
        ids = [e.image_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("memory image ids must be unique")

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> set[str]:
        return {e.image_id for e in self.entries}

    def entry(self, image_id: str) -> ExemplarEntry:
        for e in self.entries:
            if e.image_id == image_id:
                return e
        raise ValidationError(f"image {image_id!r} not in memory")


@dataclass(frozen=True)
class BatchItem:
    image_id: str
    source: str  # "current" or "memory"


@dataclass(frozen=True)
class ReplayBatch:
    items: tuple[BatchItem, ...]
    warnings: tuple[str, ...] = ()


def _source_task(member_tasks: list[int], anchor_task: int) -> int | None:
    """Earliest task holding the image at which the anchor class is visible."""
    for t in member_tasks:
        if t >= anchor_task:
            return t
    return None


def _class_pools(
    split: SplitManifest,
    manifest: DatasetManifest,
    classes,
    upto_task: int,
    candidates: list[str] | None = None,
) -> dict[int, list[tuple[str, int]]]:
    """For each class, the (image id, saved-at task) pairs that can anchor it,
    in image-id order: candidate images (by default every image of tasks
    0..upto_task) holding the class in one of those tasks no earlier than the
    class's own; saved-at is the earliest such task."""
    member = split.membership(upto_task)
    ids = sorted(member) if candidates is None else candidates
    pools: dict[int, list[tuple[str, int]]] = {}
    for cls in classes:
        anchor_task = task_of_class(split.spec, cls)
        pools[cls] = [
            (image_id, source)
            for image_id in ids
            if cls in manifest.record(image_id).oracle_classes
            and (source := _source_task(member[image_id], anchor_task)) is not None
        ]
    return pools


def _make_entry(
    manifest: DatasetManifest, spec: TaskSpec, image_id: str, saved_at: int, anchor: int
) -> ExemplarEntry:
    oracle = manifest.record(image_id).oracle_labels
    stored = relabel(oracle, classes_up_to(spec, saved_at))
    return ExemplarEntry(
        image_id=image_id, stored_labels=stored, saved_at=saved_at, anchor_class=anchor
    )


def sample_class_balanced(
    split: SplitManifest,
    manifest: DatasetManifest,
    upto_task: int,
    capacity: int,
    seed: int,
) -> ExemplarMemory:
    """Round-robin over the classes seen so far, one seeded draw per class per
    round, without replacement, until the capacity is reached or every pool is
    exhausted. Anchor counts across classes differ by at most one whenever the
    supply allows; a class with no remaining images is skipped and the budget
    flows to the others.
    """
    spec = split.spec
    if capacity < 1:
        raise ValidationError("memory capacity must be >= 1")
    if not 0 <= upto_task <= spec.task_count:
        raise ValidationError(f"task index {upto_task} outside 0..{spec.task_count}")
    order = spec.class_order[: spec.base_count + upto_task * spec.step]
    pools = _class_pools(split, manifest, order, upto_task)

    rng = random.Random(seed)
    taken: set[str] = set()
    entries: list[ExemplarEntry] = []
    warnings: list[str] = []
    while len(entries) < capacity:
        progress = False
        for cls in order:
            if len(entries) >= capacity:
                break
            pool = [cand for cand in pools[cls] if cand[0] not in taken]
            if not pool:
                continue
            image_id, saved_at = pool[rng.randrange(len(pool))]
            taken.add(image_id)
            entries.append(_make_entry(manifest, spec, image_id, saved_at, cls))
            progress = True
        if not progress:
            warnings.append(
                f"supply exhausted: stored {len(entries)} of {capacity} requested entries"
            )
            break
    return ExemplarMemory(capacity=capacity, entries=tuple(entries), warnings=tuple(warnings))


def extend_class_balanced(
    memory: ExemplarMemory,
    split: SplitManifest,
    manifest: DatasetManifest,
    new_task: int,
    seed: int,
) -> ExemplarMemory:
    """Make room for the classes introduced at `new_task` while keeping old
    entries. Vacancies are filled first; once full, one entry of a
    most-represented anchor class is evicted (seeded, uniform) per insertion.
    Each new class targets an equal share of the capacity, supply permitting.
    """
    spec = split.spec
    new_classes = [c for c in spec.class_order if c in task_classes(spec, new_task)]
    pools = _class_pools(split, manifest, new_classes, new_task)
    rng = random.Random(seed)

    entries = list(memory.entries)
    warnings = list(memory.warnings)
    visible = spec.base_count + new_task * spec.step
    target = max(1, memory.capacity // visible)

    def anchor_counts() -> dict[int, int]:
        counts: dict[int, int] = {}
        for e in entries:
            counts[e.anchor_class] = counts.get(e.anchor_class, 0) + 1
        return counts

    for cls in new_classes:
        stored = sum(1 for e in entries if e.anchor_class == cls)
        while stored < target:
            taken = {e.image_id for e in entries}
            pool = [cand for cand in pools[cls] if cand[0] not in taken]
            if not pool:
                warnings.append(f"class {cls}: no unsampled images left")
                break
            if len(entries) >= memory.capacity:
                counts = anchor_counts()
                top = max(counts.values())
                if top <= target:
                    break  # nothing over-represented to evict
                victims = [i for i, e in enumerate(entries) if counts[e.anchor_class] == top]
                entries.pop(victims[rng.randrange(len(victims))])
            image_id, saved_at = pool[rng.randrange(len(pool))]
            entries.append(_make_entry(manifest, spec, image_id, saved_at, cls))
            stored += 1
    return ExemplarMemory(capacity=memory.capacity, entries=tuple(entries), warnings=tuple(warnings))


def overlap_ratio(memory: ExemplarMemory, split: SplitManifest, t: int) -> float:
    """Fraction of stored images that reappear in task t of an overlapped split."""
    if split.scenario != "overlapped":
        raise ValidationError("overlap ratio is defined against an overlapped split")
    if not memory.entries:
        raise ValidationError("overlap ratio of an empty memory is undefined")
    current = set(split.task_ids(t))
    hits = sum(1 for e in memory.entries if e.image_id in current)
    return hits / len(memory.entries)


def make_non_overlapping_variant(
    memory: ExemplarMemory,
    split: SplitManifest,
    manifest: DatasetManifest,
    t: int,
    seed: int,
) -> ExemplarMemory:
    """Replace entries reappearing in task t with base-task images that do not.

    Replacements prefer an image containing the entry's anchor class; when
    none is available the anchor is reassigned to the replacement's first
    visible class in class order. Size is preserved; entries are kept (with a
    warning) when the non-overlapping supply runs out.
    """
    if split.scenario != "overlapped":
        raise ValidationError("the non-overlapping variant is defined on overlapped splits")
    if t < 1:
        raise ValidationError(f"need an incremental task, got t={t}")
    spec = split.spec
    current = set(split.task_ids(t))
    pool = sorted(set(split.task_ids(0)) - current - memory.ids())
    anchors = {e.anchor_class for e in memory.entries if e.image_id in current}
    pools = _class_pools(split, manifest, anchors, spec.task_count, pool)
    rng = random.Random(seed)

    used: set[str] = set()
    entries: list[ExemplarEntry] = []
    warnings = list(memory.warnings)
    for entry in memory.entries:
        if entry.image_id not in current:
            entries.append(entry)
            continue
        preferred = [cand for cand in pools[entry.anchor_class] if cand[0] not in used]
        if preferred:
            image_id, saved_at = preferred[rng.randrange(len(preferred))]
            anchor = entry.anchor_class
        elif remaining := [image_id for image_id in pool if image_id not in used]:
            image_id, saved_at = remaining[rng.randrange(len(remaining))], 0
            stored_visible = sorted(
                manifest.record(image_id).oracle_classes & classes_up_to(spec, 0),
                key=spec.class_order.index,
            )
            anchor = stored_visible[0]
            warnings.append(
                f"{entry.image_id}: no replacement with anchor class {entry.anchor_class}, reassigned"
            )
        else:
            entries.append(entry)
            warnings.append(f"{entry.image_id}: non-overlapping supply exhausted, kept")
            continue
        used.add(image_id)
        entries.append(_make_entry(manifest, spec, image_id, saved_at, anchor))
    return ExemplarMemory(capacity=memory.capacity, entries=tuple(entries), warnings=tuple(warnings))


def compose_batch(
    current_ids: list[str] | tuple[str, ...],
    memory: ExemplarMemory,
    batch_size: int,
    seed: int,
) -> ReplayBatch:
    """Half current-task data, half memory: ceil(b/2) current items and
    floor(b/2) memory items, seeded. Draws are without replacement unless a
    side is smaller than its half, in which case it is sampled with
    replacement (empty memory degrades to an all-current batch, flagged).
    """
    if batch_size < 2:
        raise ValidationError(f"batch size must be >= 2, got {batch_size}")
    n_current = math.ceil(batch_size / 2)
    n_memory = batch_size - n_current
    warnings: list[str] = []
    if not memory.entries:
        warnings.append("memory is empty; batch is current-task only")
        n_current, n_memory = batch_size, 0
    pool = list(current_ids)
    if not pool:
        raise ValidationError("no current-task images to sample")
    rng = random.Random(seed)
    if len(pool) >= n_current:
        chosen = rng.sample(pool, n_current)
    else:
        warnings.append("current supply below half batch; sampling with replacement")
        chosen = [pool[rng.randrange(len(pool))] for _ in range(n_current)]
    items = [BatchItem(image_id=i, source="current") for i in chosen]
    if n_memory:
        mem_ids = [e.image_id for e in memory.entries]
        if len(mem_ids) >= n_memory:
            picks = rng.sample(mem_ids, n_memory)
        else:
            warnings.append("memory below half batch; sampling with replacement")
            picks = [mem_ids[rng.randrange(len(mem_ids))] for _ in range(n_memory)]
        items.extend(BatchItem(image_id=i, source="memory") for i in picks)
    return ReplayBatch(items=tuple(items), warnings=tuple(warnings))


def resolve_batch_labels(
    batch: ReplayBatch,
    memory: ExemplarMemory,
    manifest: DatasetManifest,
    spec: TaskSpec,
    current_task: int,
) -> list[LabelGrid]:
    """The grid each batch item trains against: stored labels for memory
    items, the current task's relabeling for current items."""
    out = []
    current_classes = task_classes(spec, current_task)
    for item in batch.items:
        if item.source == "memory":
            out.append(memory.entry(item.image_id).stored_labels)
        else:
            out.append(relabel(manifest.record(item.image_id).oracle_labels, current_classes))
    return out


def save_memory(memory: ExemplarMemory, path: str | os.PathLike) -> None:
    """Write the memory JSON plus one P5 grid per entry in a sibling directory."""
    path = Path(path)
    entries = [
        {
            "image_id": entry.image_id,
            "saved_at": entry.saved_at,
            "anchor_class": entry.anchor_class,
            "labels_path": grid_name(path, i, 4),
        }
        for i, entry in enumerate(memory.entries)
    ]
    doc: dict = {"capacity": memory.capacity, "entries": entries}
    if memory.warnings:
        doc["warnings"] = list(memory.warnings)
    grids = ((e["labels_path"], entry.stored_labels) for e, entry in zip(entries, memory.entries))
    write_artifact(path, doc, grids, write_pgm)


def load_memory(path: str | os.PathLike) -> ExemplarMemory:
    path = Path(path)
    doc = read_json(path, "memory file")
    with reading(path, "memory file"):
        numbers = [doc["capacity"], *(e[k] for e in doc["entries"] for k in ("saved_at", "anchor_class"))]
        if not all(map(is_int, numbers)):
            raise FormatError(f"{path}: capacity, saved_at and anchor_class must be integers")
        entries = tuple(
            ExemplarEntry(
                image_id=str(e["image_id"]),
                stored_labels=read_pgm(path.parent / e["labels_path"]),
                saved_at=e["saved_at"],
                anchor_class=e["anchor_class"],
            )
            for e in doc["entries"]
        )
        return ExemplarMemory(
            capacity=doc["capacity"],
            entries=entries,
            warnings=tuple(doc.get("warnings", ())),
        )
