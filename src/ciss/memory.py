"""Fixed-capacity exemplar memory with correct saved-at-task labels.

An entry holds an image id, the task it was saved at and its anchor class;
no pixels. Its replay grid, from `stored_labels`, is the oracle grid
relabeled with the classes visible at the task the image was saved, so a
replayed image keeps ground-truth labels for the classes known back then
instead of being re-annotated with only the current task's classes.
`save_memory` writes each such grid next to the memory file, deriving them
one at a time; `load_memory` reads the JSON only.
"""
from __future__ import annotations

import os
import random
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

from . import FormatError, ValidationError
from .artifacts import grid_name, is_int, read_json, reading, seeded, write_artifact
from .grid import LabelGrid, relabel
from .manifest import DatasetManifest
# read_pgm is unused here; it stays bound because bench/tracing.py patches ciss.memory.read_pgm
from .pgm import read_pgm, write_pgm
from .scenario import SplitManifest
from .tasks import TaskSpec, classes_up_to, task_classes, task_of_class


@dataclass(frozen=True)
class ExemplarEntry:
    image_id: str
    saved_at: int
    anchor_class: int


def stored_labels(entry: ExemplarEntry, manifest: DatasetManifest, spec: TaskSpec) -> LabelGrid:
    """The grid a stored image replays against: its oracle grid relabeled
    with the classes visible at the task it was saved at."""
    return relabel(manifest.record(entry.image_id).oracle_labels, classes_up_to(spec, entry.saved_at))


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
            and (source := next((t for t in member[image_id] if t >= anchor_task), None)) is not None
        ]
    return pools


def _draw(pools: dict, key, rng: random.Random) -> tuple[str, int] | None:
    """A seeded pick from the key's pool of (image id, saved-at task) pairs,
    each pool in image-id order; the picked image leaves every pool, so the
    pools hold only the images not drawn. None when the key's pool is empty."""
    pool = pools[key]
    if not pool:
        return None
    pick = pool[rng.randrange(len(pool))]
    for other in pools.values():
        i = bisect_left(other, (pick[0],))
        if i < len(other) and other[i][0] == pick[0]:
            del other[i]
    return pick


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
    rng = seeded(seed)
    visible = classes_up_to(split.spec, upto_task)
    order = [c for c in split.spec.class_order if c in visible]
    pools = _class_pools(split, manifest, order, upto_task)
    entries: list[ExemplarEntry] = []
    while len(entries) < capacity and any(pools.values()):
        for cls in order:
            if len(entries) < capacity and (pick := _draw(pools, cls, rng)) is not None:
                entries.append(ExemplarEntry(*pick, cls))
    warnings = []
    if len(entries) < capacity:
        warnings.append(f"supply exhausted: stored {len(entries)} of {capacity} requested entries")
    return ExemplarMemory(capacity=capacity, entries=tuple(entries), warnings=tuple(warnings))


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
    rng = seeded(seed)
    spec = split.spec
    current = set(split.task_ids(t))
    pool = sorted(set(split.task_ids(0)) - current - memory.ids())
    anchors = {e.anchor_class for e in memory.entries if e.image_id in current}
    # key None holds every candidate, for replacements that fall back to task 0
    pools = {**_class_pools(split, manifest, anchors, spec.num_tasks - 1, pool), None: [(i, 0) for i in pool]}

    entries: list[ExemplarEntry] = []
    warnings = list(memory.warnings)
    for entry in memory.entries:
        if entry.image_id in current:
            if (pick := _draw(pools, entry.anchor_class, rng)) is not None:
                entry = ExemplarEntry(*pick, entry.anchor_class)
            elif (pick := _draw(pools, None, rng)) is not None:
                held = manifest.record(pick[0]).oracle_classes
                anchor = next((c for c in spec.class_order[: spec.base_count] if c in held), None)
                if anchor is None:
                    raise ValidationError(f"image {pick[0]!r} holds no task-0 class in the manifest (--manifest)")
                warnings.append(
                    f"{entry.image_id}: no replacement with anchor class {entry.anchor_class}, reassigned"
                )
                entry = ExemplarEntry(*pick, anchor)
            else:
                warnings.append(f"{entry.image_id}: non-overlapping supply exhausted, kept")
        entries.append(entry)
    return ExemplarMemory(capacity=memory.capacity, entries=tuple(entries), warnings=tuple(warnings))


def compose_batch(
    current_ids: list[str] | tuple[str, ...],
    memory: ExemplarMemory,
    batch_size: int,
    seed: int,
) -> ReplayBatch:
    """Half current-task data, half memory: ceil(b/2) current items and
    floor(b/2) memory items, seeded, b at most the images the task and the
    memory hold. Draws are without replacement unless a side is smaller than
    its half, in which case it is sampled with replacement (empty memory
    degrades to an all-current batch, flagged)."""
    pool = list(current_ids)
    if not pool:
        raise ValidationError("no current-task images to sample")
    supply = len(pool) + len(memory)
    if not 2 <= batch_size <= supply:
        raise ValidationError(f"batch size must lie in 2..{supply}, the images the task and the memory hold, "
                              f"got {batch_size}")
    rng = seeded(seed)
    n_memory = batch_size // 2 if memory.entries else 0
    warnings = [] if memory.entries else ["memory is empty; batch is current-task only"]

    def picks(ids: list[str], n: int, short: str) -> list[str]:
        if len(ids) >= n:
            return rng.sample(ids, n)
        warnings.append(f"{short}; sampling with replacement")
        return [ids[rng.randrange(len(ids))] for _ in range(n)]

    sides = (("current", pool, batch_size - n_memory, "current supply below half batch"),
             ("memory", [e.image_id for e in memory.entries], n_memory, "memory below half batch"))
    items = tuple(BatchItem(image_id=i, source=source)
                  for source, ids, n, short in sides for i in picks(ids, n, short))
    return ReplayBatch(items=items, warnings=tuple(warnings))


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
            out.append(stored_labels(memory.entry(item.image_id), manifest, spec))
        else:
            out.append(relabel(manifest.record(item.image_id).oracle_labels, current_classes))
    return out


def save_memory(
    memory: ExemplarMemory, path: str | os.PathLike, manifest: DatasetManifest, spec: TaskSpec
) -> None:
    """Write the memory JSON plus, in a sibling directory, one P5 grid per
    entry: its `stored_labels`, derived from `manifest` as it is written."""
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
    grids = ((e["labels_path"], stored_labels(entry, manifest, spec)) for e, entry in zip(entries, memory.entries))
    write_artifact(path, doc, grids, write_pgm)


def load_memory(path: str | os.PathLike, split: SplitManifest) -> ExemplarMemory:
    """Read a memory file's JSON; its stored grids are not opened. Each entry
    must hold an image of `split` at a task it was saved at, and an anchor
    class visible at that task."""
    path = Path(path)
    doc = read_json(path, "memory file")
    with reading(path, "memory file"):
        entries, warnings = doc["entries"], doc.get("warnings", [])
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise FormatError(f"{path}: entries must be a JSON list of objects")
        numbers = [doc["capacity"], *(e[k] for e in entries for k in ("saved_at", "anchor_class"))]
        if not all(map(is_int, numbers)):
            raise FormatError(f"{path}: capacity, saved_at and anchor_class must be integers")
        strings = [e[k] for e in entries for k in ("image_id", "labels_path")]
        if not isinstance(warnings, list) or not all(isinstance(v, str) for v in strings + warnings):
            raise FormatError(f"{path}: image_id and labels_path must be strings, warnings a list of strings")
        memory = ExemplarMemory(
            capacity=doc["capacity"],
            entries=tuple(ExemplarEntry(e["image_id"], e["saved_at"], e["anchor_class"]) for e in entries),
            warnings=tuple(warnings),
        )
    member = split.membership(split.spec.num_tasks - 1)
    for e in memory.entries:
        if e.saved_at not in member.get(e.image_id, ()):
            raise FormatError(f"{path}: image {e.image_id!r} is not in task {e.saved_at} of the split")
        if e.anchor_class not in classes_up_to(split.spec, e.saved_at):
            raise FormatError(f"{path}: anchor class {e.anchor_class} of {e.image_id!r} "
                              f"is not visible at task {e.saved_at}")
    return memory
