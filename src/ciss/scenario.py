"""Incremental scenario construction and split-manifest persistence.

Three ways of distributing a dataset over incremental tasks:

* overlapped: an image joins every task that introduces one of its classes,
  so the same image can reappear later with different labels.
* disjoint: an image joins a task only if that task introduces one of its
  classes and all its classes are already introduced; images with
  not-yet-seen classes are excluded.
* partitioned: every image is assigned to exactly one of its classes (chosen
  deterministically from a seed) and joins only that class's task, keeping
  the task datasets disjoint while both past and future classes still end up
  as background pixels after relabeling.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .artifacts import is_int, read_json, reading, write_artifact
from .errors import FormatError, ValidationError
from .ids import SCENARIO_KINDS
from .manifest import DatasetManifest
from .tasks import TaskSpec, task_classes, task_of_class


@dataclass(frozen=True)
class SplitManifest:
    """A scenario's split of a dataset: `tasks[t]` holds the ids of task t's
    images, strictly increasing, whose classes the layout `spec` gives. The
    task lists of a disjoint or partitioned split do not overlap."""

    scenario: str
    spec: TaskSpec
    tasks: tuple[tuple[str, ...], ...]
    seed: int | None = None
    assignments: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.scenario!r}")
        if len(self.tasks) != self.spec.num_tasks:
            raise ValidationError(
                f"split holds {len(self.tasks)} task lists for layout tasks 0..{self.spec.task_count}"
            )
        seen: set[str] = set()
        for t, ids in enumerate(self.tasks):
            if any(a >= b for a, b in zip(ids, ids[1:])):
                raise ValidationError(f"task {t} image ids are not strictly increasing")
            overlap = seen.intersection(ids) if self.scenario != "overlapped" else ()
            if overlap:
                raise ValidationError(f"{self.scenario} task lists overlap on {sorted(overlap)[:3]}")
            seen.update(ids)
        if self.scenario == "partitioned":
            if self.assignments is None:
                raise ValidationError("partitioned split requires assignments")
            for t, ids in enumerate(self.tasks):
                block = task_classes(self.spec, t)
                for image_id in ids:
                    assigned = self.assignments.get(image_id)
                    if assigned not in block:
                        raise ValidationError(
                            f"image {image_id!r} sits in task {t} but is "
                            f"assigned class {assigned}"
                        )
            stray = sorted(set(self.assignments) - seen)
            if stray:
                raise ValidationError(f"assignments name images in no task: {stray[:3]}")
        elif self.seed is not None or self.assignments is not None:
            raise ValidationError(f"{self.scenario} split carries no seed or assignments")

    def task_ids(self, t: int) -> tuple[str, ...]:
        if not 0 <= t < len(self.tasks):
            raise ValidationError(f"task index {t} outside 0..{len(self.tasks) - 1}")
        return self.tasks[t]

    def membership(self, upto_task: int | None = None) -> dict[str, list[int]]:
        """Map image id to the sorted task indices containing it, counting
        only tasks 0..upto_task when a bound is given."""
        out: dict[str, list[int]] = {}
        for t, ids in enumerate(self.tasks[: None if upto_task is None else upto_task + 1]):
            for image_id in ids:
                out.setdefault(image_id, []).append(t)
        return out


def _class_tasks(manifest: DatasetManifest, spec: TaskSpec) -> dict[int, int]:
    """Each class id of the layout mapped to the task that introduces it; the
    layout must cover the manifest's classes."""
    if spec.class_count != manifest.class_count:
        raise ValidationError(
            f"task layout covers {spec.class_count} classes, manifest declares {manifest.class_count}"
        )
    return {c: task_of_class(spec, c) for c in range(1, spec.class_count + 1)}


def _build(scenario: str, manifest: DatasetManifest, spec: TaskSpec, tasks_of, **extra) -> SplitManifest:
    """The `scenario` split in which each record joins the tasks `tasks_of(record)` picks."""
    member: dict[int, list[str]] = {}
    for rec in manifest.records:
        for t in tasks_of(rec):
            member.setdefault(t, []).append(rec.image_id)
    tasks = tuple(tuple(sorted(member.get(t, []))) for t in range(spec.num_tasks))
    return SplitManifest(scenario=scenario, spec=spec, tasks=tasks, **extra)


def build_overlapped(manifest: DatasetManifest, spec: TaskSpec) -> SplitManifest:
    """An image joins task t iff it contains a class introduced at t."""
    class_task = _class_tasks(manifest, spec)
    return _build("overlapped", manifest, spec, lambda rec: {class_task[c] for c in rec.oracle_classes})


def build_disjoint(manifest: DatasetManifest, spec: TaskSpec) -> SplitManifest:
    """Like overlapped, but only once every class of the image has been introduced."""
    class_task = _class_tasks(manifest, spec)
    # membership requires all of the image's classes introduced already,
    # which leaves exactly the task introducing its latest class
    return _build("disjoint", manifest, spec, lambda rec: [max(class_task[c] for c in rec.oracle_classes)])


def assign_partition_class(seed: int, image_id: str, classes: frozenset[int] | set[int]) -> int:
    """Deterministic uniform pick of one class for an image.

    Hashing (seed, image id) keeps the choice independent of record order, so
    rebuilding from a shuffled manifest yields the same split.
    """
    import hashlib  # here, its one use: other commands then skip loading OpenSSL

    candidates = sorted(classes)
    if not candidates:
        raise ValidationError(f"image {image_id!r} has no classes to assign")
    digest = hashlib.blake2b(
        seed.to_bytes(8, "big") + image_id.encode("utf-8"), digest_size=16
    ).digest()
    return candidates[int.from_bytes(digest, "big") % len(candidates)]


def build_partitioned(
    manifest: DatasetManifest,
    spec: TaskSpec,
    seed: int,
    assignments: dict[str, int] | None = None,
) -> SplitManifest:
    """Assign each image to exactly one of its classes and to that class's task.

    `assignments` optionally pins specific images to a class (validated to be
    one of the image's oracle classes); the rest are drawn from the seed.
    """
    class_task = _class_tasks(manifest, spec)
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must be an unsigned 64-bit integer")
    forced = dict(assignments or {})
    for image_id in forced:
        manifest.record(image_id)
    chosen: dict[str, int] = {}

    def tasks_of(rec):
        if rec.image_id in forced:
            cls = int(forced[rec.image_id])
            if cls not in rec.oracle_classes:
                raise ValidationError(
                    f"forced assignment {rec.image_id!r} -> {cls} is not an oracle class"
                )
        else:
            cls = assign_partition_class(seed, rec.image_id, rec.oracle_classes)
        chosen[rec.image_id] = cls
        return [class_task[cls]]

    return _build("partitioned", manifest, spec, tasks_of, seed=seed, assignments=chosen)


def split_overlapping(
    manifest: DatasetManifest, spec: TaskSpec, t: int, seed: int
) -> tuple[frozenset[str], frozenset[str]]:
    """Halve the overlap between consecutive overlapped tasks t-1 and t.

    The overlap is shuffled with the seed and cut in two; the first half is
    the seen part and takes the extra element when the overlap is odd.
    """
    if t < 1:
        raise ValidationError(f"need a consecutive task pair, got t={t}")
    split = build_overlapped(manifest, spec)
    prev_ids = set(split.task_ids(t - 1))
    overlap = sorted(prev_ids.intersection(split.task_ids(t)))
    random.Random(seed).shuffle(overlap)
    cut = (len(overlap) + 1) // 2
    return frozenset(overlap[:cut]), frozenset(overlap[cut:])


def save_split(split: SplitManifest, path: str | os.PathLike) -> None:
    doc: dict = {
        "scenario": split.scenario,
        "base_count": split.spec.base_count,
        "step": split.spec.step,
        "class_order": list(split.spec.class_order),
        "tasks": [
            {"t": t, "classes": sorted(task_classes(split.spec, t)), "image_ids": list(ids)}
            for t, ids in enumerate(split.tasks)
        ],
    }
    if split.scenario == "partitioned":
        doc["seed"] = split.seed
        doc["assignments"] = {k: split.assignments[k] for k in sorted(split.assignments)}
    write_artifact(path, doc)


def load_split(path: str | os.PathLike) -> SplitManifest:
    """Parse a split file and check its own fields: JSON types, and each task
    entry's `t` and `classes` against its position and the layout. The split's
    invariants are `SplitManifest`'s; a breach is a `FormatError` naming the file."""
    doc = read_json(path, "split manifest")
    with reading(path, "split manifest"):
        layout = [doc["base_count"], doc["step"], *doc["class_order"]]
        layout += [v for entry in doc["tasks"] for v in (entry["t"], *entry["classes"])]
        if not all(map(is_int, layout)):
            raise FormatError(f"{path}: base_count, step, class_order, t and classes must be integers")
        if not all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                   for ids in (entry["image_ids"] for entry in doc["tasks"])):
            raise FormatError(f"{path}: image_ids must be lists of strings")
        spec = TaskSpec(
            base_count=doc["base_count"],
            step=doc["step"],
            class_order=tuple(doc["class_order"]),
        )
        for t, entry in enumerate(doc["tasks"]):
            if entry["t"] != t:
                raise FormatError(f"{path}: task entry {t} holds t={entry['t']}")
            if set(entry["classes"]) != task_classes(spec, t):
                raise FormatError(f"{path}: task {t} class set does not match the layout")
        seed = doc.get("seed")
        assignments = doc.get("assignments")
        if doc["scenario"] == "partitioned":
            if not is_int(seed) or not isinstance(assignments, dict):
                raise FormatError(f"{path}: partitioned split requires an integer seed and assignments")
            bad = sorted(k for k, v in assignments.items() if not is_int(v))
            if bad:
                raise FormatError(f"{path}: assignments of {bad[:3]} are not integer class ids")
        tasks = tuple(tuple(entry["image_ids"]) for entry in doc["tasks"])
        return SplitManifest(scenario=doc["scenario"], spec=spec, tasks=tasks, seed=seed, assignments=assignments)
