"""Incremental task layouts.

A layout is written "B-s": B foreground classes in the base task, then s new
classes per incremental task. The class order is a permutation of 1..C that
assigns concrete class ids to the layout slots; consecutive blocks of the
order form the per-task class sets, which partition 1..C.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ValidationError
from .grid import IGNORE


@dataclass(frozen=True)
class TaskSpec:
    base_count: int
    step: int
    class_order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(int(c) for c in self.class_order)
        object.__setattr__(self, "class_order", order)
        c = len(order)
        if not 1 <= c < IGNORE:
            raise ValidationError(f"class order holds {c} classes, expected 1..{IGNORE - 1}")
        if sorted(order) != list(range(1, c + 1)):
            raise ValidationError(f"class order is not a permutation of 1..{c}")
        if not 1 <= self.base_count <= c:
            raise ValidationError(f"base count {self.base_count} outside 1..{c}")
        if self.step < 1:
            raise ValidationError(f"step must be >= 1, got {self.step}")
        if (c - self.base_count) % self.step != 0:
            raise ValidationError(
                f"layout {self.base_count}-{self.step} does not cover {c} classes"
            )

    @property
    def class_count(self) -> int:
        return len(self.class_order)

    @property
    def task_count(self) -> int:
        """Index of the last task; 0 when the base task holds every class."""
        return (self.class_count - self.base_count) // self.step

    @property
    def num_tasks(self) -> int:
        return self.task_count + 1


def task_classes(spec: TaskSpec, t: int) -> set[int]:
    """Class ids introduced at task t."""
    if not 0 <= t <= spec.task_count:
        raise ValidationError(f"task index {t} outside 0..{spec.task_count}")
    if t == 0:
        block = spec.class_order[: spec.base_count]
    else:
        start = spec.base_count + (t - 1) * spec.step
        block = spec.class_order[start : start + spec.step]
    return set(block)


def classes_up_to(spec: TaskSpec, t: int) -> set[int]:
    """Class ids introduced at tasks 0..t inclusive."""
    if not 0 <= t <= spec.task_count:
        raise ValidationError(f"task index {t} outside 0..{spec.task_count}")
    return set(spec.class_order[: spec.base_count + t * spec.step])


def task_of_class(spec: TaskSpec, class_id: int) -> int:
    """Task index at which a foreground class is introduced."""
    try:
        pos = spec.class_order.index(class_id)
    except ValueError:
        raise ValidationError(f"class {class_id} not in class order") from None
    if pos < spec.base_count:
        return 0
    return 1 + (pos - spec.base_count) // spec.step


def parse_layout(text: str, class_count: int, class_order: tuple[int, ...] | None = None) -> TaskSpec:
    """Build a TaskSpec from a "B-s" string; identity order unless given."""
    parts = text.split("-")
    if len(parts) != 2:
        raise ValidationError(f"task layout {text!r} is not of the form B-s")
    try:
        base, step = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"task layout {text!r} is not of the form B-s") from None
    if not 1 <= class_count < IGNORE:
        raise ValidationError(f"class count must lie in 1..{IGNORE - 1}, got {class_count}")
    order = class_order if class_order is not None else tuple(range(1, class_count + 1))
    if len(order) != class_count:
        raise ValidationError(
            f"class order length {len(order)} does not match class count {class_count}"
        )
    return TaskSpec(base_count=base, step=step, class_order=tuple(order))


def load_class_order(path: str | os.PathLike) -> tuple[int, ...]:
    """Read a class order file: one integer per line, blank lines ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    try:
        return tuple(int(line) for line in lines if line)
    except ValueError as exc:
        raise ValidationError(f"{path}: class order lines must be integers ({exc})") from None
