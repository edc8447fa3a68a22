"""Incremental task layouts.

A layout is written "B-s": B foreground classes in the base task, then s new
classes per incremental task. The class order is a permutation of 1..C that
assigns concrete class ids to the layout slots; consecutive blocks of the
order form the per-task class sets, which partition 1..C.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from . import ValidationError
from .artifacts import reading
from .grid import IGNORE


def _class_count(c: int) -> int:
    if not 1 <= c < IGNORE:
        raise ValidationError(f"class count must lie in 1..{IGNORE - 1}, got {c}")
    return c


@dataclass(frozen=True)
class TaskSpec:
    base_count: int
    step: int
    class_order: tuple[int, ...]

    def __post_init__(self) -> None:
        c = _class_count(len(self.class_order))  # before any id is read, so a long lazy order is never built
        order = tuple(int(i) for i in self.class_order)
        object.__setattr__(self, "class_order", order)
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
    def num_tasks(self) -> int:
        """Tasks 0..num_tasks - 1; 1 when the base task holds every class."""
        return (self.class_count - self.base_count) // self.step + 1


def task_classes(spec: TaskSpec, t: int) -> set[int]:
    """Class ids introduced at task t."""
    visible = classes_up_to(spec, t)
    return visible - classes_up_to(spec, t - 1) if t else visible


def classes_up_to(spec: TaskSpec, t: int) -> set[int]:
    """Class ids introduced at tasks 0..t inclusive."""
    if not 0 <= t < spec.num_tasks:
        raise ValidationError(f"task index {t} outside 0..{spec.num_tasks - 1}")
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
    try:
        base, step = map(int, text.split("-"))
    except ValueError:
        raise ValidationError(f"task layout {text!r} is not of the form B-s") from None
    if class_order is None:
        class_order = range(1, _class_count(class_count) + 1)
    elif len(class_order) != class_count:
        raise ValidationError(
            f"class order length {len(class_order)} does not match class count {class_count}"
        )
    return TaskSpec(base_count=base, step=step, class_order=class_order)


def load_class_order(path: str | os.PathLike) -> tuple[int, ...]:
    """Read a class order file: one integer per line, blank lines ignored."""
    with reading(path, "class order"), open(path, "rb") as fh:
        return tuple(int(line) for line in fh.read().splitlines() if line.strip())
