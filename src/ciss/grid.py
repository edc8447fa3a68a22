"""Label grids and per-task relabeling.

A label grid stores one class id per pixel in row-major order (origin
top-left). Class id 0 is the background class, 255 is the ignore index;
ignored pixels are excluded from every loss and metric in this package.

A grid is its raster bytes, so the commands that only read, relabel and write
grids never import numpy; `LabelGrid.data` is a numpy view for the others.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from . import ValidationError

BACKGROUND = 0
IGNORE = 255


@dataclass(frozen=True, init=False)
class LabelGrid:
    """Immutable per-pixel class-id grid of shape height x width. A `bytes`
    raster is kept as it is; other input, integer ids in 0..255, is copied
    once into `bytes`, so no reference the caller holds can change the grid."""

    width: int
    height: int
    raster: bytes = field(repr=False)

    def __init__(self, width: int, height: int, data) -> None:
        if width <= 0 or height <= 0:
            raise ValidationError(f"grid dimensions must be positive, got {width}x{height}")
        if not isinstance(data, bytes):  # array-like ids, in C order
            import numpy as np

            arr = np.asarray(data)
            if arr.dtype != np.uint8:
                if arr.dtype.kind not in "iu":
                    raise ValidationError(f"grid class ids must be integers, got dtype {arr.dtype}")
                if arr.size and (arr.min() < 0 or arr.max() > IGNORE):
                    raise ValidationError(f"grid class ids must lie in 0..{IGNORE}")
            data = arr.astype(np.uint8, copy=False).tobytes()
        if len(data) != width * height:
            raise ValidationError(f"grid data length {len(data)} does not match {width}x{height}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "raster", data)

    @property
    def data(self):
        """The raster as a read-only flat uint8 array that shares its bytes."""
        import numpy as np

        return np.frombuffer(self.raster, dtype=np.uint8)

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def foreground_classes(self) -> set[int]:
        """Distinct class ids present, excluding background and ignore.

        Each pass adds every 256th of the bytes left to the ids found, then
        deletes every found id from them. The first byte left is always
        sampled, so each pass finds at least one new id and there are at most
        256 passes. A VOC-like 500x375 grid has all its ids in the first
        sample and takes 0.11-0.14 ms, as does a numpy bincount of its run
        starts; uniform noise over all 256 ids takes 0.36-0.39 ms against
        0.68-1.0 ms (2-core VM, Python 3.11). Sampling every 1,024th byte costs
        the same on VOC-like grids but 2.3 ms on that noise, where deleting
        unpredictable bytes runs at about 8.5 ns a byte.
        """
        found: set[int] = set()
        rest = self.raster
        while rest:
            found.update(rest[::256])
            rest = rest.translate(None, bytes(found))
        return found - {BACKGROUND, IGNORE}


def class_ids(classes: Iterable[int]) -> list[int]:
    """The given class ids, sorted; each must be a foreground id in 1..254."""
    keep = sorted({int(c) for c in classes})
    for c in keep:
        if not BACKGROUND < c < IGNORE:
            raise ValidationError(f"class id {c} is reserved or outside 1..{IGNORE - 1}")
    return keep


def relabel(oracle: LabelGrid, classes: Iterable[int]) -> LabelGrid:
    """Keep pixels of the given classes, preserve ignore, send the rest to background.

    Total on valid grids: any pixel value outside ``classes`` and the ignore
    index becomes background, so applying the same class set twice is a no-op.

    One `bytes.translate` through a 256-entry table maps every pixel:
    0.17-0.23 ms for a VOC-like 500x375 grid and 0.16-0.22 ms for uniform
    noise, against 0.16-0.21 and 3.4-3.8 ms for a numpy relabel of the run
    starts (2-core VM, Python 3.11). A grid no pixel of which changes is
    returned as it is, grids being immutable.
    """
    table = bytearray(256)
    for c in class_ids(classes):
        table[c] = c
    table[IGNORE] = IGNORE
    raster = oracle.raster.translate(table)
    return oracle if raster == oracle.raster else LabelGrid(oracle.width, oracle.height, raster)
