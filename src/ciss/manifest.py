"""Dataset manifests: image ids paired with fully annotated oracle label grids.

Manifest file format: a JSON object with `class_count` (int) and `images`
(list of {"id": str, "labels": path}), label paths relative to the manifest
file. Each referenced grid is a PGM whose pixel values are class ids.
A loaded manifest keeps each image's class set and reads its grid on demand.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import FormatError, ValidationError
from .artifacts import grid_name, is_int, read_json, reading, write_artifact
from .grid import LabelGrid
from .pgm import read_pgm, write_pgm
from .tasks import _class_count


@dataclass(frozen=True)
class OracleRecord:
    """One image's identity, foreground class set and all-classes-annotated
    grid, its `source`: the grid itself, which must hold the declared classes,
    or the path of its file, read again each time `oracle_labels` is asked
    for, so that a loaded manifest holds no pixels."""

    image_id: str
    oracle_classes: frozenset[int]
    n_pixels: int
    source: LabelGrid | Path

    def __post_init__(self) -> None:
        if not self.oracle_classes:
            raise ValidationError(f"image {self.image_id!r} has no foreground pixels")
        if isinstance(self.source, LabelGrid) and self.source.foreground_classes() != self.oracle_classes:
            raise ValidationError(
                f"image {self.image_id!r}: declared classes {sorted(self.oracle_classes)} "
                f"do not match grid contents {sorted(self.source.foreground_classes())}"
            )

    @classmethod
    def from_grid(cls, image_id: str, grid: LabelGrid) -> "OracleRecord":
        return cls(image_id, frozenset(grid.foreground_classes()), grid.n_pixels, grid)

    @classmethod
    def from_file(cls, image_id: str, path: Path) -> "OracleRecord":
        """Read the grid once for its class set and pixel count, and keep neither."""
        grid = read_pgm(path)
        return cls(image_id, frozenset(grid.foreground_classes()), grid.n_pixels, path)

    @property
    def oracle_labels(self) -> LabelGrid:
        if isinstance(self.source, LabelGrid):
            return self.source
        grid = read_pgm(self.source)
        if grid.n_pixels != self.n_pixels:
            raise FormatError(
                f"{self.source}: grid of image {self.image_id!r} has {grid.n_pixels} pixels, "
                f"{self.n_pixels} when the manifest was loaded"
            )
        return grid


@dataclass(frozen=True)
class DatasetManifest:
    class_count: int
    records: tuple[OracleRecord, ...]

    def __post_init__(self) -> None:
        _class_count(self.class_count)
        seen: set[str] = set()
        for rec in self.records:
            if rec.image_id in seen:
                raise ValidationError(f"duplicate image id {rec.image_id!r}")
            seen.add(rec.image_id)
            bad = [c for c in rec.oracle_classes if c > self.class_count]
            if bad:
                raise ValidationError(
                    f"image {rec.image_id!r} uses undeclared class ids {sorted(bad)} "
                    f"(class count is {self.class_count})"
                )

    @cached_property
    def by_id(self) -> dict[str, OracleRecord]:
        return {rec.image_id: rec for rec in self.records}

    def record(self, image_id: str) -> OracleRecord:
        try:
            return self.by_id[image_id]
        except KeyError:
            raise ValidationError(f"unknown image id {image_id!r}") from None

    def __len__(self) -> int:
        return len(self.records)


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Parse a manifest and read each grid once; a malformed field or a
    breach of the manifest's invariants is a `FormatError` naming the file."""
    path = Path(path)
    doc = read_json(path, "manifest")
    with reading(path, "manifest"):
        if not is_int(doc["class_count"]):
            raise FormatError(f"{path}: class_count must be an integer")
        images = doc["images"]
        if not (isinstance(images, list) and all(isinstance(e, dict) for e in images)):
            raise FormatError(f"{path}: images must be a JSON list of objects")
        if not all(isinstance(e["id"], str) and isinstance(e["labels"], str) for e in images):
            raise FormatError(f"{path}: each image entry needs string id and labels fields")
        records = tuple(OracleRecord.from_file(e["id"], path.parent / e["labels"]) for e in images)
        return DatasetManifest(class_count=doc["class_count"], records=records)


def save_manifest(manifest: DatasetManifest, path: str | os.PathLike) -> None:
    """Write the manifest JSON plus one P5 grid per record next to it.

    Loaded records read their grids on demand, possibly from the files being
    replaced, which `write_artifact`'s staging allows.
    """
    path = Path(path)
    images = [{"id": rec.image_id, "labels": grid_name(path, i, 5)} for i, rec in enumerate(manifest.records)]
    grids = ((image["labels"], rec.oracle_labels) for image, rec in zip(images, manifest.records))
    write_artifact(path, {"class_count": manifest.class_count, "images": images}, grids, write_pgm)
