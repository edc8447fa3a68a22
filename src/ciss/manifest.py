"""Dataset manifests: image ids paired with fully annotated oracle label grids.

Manifest file format: a JSON object with `class_count` (int) and `images`
(list of {"id": str, "labels": path}), label paths relative to the manifest
file. Each referenced grid is a PGM whose pixel values are class ids.
A loaded manifest keeps each image's class set and reads its grid on demand.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .artifacts import grid_name, is_int, read_json, write_artifact
from .errors import FormatError, ValidationError
from .grid import IGNORE, LabelGrid
from .pgm import read_pgm, write_pgm


@dataclass(frozen=True, init=False)
class OracleRecord:
    """One image's identity, foreground class set and all-classes-annotated grid.

    A record built from a grid holds it. A record loaded from a manifest file
    keeps only the grid's path and pixel count and reads the grid again each
    time `oracle_labels` is asked for, so a loaded manifest holds no pixels.
    """

    image_id: str
    oracle_classes: frozenset[int]
    labels_path: Path | None
    n_pixels: int
    _grid: LabelGrid | None = field(repr=False)

    def __init__(self, image_id: str, oracle_labels: LabelGrid, oracle_classes: frozenset[int]) -> None:
        derived = frozenset(oracle_labels.foreground_classes())
        if derived and derived != oracle_classes:
            raise ValidationError(
                f"image {image_id!r}: declared classes {sorted(oracle_classes)} "
                f"do not match grid contents {sorted(derived)}"
            )
        self._fill(image_id, derived, None, oracle_labels)

    def _fill(self, image_id: str, classes: frozenset[int], path: Path | None, grid: LabelGrid) -> None:
        if not classes:
            raise ValidationError(f"image {image_id!r} has no foreground pixels")
        for name, value in (
            ("image_id", image_id),
            ("oracle_classes", classes),
            ("labels_path", path),
            ("n_pixels", grid.n_pixels),
            ("_grid", grid if path is None else None),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def _derive(cls, image_id: str, grid: LabelGrid, path: Path | None) -> "OracleRecord":
        record = cls.__new__(cls)
        record._fill(image_id, frozenset(grid.foreground_classes()), path, grid)
        return record

    @classmethod
    def from_grid(cls, image_id: str, grid: LabelGrid) -> "OracleRecord":
        return cls._derive(image_id, grid, None)

    @classmethod
    def from_file(cls, image_id: str, path: Path) -> "OracleRecord":
        """Read the grid once for its class set and pixel count, and keep neither."""
        return cls._derive(image_id, read_pgm(path), path)

    @property
    def oracle_labels(self) -> LabelGrid:
        if self._grid is not None:
            return self._grid
        grid = read_pgm(self.labels_path)
        if grid.n_pixels != self.n_pixels:
            raise FormatError(
                f"{self.labels_path}: grid of image {self.image_id!r} has {grid.n_pixels} pixels, "
                f"{self.n_pixels} when the manifest was loaded"
            )
        return grid


@dataclass(frozen=True)
class DatasetManifest:
    class_count: int
    records: tuple[OracleRecord, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.class_count < IGNORE:
            raise ValidationError(f"class count must lie in 1..{IGNORE - 1}, got {self.class_count}")
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
    path = Path(path)
    doc = read_json(path, "manifest")
    if not isinstance(doc, dict) or "class_count" not in doc or "images" not in doc:
        raise FormatError(f"{path}: manifest must be an object with class_count and images")
    if not is_int(doc["class_count"]):
        raise FormatError(f"{path}: class_count must be an integer")
    if not isinstance(doc["images"], list):
        raise FormatError(f"{path}: images must be a list")

    records = []
    for entry in doc["images"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("id"), str)
            and isinstance(entry.get("labels"), str)
        ):
            raise FormatError(f"{path}: each image entry needs string id and labels fields")
        records.append(OracleRecord.from_file(entry["id"], path.parent / entry["labels"]))
    return DatasetManifest(class_count=doc["class_count"], records=tuple(records))


def save_manifest(manifest: DatasetManifest, path: str | os.PathLike) -> None:
    """Write the manifest JSON plus one P5 grid per record next to it.

    Loaded records read their grids on demand, possibly from the files being
    replaced, which `write_artifact`'s staging allows.
    """
    path = Path(path)
    images = [{"id": rec.image_id, "labels": grid_name(path, i, 5)} for i, rec in enumerate(manifest.records)]
    grids = ((image["labels"], rec.oracle_labels) for image, rec in zip(images, manifest.records))
    write_artifact(path, {"class_count": manifest.class_count, "images": images}, grids, write_pgm)
