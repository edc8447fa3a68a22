"""Per-pixel score matrices and the argmax prediction rule.

A score matrix holds N x K logits with an explicit class-id map (background
included). File format: line 1 is "N K", line 2 the K class ids, then either
N text lines of K floats or N*K little-endian float64 values.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .artifacts import read_bytes, reading
from .errors import FormatError, ValidationError
from .grid import BACKGROUND, LabelGrid


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    class_map: tuple[int, ...]
    logits: np.ndarray

    def __post_init__(self) -> None:
        cmap = tuple(int(c) for c in self.class_map)
        object.__setattr__(self, "class_map", cmap)
        if len(cmap) == 0:
            raise ValidationError("class map is empty")
        if len(set(cmap)) != len(cmap):
            raise ValidationError("class map contains duplicates")
        if BACKGROUND not in cmap:
            raise ValidationError("class map must include the background class")
        arr = np.ascontiguousarray(self.logits, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != len(cmap):
            raise ValidationError(
                f"logits shape {arr.shape} does not match {len(cmap)} mapped classes"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("logits contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "logits", arr)

    @property
    def n_pixels(self) -> int:
        return self.logits.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_map)

    def column(self, class_id: int) -> int:
        try:
            return self.class_map.index(class_id)
        except ValueError:
            raise ValidationError(f"class {class_id} not in score matrix") from None


def softmax_probs(scores: ScoreMatrix) -> np.ndarray:
    """Row-wise softmax of the logits, stabilized by max subtraction."""
    z = scores.logits
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_labels(scores: ScoreMatrix, *, width: int | None = None, height: int | None = None) -> LabelGrid:
    """Per-pixel argmax over the mapped classes; ties go to the lowest class id.

    The matrix carries no 2-D shape, so callers may pass one; the default is a
    single N x 1 row.
    """
    n = scores.n_pixels
    if width is None and height is None:
        width, height = n, 1
    if width is None or height is None or width * height != n:
        raise ValidationError(f"shape {width}x{height} does not cover {n} pixels")
    return LabelGrid(width=width, height=height, data=top_class(scores, scores.logits).astype(np.uint8))


def top_class(scores: ScoreMatrix, values: np.ndarray) -> np.ndarray:
    """Per row of `values` (N x K, columns in `scores.class_map` order), the class id of the largest
    value: argmax takes the first maximum of the columns sorted by id, so ties go to the lowest id."""
    order = np.argsort(scores.class_map, kind="stable")
    return np.asarray(scores.class_map, dtype=np.int64)[order][np.argmax(values[:, order], axis=1)]


def write_scores(scores: ScoreMatrix, path: str | os.PathLike, *, binary: bool = False) -> None:
    header = f"{scores.n_pixels} {scores.n_classes}\n"
    header += " ".join(str(c) for c in scores.class_map) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(scores.logits.astype("<f8").tobytes())
        else:
            for row in scores.logits:
                fh.write((" ".join(format(v, ".17g") for v in row) + "\n").encode("ascii"))


def read_scores(path: str | os.PathLike) -> ScoreMatrix:
    blob = read_bytes(path, "score file")
    head, sep, rest = blob.partition(b"\n")
    ids_line, sep2, payload = rest.partition(b"\n")
    if not sep or not sep2:
        raise FormatError(f"{path}: truncated score header")
    with reading(path, "score file"):
        n_str, k_str = head.split()
        n, k = int(n_str), int(k_str)
        class_map = tuple(int(v) for v in ids_line.split())
        if len(class_map) != k:
            raise FormatError(f"{path}: header declares {k} classes, found {len(class_map)} ids")
        logits = None
        try:
            values = np.array([float(v) for v in payload.decode("ascii").split()], dtype=np.float64)
            if values.size == n * k:
                logits = values.reshape(n, k)
        except (UnicodeDecodeError, ValueError):
            pass
        if logits is None:
            if len(payload) != n * k * 8:
                raise FormatError(
                    f"{path}: payload is neither {n}x{k} text floats nor {n * k * 8} binary bytes"
                )
            logits = np.frombuffer(payload, dtype="<f8").reshape(n, k)
        return ScoreMatrix(class_map=class_map, logits=logits)
