"""Per-pixel score matrices and the argmax prediction rule.

A score matrix holds N x K logits with an explicit class-id map (background
included). File format: line 1 is "N K" or "N K binary", line 2 the K class
ids, then the payload: N*K little-endian float64 values when tagged binary;
untagged, N text lines of K floats, or else N*K float64 values.
"""
from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass

import numpy as np

from .artifacts import read_bytes, reading
from .errors import FormatError, ValidationError
from .grid import BACKGROUND, IGNORE, LabelGrid


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """N x K logits with one class id per column. The matrix keeps a read-only
    array: a read-only input is kept as it is, any other one is copied, so no
    reference the caller holds can change the logits."""

    class_map: tuple[int, ...]
    logits: np.ndarray

    def __post_init__(self) -> None:
        cmap = tuple(int(c) for c in self.class_map)
        object.__setattr__(self, "class_map", cmap)
        if len(cmap) == 0:
            raise ValidationError("class map is empty")
        if len(set(cmap)) != len(cmap):
            raise ValidationError("class map contains duplicates")
        if not all(BACKGROUND <= c < IGNORE for c in cmap):
            raise ValidationError(f"class map ids must lie in {BACKGROUND}..{IGNORE - 1}")
        if BACKGROUND not in cmap:
            raise ValidationError("class map must include the background class")
        arr = np.asarray(self.logits)
        if arr.flags.writeable or arr.dtype != np.float64 or not arr.flags.c_contiguous:
            arr = np.array(arr, dtype=np.float64, order="C")
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
    """Row-wise softmax of the logits, stabilized by max subtraction; each
    row depends on that row alone."""
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
    data = top_class(scores, scores.logits).astype(np.uint8)
    data.setflags(write=False)
    return LabelGrid(width=width, height=height, data=data)


def top_class(scores: ScoreMatrix, values: np.ndarray) -> np.ndarray:
    """Per row of `values` (N x K, columns in `scores.class_map` order), the class id of the largest
    value: argmax takes the first maximum of the columns sorted by id, so ties go to the lowest id."""
    order = np.argsort(scores.class_map, kind="stable")
    return np.asarray(scores.class_map, dtype=np.int64)[order][np.argmax(values[:, order], axis=1)]


def write_scores(scores: ScoreMatrix, path: str | os.PathLike, *, binary: bool = False) -> None:
    header = f"{scores.n_pixels} {scores.n_classes}{' binary' if binary else ''}\n"
    header += " ".join(str(c) for c in scores.class_map) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(scores.logits.astype("<f8").tobytes())
        else:
            for row in scores.logits:
                fh.write((" ".join(format(v, ".17g") for v in row) + "\n").encode("ascii"))


_NON_SPACE = re.compile(rb"[^ \t\n\r\x0b\x0c\x1c-\x1f]")  # str.isspace() on ASCII


def _text_rows(blob: bytes, fh: io.BytesIO, n: int, k: int) -> np.ndarray | None:
    """The payload from `fh`'s position to the end of `blob` as N lines of K
    floats (blank lines skipped, LF or CRLF ends), or None when it is not."""
    if not blob.isascii():
        return None
    if _NON_SPACE.search(blob, fh.tell()) is None:  # no rows, which loadtxt warns about
        return np.empty((0, k)) if n == 0 else None
    try:
        rows = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    rows.setflags(write=False)  # the matrix's own, so ScoreMatrix keeps it uncopied
    return rows if rows.shape == (n, k) else None


def read_scores(path: str | os.PathLike) -> ScoreMatrix:
    blob = read_bytes(path, "score file")
    fh = io.BytesIO(blob)  # shares blob's buffer
    head, ids_line = fh.readline(), fh.readline()
    if not ids_line.endswith(b"\n"):
        raise FormatError(f"{path}: truncated score header")
    with reading(path, "score file"):
        n_str, k_str, *tag = head.split()
        n, k = int(n_str), int(k_str)
        if tag not in ([], [b"binary"]):
            raise FormatError(f"{path}: unknown score format tag {b' '.join(tag).decode('latin-1')!r}")
        if n < 0 or k < 0:
            raise FormatError(f"{path}: header declares {n}x{k} scores")
        class_map = tuple(int(v) for v in ids_line.split())
        if len(class_map) != k:
            raise FormatError(f"{path}: header declares {k} classes, found {len(class_map)} ids")
        offset = fh.tell()
        logits = None if tag else _text_rows(blob, fh, n, k)
        if logits is None:
            if len(blob) - offset != n * k * 8:
                text = "" if tag else f"{n} lines of {k} floats or "
                raise FormatError(f"{path}: payload is not {text}{n * k * 8} binary bytes")
            logits = np.frombuffer(blob, dtype="<f8", count=n * k, offset=offset).reshape(n, k)
        return ScoreMatrix(class_map=class_map, logits=logits)
