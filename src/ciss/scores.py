"""Per-pixel score matrices, the argmax prediction rule, and pseudo-labels
drawn from a previous model's scores.

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

from . import FormatError, ValidationError
from .artifacts import read_bytes, reading, staging
from .grid import BACKGROUND, IGNORE, LabelGrid, class_ids, relabel

# Rows per block of a pass over a score matrix, so that a block's K x b
# temporaries stay in cache. Larger blocks run faster in a warm process but
# not in a fresh CLI child, whose allocator maps and faults in each larger
# temporary anew: at 8192 rows a `loss value --loss memory_augmented` child on
# a 500 x 375, K = 17 batch took 35.1k minor page faults and 0.253 s against
# 30.8k and 0.238 s at 2048 (ce_current: 13.6k against 12.7k; 2-core VM,
# median of 6 alternating runs).
BLOCK_ROWS = 2048


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


def row_blocks(z: np.ndarray):
    """(block, zt) for BLOCK_ROWS-row blocks of the N x K logits z, zt the
    block's rows class-major (K x b): a copy, or a view of z when one row or
    one class makes that contiguous already. A last block of one row joins
    the block before it: numpy sums a lone column pairwise and wider blocks
    row by row, so only then does a row's result not depend on the blocks."""
    start = 0
    for stop in [*range(BLOCK_ROWS, len(z) - 1, BLOCK_ROWS), len(z)]:
        yield slice(start, stop), np.ascontiguousarray(z[start:stop].T)
        start = stop


def _softmax_columns(zt: np.ndarray) -> np.ndarray:
    """The softmax of each column of the class-major logits zt (K x b),
    stabilized by max subtraction: bit for bit the row-wise softmax of zt.T.
    The max is exact in any order, and exp and division act elementwise, so
    only the sums depend on the layout: they are taken row-major, adding
    each pixel's classes in the order a row-wise sum does."""
    e = zt - zt.max(axis=0)
    np.exp(e, out=e)
    e /= np.ascontiguousarray(e.T).sum(axis=1)
    return e


def softmax_probs(scores: ScoreMatrix) -> np.ndarray:
    """Row-wise softmax of the logits (N x K)."""
    return _softmax_columns(scores.logits.T).T


def top_probs(scores: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the class id of the largest softmax probability (ties go to
    the lowest id) and that probability, equal bit for bit to those of
    `softmax_probs`. The rows are taken BLOCK_ROWS at a time, so no N x K
    temporary is built."""
    best, confidence = np.empty(scores.n_pixels, dtype=np.uint8), np.empty(scores.n_pixels)
    for block, zt in row_blocks(scores.logits):
        probs = _softmax_columns(zt)
        best[block] = top_class(scores, probs)
        confidence[block] = probs.max(axis=0)
    return best, confidence


@dataclass(frozen=True)
class PseudoConfig:
    tau: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"threshold must be in [0, 1], got {self.tau}")


def pseudo_label(gt: LabelGrid, prev_scores: ScoreMatrix, current_classes: set[int], cfg: PseudoConfig) -> LabelGrid:
    """Pseudo-labeling of background pixels from a previous model's scores.

    Ground-truth pixels of the current task's classes are kept. A background
    pixel takes the previous model's argmax class when its top softmax
    probability strictly exceeds the threshold; everything else stays
    background, and ignored pixels are untouched.
    """
    keep = class_ids(current_classes)
    if not keep:
        raise ValidationError("at least one current class is needed: with none, every "
                              "current-task label would be lost")
    if gt.n_pixels != prev_scores.n_pixels:
        raise ValidationError(f"grid has {gt.n_pixels} pixels, scores have {prev_scores.n_pixels}")
    best_class, confidence = top_probs(prev_scores)
    fill = (gt.data == BACKGROUND) & (confidence > cfg.tau)
    return LabelGrid(width=gt.width, height=gt.height, data=np.where(fill, best_class, relabel(gt, keep).data))


def top_class(scores: ScoreMatrix, values_t: np.ndarray) -> np.ndarray:
    """Per column of `values_t` (K x N, rows in `scores.class_map` order), the class id (uint8) of its
    largest value. Ties go to the lowest id: of the tied classes, the one whose IGNORE - id is largest."""
    is_top = values_t == values_t.max(axis=0)
    below_ignore = (IGNORE - np.asarray(scores.class_map)).astype(np.uint8)
    return IGNORE - (is_top * below_ignore[:, None]).max(axis=0)


def write_scores(scores: ScoreMatrix, path: str | os.PathLike, *, binary: bool = False) -> None:
    header = f"{scores.n_pixels} {scores.n_classes}{' binary' if binary else ''}\n"
    header += " ".join(str(c) for c in scores.class_map) + "\n"
    with staging(path, "score file") as stage, open(stage(path), "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(scores.logits.astype("<f8").tobytes())
        else:
            np.savetxt(fh, scores.logits, fmt="%.17g")


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
