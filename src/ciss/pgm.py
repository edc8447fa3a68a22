"""NetPBM grayscale (PGM) reader and writer for label grids.

Reads both the ASCII (P2) and binary (P5) variants with maxval up to 255;
always writes P5. Pixel values are class ids, 255 is the ignore index.
"""
from __future__ import annotations

import os

import numpy as np

from .artifacts import read_bytes
from .errors import FormatError
from .grid import LabelGrid

_WHITESPACE = b" \t\r\n\v\f"


def _tokenize_header(blob: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    """Extract `count` whitespace-separated tokens, skipping '#' comments."""
    tokens: list[bytes] = []
    i = start
    n = len(blob)
    while len(tokens) < count:
        while i < n and (blob[i] in _WHITESPACE or blob[i] == ord("#")):
            if blob[i] == ord("#"):
                j = blob.find(b"\n", i)
                i = n if j < 0 else j + 1
            else:
                i += 1
        if i >= n:
            raise FormatError("truncated PGM header")
        j = i
        while j < n and blob[j] not in _WHITESPACE and blob[j] != ord("#"):
            j += 1
        tokens.append(blob[i:j])
        i = j
    return tokens, i


def read_pgm(path: str | os.PathLike) -> LabelGrid:
    blob = read_bytes(path, "PGM file")
    if len(blob) < 2:
        raise FormatError(f"{path}: not a PGM file")
    magic = blob[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: unsupported NetPBM magic {magic!r}")
    try:
        tokens, pos = _tokenize_header(blob, 3, 2)
        width, height, maxval = (int(t) for t in tokens)
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{path}: bad PGM header ({exc})") from exc
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise FormatError(f"{path}: maxval {maxval} outside 1..255")
    n = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        if pos >= len(blob) or blob[pos] not in _WHITESPACE:
            raise FormatError(f"{path}: missing raster separator")
        found = min(n, len(blob) - pos - 1)
        if found != n:
            raise FormatError(f"{path}: expected {n} raster bytes, found {found}")
        # a read-only view of the file's immutable bytes, never copied
        data = np.frombuffer(blob, dtype=np.uint8, count=n, offset=pos + 1)
    else:
        try:
            data = np.array([int(v) for v in blob[pos:].split()], dtype=np.int64)
        except ValueError as exc:
            raise FormatError(f"{path}: bad ASCII raster ({exc})") from exc
        if data.size != n:
            raise FormatError(f"{path}: expected {n} pixel values, found {data.size}")
        if data.min() < 0 or data.max() > 255:
            raise FormatError(f"{path}: ASCII pixel value outside 0..255")
    # no byte exceeds maxval 255, so the raster is scanned only below it
    if maxval < 255 and int(data.max()) > maxval:
        raise FormatError(f"{path}: pixel value {int(data.max())} exceeds maxval {maxval}")
    data = data.astype(np.uint8, copy=False)
    data.setflags(write=False)
    return LabelGrid(width=width, height=height, data=data)


def write_pgm(grid: LabelGrid, path: str | os.PathLike) -> None:
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(grid.data)  # the grid's own contiguous buffer
    except OSError as exc:
        raise FormatError(f"{path}: cannot write PGM file ({exc})") from exc
