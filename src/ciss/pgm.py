"""NetPBM grayscale (PGM) reader and writer for label grids.

Reads both the ASCII (P2) and binary (P5) variants with maxval up to 255;
always writes P5. Pixel values are class ids, 255 is the ignore index.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .artifacts import read_bytes
from .errors import FormatError
from .grid import LabelGrid

_WHITESPACE = b" \t\r\n\v\f"
# After the magic: width, height and maxval, each a maximal run of bytes that
# are neither whitespace nor '#', each after any whitespace bytes and '#'
# comments. A comment runs to '\n'; one that reaches the end of the file
# leaves no room for a token, so it needs no rule of its own.
_HEADER = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*\n)*([^ \t\r\n\v\f#]+)(?![^ \t\r\n\v\f#])" * 3)


def read_pgm(path: str | os.PathLike) -> LabelGrid:
    blob = read_bytes(path, "PGM file")
    if len(blob) < 2:
        raise FormatError(f"{path}: not a PGM file")
    magic = blob[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"{path}: unsupported NetPBM magic {magic!r}")
    header = _HEADER.match(blob, 2)
    if header is None:
        raise FormatError(f"{path}: bad PGM header (truncated PGM header)")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as exc:
        raise FormatError(f"{path}: bad PGM header ({exc})") from exc
    pos = header.end()
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
        except (ValueError, OverflowError) as exc:  # a value past int64 overflows
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
