"""On-disk artifacts: every file read, every JSON text and every staged write.

An artifact is a JSON document, optionally with grids kept next to it as
`<stem>_grids/<index>.pgm`. Reads that fail and writes that fail are
`FormatError`s, and a failed write leaves the previous artifact as it was.
"""
from __future__ import annotations

import json
import os
import random
from collections.abc import Callable, Iterable
from contextlib import contextmanager, suppress
from pathlib import Path

from . import FormatError, ValidationError
from .grid import LabelGrid


@contextmanager
def reading(path: str | os.PathLike, what: str):
    """Inside, failing to read `path` or finding a field of the `what` it
    holds missing, undecodable, of the wrong type, out of range or too deeply
    nested is a `FormatError` naming the file."""
    try:
        yield
    except (OSError, LookupError, TypeError, ValueError, OverflowError, RecursionError,
            ValidationError) as exc:
        raise FormatError(f"{path}: cannot read {what} ({exc})") from exc


def is_int(value) -> bool:
    """A JSON integer; booleans, Python ints though they are, are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def seeded(seed: int) -> random.Random:
    """`random.Random(seed)` for a seed >= 0. A negative seed is refused:
    `random.Random(-n)` draws the same stream as `random.Random(n)`."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def read_upto(fh, n: int) -> bytes:
    """At most `n` bytes from `fh`, asking a file for no more than it holds past
    its position and a pipe for a MiB at a time: a size a header declares
    allocates no memory that the input does not fill."""
    step = 1 << 20
    if fh.seekable():
        n = step = min(n, os.fstat(fh.fileno()).st_size - fh.tell())
    chunks = []
    while n > 0 and (chunk := fh.read(min(n, step))):
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)  # one chunk is returned uncopied


def read_json(path: str | os.PathLike, what: str):
    """Parse a UTF-8 JSON file."""
    with reading(path, what), open(path, "rb") as fh:
        return json.loads(fh.read().decode("utf-8"))


def json_text(doc, indent: int | None = 2) -> str:
    """Sorted keys and a trailing newline; `indent` None gives one line. A NaN
    or an infinity, which JSON cannot carry, is a `ValidationError`."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"document holds a number JSON cannot carry ({exc})") from exc


def grid_name(path: Path, index: int, digits: int) -> str:
    """Path of an artifact's `index`-th grid, relative to the artifact's directory."""
    return f"{path.stem}_grids/{index:0{digits}d}.pgm"


@contextmanager
def staging(path: str | os.PathLike, what: str):
    """Yields `stage(final)`, which returns the `.tmp` name to write `final`
    under. Once the block returns, each staged file replaces its final in the
    order staged; a failure removes them, and an `OSError` is a `FormatError`
    naming `path`, the `what` being written."""
    finals: list = []
    try:
        yield lambda final: finals.append(final) or f"{final}.tmp"
        for final in finals:
            os.replace(f"{final}.tmp", final)
    except BaseException as exc:
        for final in finals:  # the temporary files the failure left behind
            with suppress(OSError):
                os.remove(f"{final}.tmp")
        if isinstance(exc, OSError):
            raise FormatError(f"{path}: cannot write {what} ({exc})") from exc
        raise


def write_artifact(path: str | os.PathLike, doc, grids: Iterable[tuple[str, LabelGrid]] | None = None,
                   write_grid: Callable[[LabelGrid, str], None] | None = None) -> None:
    """Write `grids`, (relative name, grid) pairs taken one at a time and each
    written by `write_grid(grid, file)`, then `doc` as JSON at `path`, in one
    `staging`: no final file is replaced before every write succeeded. A
    failure also removes the grid directory when this call made it."""
    path = Path(path)
    grid_dir, made_dir = path.parent / f"{path.stem}_grids", False
    try:
        with staging(path, "artifact") as stage:
            if grids is not None:
                made_dir = not grid_dir.exists()
                grid_dir.mkdir(parents=True, exist_ok=True)
                for name, grid in grids:
                    write_grid(grid, stage(path.parent / name))
            Path(stage(path)).write_text(json_text(doc), encoding="utf-8")
    except BaseException:
        if made_dir:
            with suppress(OSError):
                grid_dir.rmdir()
        raise
