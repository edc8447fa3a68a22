"""On-disk artifacts: every file read, every JSON text and every artifact write.

An artifact is a JSON document, optionally with grids kept next to it as
`<stem>_grids/<index>.pgm`. Reads that fail and writes that fail are
`FormatError`s, and a failed write leaves the previous artifact as it was.
"""
from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import FormatError, ValidationError
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


def read_bytes(path: str | os.PathLike, what: str) -> bytes:
    with reading(path, what), open(path, "rb") as fh:
        return fh.read()


def read_json(path: str | os.PathLike, what: str):
    """Parse a UTF-8 JSON file."""
    with reading(path, what):
        return json.loads(read_bytes(path, what).decode("utf-8"))


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


def write_artifact(path: str | os.PathLike, doc, grids: Iterable[tuple[str, LabelGrid]] | None = None,
                   write_grid: Callable[[LabelGrid, str], None] | None = None) -> None:
    """Write `grids`, (relative name, grid) pairs taken one at a time and each
    written by `write_grid(grid, file)`, then `doc` as JSON at `path`. Every
    file is written under a `.tmp` name and the final files are replaced only
    after every write succeeded; a failure removes the temporary files."""
    path = Path(path)
    finals: list[Path] = []
    try:
        if grids is not None:
            (path.parent / f"{path.stem}_grids").mkdir(parents=True, exist_ok=True)
            for name, grid in grids:
                finals.append(path.parent / name)
                write_grid(grid, f"{finals[-1]}.tmp")
        finals.append(path)
        Path(f"{path}.tmp").write_text(json_text(doc), encoding="utf-8")
        for final in finals:
            os.replace(f"{final}.tmp", final)
    except OSError as exc:
        raise FormatError(f"{path}: cannot write artifact ({exc})") from exc
    finally:  # the temporary files a failure left behind; none are left after success
        for final in finals:
            with suppress(OSError):
                os.remove(f"{final}.tmp")
