"""The README's command-line examples parse with the CLI's own parser, and
its library example runs, so a renamed or removed flag or name fails here
instead of leaving the README wrong."""
import argparse
import shlex
from pathlib import Path

import numpy as np
import pytest

from ciss import LabelGrid, save_manifest, write_pgm, write_scores
from ciss.cli import build_parser
from conftest import random_scores, synthetic_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of each `ciss ...` line of the "Command line" section's
    first code block, lines ending in a backslash joined to the next."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ciss ")]


def leaf_handlers(parser: argparse.ArgumentParser) -> set:
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {parser.get_default("func")}
    return {handler for child in subs[0].choices.values() for handler in leaf_handlers(child)}


def test_readme_shows_every_leaf_command():
    assert {build_parser().parse_args(argv).func for argv in readme_commands()} == leaf_handlers(build_parser())


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: " ".join(a for a in argv[:2] if a[0] != "-"))
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)  # an unknown or missing flag raises ValidationError


def test_readme_library_block_runs(tmp_path, monkeypatch):
    """The "Library use" block, run as written against files of the shapes it
    names: a 20-class manifest, 17-class scores with 16-class previous
    scores, and a grid holding background and the new class 16."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    save_manifest(synthetic_manifest(300, 20, seed=5), "data/manifest.json")
    write_scores(random_scores(12, range(17), seed=1), "item0.scores")
    write_scores(random_scores(12, range(16), seed=2), "item0_prev.scores")
    write_pgm(LabelGrid(width=4, height=3, data=np.array([0, 16] * 6, dtype=np.uint8)), "item0.pgm")
    exec(compile(block, str(README), "exec"), {})
    assert Path("memory.json").is_file()
