"""The README's command-line and library examples run as written, so a
renamed or removed flag or name, or a command that refuses what an earlier
line of the example made, fails here instead of leaving the README wrong."""
import argparse
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from ciss import LabelGrid, save_manifest, write_pgm, write_scores
from ciss.cli import build_parser, main
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


def write_readme_inputs() -> None:
    """In the working directory, files of the shapes the examples name, for
    the layout 15-1 over 20 classes: the manifest; a 12-pixel item over ids
    0-16 with previous scores over 0-15, labeled background and the new
    class 16, and a memory item's labels, background and the old class 3;
    the pseudo command's ground truth and previous scores; pairs files that
    name the grid the pseudo command writes; and a loss case of both items."""
    save_manifest(synthetic_manifest(300, 20, seed=5), "data/manifest.json")
    write_scores(random_scores(12, range(17), seed=1), "item0.scores")
    write_scores(random_scores(12, range(16), seed=2), "item0_prev.scores")
    write_pgm(LabelGrid(width=4, height=3, data=np.array([0, 16] * 6, dtype=np.uint8)), "item0.pgm")
    write_pgm(LabelGrid(width=4, height=3, data=np.array([0, 3] * 6, dtype=np.uint8)), "item1.pgm")
    write_pgm(LabelGrid(width=4, height=3, data=np.array([0, 16, 3, 255] * 3, dtype=np.uint8)), "img_gt.pgm")
    write_scores(random_scores(12, range(16), seed=3), "img.scores")
    Path("pairs.json").write_text(json.dumps([{"pred": "img_pseudo.pgm", "gt": "img_gt.pgm"}]))
    Path("prr_pairs.json").write_text(json.dumps([{"oracle": "img_gt.pgm", "pseudo": "img_pseudo.pgm"}]))
    items = [{"source": source, "scores": "item0.scores", "labels": labels, "prev_scores": "item0_prev.scores"}
             for source, labels in (("current", "item0.pgm"), ("memory", "item1.pgm"))]
    case = {"layout": {"old": list(range(1, 16)), "new": [16]}, "config": {"lambda": 5.0}, "items": items}
    Path("case.json").write_text(json.dumps(case))


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    """Every line of the "Command line" block, in order: each exits 0 and
    prints one JSON document."""
    monkeypatch.chdir(tmp_path)
    write_readme_inputs()
    for argv in readme_commands():
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        assert isinstance(json.loads(out), dict), argv


def test_readme_library_block_runs(tmp_path, monkeypatch):
    """The "Library use" block, run as written."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    write_readme_inputs()
    exec(compile(block, str(README), "exec"), {})
    assert Path("memory.json").is_file()
