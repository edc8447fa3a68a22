"""Shared fixtures: small hand-built datasets and synthetic manifest makers."""
from __future__ import annotations

import os
import random
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

from ciss import (
    BACKGROUND,
    IGNORE,
    DatasetManifest,
    LabelGrid,
    OracleRecord,
    ScoreMatrix,
    parse_layout,
)

# Every run draws the same examples, so Tier-1 passes or fails the same way
# each time; no example database is kept between runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def grid_with(classes, width=6, height=4, ignore_tail=0) -> LabelGrid:
    """A grid containing exactly the given foreground classes, two pixels
    each, background elsewhere, optionally with trailing ignore pixels."""
    data = np.full(width * height, BACKGROUND, dtype=np.uint8)
    for i, c in enumerate(sorted(classes)):
        data[2 * i : 2 * i + 2] = c
    if ignore_tail:
        data[-ignore_tail:] = IGNORE
    return LabelGrid(width=width, height=height, data=data)


def grid_of(rows) -> LabelGrid:
    """The grid whose rows are those of a 2-D array of class ids."""
    rows = np.asarray(rows)
    return LabelGrid(rows.shape[1], rows.shape[0], rows)


def make_record(image_id: str, classes, **kw) -> OracleRecord:
    return OracleRecord.from_grid(image_id, grid_with(classes, **kw))


@pytest.fixture
def fig3_manifest() -> DatasetManifest:
    """Five images over person=1, motorbike=2, car=3, matching the class
    combinations of the worked three-task example."""
    return DatasetManifest(
        class_count=3,
        records=(
            make_record("Img1", {1, 2, 3}, ignore_tail=2),
            make_record("Img2", {1, 2}),
            make_record("Img3", {3}),
            make_record("Img4", {1, 3}, ignore_tail=1),
            make_record("Img5", {1}),
        ),
    )


@pytest.fixture
def fig3_spec():
    return parse_layout("1-1", 3)


def synthetic_manifest(
    n_images: int,
    class_count: int,
    seed: int,
    min_classes: int = 1,
    max_classes: int = 4,
    width: int = 4,
    height: int = 4,
) -> DatasetManifest:
    """Random manifest whose images contain 1..max_classes foreground classes."""
    rng = random.Random(seed)
    records = []
    for i in range(n_images):
        k = rng.randint(min_classes, max_classes)
        classes = rng.sample(range(1, class_count + 1), k)
        data = np.array(
            [rng.choice(classes + [BACKGROUND]) for _ in range(width * height)],
            dtype=np.uint8,
        )
        for j, c in enumerate(classes):  # guarantee presence
            data[j] = c
        grid = LabelGrid(width=width, height=height, data=data)
        records.append(OracleRecord.from_grid(f"img{i:05d}", grid))
    return DatasetManifest(class_count=class_count, records=tuple(records))


def random_scores(n_pixels: int, class_map, seed: int, low=-5.0, high=5.0) -> ScoreMatrix:
    rng = np.random.default_rng(seed)
    return ScoreMatrix(
        class_map=tuple(class_map),
        logits=rng.uniform(low, high, size=(n_pixels, len(class_map))),
    )


def one_hot_scores(grid: LabelGrid, class_map, margin: float = 10.0) -> ScoreMatrix:
    """Logits with a clear margin on each pixel's label class; ignore pixels
    point at background."""
    cmap = tuple(class_map)
    col = {c: i for i, c in enumerate(cmap)}
    logits = np.zeros((grid.n_pixels, len(cmap)))
    for i, v in enumerate(grid.data):
        target = BACKGROUND if int(v) == IGNORE else int(v)
        logits[i, col[target]] = margin
    return ScoreMatrix(class_map=cmap, logits=logits)


def _run_limited(args: list[str], which: int, limit: int, env=None) -> subprocess.CompletedProcess:
    def set_limit():
        resource.setrlimit(which, (limit, resource.getrlimit(which)[1]))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True, preexec_fn=set_limit, env=env)


def run_with_file_size_limit(args: list[str], limit: int) -> subprocess.CompletedProcess:
    """`python *args` in a child that can write no file past `limit` bytes: a
    longer write fails part-way with EFBIG, since Python ignores SIGXFSZ."""
    return _run_limited(args, resource.RLIMIT_FSIZE, limit)


def run_with_memory_limit(args: list[str], limit: int) -> subprocess.CompletedProcess:
    """`python *args` in a child whose address space is held to `limit` bytes,
    so that a larger allocation raises `MemoryError`. BLAS runs one thread,
    since each thread's stack and buffers take address space too."""
    return _run_limited(args, resource.RLIMIT_AS, limit, dict(os.environ, OPENBLAS_NUM_THREADS="1"))


# --- acceptance summary -----------------------------------------------------

_CRITERION_TITLES = {
    "01": "scenario memberships on the five-image fixture",
    "02": "partitioned split invariants on synthetic manifests",
    "03": "background-shift capture and disjoint future-shift exclusion",
    "04": "memory items keep their saved-at labels",
    "05": "overlap ratio vs enumeration; variant drives ratio to zero",
    "06": "seen/unseen halving rule",
    "07": "retrieval-rate properties",
    "08": "mIoU equals brute-force counting",
    "09": "loss closed forms",
    "10": "gradient checks for every loss",
    "11": "byte-identical artifacts under fixed seeds",
    "12": "reference dataset per-task counts (skipped when absent)",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if status != "skipped" and rep.when != "call":
                continue
            number = nodeid.split("test_criterion_")[1][:2]
            lines[number] = verdict
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(lines):
        title = _CRITERION_TITLES.get(number, "")
        terminalreporter.write_line(f"criterion {number} [{lines[number]}] {title}")
