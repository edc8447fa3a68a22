"""Label grids, relabeling, and the PGM reader/writer."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciss import BACKGROUND, IGNORE, FormatError, LabelGrid, ValidationError, relabel
from ciss.pgm import read_pgm, write_pgm


def test_grid_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        LabelGrid(width=3, height=2, data=np.zeros(5, dtype=np.uint8))


@pytest.mark.parametrize(
    "values",
    [[300, 1, 2], [-1, 1, 2], [256, 1, 2], [1.7, 2.2, 3.0], [True, False, True]],
    ids=["300", "minus-1", "256", "float", "bool"],
)
def test_grid_rejects_ids_that_do_not_fit_a_byte(values):
    # a silent uint8 cast would turn -1 into ignore, 256 into background
    # and 1.7 into 1
    with pytest.raises(ValidationError):
        LabelGrid(width=3, height=1, data=np.array(values))


def test_grid_takes_wider_integer_ids_in_range():
    g = LabelGrid(width=3, height=1, data=np.array([0, 7, 255], dtype=np.int64))
    assert g.data.dtype == np.uint8 and g.data.tolist() == [0, 7, 255]


def test_grid_is_immutable():
    g = LabelGrid(width=2, height=2, data=np.array([1, 2, 0, 255], dtype=np.uint8))
    with pytest.raises(ValueError):
        g.data[0] = 3


def test_foreground_classes_exclude_reserved_ids():
    g = LabelGrid(width=2, height=2, data=np.array([0, 255, 4, 4], dtype=np.uint8))
    assert g.foreground_classes() == {4}


def test_relabel_keeps_selected_and_ignores():
    g = LabelGrid.from_rows(np.array([[1, 2, 3], [0, 255, 2]], dtype=np.uint8))
    out = relabel(g, {2})
    assert out.as_rows().tolist() == [[0, 2, 0], [0, 255, 2]]


def test_relabel_with_all_classes_is_identity():
    g = LabelGrid.from_rows(np.array([[1, 2], [3, 255]], dtype=np.uint8))
    assert relabel(g, {1, 2, 3}) == g


def test_relabel_with_empty_set_clears_foreground():
    g = LabelGrid.from_rows(np.array([[1, 2], [0, 255]], dtype=np.uint8))
    assert relabel(g, set()).as_rows().tolist() == [[0, 0], [0, 255]]


def test_relabel_rejects_reserved_targets():
    g = LabelGrid(width=1, height=1, data=np.array([1], dtype=np.uint8))
    with pytest.raises(ValidationError):
        relabel(g, {IGNORE})


@st.composite
def grids(draw):
    w = draw(st.integers(1, 6))
    h = draw(st.integers(1, 6))
    values = draw(
        st.lists(st.sampled_from([0, 1, 2, 3, 7, 255]), min_size=w * h, max_size=w * h)
    )
    return LabelGrid(width=w, height=h, data=np.array(values, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(grids(), st.sets(st.integers(1, 7), max_size=4))
def test_relabel_idempotent_and_closed(g, classes):
    once = relabel(g, classes)
    assert relabel(once, classes) == once
    allowed = set(classes) | {BACKGROUND, IGNORE}
    assert set(np.unique(once.data).tolist()) <= allowed


@settings(max_examples=60, deadline=None)
@given(grids(), st.sets(st.integers(1, 7), max_size=4))
def test_relabel_partitions_pixels(g, classes):
    out = relabel(g, classes)
    kept = int(np.sum((out.data == g.data) & (g.data != IGNORE) & np.isin(g.data, sorted(classes))))
    ignored = int(np.sum(g.data == IGNORE))
    sent_to_bg = int(np.sum((out.data == BACKGROUND) & (g.data != IGNORE) & ~np.isin(g.data, sorted(classes))))
    assert kept + ignored + sent_to_bg == g.n_pixels


def test_pgm_p5_roundtrip(tmp_path):
    g = LabelGrid.from_rows(np.array([[0, 1, 255], [20, 3, 0]], dtype=np.uint8))
    path = tmp_path / "g.pgm"
    write_pgm(g, path)
    assert read_pgm(path) == g


def test_pgm_writer_is_byte_stable(tmp_path):
    g = LabelGrid.from_rows(np.array([[5, 0], [255, 1]], dtype=np.uint8))
    write_pgm(g, tmp_path / "a.pgm")
    write_pgm(g, tmp_path / "b.pgm")
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_reads_ascii_variant_with_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n# produced by hand\n3 2\n255\n0 1 255\n20 3 0\n")
    g = read_pgm(path)
    assert g.as_rows().tolist() == [[0, 1, 255], [20, 3, 0]]


def test_pgm_accepts_lower_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 1\n3\n0 3\n")
    assert read_pgm(path).data.tolist() == [0, 3]


@pytest.mark.parametrize(
    "blob",
    [
        b"P3\n2 2\n255\n",  # wrong magic
        b"P5\n2 2\n255\n\x00\x00\x00",  # short raster
        b"P5\n2 2\n70000\n" + b"\x00" * 4,  # maxval out of range
        b"P2\n2 2\n255\n0 1 2\n",  # short ASCII raster
        b"P2\n2 2\n3\n0 1 2 9\n",  # value above maxval
        b"P2\n2 2",  # truncated header
    ],
)
def test_pgm_rejects_malformed_files(tmp_path, blob):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        read_pgm(path)


@st.composite
def all_byte_grids(draw):
    """A grid holding every byte value 0..255 at least once, shuffled."""
    extra = draw(st.lists(st.integers(0, 255), max_size=64))
    values = np.concatenate([np.arange(256), np.array(extra, dtype=np.int64)]).astype(np.uint8)
    order = draw(st.permutations(range(values.size)))
    return LabelGrid(width=values.size, height=1, data=values[list(order)])


@settings(max_examples=60, deadline=None)
@given(all_byte_grids(), st.sets(st.integers(1, 254), max_size=40))
def test_relabel_table_matches_isin_rule(g, classes):
    keep = np.isin(g.data, np.array(sorted(classes), dtype=np.uint8)) | (g.data == IGNORE)
    expected = np.where(keep, g.data, np.uint8(BACKGROUND))
    assert relabel(g, classes).data.tolist() == expected.tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_foreground_classes_match_unique_rule(values):
    g = LabelGrid(width=len(values), height=1, data=np.array(values, dtype=np.uint8))
    assert g.foreground_classes() == {int(v) for v in np.unique(g.data)} - {BACKGROUND, IGNORE}


@pytest.mark.parametrize("target", [0, -1, 256, 300])
def test_relabel_rejects_ids_outside_foreground_range(target):
    g = LabelGrid(width=1, height=1, data=np.array([1], dtype=np.uint8))
    with pytest.raises(ValidationError):
        relabel(g, {1, target})


def test_pgm_p5_raster_is_copied_once(tmp_path):
    n = 400 * 300
    raster = np.random.default_rng(0).integers(0, 256, n, dtype=np.uint8)
    path = tmp_path / "g.pgm"
    path.write_bytes(b"P5\n400 300\n255\n" + raster.tobytes())
    tracemalloc.start()
    try:
        grid = read_pgm(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(grid.data, raster)
    # the file's bytes plus one owned raster; each further copy adds n
    assert peak < 2.5 * n


def test_pgm_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError):
        read_pgm(tmp_path / "absent.pgm")
