"""Label grids, relabeling, and the PGM reader/writer."""
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ciss import BACKGROUND, IGNORE, FormatError, LabelGrid, OracleRecord, ValidationError, relabel
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


def test_grid_copies_a_writeable_input():
    """Writes through the caller's array change neither the grid nor a record
    derived from it, and the caller's array stays writeable."""
    a = np.array([0, 3, 3, 0], dtype=np.uint8)
    grid = LabelGrid(2, 2, a)
    record = OracleRecord.from_grid("x", grid)
    rows = np.array([[0, 3], [3, 0]], dtype=np.int64)
    from_rows = LabelGrid.from_rows(rows)
    a[:] = 7
    rows[:] = 9
    assert a.flags.writeable and rows.flags.writeable
    assert grid.foreground_classes() == record.oracle_classes == from_rows.foreground_classes() == {3}
    assert record.oracle_labels == grid == from_rows


def test_grid_keeps_a_read_only_input():
    a = np.array([0, 3, 3, 0], dtype=np.uint8)
    a.setflags(write=False)
    assert np.shares_memory(LabelGrid(2, 2, a).data, a)


def test_relabel_and_p2_rasters_are_kept_uncopied(tmp_path):
    """relabel and the P2 reader hand the grid read-only rasters of their
    own, which it keeps as views instead of copying them."""
    oracle = LabelGrid(4, 3, np.random.default_rng(2).integers(0, 21, 12, dtype=np.uint8))
    (tmp_path / "a.pgm").write_bytes(b"P2\n4 3\n255\n" + " ".join(map(str, oracle.data.tolist())).encode())
    for grid in (relabel(oracle, {1, 2, 3}), read_pgm(tmp_path / "a.pgm")):
        assert not grid.data.flags.writeable
        assert grid.data.base is not None and grid.data.base.flags.owndata


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
    path.write_bytes(b"P5\n2 1\n3\n\x00\x03")
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
        b"P5\n2 2\n200\n\x00\xc8\xc9\x07",  # byte above maxval
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


def _rows(*rows) -> LabelGrid:
    return LabelGrid.from_rows(np.array(rows, dtype=np.uint8))


@st.composite
def run_grids(draw):
    """Multi-row grids made of runs of one id, cut across row ends."""
    w, h = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    runs = draw(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 80)), min_size=1, max_size=20))
    values = np.repeat([v for v, _ in runs], [n for _, n in runs]).astype(np.uint8)
    return LabelGrid(width=w, height=h, data=np.resize(values, w * h))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=300).map(_rows) | run_grids())
@example(_rows([9, 3, 3], [3, 3, 3], [0, 0, 0]))  # a class only at pixel 0
@example(_rows([3, 3, 0], [0, 0, 3], [3, 3, 9]))  # a class only at the last pixel
@example(_rows([0, 0, 0, 0], [0, 0, 6, 0], [0, 0, 0, 0]))  # one isolated pixel
@example(_rows([4]))
@example(_rows([0]))
@example(_rows([255]))
@example(_rows(*[[12] * 7] * 5))  # a grid of one value
@example(LabelGrid(width=40, height=30, data=np.random.default_rng(0).integers(0, 256, 1200, dtype=np.uint8)))
def test_foreground_classes_match_unique_rule(g):
    assert g.foreground_classes() == {int(v) for v in np.unique(g.data)} - {BACKGROUND, IGNORE}


def _relabel_by_table(oracle: LabelGrid, classes) -> np.ndarray:
    """The relabel every pixel of which goes through the 256-entry class
    table, as it was computed before run starts: the reference."""
    keep = sorted(classes)
    lut = np.zeros(256, dtype=np.uint8)
    lut[keep] = keep
    lut[IGNORE] = IGNORE
    return lut.take(oracle.data)


def _voc_like(width=400, height=300) -> LabelGrid:
    rows = np.zeros((height, width), dtype=np.uint8)
    rows[50:200, 100:300] = 5
    rows[120:180, 20:90] = 9
    rows[-3:] = IGNORE
    return LabelGrid.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(grids() | run_grids(), st.sets(st.integers(1, 7), max_size=4) | st.sets(st.integers(1, 254), max_size=40))
@example(_voc_like(), {5})
@example(_voc_like(), {9, 12})
@example(LabelGrid(width=40, height=30, data=np.random.default_rng(0).integers(0, 256, 1200, dtype=np.uint8)),
         {1, 7, 200})
def test_relabel_matches_the_table_lookup(g, classes):
    out = relabel(g, classes)
    assert out.data.tolist() == _relabel_by_table(g, classes).tolist()
    assert (out.width, out.height) == (g.width, g.height) and not out.data.flags.writeable


def test_relabel_returns_an_unchanged_grid_itself():
    g = _voc_like()
    assert relabel(g, {5, 9}) is g
    assert relabel(g, {5, 9, 12}) is g
    assert relabel(g, {5}) is not g


@pytest.mark.parametrize("classes", [{5}, set()], ids=["one-class", "none"])
def test_relabel_peak_memory_stays_near_the_raster(classes):
    g = _voc_like()
    tracemalloc.start()
    try:
        out = relabel(g, classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.tolist() == _relabel_by_table(g, classes).tolist()
    # the output raster, plus a run-start index far smaller than the raster
    assert peak < 1.5 * g.n_pixels


@pytest.mark.parametrize("target", [0, -1, 256, 300])
def test_relabel_rejects_ids_outside_foreground_range(target):
    g = LabelGrid(width=1, height=1, data=np.array([1], dtype=np.uint8))
    with pytest.raises(ValidationError):
        relabel(g, {1, target})


def test_pgm_p5_raster_is_not_copied(tmp_path):
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
    # the file's bytes, viewed in place; each copy of the raster adds n
    assert peak < 1.5 * n


def test_pgm_p5_reads_a_read_only_view_and_writes_it_back_unchanged(tmp_path):
    raster = np.random.default_rng(1).integers(0, 256, 7 * 5, dtype=np.uint8)
    blob = b"P5\n7 5\n255\n" + raster.tobytes()
    (tmp_path / "a.pgm").write_bytes(blob)
    grid = read_pgm(tmp_path / "a.pgm")
    assert grid.as_rows().shape == (5, 7) and np.array_equal(grid.data, raster)
    assert not grid.data.flags.writeable
    with pytest.raises(ValueError):
        grid.data[0] = 1
    write_pgm(grid, tmp_path / "b.pgm")
    write_pgm(read_pgm(tmp_path / "b.pgm"), tmp_path / "c.pgm")
    assert (tmp_path / "b.pgm").read_bytes() == (tmp_path / "c.pgm").read_bytes() == blob


def test_pgm_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError):
        read_pgm(tmp_path / "absent.pgm")


_SPACE = [bytes([c]) for c in b" \t\r\n\v\f"]
# a '#' comment: any bytes but '\n', ended by LF or CRLF
_COMMENTS = st.builds(lambda text, end: b"#" + text.replace(b"\n", b"") + end,
                      st.binary(max_size=6), st.sampled_from([b"\n", b"\r\n"]))


def _gap(min_size: int):
    """Whitespace bytes and comments before a header token."""
    return st.lists(st.sampled_from(_SPACE) | _COMMENTS, min_size=min_size, max_size=4).map(b"".join)


@st.composite
def pgm_headers(draw):
    """A P2 or P5 header, ended by its one separator byte, the width, height
    and maxval it holds, and a raster for it. The header puts any whitespace
    and comments before each token, the width's gap possibly empty, and a
    token may carry a sign or leading zeros."""
    width, height, maxval = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 255))
    header = draw(st.sampled_from([b"P2", b"P5"]))
    for min_gap, value in ((0, width), (1, height), (1, maxval)):
        header += draw(_gap(min_gap)) + draw(st.sampled_from(["", "+", "0", "00"])).encode() + str(value).encode()
    raster = draw(st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height))
    return header + draw(st.sampled_from(_SPACE)), width, height, maxval, raster


def _raster(header: bytes, values) -> bytes:
    return bytes(values) if header.startswith(b"P5") else " ".join(map(str, values)).encode() + b"\n"


@settings(max_examples=300, deadline=None)
@given(pgm_headers())
@example((b"P53 1\n255\n", 3, 1, 255, [0, 9, 255]))  # no gap after the magic
@example((b"P2#c\r\n2#\n1\t#\n#\r\n7\n", 2, 1, 7, [7, 0]))  # comments right after tokens
def test_pgm_header_grammar_reads_back(tmp_path_factory, case):
    header, width, height, maxval, raster = case
    path = tmp_path_factory.mktemp("pgm") / "g.pgm"
    path.write_bytes(header + _raster(header, raster))
    grid = read_pgm(path)
    assert (grid.width, grid.height, grid.data.tolist()) == (width, height, raster)
    if maxval < 255:  # the maxval read is the one written
        path.write_bytes(header + _raster(header, [maxval + 1] + raster[1:]))
        with pytest.raises(FormatError, match=f"pixel value {maxval + 1} exceeds maxval {maxval}$"):
            read_pgm(path)


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"P", "not a PGM file"),
        (b"P4 1 1 1\n", "unsupported NetPBM magic b'P4'"),
        (b"P5", "bad PGM header (truncated PGM header)"),
        (b"P2 2 2\n", "bad PGM header (truncated PGM header)"),  # no maxval
        (b"P2 12 3\n", "bad PGM header (truncated PGM header)"),  # no maxval, never split out of "12"
        (b"P2555\n", "bad PGM header (truncated PGM header)"),  # one token, never three
        (b"P2 2 2 #c\n", "bad PGM header (truncated PGM header)"),  # no maxval after a comment
        (b"P2 2 2 # no newline at the end", "bad PGM header (truncated PGM header)"),
        (b"P2 2 x 255\n0 0 0 0\n", "bad PGM header (invalid literal for int() with base 10: b'x')"),
        (b"P2 2 2 2.5\n", "bad PGM header (invalid literal for int() with base 10: b'2.5')"),
        (b"P5 2 1 255#c\n\x00\x00", "missing raster separator"),  # maxval right before '#'
        (b"P5 2 1 255", "missing raster separator"),
        (b"P5 2 1 255\n", "expected 2 raster bytes, found 0"),
        (b"P2 0 2 255\n", "non-positive dimensions 0x2"),
        (b"P2 2 -1 255\n", "non-positive dimensions 2x-1"),
        (b"P2 1 1 0\n0", "maxval 0 outside 1..255"),
        (b"P2 1 1 256\n0", "maxval 256 outside 1..255"),
        (b"P2 1 1 255\n256\n", "ASCII pixel value outside 0..255"),
        (b"P2 1 1 255\n1 #\n", "bad ASCII raster (invalid literal for int() with base 10: b'#')"),
        (b"P5 1 1 1\n\x02", "pixel value 2 exceeds maxval 1"),
    ],
)
def test_pgm_errors_keep_their_messages(tmp_path, blob, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_pgm(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("unit", [b"#", b" ", b"#a", b"\n#"], ids=["hashes", "spaces", "hash-a", "newline-hash"])
def test_pgm_pathological_headers_fail_fast(tmp_path, unit):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5" + unit * (200_000 // len(unit)))
    start = time.perf_counter()
    with pytest.raises(FormatError, match="truncated PGM header"):
        read_pgm(path)
    assert time.perf_counter() - start < 1.0
