"""Label grids, relabeling, and the PGM reader/writer."""
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ciss import BACKGROUND, IGNORE, FormatError, LabelGrid, OracleRecord, ValidationError, relabel
from ciss.pgm import read_pgm, write_pgm
from conftest import grid_of


def test_grid_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        LabelGrid(width=3, height=2, data=np.zeros(5, dtype=np.uint8))


@pytest.mark.parametrize("width, height", [(0, 2), (2, 0), (-1, -1)])
def test_grid_dimensions_must_be_positive(width, height):
    with pytest.raises(ValidationError) as err:
        LabelGrid(width=width, height=height, data=b"")
    assert str(err.value) == f"grid dimensions must be positive, got {width}x{height}"


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


def test_grids_compare_and_hash_by_shape_and_raster():
    a = LabelGrid(width=2, height=1, data=b"\x01\x02")
    b = LabelGrid(width=2, height=1, data=np.array([1, 2]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != LabelGrid(width=1, height=2, data=b"\x01\x02")
    assert a != LabelGrid(width=2, height=1, data=b"\x01\x00")
    assert a != a.raster
    assert repr(a) == "LabelGrid(width=2, height=1)"


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
    from_array = LabelGrid(2, 2, rows)
    a[:] = 7
    rows[:] = 9
    assert a.flags.writeable and rows.flags.writeable
    assert grid.foreground_classes() == record.oracle_classes == from_array.foreground_classes() == {3}
    assert record.oracle_labels == grid == from_array


def test_grid_keeps_a_read_only_input():
    b = bytes([0, 3, 3, 0])
    assert LabelGrid(2, 2, b).raster is b


def test_relabel_and_p2_rasters_are_kept_uncopied(tmp_path):
    """relabel and the P2 reader hand the grid raster bytes of their own,
    and its data is a read-only view of them."""
    oracle = LabelGrid(4, 3, np.random.default_rng(2).integers(0, 21, 12, dtype=np.uint8))
    (tmp_path / "a.pgm").write_bytes(b"P2\n4 3\n255\n" + " ".join(map(str, oracle.data.tolist())).encode())
    for grid in (relabel(oracle, {1, 2, 3}), read_pgm(tmp_path / "a.pgm")):
        assert not grid.data.flags.writeable
        assert np.shares_memory(grid.data, np.frombuffer(grid.raster, np.uint8))


def test_foreground_classes_exclude_reserved_ids():
    g = LabelGrid(width=2, height=2, data=np.array([0, 255, 4, 4], dtype=np.uint8))
    assert g.foreground_classes() == {4}


def test_relabel_keeps_selected_and_ignores():
    g = grid_of(np.array([[1, 2, 3], [0, 255, 2]], dtype=np.uint8))
    out = relabel(g, {2})
    assert out.data.reshape(out.height, out.width).tolist() == [[0, 2, 0], [0, 255, 2]]


def test_relabel_with_all_classes_is_identity():
    g = grid_of(np.array([[1, 2], [3, 255]], dtype=np.uint8))
    assert relabel(g, {1, 2, 3}) == g


def test_relabel_with_empty_set_clears_foreground():
    g = grid_of(np.array([[1, 2], [0, 255]], dtype=np.uint8))
    assert relabel(g, set()).data.reshape(2, 2).tolist() == [[0, 0], [0, 255]]


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
    g = grid_of(np.array([[0, 1, 255], [20, 3, 0]], dtype=np.uint8))
    path = tmp_path / "g.pgm"
    write_pgm(g, path)
    assert read_pgm(path) == g


def test_pgm_writer_is_byte_stable(tmp_path):
    g = grid_of(np.array([[5, 0], [255, 1]], dtype=np.uint8))
    write_pgm(g, tmp_path / "a.pgm")
    write_pgm(g, tmp_path / "b.pgm")
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_write_into_a_missing_directory_raises_what_open_raises(tmp_path):
    """A direct write is not staged, so nothing names a target for it: the
    `OSError` is left as `open` raised it."""
    with pytest.raises(FileNotFoundError):
        write_pgm(grid_of(np.zeros((1, 1), dtype=np.uint8)), tmp_path / "nodir" / "a.pgm")
    assert list(tmp_path.iterdir()) == []


def test_pgm_reads_ascii_variant_with_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n# produced by hand\n3 2\n255\n0 1 255\n20 3 0\n")
    g = read_pgm(path)
    assert g.data.reshape(g.height, g.width).tolist() == [[0, 1, 255], [20, 3, 0]]


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
    return grid_of(np.array(rows, dtype=np.uint8))


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
    """The relabel every pixel of which goes through a 256-entry numpy class
    table: the reference."""
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
    return grid_of(rows)


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


@st.composite
def byte_cases(draw):
    """A grid for the byte kernels and a class set to relabel it with: some
    of its ids and maybe others. The grid holds a few drawn ids, uniform
    noise, one pixel, background and ignore only, or a few ids plus rare ids
    placed off `foreground_classes`' sample stride of 256 bytes."""
    kind = draw(st.sampled_from(["palette", "noise", "one-pixel", "reserved", "rare"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = 40 if kind == "rare" else 1  # a rare grid spans several strides
    width, height = (1, 1) if kind == "one-pixel" else (draw(st.integers(low, 90)), draw(st.integers(low, 70)))
    n = width * height
    if kind in ("noise", "one-pixel"):
        values = rng.integers(0, 256, n)
    elif kind == "reserved":
        values = rng.choice([BACKGROUND, IGNORE], n)
    else:
        values = rng.choice(draw(st.lists(st.integers(0, 255), min_size=1, max_size=6)), n)
    if kind == "rare":
        spots = draw(st.lists(st.integers(1, n - 1).filter(lambda i: i % 256), min_size=1, max_size=3))
        values[spots] = draw(st.lists(st.integers(1, 254), min_size=len(spots), max_size=len(spots)))
    g = LabelGrid(width, height, values)
    present = sorted(set(g.raster) - {BACKGROUND, IGNORE})
    classes = draw(st.sets(st.sampled_from(present)) if present else st.just(set()))
    return g, classes | draw(st.sets(st.integers(1, 254), max_size=3))


@settings(max_examples=200, deadline=None)
@given(byte_cases())
@example((LabelGrid(1100, 1, bytes(1000) + b"\x07" + bytes(99)), {7}))  # one id, off every stride
@example((LabelGrid(1100, 1, bytes(1000) + b"\x07" + bytes(99)), {9}))
def test_byte_kernels_match_numpy_references(case):
    g, classes = case
    assert g.foreground_classes() == set(np.unique(g.data).tolist()) - {BACKGROUND, IGNORE}
    out = relabel(g, classes)
    assert out.raster == _relabel_by_table(g, classes).tobytes()
    assert (out is g) == (out.raster == g.raster)


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
    # the output raster, plus a 256-byte class table
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
    assert (grid.height, grid.width) == (5, 7) and np.array_equal(grid.data, raster)
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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([b"P2", b"P5"]), st.integers(1, 255), st.integers(-2, 2), st.data())
def test_pgm_rasters_read_as_their_values(tmp_path_factory, magic, maxval, extra, data):
    """A raster with `extra` values more or fewer than the 3x2 header asks
    for reads as its values, or fails with the message for its first
    fault: a P2 value outside 0..255, a raster of another length (a long P5
    one is cut), then a value above maxval."""
    n = 6 + extra
    if magic == b"P5":
        values = data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
        body, count = bytes(values), min(len(values), 6)
    else:
        values = data.draw(st.lists(st.integers(0, 255) | st.integers(-300, 300) | st.just(2**70),
                                    min_size=n, max_size=n))
        body, count = " ".join(map(str, values)).encode(), len(values)
    path = tmp_path_factory.mktemp("pgm") / "g.pgm"
    path.write_bytes(b"%s 3 2 %d\n%s" % (magic, maxval, body))
    raster = values[:6]
    if min(values) < 0 or max(values) > 255:
        message = "cannot read PGM file (bytes must be in range(0, 256))"
    elif count != 6:
        message = f"cannot read PGM file (grid data length {count} does not match 3x2)"
    elif max(raster) > maxval:
        message = f"pixel value {max(raster)} exceeds maxval {maxval}"
    else:
        grid = read_pgm(path)
        assert grid.data.reshape(grid.height, grid.width).tolist() == [raster[:3], raster[3:]]
        return
    with pytest.raises(FormatError) as err:
        read_pgm(path)
    assert str(err.value) == f"{path}: {message}"


def test_pgm_header_longer_than_the_first_read(tmp_path):
    """A header of any length reads, whether its last token ends before,
    at or after the end of the reader's first 512 bytes."""
    path = tmp_path / "g.pgm"
    for magic, raster in ((b"P5", b"\x01\x00\x07"), (b"P2", b"1 0 7\n")):
        for pad in [0, 100, *range(495, 515), 1023, 1024, 5000]:
            path.write_bytes(magic + b" #" + b"c" * pad + b"\n3 1 255\n" + raster)
            assert read_pgm(path).data.tolist() == [1, 0, 7], (magic, pad)


def test_pgm_reads_from_a_pipe(tmp_path):
    """A pipe cannot seek back to the end of the header; the raster bytes
    read with the header are kept."""
    raster = np.random.default_rng(3).integers(0, 256, 400 * 300, dtype=np.uint8)
    text = " ".join(map(str, raster[:12].tolist())).encode()
    fifo = tmp_path / "g.pgm"
    for blob, want in ((b"P5 400 300 255\n" + raster.tobytes(), raster), (b"P2 4 3 255\n" + text, raster[:12])):
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        try:
            grid = read_pgm(fifo)
        finally:
            writer.join(10)
            fifo.unlink()
        assert not writer.is_alive() and grid.raster == want.tobytes()


def test_p5_pipe_is_read_to_the_end_of_its_first_raster(tmp_path):
    """More images may follow a P5 raster: the reader returns the first one
    while the writer still holds the pipe open, without waiting for its end."""
    fifo = tmp_path / "g.pgm"
    os.mkfifo(fifo)
    release = threading.Event()

    def write():
        with open(fifo, "wb") as fh:
            fh.write(b"P5 3 2 255\n\x01\x02\x03\x04\x05\x06P5 1 1 255\n\x07")
            fh.flush()
            release.wait(10)

    grids = []
    threads = [threading.Thread(target=write, daemon=True),
               threading.Thread(target=lambda: grids.append(read_pgm(fifo)), daemon=True)]
    try:
        for thread in threads:
            thread.start()
        threads[1].join(5)
        read_while_open = not threads[1].is_alive()
    finally:
        release.set()
        for thread in threads:
            thread.join(10)
        fifo.unlink()
    assert read_while_open and grids[0].raster == bytes(range(1, 7))


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
        # the grid and bytes() own these rules now; each id keeps the case's name from
        # when the reader wrote its own message, the one the id still quotes
        pytest.param(b"P5 2 1 255\n", "cannot read PGM file (grid data length 0 does not match 2x1)",
                     id="P5 2 1 255\n-expected 2 raster bytes, found 0"),
        pytest.param(b"P2 0 2 255\n", "cannot read PGM file (grid dimensions must be positive, got 0x2)",
                     id="P2 0 2 255\n-non-positive dimensions 0x2"),
        pytest.param(b"P2 2 -1 255\n", "cannot read PGM file (grid dimensions must be positive, got 2x-1)",
                     id="P2 2 -1 255\n-non-positive dimensions 2x-1"),
        (b"P2 1 1 0\n0", "maxval 0 outside 1..255"),
        (b"P2 1 1 256\n0", "maxval 256 outside 1..255"),
        pytest.param(b"P2 1 1 255\n256\n", "cannot read PGM file (bytes must be in range(0, 256))",
                     id="P2 1 1 255\n256\n-ASCII pixel value outside 0..255"),
        pytest.param(b"P2 1 1 255\n1 #\n", "cannot read PGM file (invalid literal for int() with base 10: b'#')",
                     id="P2 1 1 255\n1 #\n-bad ASCII raster (invalid literal for int() with base 10: b'#')"),
        (b"P5 1 1 1\n\x02", "pixel value 2 exceeds maxval 1"),
        pytest.param(b"P2 1 1 255\n99999999999999999999\n", "cannot read PGM file (bytes must be in range(0, 256))",
                     id="P2 1 1 255\n99999999999999999999\n-ASCII pixel value outside 0..255"),  # past int64
        pytest.param(b"P5 100000 100000 255\n\x00", "cannot read PGM file (grid data length 1 does not match 100000x100000)",
                     id="P5 100000 100000 255\n\x00-expected 10000000000 raster bytes, found 1"),
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
