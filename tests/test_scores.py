"""Score matrices: softmax and file round-trips."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ciss import (
    FormatError,
    ScoreMatrix,
    ValidationError,
    read_scores,
    softmax_probs,
    write_scores,
)
from conftest import run_with_file_size_limit


def test_softmax_symmetry():
    m = ScoreMatrix(class_map=(0, 1), logits=np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(softmax_probs(m), [[0.5, 0.5]])


def test_softmax_closed_form():
    m = ScoreMatrix(class_map=(0, 1), logits=np.array([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(softmax_probs(m), [[2 / 3, 1 / 3]], atol=1e-15)


def test_softmax_large_logits_do_not_overflow():
    m = ScoreMatrix(class_map=(0, 1), logits=np.array([[1000.0, 0.0]]))
    p = softmax_probs(m)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-300)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.just(4)),
        elements=st.floats(-30, 30),
    )
)
def test_softmax_rows_sum_to_one(z):
    p = softmax_probs(ScoreMatrix(class_map=(0, 1, 2, 3), logits=z))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_scorematrix_validation():
    with pytest.raises(ValidationError):
        ScoreMatrix(class_map=(1, 2), logits=np.zeros((1, 2)))  # no background
    with pytest.raises(ValidationError):
        ScoreMatrix(class_map=(0, 0), logits=np.zeros((1, 2)))  # duplicate
    with pytest.raises(ValidationError):
        ScoreMatrix(class_map=(0, 1), logits=np.array([[np.inf, 0.0]]))
    for cmap in ((0, 255), (0, 300), (0, -1)):  # argmax ids must fit a grid's 0..254
        with pytest.raises(ValidationError):
            ScoreMatrix(class_map=cmap, logits=np.zeros((1, 2)))


@pytest.mark.parametrize("class_map, shape, message", [
    ((), (1, 0), "class map is empty"),
    ((0, 1), (2, 3), "logits shape (2, 3) does not match 2 mapped classes"),
    ((0, 1), (4,), "logits shape (4,) does not match 2 mapped classes"),
], ids=["empty-map", "columns", "one-dimensional"])
def test_scorematrix_refusal_names_its_cause(class_map, shape, message):
    with pytest.raises(ValidationError) as err:
        ScoreMatrix(class_map=class_map, logits=np.zeros(shape))
    assert str(err.value) == message


def test_column_of_an_unmapped_class_is_an_error():
    m = ScoreMatrix(class_map=(0, 3), logits=np.zeros((1, 2)))
    assert m.column(3) == 1
    with pytest.raises(ValidationError) as err:
        m.column(2)
    assert str(err.value) == "class 2 not in score matrix"


def test_scorematrix_copies_a_writeable_input():
    """The matrix neither freezes the caller's array nor lets a view of it
    write a non-finite value past the check."""
    a = np.zeros((2, 2))
    view = a[:]
    m = ScoreMatrix(class_map=(0, 1), logits=a)
    assert a.flags.writeable
    view[0, 0] = np.inf
    a[1, 1] = 5.0
    assert np.all(np.isfinite(m.logits)) and not m.logits.any()
    assert not m.logits.flags.writeable


def test_scorematrix_keeps_a_read_only_input():
    a = np.zeros((2, 2))
    a.setflags(write=False)
    assert ScoreMatrix(class_map=(0, 1), logits=a).logits is a


def test_internal_arrays_are_kept_uncopied(tmp_path, monkeypatch):
    """The text reader's rows are read-only and the matrix keeps them as they are."""
    made = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        made.append(loadtxt(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    write_scores(ScoreMatrix(class_map=(0, 1), logits=np.eye(2)), tmp_path / "s.txt")
    m = read_scores(tmp_path / "s.txt")
    assert m.logits is made[0]


def test_text_scores_file_bytes_are_pinned(tmp_path):
    # negative zero, the smallest subnormal and the largest double, each in
    # the 17 significant digits that read back to the same value
    logits = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -2.5, -1e22]])
    write_scores(ScoreMatrix(class_map=(0, 4, 9), logits=logits), tmp_path / "s.scores")
    assert (tmp_path / "s.scores").read_bytes() == (
        b"2 3\n0 4 9\n-0 4.9406564584124654e-324 1.7976931348623157e+308\n0.10000000000000001 -2.5 -1e+22\n"
    )
    back = read_scores(tmp_path / "s.scores").logits
    assert back.tobytes() == logits.tobytes()  # -0.0 keeps its sign


@pytest.mark.parametrize("binary", [False, True])
def test_scores_file_roundtrip(tmp_path, binary):
    rng = np.random.default_rng(5)
    m = ScoreMatrix(class_map=(0, 2, 1), logits=rng.normal(size=(7, 3)))
    path = tmp_path / "scores.dat"
    write_scores(m, path, binary=binary)
    back = read_scores(path)
    assert back.class_map == m.class_map
    np.testing.assert_array_equal(back.logits, m.logits)


@pytest.mark.parametrize("binary", [False, True])
def test_scores_write_to_a_missing_directory_names_the_file(tmp_path, binary):
    path = tmp_path / "nodir" / "s.scores"
    with pytest.raises(FormatError, match=re.escape(f"{path}: cannot write score file (")):
        write_scores(ScoreMatrix(class_map=(0, 1), logits=np.eye(2)), path, binary=binary)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("binary", [False, True])
def test_scores_write_failing_part_way_keeps_the_previous_file(tmp_path, binary):
    """A 16 or 64 kB payload written under a 4 kB file-size limit."""
    path = tmp_path / "s.scores"
    path.write_bytes(b"previous")
    code = ("import numpy as np, ciss; "
            f"ciss.write_scores(ciss.ScoreMatrix((0, 1), np.zeros((4096, 2))), {str(path)!r}, binary={binary})")
    proc = run_with_file_size_limit(["-c", code], 4096)
    assert proc.returncode == 1
    assert f"ciss.FormatError: {path}: cannot write score file ([Errno 27] File too large)" in proc.stderr
    assert path.read_bytes() == b"previous"
    assert list(tmp_path.iterdir()) == [path]


def test_scores_reader_rejects_bad_payload(tmp_path):
    path = tmp_path / "scores.dat"
    path.write_bytes(b"2 2\n0 1\n1.0 2.0\n")  # one row short
    with pytest.raises(FormatError):
        read_scores(path)
    path.write_bytes(b"2\n0 1\n")
    with pytest.raises(FormatError):
        read_scores(path)


# --- the score-file parser ------------------------------------------------------


def float_per_token(payload: bytes) -> np.ndarray:
    """The payload parsed one Python float() per whitespace-separated token."""
    return np.array([float(v) for v in payload.decode("ascii").split()], dtype=np.float64)


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7e308, -1.7e308]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda k: hnp.arrays(
            np.float64, st.tuples(st.integers(1, 6), st.just(k)),
            elements=st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
        )
    )
)
def test_text_parse_is_bitwise_float_per_token(tmp_path_factory, z):
    path = tmp_path_factory.mktemp("scores") / "s.scores"
    m = ScoreMatrix(class_map=tuple(range(z.shape[1])), logits=z)
    write_scores(m, path)
    payload = path.read_bytes().split(b"\n", 2)[2]
    got = read_scores(path).logits
    assert np.array_equal(bits(got), bits(float_per_token(payload).reshape(z.shape)))
    assert np.array_equal(bits(got), bits(z))


@pytest.mark.parametrize(
    "payload",
    [b"1.5\t-2\n3e-5\t\t4\n", b"1.5 -2\r\n3e-5 4\r\n", b"\n1.5 -2\n\n\n3e-5 4\n\n", b"  1.5    -2 \n3e-5  4",
     b"\t1.5 \t-2\r\n\r\n  3e-5 4   \r\n", b"-0 5e-324\n1.7e308 -2.2250738585072014e-308\n"],
    ids=["tabs", "crlf", "blank-lines", "spaces-no-final-newline", "mixed", "edge-values"],
)
def test_text_parse_handles_whitespace_like_float_per_token(tmp_path, payload):
    path = tmp_path / "s.scores"
    path.write_bytes(b"2 2\n0 1\n" + payload)
    assert np.array_equal(bits(read_scores(path).logits), bits(float_per_token(payload).reshape(2, 2)))


@pytest.mark.parametrize("payload", [b"", b"\n", b" \t\r\n\n"], ids=["empty", "newline", "whitespace"])
def test_zero_rows_and_empty_payloads(tmp_path, payload):
    path = tmp_path / "s.scores"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path.write_bytes(b"0 2\n0 1\n" + payload)
        m = read_scores(path)
        assert m.class_map == (0, 1) and m.logits.shape == (0, 2)
        for header in (b"-1 0\n\n", b"2 2\n0 1\n", b"-1 2\n0 1\n"):
            path.write_bytes(header + payload)
            with pytest.raises(FormatError):
                read_scores(path)


@pytest.mark.parametrize(
    "payload",
    [b"1 2 3 4\n", b"1 2\n3\n4\n", b"1\n2\n3\n4\n", b"1 2 3\n4\n", b"1 2\r3 4\r"],
    ids=["one-line", "split-row", "one-per-line", "uneven", "cr-only"],
)
def test_rows_must_each_hold_k_values(tmp_path, payload):
    path = tmp_path / "s.scores"
    path.write_bytes(b"2 2\n0 1\n" + payload)
    with pytest.raises(FormatError):
        read_scores(path)


def test_binary_writer_tags_the_header(tmp_path):
    path = tmp_path / "s.scores"
    write_scores(ScoreMatrix(class_map=(0, 1), logits=np.zeros((3, 2))), path, binary=True)
    assert path.read_bytes().split(b"\n")[0] == b"3 2 binary"
    write_scores(ScoreMatrix(class_map=(0, 1), logits=np.zeros((3, 2))), path)
    assert path.read_bytes().split(b"\n")[0] == b"3 2"


@pytest.mark.parametrize("value", [0.0, 2.0])
def test_tagged_ascii_looking_payload_reads_as_binary(tmp_path, value):
    # 0.0 and 2.0 are all-ASCII bytes; a tagged file never tries text
    path = tmp_path / "s.scores"
    m = ScoreMatrix(class_map=(0, 1, 2), logits=np.full((4, 3), value))
    write_scores(m, path, binary=True)
    assert path.read_bytes()[len(b"4 3 binary\n0 1 2\n"):].isascii()
    assert np.array_equal(bits(read_scores(path).logits), bits(m.logits))


def test_tagged_payload_that_is_valid_text_reads_as_binary(tmp_path):
    path = tmp_path / "s.scores"
    path.write_bytes(b"1 1 binary\n0\n1234567\n")
    assert read_scores(path).logits[0, 0] == np.frombuffer(b"1234567\n", dtype="<f8")[0]
    path.write_bytes(b"1 1\n0\n1234567\n")  # untagged: text first
    assert read_scores(path).logits[0, 0] == 1234567.0


@pytest.mark.parametrize(
    "blob",
    [b"1 2 binary\n0 1\n" + np.zeros(1).tobytes(), b"1 2 binary\n0 1\n1.0 2.0\n",
     b"1 2 binary\n0 1\n" + np.zeros(3).tobytes(), b"1 2 text\n0 1\n1.0 2.0\n",
     b"1 2 binary binary\n0 1\n" + np.zeros(2).tobytes()],
    ids=["tagged-short", "tagged-text", "tagged-long", "unknown-tag", "two-tags"],
)
def test_bad_tagged_files_are_format_errors(tmp_path, blob):
    path = tmp_path / "s.scores"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        read_scores(path)


def test_untagged_binary_still_loads(tmp_path):
    rng = np.random.default_rng(8)
    z = rng.normal(size=(5, 3))
    path = tmp_path / "s.scores"
    path.write_bytes(b"5 3\n0 2 1\n" + z.astype("<f8").tobytes())
    back = read_scores(path)
    assert back.class_map == (0, 2, 1)
    assert np.array_equal(bits(back.logits), bits(z))
