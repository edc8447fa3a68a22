"""The CLI contract under mutated inputs: valid PGM, score, manifest, split,
memory, pairs, class order and loss-case files with bytes flipped, cut short, or
with header fields or JSON values edited, and any text as a `pseudo` option,
fed in-process to `ciss.cli.main`. Whatever the input, the command exits 0, 2 or 3 with
exactly one JSON document on stdout, or one JSON error line on stderr and
nothing on stdout, and never lets an exception escape."""
import contextlib
import copy
import functools
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ciss import (
    DatasetManifest,
    LabelGrid,
    ScoreMatrix,
    build_overlapped,
    build_partitioned,
    parse_layout,
    sample_class_balanced,
    save_manifest,
    save_memory,
    save_split,
    write_scores,
)
from ciss.cli import main
from ciss import COMPOSITE_LOSSES
from ciss.pgm import write_pgm
from conftest import make_record

LABELS = (0, 1, 2, 3, 255)
FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# tokens a mutation may put in place of one of a file's own
TOKENS = (b"99999999999999999999", b"0", b"-1", b"256", b"65535", b"1.5", b"nan", b"inf", b"1e400",
          b"x", b"\xff", b"#", b"binary", b"P2", b"P5", b"P6")


@st.composite
def grids(draw) -> LabelGrid:
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    values = draw(st.lists(st.sampled_from(LABELS), min_size=w * h, max_size=w * h))
    return LabelGrid(width=w, height=h, data=np.array(values, dtype=np.uint8))


def pgm_bytes(grid: LabelGrid, ascii_raster: bool) -> bytes:
    """The P5 file `write_pgm` writes, or its P2 twin."""
    if not ascii_raster:
        with tempfile.TemporaryDirectory() as tmp:
            write_pgm(grid, Path(tmp) / "g.pgm")
            return (Path(tmp) / "g.pgm").read_bytes()
    raster = "\n".join(" ".join(map(str, row)) for row in grid.data.reshape(grid.height, grid.width).tolist())
    return f"P2\n{grid.width} {grid.height}\n255\n{raster}\n".encode()


def score_bytes(matrix: ScoreMatrix, binary: bool) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_scores(matrix, Path(tmp) / "s.scores", binary=binary)
        return (Path(tmp) / "s.scores").read_bytes()


@st.composite
def mutation(draw, blob: bytes) -> bytes:
    """`blob` with bytes flipped, cut short, a byte inserted, or one token
    (magic, sizes, maxval, format tag, class ids, a text raster's or
    payload's values) replaced, dropped or repeated."""
    kind = draw(st.sampled_from(["token", "flip", "truncate", "insert"]))
    if kind == "token":
        tokens = re.split(rb"([ \n])", blob)  # separators kept at odd indices
        i = 2 * draw(st.integers(0, len(tokens) // 2))
        edit = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if edit == "replace":
            tokens[i] = draw(st.sampled_from(TOKENS) | st.integers().map(lambda v: str(v).encode()))
        elif edit == "drop":
            tokens[i] = b""
        else:
            tokens[i] += b" " + tokens[i]
        return b"".join(tokens)
    if kind == "flip" and blob:
        out = bytearray(blob)
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return blob[:draw(st.integers(0, max(len(blob) - 1, 0)))]
    at = draw(st.integers(0, len(blob)))
    return blob[:at] + draw(st.sampled_from([b" ", b"\n", b"#c\n", b"\r\n", b"0", b"\x00", b"9"])) + blob[at:]


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """`blob` after one to three mutations."""
    for _ in range(draw(st.integers(1, 3))):
        blob = draw(mutation(blob))
    return blob


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code: int, out: str, err: str) -> None:
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    else:
        doc, end = json.JSONDecoder().raw_decode(out)
        assert isinstance(doc, dict) and out[end:] == "\n" and err == ""


@st.composite
def pseudo_inputs(draw):
    """A ground-truth PGM and a previous-model score file for it, one of them
    (or both) mutated."""
    gt = draw(grids())
    class_map = draw(st.sampled_from([(0, 1), (0, 1, 2), (2, 0, 3)]))
    logits = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5, 7.0, 1e300]),
                           min_size=gt.n_pixels * len(class_map), max_size=gt.n_pixels * len(class_map)))
    matrix = ScoreMatrix(class_map=class_map, logits=np.reshape(logits, (gt.n_pixels, len(class_map))))
    gt_blob = pgm_bytes(gt, draw(st.booleans()))
    scores_blob = score_bytes(matrix, draw(st.booleans()))
    target = draw(st.sampled_from(["gt", "scores", "both"]))
    if target != "scores":
        gt_blob = draw(mutated(gt_blob))
    if target != "gt":
        scores_blob = draw(mutated(scores_blob))
    return gt_blob, scores_blob


@FUZZ
@given(pseudo_inputs(), st.sampled_from(["1", "3", "1,2"]))
def test_pseudo_keeps_the_contract(files, current):
    gt_blob, scores_blob = files
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "gt.pgm").write_bytes(gt_blob)
        (tmp / "prev.scores").write_bytes(scores_blob)
        assert_contract(*run(["pseudo", "--gt", str(tmp / "gt.pgm"), "--prev-scores", str(tmp / "prev.scores"),
                              "--current-classes", current, "--tau", "0.5", "--out", str(tmp / "out.pgm")]))


@functools.cache
def pseudo_files() -> dict[str, bytes]:
    """A valid ground-truth PGM holding classes 0, 1, 3 and 255, and a
    previous-model score file for it over classes 0..2."""
    gt = LabelGrid(width=3, height=2, data=np.array([0, 3, 1, 0, 255, 0], dtype=np.uint8))
    logits = np.random.default_rng(0).normal(scale=3.0, size=(6, 3))
    return {"gt.pgm": pgm_bytes(gt, False), "prev.scores": score_bytes(ScoreMatrix((0, 1, 2), logits), False)}


# class lists and thresholds, well-formed or not, and any text at all
CLASS_LISTS = st.lists(st.integers(-2, 300).map(str) | st.sampled_from(["", " ", "x", "1.0", "3 "]),
                       max_size=4).map(",".join) | st.text()
THRESHOLDS = st.floats().map(repr) | st.sampled_from(["0", "1", "0.5", "-0", "1e-400", " 0.5", ".5"]) | st.text()


@FUZZ
@given(CLASS_LISTS, THRESHOLDS)
@example("", "0.5")
@example(",", "0.5")
def test_pseudo_options_keep_the_contract(current, tau):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, blob in pseudo_files().items():
            (tmp / name).write_bytes(blob)
        assert_contract(*run(["pseudo", "--gt", str(tmp / "gt.pgm"), "--prev-scores", str(tmp / "prev.scores"),
                              "--current-classes", current, "--tau", tau, "--out", str(tmp / "out.pgm")]))


@st.composite
def miou_inputs(draw):
    """Prediction and ground-truth PGMs of one grid size, either mutated."""
    gt = draw(grids())
    pred_values = draw(st.lists(st.sampled_from(LABELS), min_size=gt.n_pixels, max_size=gt.n_pixels))
    pred = LabelGrid(width=gt.width, height=gt.height, data=np.array(pred_values, dtype=np.uint8))
    blobs = [pgm_bytes(g, draw(st.booleans())) for g in (pred, gt)]
    target = draw(st.sampled_from([0, 1]))
    blobs[target] = draw(mutated(blobs[target]))
    return blobs


@FUZZ
@given(miou_inputs())
@example([b"P2\n2 1\n255\n99999999999999999999 1\n", b"P2\n2 1\n255\n1 1\n"])  # past int64
def test_eval_miou_keeps_the_contract(blobs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "pred.pgm").write_bytes(blobs[0])
        (tmp / "gt.pgm").write_bytes(blobs[1])
        (tmp / "pairs.json").write_text(json.dumps([{"pred": "pred.pgm", "gt": "gt.pgm"}]))
        assert_contract(*run(["eval", "miou", "--pairs", str(tmp / "pairs.json"),
                              "--task", "2-1", "--class-count", "3"]))


@functools.cache
def eval_files() -> dict[str, bytes]:
    """Two PGMs, a class order file over classes 1..3, and the pairs files
    of `eval miou` and `eval prr` over them."""
    a = LabelGrid(width=3, height=1, data=np.array([1, 2, 0], dtype=np.uint8))
    b = LabelGrid(width=3, height=1, data=np.array([1, 3, 255], dtype=np.uint8))
    return {"a.pgm": pgm_bytes(a, False), "b.pgm": pgm_bytes(b, True), "order.txt": b"3\n1\n2\n",
            "miou.json": json.dumps([{"pred": "a.pgm", "gt": "b.pgm"}, {"pred": "b.pgm", "gt": "b.pgm"}]).encode(),
            "prr.json": json.dumps([{"oracle": "b.pgm", "pseudo": "a.pgm"}]).encode()}


@st.composite
def eval_inputs(draw) -> dict[str, bytes]:
    """`eval_files` with one of its pairs files given a swapped value or
    mutated bytes, or its class order file mutated."""
    files = dict(eval_files())
    target = draw(st.sampled_from(["miou.json", "prr.json", "order.txt"]))
    if target == "order.txt":
        files[target] = draw(mutated(files[target]))
    else:
        files[target] = draw(swapped(json.loads(files[target])) | mutated(files[target]))
    return files


@FUZZ
@given(eval_inputs())
def test_eval_files_keep_the_contract(files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, blob in files.items():
            (tmp / name).write_bytes(blob)
        layout = ["--task", "2-1", "--class-order", str(tmp / "order.txt")]
        assert_contract(*run(["eval", "miou", "--pairs", str(tmp / "miou.json"), *layout]))
        assert_contract(*run(["eval", "prr", "--pairs", str(tmp / "prr.json"), *layout, "--current-task", "1"]))


# values a JSON type swap may put in place of any value of a split or memory file
JSON_VALUES = (None, True, False, 0, -1, 2, 2**70, 1.5, float("inf"), "", "x", "img00", [], ["x"], [1, 2],
               [[]], {}, {"t": 0})


def small_manifest() -> DatasetManifest:
    """Five images over classes 1..3, each class in two or more of them."""
    return DatasetManifest(class_count=3, records=(
        make_record("Img1", {1, 2, 3}), make_record("Img2", {1, 2}), make_record("Img3", {3}),
        make_record("Img4", {1, 3}), make_record("Img5", {1})))


@functools.cache
def artifact_docs() -> dict[str, dict]:
    """A valid overlapped split (layout 1-1, three tasks) and a memory of two
    entries sampled from it, as their parsed JSON, by file stem."""
    manifest = small_manifest()
    split = build_overlapped(manifest, parse_layout("1-1", 3))
    with tempfile.TemporaryDirectory() as tmp:
        save_split(split, Path(tmp) / "split.json")
        save_memory(sample_class_balanced(split, manifest, 0, 2, 0), Path(tmp) / "memory.json", manifest, split.spec)
        return {name: json.loads((Path(tmp) / f"{name}.json").read_text()) for name in ("split", "memory")}


def json_paths(doc, prefix=()):
    """The key path of every value in `doc`, the root's included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, (*prefix, key))


@st.composite
def swapped(draw, doc) -> bytes:
    """`doc` with one value, the root's included, replaced by one of
    `JSON_VALUES`: null, a boolean, a number, a string, a list or an object."""
    path = draw(st.sampled_from(list(json_paths(doc))))
    value = draw(st.sampled_from(JSON_VALUES))
    if not path:
        return json.dumps(value).encode()
    doc = copy.deepcopy(doc)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    parent[path[-1]] = value
    return json.dumps(doc).encode()


@st.composite
def artifact_inputs(draw):
    """A split and a memory file, one of them with a value swapped or with
    bytes flipped, cut short or edited."""
    blobs = {name: json.dumps(doc, indent=2).encode() for name, doc in artifact_docs().items()}
    target = draw(st.sampled_from(sorted(blobs)))
    blobs[target] = draw(swapped(artifact_docs()[target]) | mutated(blobs[target]))
    return blobs


@FUZZ
@given(artifact_inputs())
def test_memory_audits_keep_the_contract(blobs):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, blob in blobs.items():
            (tmp / f"{name}.json").write_bytes(blob)
        audit = ["--memory", str(tmp / "memory.json"), "--split", str(tmp / "split.json"), "--task", "1"]
        assert_contract(*run(["memory", "overlap-ratio", *audit]))
        assert_contract(*run(["memory", "batch", *audit, "--size", "4", "--seed", "0"]))


@functools.cache
def manifest_files() -> tuple[dict, dict[str, bytes]]:
    """`small_manifest` as saved: the parsed manifest JSON and the bytes of
    every file under its directory, the manifest's own, its P5 grids and a
    partitioned split (layout 1-1, seed 0) built from it, by relative name."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_manifest(small_manifest(), tmp / "manifest.json")
        save_split(build_partitioned(small_manifest(), parse_layout("1-1", 3), 0), tmp / "split.json")
        files = {str(p.relative_to(tmp)): p.read_bytes() for p in tmp.rglob("*") if p.is_file()}
    return json.loads(files["manifest.json"]), files


@st.composite
def manifest_inputs(draw) -> dict[str, bytes]:
    """`manifest_files`, with one value of the manifest JSON swapped or one
    of the grids it names mutated."""
    doc, files = manifest_files()
    files = dict(files)
    if draw(st.booleans()):
        files["manifest.json"] = draw(swapped(doc))
    else:
        grid = draw(st.sampled_from(sorted(image["labels"] for image in doc["images"])))
        files[grid] = draw(mutated(files[grid]))
    return files


# four commands an example: as many commands as the memory audits' 200 examples run
@settings(FUZZ, max_examples=100)
@given(manifest_inputs())
def test_manifest_commands_keep_the_contract(files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, blob in files.items():
            (tmp / name).parent.mkdir(exist_ok=True)
            (tmp / name).write_bytes(blob)
        manifest = ["--manifest", str(tmp / "manifest.json")]
        for scenario, seed in (("overlapped", []), ("disjoint", []), ("partitioned", ["--seed", "0"])):
            assert_contract(*run(["build", *manifest, "--scenario", scenario, "--task", "1-1", *seed,
                                  "--out", str(tmp / f"{scenario}.json")]))
        assert_contract(*run(["memory", "sample", *manifest, "--split", str(tmp / "split.json"),
                              "--upto-task", "1", "--size", "3", "--seed", "0", "--out", str(tmp / "memory.json")]))


def run_variant(files: dict[str, bytes]) -> tuple[int, str, str]:
    """`memory variant` for task 1 on the overlapped split and memory of
    `artifact_docs`, both built from `small_manifest`, with `files` as the
    manifest's directory."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, blob in files.items():
            (tmp / name).parent.mkdir(exist_ok=True)
            (tmp / name).write_bytes(blob)
        for name, doc in artifact_docs().items():
            (tmp / f"overlapped_{name}.json").write_text(json.dumps(doc))
        return run(["memory", "variant", "--memory", str(tmp / "overlapped_memory.json"),
                    "--split", str(tmp / "overlapped_split.json"), "--task", "1",
                    "--manifest", str(tmp / "manifest.json"), "--seed", "0", "--out", str(tmp / "variant.json")])


def test_variant_replaces_an_entry_on_the_valid_manifest():
    """Memory entry Img2 reappears in task 1; the variant replaces it."""
    assert {e["image_id"] for e in artifact_docs()["memory"]["entries"]} == {"Img2", "Img5"}
    code, out, err = run_variant(manifest_files()[1])
    assert code == 0, err
    assert json.loads(out)["overlap_ratio"] == 0.0 and json.loads(out)["warnings"] == []


# a manifest that disagrees with the split and memory it is given: one of
# its values swapped or one of its grids mutated
@FUZZ
@given(manifest_inputs())
def test_memory_variant_keeps_the_contract(files):
    assert_contract(*run_variant(files))


@functools.cache
def loss_case() -> tuple[dict, dict[str, bytes]]:
    """A valid two-item loss case (layout old {1}, new {2, 3}): the parsed
    JSON, whose current and memory items each name scores, labels and
    previous scores and carry every external scalar, and its files' bytes by
    name."""
    rng = np.random.default_rng(0)
    items, files = [], {}
    for i, (source, ids) in enumerate((("current", (0, 2, 3, 255)), ("memory", (0, 1, 255)))):
        scores = ScoreMatrix(class_map=(0, 1, 2, 3), logits=rng.normal(size=(6, 4)))
        files[f"s{i}.scores"] = score_bytes(scores, bool(i))  # one text, one binary
        files[f"p{i}.scores"] = score_bytes(ScoreMatrix(class_map=(0, 1), logits=rng.normal(size=(6, 2))), False)
        labels = np.array([ids[j % len(ids)] for j in range(6)], dtype=np.uint8)
        files[f"l{i}.pgm"] = pgm_bytes(LabelGrid(width=3, height=2, data=labels), bool(i))  # P5, then P2
        items.append({"source": source, "scores": f"s{i}.scores", "labels": f"l{i}.pgm",
                      "prev_scores": f"p{i}.scores", "kd": 0.3, "dkd": 0.4, "ac": 0.2, "pod": 0.1})
    doc = {"layout": {"old": [1], "new": [2, 3]},
           "config": {"lambda": 5.0, "gamma": 1.0, "alpha": 0.5, "beta": 0.5, "kd_includes_bg": True},
           "items": items}
    return doc, files


# `loss value` with one atomic id and with each composite, and `loss gradcheck`
LOSS_COMMANDS = (["value", "--loss", "ce_current"], *(["value", "--loss", lid] for lid in COMPOSITE_LOSSES),
                 ["gradcheck", "--loss", "bce_old", "--item", "1"])


def run_loss_commands(case: bytes) -> list[tuple[int, str, str]]:
    """Each of LOSS_COMMANDS on the loss case `case`, next to the valid case's files."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, blob in loss_case()[1].items():
            (tmp / name).write_bytes(blob)
        (tmp / "case.json").write_bytes(case)
        return [run(["loss", *argv, "--case", str(tmp / "case.json")]) for argv in LOSS_COMMANDS]


def test_loss_case_runs_every_command():
    for code, out, err in run_loss_commands(json.dumps(loss_case()[0]).encode()):
        assert code == 0, err
        assert_contract(code, out, err)


@FUZZ
@given(st.deferred(lambda: swapped(loss_case()[0])))
def test_loss_commands_keep_the_contract(case):
    for result in run_loss_commands(case):
        assert_contract(*result)
