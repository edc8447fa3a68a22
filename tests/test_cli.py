"""End-to-end command-line tests; stdout carries one JSON document per call."""
import argparse
import errno
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ciss import (
    COMPOSITE_LOSSES,
    DatasetManifest,
    LabelGrid,
    OracleRecord,
    ScoreMatrix,
    build_overlapped,
    build_partitioned,
    load_manifest,
    load_split,
    sample_class_balanced,
    save_manifest,
    save_memory,
    save_split,
    write_scores,
)
from ciss import losses
from ciss.cli import build_parser, main
from ciss.pgm import read_pgm, write_pgm
from conftest import make_record, one_hot_scores, run_with_file_size_limit, run_with_memory_limit, synthetic_manifest


@pytest.fixture
def manifest_path(tmp_path, fig3_manifest):
    path = tmp_path / "manifest.json"
    save_manifest(fig3_manifest, path)
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


class TestBuild:
    def test_overlapped_counts_and_overlaps(self, capsys, manifest_path, tmp_path):
        out = tmp_path / "split.json"
        code, doc, _ = run(
            capsys,
            ["build", "--manifest", str(manifest_path), "--scenario", "overlapped",
             "--task", "1-1", "--out", str(out)],
        )
        assert code == 0
        assert doc["task_counts"] == [4, 2, 3]
        sizes = {(o["a"], o["b"]): o["size"] for o in doc["pairwise_overlaps"]}
        assert sizes[(0, 1)] == 2 and sizes[(0, 2)] == 2 and sizes[(1, 2)] == 1
        assert out.exists()

    def test_partitioned_is_byte_deterministic(self, capsys, manifest_path, tmp_path):
        args = ["build", "--manifest", str(manifest_path), "--scenario", "partitioned",
                "--task", "1-1", "--seed", "42"]
        code1, doc1, _ = run(capsys, args + ["--out", str(tmp_path / "a.json")])
        code2, doc2, _ = run(capsys, args + ["--out", str(tmp_path / "b.json")])
        assert code1 == code2 == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert doc1["task_counts"] == doc2["task_counts"]

    def test_partitioned_requires_seed(self, capsys, manifest_path, tmp_path):
        code, doc, err = run(
            capsys,
            ["build", "--manifest", str(manifest_path), "--scenario", "partitioned",
             "--task", "1-1", "--out", str(tmp_path / "x.json")],
        )
        assert code == 2
        assert doc is None
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_partitioned_seed_must_fit_64_bits(self, capsys, manifest_path, tmp_path):
        code, doc, err = run(
            capsys,
            ["build", "--manifest", str(manifest_path), "--scenario", "partitioned",
             "--task", "1-1", "--seed", "-1", "--out", str(tmp_path / "x.json")],
        )
        assert (code, doc) == (2, None)
        assert json.loads(err)["error"] == {"type": "ValidationError",
                                            "message": "seed must be an unsigned 64-bit integer"}

    @pytest.mark.parametrize("scenario", ["overlapped", "disjoint"])
    def test_only_partitioned_builds_take_a_seed(self, capsys, manifest_path, tmp_path, scenario):
        out = tmp_path / "x.json"
        code, doc, err = run(
            capsys,
            ["build", "--manifest", str(manifest_path), "--scenario", scenario,
             "--task", "1-1", "--seed", "1", "--out", str(out)],
        )
        assert (code, doc) == (2, None)
        assert json.loads(err)["error"] == {"type": "ValidationError", "message": f"{scenario} builds take no --seed"}
        assert not out.exists()

    def test_class_order_file(self, capsys, manifest_path, tmp_path):
        order = tmp_path / "order.txt"
        order.write_text("3\n1\n2\n")
        out = tmp_path / "split.json"
        code, doc, _ = run(
            capsys,
            ["build", "--manifest", str(manifest_path), "--scenario", "overlapped",
             "--task", "1-1", "--class-order", str(order), "--out", str(out)],
        )
        assert code == 0
        assert doc["task_counts"] == [3, 4, 2]  # car first now


class TestMemoryCommands:
    @pytest.fixture
    def split_path(self, capsys, manifest_path, tmp_path):
        out = tmp_path / "split.json"
        code, _, _ = run(
            capsys,
            ["build", "--manifest", str(manifest_path), "--scenario", "overlapped",
             "--task", "1-1", "--out", str(out)],
        )
        assert code == 0
        return out

    def test_sample_ratio_variant_batch(self, capsys, manifest_path, split_path, tmp_path):
        mem = tmp_path / "memory.json"
        code, doc, _ = run(
            capsys,
            ["memory", "sample", "--manifest", str(manifest_path), "--split", str(split_path),
             "--upto-task", "0", "--size", "3", "--seed", "1", "--out", str(mem)],
        )
        assert code == 0 and doc["stored"] == 3

        code, doc, _ = run(
            capsys,
            ["memory", "overlap-ratio", "--memory", str(mem), "--split", str(split_path),
             "--task", "1"],
        )
        assert code == 0
        assert 0.0 <= doc["overlap_ratio"] <= 1.0
        assert doc["overlap_ratio_display"] == f"{doc['overlap_ratio']:.2f}"

        variant = tmp_path / "variant.json"
        code, doc, _ = run(
            capsys,
            ["memory", "variant", "--memory", str(mem), "--split", str(split_path),
             "--manifest", str(manifest_path), "--task", "1", "--seed", "2",
             "--out", str(variant)],
        )
        assert code == 0

        code, doc, _ = run(
            capsys,
            ["memory", "batch", "--memory", str(mem), "--split", str(split_path),
             "--task", "1", "--size", "4", "--seed", "3"],
        )
        assert code == 0
        assert doc["n_current"] == 2 and doc["n_memory"] == 2

    def test_commands_read_no_stored_grid(self, capsys, manifest_path, split_path, tmp_path):
        """With the memory's grid directory deleted, overlap-ratio and batch
        print the same documents, and variant the same document and grids,
        as from the intact memory."""
        mem = tmp_path / "memory.json"
        code, _, _ = run(
            capsys,
            ["memory", "sample", "--manifest", str(manifest_path), "--split", str(split_path),
             "--upto-task", "0", "--size", "3", "--seed", "1", "--out", str(mem)],
        )
        assert code == 0
        audit = ["--memory", str(mem), "--split", str(split_path), "--task", "1"]

        def outputs(variant):
            ratio = run(capsys, ["memory", "overlap-ratio", *audit])
            batch = run(capsys, ["memory", "batch", *audit, "--size", "4", "--seed", "3"])
            code, doc, err = run(capsys, ["memory", "variant", *audit, "--manifest", str(manifest_path),
                                          "--seed", "2", "--out", str(tmp_path / f"{variant}.json")])
            grids = {p.name: p.read_bytes() for p in (tmp_path / f"{variant}_grids").iterdir()}
            return ratio, batch, (code, {**doc, "out": None}, err), grids

        intact = outputs("intact")
        assert [out[0] for out in intact[:3]] == [0, 0, 0] and intact[3]
        shutil.rmtree(tmp_path / "memory_grids")
        assert outputs("deleted") == intact

    def test_variant_refuses_a_manifest_without_task_0_classes(self, capsys, fig3_manifest, manifest_path,
                                                              split_path, tmp_path):
        """A --manifest with the split's ids but no class 1 leaves a fallback
        replacement without a task-0 anchor: exit 2, one JSON error line
        naming the image, and no file written."""
        mem = tmp_path / "memory.json"
        code, _, _ = run(
            capsys,
            ["memory", "sample", "--manifest", str(manifest_path), "--split", str(split_path),
             "--upto-task", "1", "--size", "3", "--seed", "0", "--out", str(mem)],
        )
        assert code == 0
        other = tmp_path / "other" / "manifest.json"
        other.parent.mkdir()
        records = tuple(make_record(r.image_id, r.oracle_classes - {1} or {2}) for r in fig3_manifest.records)
        save_manifest(DatasetManifest(class_count=3, records=records), other)
        out = tmp_path / "variant.json"
        code, doc, err = run(
            capsys,
            ["memory", "variant", "--memory", str(mem), "--split", str(split_path), "--manifest", str(other),
             "--task", "1", "--seed", "0", "--out", str(out)],
        )
        assert code == 2 and doc is None
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == "image 'Img4' holds no task-0 class in the manifest (--manifest)"
        assert not out.exists() and not (tmp_path / "variant_grids").exists()

    def test_variant_of_an_empty_memory_writes_nothing(self, capsys, tmp_path):
        """No image holds task 0's class 1, so the sampled memory is empty and
        its variant has no overlap ratio: exit 2, one JSON error line, and
        neither the --out file nor its grid directory."""
        grid = LabelGrid(width=4, height=1, data=np.array([2, 0, 0, 2], dtype=np.uint8))
        records = tuple(OracleRecord.from_grid(f"img{i}", grid) for i in range(3))
        manifest, split, mem = tmp_path / "manifest.json", tmp_path / "split.json", tmp_path / "memory.json"
        save_manifest(DatasetManifest(class_count=2, records=records), manifest)
        code, _, _ = run(capsys, ["build", "--manifest", str(manifest), "--scenario", "overlapped",
                                  "--task", "1-1", "--out", str(split)])
        assert code == 0
        code, doc, _ = run(capsys, ["memory", "sample", "--manifest", str(manifest), "--split", str(split),
                                    "--upto-task", "0", "--size", "2", "--seed", "0", "--out", str(mem)])
        assert code == 0 and doc["stored"] == 0
        out = tmp_path / "var.json"
        code, doc, err = run(capsys, ["memory", "variant", "--memory", str(mem), "--split", str(split),
                                      "--manifest", str(manifest), "--task", "1", "--seed", "0",
                                      "--out", str(out)])
        assert (code, doc) == (2, None)
        [line] = err.splitlines()
        assert json.loads(line)["error"] == {"type": "ValidationError",
                                             "message": "overlap ratio of an empty memory is undefined"}
        assert not out.exists() and not (tmp_path / "var_grids").exists()

    def test_sample_refusal_names_the_manifest(self, capsys, manifest_path, split_path, tmp_path):
        """`memory sample` reads --split and --manifest; a manifest refusal names the manifest."""
        _edit_manifest(manifest_path, lambda doc: doc["images"].append(doc["images"][0]))
        code, doc, err = run(
            capsys,
            ["memory", "sample", "--manifest", str(manifest_path), "--split", str(split_path),
             "--upto-task", "0", "--size", "3", "--seed", "1", "--out", str(tmp_path / "memory.json")],
        )
        assert (code, doc) == (2, None)
        assert json.loads(err)["error"] == {
            "type": "FormatError", "message": f"{manifest_path}: cannot read manifest (duplicate image id 'Img1')"}

    def test_grid_write_failing_part_way_names_the_memory_file(self, capsys, fig3_manifest, tmp_path):
        """Stored grids of 4.8 kB written under a 4 kB file-size limit: the
        error names the memory file being written, not a staged grid."""
        records = tuple(make_record(r.image_id, r.oracle_classes, width=80, height=60)
                        for r in fig3_manifest.records)
        manifest, split, mem = tmp_path / "big.json", tmp_path / "split.json", tmp_path / "memory.json"
        save_manifest(DatasetManifest(class_count=3, records=records), manifest)
        code, _, _ = run(capsys, ["build", "--manifest", str(manifest), "--scenario", "overlapped",
                                  "--task", "1-1", "--out", str(split)])
        assert code == 0
        before = sorted(tmp_path.rglob("*"))
        proc = run_with_file_size_limit(
            ["-m", "ciss.cli", "memory", "sample", "--manifest", str(manifest), "--split", str(split),
             "--upto-task", "0", "--size", "3", "--seed", "1", "--out", str(mem)], 4096)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert [json.loads(line)["error"] for line in proc.stderr.splitlines()] == [
            {"type": "FormatError", "message": f"{mem}: cannot write artifact ([Errno 27] File too large)"}]
        assert ".tmp" not in proc.stderr
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("seed", [-4, 2**70])
    def test_sample_refuses_a_partitioned_split_seed_outside_64_bits(self, capsys, manifest_path, tmp_path, seed):
        split = tmp_path / "split.json"
        run(capsys, ["build", "--manifest", str(manifest_path), "--scenario", "partitioned",
                     "--task", "1-1", "--seed", "1", "--out", str(split)])
        split.write_text(json.dumps({**json.loads(split.read_text()), "seed": seed}))
        code, doc, err = run(
            capsys,
            ["memory", "sample", "--manifest", str(manifest_path), "--split", str(split),
             "--upto-task", "0", "--size", "3", "--seed", "1", "--out", str(tmp_path / "memory.json")],
        )
        assert (code, doc) == (2, None)
        assert json.loads(err)["error"] == {
            "type": "FormatError",
            "message": f"{split}: cannot read split manifest (seed must be an unsigned 64-bit integer)"}
        assert not (tmp_path / "memory.json").exists()

    def test_batch_size_past_the_longest_list_exits_2(self, capsys, manifest_path, split_path, tmp_path):
        """A batch holds at most the images the task and the memory hold: the
        whole supply makes a batch, and one more, sys.maxsize or a size past
        it is refused at once, one JSON error line, before any item is drawn."""
        supply = len(json.loads(split_path.read_text())["tasks"][1]["image_ids"]) + 3
        mem = tmp_path / "memory.json"
        run(capsys, ["memory", "sample", "--manifest", str(manifest_path), "--split", str(split_path),
                     "--upto-task", "0", "--size", "3", "--seed", "1", "--out", str(mem)])
        batch = ["memory", "batch", "--memory", str(mem), "--split", str(split_path), "--task", "1", "--seed", "0"]
        code, doc, _ = run(capsys, [*batch, "--size", str(supply)])
        assert code == 0 and len(doc["items"]) == supply
        for size in (supply + 1, sys.maxsize, 10**400):
            code, doc, err = run(capsys, [*batch, "--size", str(size)])
            assert (code, doc) == (2, None)
            assert json.loads(err)["error"] == {
                "type": "ValidationError",
                "message": f"batch size must lie in 2..{supply}, the images the task and the memory hold, got {size}"}
            assert len(err.splitlines()) == 1

    @pytest.fixture
    def layouts(self, capsys, tmp_path):
        """A 300-image manifest, its 15-1 and 10-5 overlapped splits, and a
        memory sampled from the 15-1 split up to its last task."""
        paths = {name: tmp_path / f"{name}.json" for name in ("manifest", "15-1", "10-5", "memory")}
        save_manifest(synthetic_manifest(300, 20, seed=5), paths["manifest"])
        for task in ("15-1", "10-5"):
            run(capsys, ["build", "--manifest", str(paths["manifest"]), "--scenario", "overlapped",
                         "--task", task, "--out", str(paths[task])])
        code, _, _ = run(capsys, ["memory", "sample", "--manifest", str(paths["manifest"]), "--split",
                                  str(paths["15-1"]), "--upto-task", "5", "--size", "20", "--seed", "1",
                                  "--out", str(paths["memory"])])
        assert code == 0
        return paths

    @staticmethod
    def _refused(capsys, paths, split):
        """overlap-ratio, variant and batch each exit 2 with one error naming
        the memory file, and variant writes nothing."""
        out = paths["memory"].parent / "variant.json"
        audit = ["--memory", str(paths["memory"]), "--split", str(paths[split]), "--task", "1"]
        for argv in (["memory", "overlap-ratio", *audit],
                     ["memory", "variant", *audit, "--manifest", str(paths["manifest"]), "--seed", "0",
                      "--out", str(out)],
                     ["memory", "batch", *audit, "--size", "4", "--seed", "0"]):
            code, doc, err = run(capsys, argv)
            assert (code, doc) == (2, None), argv
            [line] = err.splitlines()
            error = json.loads(line)["error"]
            assert error["type"] == "FormatError" and error["message"].startswith(f"{paths['memory']}: "), argv
        assert not out.exists() and not (out.parent / "variant_grids").exists()

    def test_memory_of_another_layouts_split_is_refused(self, capsys, layouts):
        """Read with the 10-5 split, the 15-1 memory's entries sit at tasks
        the split has not, or anchor classes their task does not show."""
        code, _, _ = run(capsys, ["memory", "overlap-ratio", "--memory", str(layouts["memory"]),
                                  "--split", str(layouts["15-1"]), "--task", "1"])
        assert code == 0
        self._refused(capsys, layouts, "10-5")

    @pytest.mark.parametrize("key, value", [
        ("image_id", "s"), ("saved_at", -1), ("saved_at", 10**19), ("saved_at", 40), ("anchor_class", -1),
    ])
    def test_entry_its_split_does_not_hold_is_refused(self, capsys, layouts, key, value):
        doc = json.loads(layouts["memory"].read_text())
        doc["entries"][0][key] = value
        layouts["memory"].write_text(json.dumps(doc))
        self._refused(capsys, layouts, "15-1")

    def test_batch_listing_deterministic(self, capsys, manifest_path, split_path, tmp_path):
        mem = tmp_path / "memory.json"
        run(
            capsys,
            ["memory", "sample", "--manifest", str(manifest_path), "--split", str(split_path),
             "--upto-task", "0", "--size", "4", "--seed", "1", "--out", str(mem)],
        )
        args = ["memory", "batch", "--memory", str(mem), "--split", str(split_path),
                "--task", "2", "--size", "6", "--seed", "9"]
        _, doc1, _ = run(capsys, args)
        _, doc2, _ = run(capsys, args)
        assert doc1 == doc2


class TestPseudoCommand:
    def test_writes_pseudo_grid(self, capsys, tmp_path):
        gt = LabelGrid(width=4, height=1, data=np.array([3, 0, 0, 255], dtype=np.uint8))
        prev_view = LabelGrid(width=4, height=1, data=np.array([0, 1, 0, 1], dtype=np.uint8))
        write_pgm(gt, tmp_path / "gt.pgm")
        write_scores(one_hot_scores(prev_view, (0, 1, 2)), tmp_path / "prev.scores")
        out = tmp_path / "pseudo.pgm"
        code, doc, _ = run(
            capsys,
            ["pseudo", "--gt", str(tmp_path / "gt.pgm"), "--prev-scores",
             str(tmp_path / "prev.scores"), "--current-classes", "3", "--tau", "0.5",
             "--out", str(out)],
        )
        assert code == 0
        assert read_pgm(out).data.tolist() == [3, 1, 0, 255]
        assert doc["relabeled_pixels"] == 1


    def _inputs(self, tmp_path, side: int) -> list[str]:
        """The argv of a pseudo run over a `side`×`side` grid, less --out."""
        gt = LabelGrid(width=side, height=side, data=np.zeros(side * side, dtype=np.uint8))
        write_pgm(gt, tmp_path / "gt.pgm")
        write_scores(one_hot_scores(gt, (0, 1)), tmp_path / "prev.scores", binary=True)
        return ["pseudo", "--gt", str(tmp_path / "gt.pgm"), "--prev-scores", str(tmp_path / "prev.scores"),
                "--current-classes", "2", "--tau", "0.5"]

    def test_out_in_a_missing_directory_is_a_format_error_naming_it(self, capsys, tmp_path):
        out = tmp_path / "nodir" / "pseudo.pgm"
        code, doc, err = run(capsys, [*self._inputs(tmp_path, 2), "--out", str(out)])
        assert (code, doc) == (2, None)
        error = json.loads(err)["error"]
        assert error["type"] == "FormatError" and error["message"].startswith(f"{out}: cannot write PGM file (")
        assert not (tmp_path / "nodir").exists()

    def test_write_failing_part_way_keeps_the_previous_file(self, tmp_path):
        """A 10 kB grid written under a 4 kB file-size limit."""
        argv = [*self._inputs(tmp_path, 100), "--out", str(tmp_path / "pseudo.pgm")]
        (tmp_path / "pseudo.pgm").write_bytes(b"previous")
        before = sorted(tmp_path.iterdir())
        proc = run_with_file_size_limit(["-m", "ciss.cli", *argv], 4096)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert [json.loads(line)["error"]["type"] for line in proc.stderr.splitlines()] == ["FormatError"]
        assert "File too large" in proc.stderr
        assert (tmp_path / "pseudo.pgm").read_bytes() == b"previous"
        assert sorted(tmp_path.iterdir()) == before


class TestInputsPaddedToAGibibyte:
    """Grids and score files padded to 1 GiB past what their headers declare,
    run in a child whose address space is held to 768 MiB: a reader takes the
    payload its header declares and no more, and an input that no header
    bounds, a P2 grid, fails with one JSON error line, not a traceback."""

    LIMIT = 768 << 20

    @staticmethod
    def padded(path: Path, blob: bytes) -> Path:
        path.write_bytes(blob)
        os.truncate(path, 1 << 30)  # a sparse file: the padding takes no disk
        return path

    @staticmethod
    def error(proc) -> dict:
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        return json.loads(proc.stderr)["error"]

    def test_miou_reads_the_first_raster_of_a_padded_p5_grid(self, capsys, tmp_path):
        grid = LabelGrid(500, 375, np.random.default_rng(5).integers(0, 4, 500 * 375, dtype=np.uint8))
        write_pgm(grid, tmp_path / "plain.pgm")
        self.padded(tmp_path / "padded.pgm", (tmp_path / "plain.pgm").read_bytes())
        docs = []
        for name in ("plain", "padded"):
            pairs = tmp_path / f"{name}.json"
            pairs.write_text(json.dumps([{"pred": f"{name}.pgm", "gt": f"{name}.pgm"}]))
            argv = ["eval", "miou", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3"]
            proc = run_with_memory_limit(["-m", "ciss.cli", *argv], self.LIMIT)
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            docs.append(json.loads(proc.stdout))
        assert docs[0] == docs[1] == run(capsys, argv)[1]

    def test_pseudo_refuses_a_padded_binary_payload(self, tmp_path):
        write_pgm(LabelGrid(500, 375, np.zeros(500 * 375, dtype=np.uint8)), tmp_path / "gt.pgm")
        write_scores(ScoreMatrix(class_map=range(17), logits=np.zeros((500 * 375, 17))), tmp_path / "s.scores",
                     binary=True)
        scores = self.padded(tmp_path / "s.scores", (tmp_path / "s.scores").read_bytes())
        proc = run_with_memory_limit(["-m", "ciss.cli", "pseudo", "--gt", str(tmp_path / "gt.pgm"),
                                      "--prev-scores", str(scores), "--current-classes", "1", "--tau", "0.5",
                                      "--out", str(tmp_path / "out.pgm")], self.LIMIT)
        assert self.error(proc) == {"type": "FormatError",
                                    "message": f"{scores}: payload is not {500 * 375 * 17 * 8} binary bytes"}
        assert not (tmp_path / "out.pgm").exists()

    def test_pseudo_refuses_a_padded_score_header(self, tmp_path):
        """A header line that does not end is read to its bound, not to the end of the file."""
        write_pgm(LabelGrid(1, 1, np.zeros(1, dtype=np.uint8)), tmp_path / "gt.pgm")
        scores = self.padded(tmp_path / "s.scores", b"1 1 binary\n0")
        proc = run_with_memory_limit(["-m", "ciss.cli", "pseudo", "--gt", str(tmp_path / "gt.pgm"),
                                      "--prev-scores", str(scores), "--current-classes", "1", "--tau", "0.5",
                                      "--out", str(tmp_path / "out.pgm")], self.LIMIT)
        assert self.error(proc) == {"type": "FormatError", "message": f"{scores}: truncated score header"}
        assert not (tmp_path / "out.pgm").exists()

    def test_miou_on_a_padded_p2_grid_is_one_error_line(self, tmp_path):
        self.padded(tmp_path / "g.pgm", b"P2 2 2 255\n1 2 0 0\n")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"pred": "g.pgm", "gt": "g.pgm"}]))
        proc = run_with_memory_limit(["-m", "ciss.cli", "eval", "miou", "--pairs", str(pairs), "--task", "2-1",
                                      "--class-count", "3"], self.LIMIT)
        assert self.error(proc) == {"type": "MemoryError", "message": "out of memory"}


class TestEvalCommands:
    def test_miou_perfect(self, capsys, tmp_path):
        grid = LabelGrid(width=4, height=1, data=np.array([1, 2, 3, 0], dtype=np.uint8))
        write_pgm(grid, tmp_path / "a.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"pred": "a.pgm", "gt": "a.pgm"}]))
        code, doc, _ = run(
            capsys,
            ["eval", "miou", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3"],
        )
        assert code == 0
        assert doc["miou_groups"]["all"] == 100.0
        assert doc["miou_groups_display"]["all"] == "100.00"

    @pytest.mark.parametrize(
        "flags, message",
        [(["--class-count", "0"], "class count must lie in 1..254, got 0"),
         (["--class-count", "20", "--class-order", "order.txt"],
          "class order length 3 does not match class count 20"),
         ([], "eval miou needs --class-order or --class-count"),
         (["--class-count", "-5"], "class count must lie in 1..254, got -5"),
         (["--class-count", str(10**26)], f"class count must lie in 1..254, got {10**26}")],
        ids=["count-0", "count-not-order-length", "no-count-no-order", "count-negative", "count-past-int64"],
    )
    def test_class_count_is_used_whenever_given(self, capsys, tmp_path, monkeypatch, flags, message):
        monkeypatch.chdir(tmp_path)
        write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 3, 0], dtype=np.uint8)), "a.pgm")
        Path("pairs.json").write_text(json.dumps([{"pred": "a.pgm", "gt": "a.pgm"}]))
        Path("order.txt").write_text("1\n2\n3\n")
        code, doc, err = run(capsys, ["eval", "miou", "--pairs", "pairs.json", "--task", "2-1", *flags])
        assert code == 2 and doc is None
        assert json.loads(err)["error"]["message"] == message

    @pytest.mark.parametrize(
        "flags, message",
        [(["--class-count", "-5"], "class count must lie in 1..254, got -5"),
         (["--class-count", str(10**26)], f"class count must lie in 1..254, got {10**26}")],
        ids=["count-negative", "count-past-int64"],
    )
    def test_prr_class_count_out_of_range(self, capsys, tmp_path, monkeypatch, flags, message):
        monkeypatch.chdir(tmp_path)
        write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 3, 0], dtype=np.uint8)), "a.pgm")
        Path("pairs.json").write_text(json.dumps([{"oracle": "a.pgm", "pseudo": "a.pgm"}]))
        code, doc, err = run(capsys, ["eval", "prr", "--pairs", "pairs.json", "--task", "2-1",
                                      "--current-task", "1", *flags])
        assert code == 2 and doc is None
        assert json.loads(err)["error"]["message"] == message

    def test_miou_refuses_ground_truth_ids_outside_the_layout(self, capsys, tmp_path):
        # pair 0 is in the layout; pair 1's ground truth holds class 3 of a
        # two-class layout, which no mean would count
        (tmp_path / "in.pgm").write_text("P2\n3 1\n255\n1 2 255\n")
        (tmp_path / "out.pgm").write_text("P2\n3 1\n255\n1 2 3\n")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"pred": "in.pgm", "gt": "in.pgm"}, {"pred": "out.pgm", "gt": "out.pgm"}]))
        code, doc, err = run(capsys, ["eval", "miou", "--pairs", str(pairs), "--task", "1-1", "--class-count", "2"])
        assert code == 2 and doc is None
        out = tmp_path / "out.pgm"
        assert json.loads(err)["error"]["message"] == (
            f"pair {out}, {out}: ground truth holds class id 3, outside the layout's 1..2")

    def test_miou_scores_a_predicted_id_outside_the_layout_as_a_miss(self, capsys, tmp_path):
        (tmp_path / "pred.pgm").write_text("P2\n2 1\n255\n1 3\n")
        (tmp_path / "gt.pgm").write_text("P2\n2 1\n255\n1 2\n")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"pred": "pred.pgm", "gt": "gt.pgm"}]))
        code, doc, _ = run(capsys, ["eval", "miou", "--pairs", str(pairs), "--task", "1-1", "--class-count", "2"])
        assert code == 0
        assert doc["per_class_iou"] == {"0": None, "1": 100.0, "2": 0.0}

    def test_miou_pair_passes_one_accumulate_wrapper(self, capsys, tmp_path, monkeypatch):
        """With both `ciss.cli.accumulate` and `ciss.metrics.accumulate`
        wrapped, as bench/tracing.py wraps them to count calls, each pair
        `eval miou` scores is counted once."""
        import ciss.cli
        import ciss.metrics

        write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 3, 0], dtype=np.uint8)), tmp_path / "a.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"pred": "a.pgm", "gt": "a.pgm"}] * 3))
        events = []

        def counted(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(ciss.cli, "accumulate", counted("cli", ciss.cli.accumulate))
        monkeypatch.setattr(ciss.metrics, "accumulate", counted("metrics", ciss.metrics.accumulate))
        code, doc, _ = run(capsys, ["eval", "miou", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3"])
        assert code == 0 and doc["miou_groups"]["all"] == 100.0
        assert events == ["cli"] * 3

    def test_prr_perfect(self, capsys, tmp_path):
        grid = LabelGrid(width=4, height=1, data=np.array([1, 2, 0, 0], dtype=np.uint8))
        write_pgm(grid, tmp_path / "o.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"oracle": "o.pgm", "pseudo": "o.pgm"}]))
        code, doc, _ = run(
            capsys,
            ["eval", "prr", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3",
             "--current-task", "1"],
        )
        assert code == 0
        assert doc["prr"] == 100.0
        assert doc["prr_display"] == "100.00"

    def test_prr_pair_with_no_defined_class_scores_0(self, capsys, tmp_path):
        """Old classes 1 and 2 and background occur in neither grid of the
        second pair, so that pair scores 0 and halves the perfect first."""
        write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 0, 0], dtype=np.uint8)), tmp_path / "o.pgm")
        write_pgm(LabelGrid(width=2, height=1, data=np.array([3, 255], dtype=np.uint8)), tmp_path / "new.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"oracle": "o.pgm", "pseudo": "o.pgm"},
                                     {"oracle": "new.pgm", "pseudo": "new.pgm"}]))
        code, doc, _ = run(capsys, ["eval", "prr", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3",
                                    "--current-task", "1"])
        assert code == 0
        assert (doc["prr"], doc["prr_display"]) == (50.0, "50.00")

    @pytest.mark.parametrize("current", [0, 2])
    def test_prr_current_task_error_names_the_given_task(self, capsys, tmp_path, current):
        write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 0, 0], dtype=np.uint8)), tmp_path / "o.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"oracle": "o.pgm", "pseudo": "o.pgm"}]))
        code, doc, err = run(capsys, ["eval", "prr", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3",
                                      "--current-task", str(current)])
        assert code == 2 and doc is None
        assert json.loads(err)["error"]["message"] == (
            f"--current-task {current} outside 1..1, the tasks of layout 2-1 that have old classes")

    @pytest.mark.parametrize("command, entry, keys", [
        ("prr", {"pseudo": "o.pgm"}, "'oracle' and 'pseudo'"),
        ("miou", {"pred": "o.pgm", "oracle": "o.pgm"}, "'pred' and 'gt'"),
        ("prr", "o.pgm", "'oracle' and 'pseudo'"),
        ("miou", {"pred": 5, "gt": "o.pgm"}, "'pred' and 'gt'"),
        ("miou", {"pred": "o.pgm", "gt": ""}, "'pred' and 'gt'"),
    ], ids=["prr-no-oracle", "miou-no-gt", "prr-string", "miou-number", "miou-empty-path"])
    def test_pairs_entry_error_names_the_entry_and_its_keys(self, capsys, tmp_path, command, entry, keys):
        write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 0, 0], dtype=np.uint8)), tmp_path / "o.pgm")
        pairs = tmp_path / "pairs.json"
        both = {"prr": {"oracle": "o.pgm", "pseudo": "o.pgm"}, "miou": {"pred": "o.pgm", "gt": "o.pgm"}}[command]
        pairs.write_text(json.dumps([both, entry]))
        extra = ["--current-task", "1"] if command == "prr" else []
        code, doc, err = run(capsys, ["eval", command, "--pairs", str(pairs), "--task", "2-1",
                                      "--class-count", "3", *extra])
        assert code == 2 and doc is None
        assert json.loads(err)["error"] == {"type": "FormatError",
                                            "message": f"{pairs}: pairs entry 1 needs the keys {keys}, each a path"}

    def test_pairs_file_must_be_a_list(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({"oracle": "o.pgm", "pseudo": "o.pgm"}))
        code, doc, err = run(capsys, ["eval", "prr", "--pairs", str(pairs), "--task", "2-1",
                                      "--class-count", "3", "--current-task", "1"])
        assert code == 2 and doc is None
        assert json.loads(err)["error"]["message"] == f"{pairs}: pairs file must hold a JSON list of objects"

    @pytest.mark.parametrize("command", ["miou", "prr"])
    def test_pairs_file_must_not_be_empty(self, capsys, tmp_path, command):
        pairs = tmp_path / "pairs.json"
        pairs.write_text("[]")
        extra = ["--current-task", "1"] if command == "prr" else []
        code, doc, err = run(capsys, ["eval", command, "--pairs", str(pairs), "--task", "2-1",
                                      "--class-count", "3", *extra])
        assert (code, doc) == (2, None)
        assert json.loads(err)["error"] == {"type": "ValidationError", "message": f"{pairs}: pairs file is empty"}

    def test_prr_reads_and_scores_one_pair_at_a_time(self, capsys, tmp_path, monkeypatch):
        import ciss.cli
        import ciss.metrics

        grid = LabelGrid(width=4, height=1, data=np.array([1, 2, 0, 0], dtype=np.uint8))
        write_pgm(grid, tmp_path / "o.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"oracle": "o.pgm", "pseudo": "o.pgm"}] * 3))
        events = []

        def logged(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(ciss.cli, "read_pgm", logged("read", ciss.cli.read_pgm))
        monkeypatch.setattr(ciss.metrics, "accumulate", logged("score", ciss.metrics.accumulate))
        code, doc, _ = run(
            capsys,
            ["eval", "prr", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3",
             "--current-task", "1"],
        )
        assert code == 0 and doc["prr"] == 100.0
        assert events == ["read", "read", "score"] * 3

    def test_prr_reports_the_first_faulty_pair(self, capsys, tmp_path):
        # pair 0 has mismatched sizes, pair 1 a missing file; pairs are
        # scored as they are read, so the size mismatch is reported
        write_pgm(LabelGrid(width=2, height=1, data=np.array([1, 0], dtype=np.uint8)), tmp_path / "a.pgm")
        write_pgm(LabelGrid(width=3, height=1, data=np.array([1, 0, 0], dtype=np.uint8)), tmp_path / "b.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"oracle": "a.pgm", "pseudo": "b.pgm"},
                                     {"oracle": "a.pgm", "pseudo": "absent.pgm"}]))
        code, doc, err = run(
            capsys,
            ["eval", "prr", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3",
             "--current-task", "1"],
        )
        assert code == 2 and doc is None
        assert json.loads(err)["error"]["message"] == "prediction 3x1 does not match ground truth 2x1"


class TestLossCommands:
    @pytest.fixture
    def case_path(self, tmp_path):
        scores = ScoreMatrix(class_map=(0, 1, 2, 3), logits=np.zeros((1, 4)))
        write_scores(scores, tmp_path / "s.scores")
        write_pgm(LabelGrid(width=1, height=1, data=np.zeros(1, dtype=np.uint8)), tmp_path / "l.pgm")
        doc = {
            "layout": {"old": [1], "new": [2, 3]},
            "config": {"lambda": 0.0, "gamma": 1.0},
            "items": [{"source": "current", "scores": "s.scores", "labels": "l.pgm"}],
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        return path

    def test_value_matches_closed_form(self, capsys, case_path):
        code, doc, _ = run(capsys, ["loss", "value", "--case", str(case_path), "--loss", "ce_current"])
        assert code == 0
        assert doc["loss"] == pytest.approx(np.log(2.0), abs=1e-12)
        assert doc["loss_display"] == "0.69"
        code, doc, _ = run(capsys, ["loss", "value", "--case", str(case_path), "--loss", "memory_augmented"])
        assert code == 0
        assert doc["loss"] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradcheck_passes_and_fails_by_tolerance(self, capsys, case_path):
        code, doc, _ = run(capsys, ["loss", "gradcheck", "--case", str(case_path), "--loss", "ce_current"])
        assert code == 0
        assert doc["passed"] is True
        assert doc["max_rel_err"] < 1e-6
        code, doc, _ = run(
            capsys,
            ["loss", "gradcheck", "--case", str(case_path), "--loss", "ce_current",
             "--tol", "1e-18"],
        )
        assert code == 3
        assert doc["passed"] is False

    def test_unknown_loss_id(self, capsys, case_path):
        code, _, err = run(capsys, ["loss", "value", "--case", str(case_path), "--loss", "bogus"])
        assert code == 2
        assert "error" in json.loads(err)
        assert len(err.splitlines()) == 1
        message = json.loads(err)["error"]["message"]
        assert all(lid in message for lid in losses.ATOMIC_LOSSES + losses.COMPOSITE_LOSSES)
        code, _, err = run(capsys, ["loss", "gradcheck", "--case", str(case_path), "--loss", "memory_augmented"])
        assert code == 2
        assert all(lid in json.loads(err)["error"]["message"] for lid in losses.ATOMIC_LOSSES)

    @pytest.mark.parametrize("loss_id, called", [("ce_current", "loss_value"),
                                                 *((lid, f"{lid}_objective") for lid in losses.COMPOSITE_LOSSES)])
    def test_value_reaches_the_loss_through_cli_L(self, capsys, tmp_path, monkeypatch, loss_id, called):
        """Every loss call goes through the attributes of ciss.cli.L, which a
        traced benchmark run replaces with a stand-in carrying its spans."""
        calls = []

        class Recording:
            def __getattr__(self, name):
                fn = getattr(losses, name)
                if name != "loss_value" and not name.endswith("_objective"):
                    return fn

                def recorded(*args, **kwargs):
                    calls.append(name)
                    return fn(*args, **kwargs)

                return recorded

        path = tmp_path / "case.json"
        path.write_text(json.dumps(_case_24(tmp_path)))
        monkeypatch.setattr("ciss.cli.L", Recording())
        code, doc, err = run(capsys, ["loss", "value", "--case", str(path), "--loss", loss_id])
        assert code == 0, err
        assert calls == [called]
        assert doc["loss_id"] == loss_id


def _case_24(tmp_path) -> dict:
    """A 24-pixel loss case with one current and one memory item."""
    rng = np.random.default_rng(3)
    items = []
    for i, (source, ids) in enumerate((("current", (0, 2, 3, 255)), ("memory", (0, 1, 255)))):
        write_scores(ScoreMatrix(class_map=(0, 1, 2, 3), logits=rng.normal(size=(24, 4))), tmp_path / f"s{i}.scores")
        write_scores(ScoreMatrix(class_map=(0, 1), logits=rng.normal(size=(24, 2))), tmp_path / f"p{i}.scores")
        labels = np.array([ids[j % len(ids)] for j in range(24)], dtype=np.uint8)
        write_pgm(LabelGrid(width=6, height=4, data=labels), tmp_path / f"l{i}.pgm")
        items.append({"source": source, "scores": f"s{i}.scores", "prev_scores": f"p{i}.scores",
                      "labels": f"l{i}.pgm", "kd": 0.3, "dkd": 0.4, "ac": 0.2, "pod": 0.1})
    return {"layout": {"old": [1], "new": [2, 3]},
            "config": {"lambda": 5.0, "gamma": 1.0, "alpha": 0.5, "beta": 0.5, "kd_includes_bg": True},
            "items": items}


def _set(path, value):
    def edit(doc):
        *parents, key = path
        for step in parents:
            doc = doc[step]
        doc[key] = value
    return edit


VALUE = ["loss", "value", "--loss", "memory_augmented"]
GRADCHECK = ["loss", "gradcheck", "--loss", "ce_current"]


class TestLossCaseContract:
    """Malformed loss cases and gradcheck arguments exit 2 with one JSON
    error on stderr, never a traceback."""

    def test_well_formed_case_runs(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(_case_24(tmp_path)))
        for argv in (VALUE, ["loss", "value", "--loss", "bce_replay"], GRADCHECK):
            proc = subprocess.run([sys.executable, "-m", "ciss.cli", *argv, "--case", str(path)],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "edit, argv",
        [
            (_set(("items", 0, "kd"), "x"), VALUE),
            (_set(("items", 0, "pod"), [1]), VALUE),
            (_set(("items", 1, "dkd"), float("nan")), VALUE),
            (_set(("items", 0, "ac"), float("inf")), VALUE),
            (_set(("config", "lambda"), "abc"), VALUE),
            (_set(("config", "lambda"), float("nan")), VALUE),
            (_set(("config", "gamma"), float("inf")), VALUE),
            (_set(("config", "kd_includes_bg"), "false"), VALUE),
            (_set(("config",), []), VALUE),
            (_set(("layout", "old"), ["a"]), VALUE),
            (_set(("layout", "new"), [2.5, 3]), VALUE),
            (None, GRADCHECK + ["--samples", "0"]),
            (None, GRADCHECK + ["--samples", "-1"]),
            (None, GRADCHECK + ["--tol", "-1"]),
            (None, GRADCHECK + ["--tol", "nan"]),
            (None, GRADCHECK + ["--tol", "inf"]),
            (None, GRADCHECK + ["--samples", "abc"]),
            (None, GRADCHECK + ["--seed", "-1"]),
        ],
        ids=["kd-string", "pod-list", "dkd-nan", "ac-inf", "lambda-string", "lambda-nan",
             "gamma-inf", "kd_includes_bg-string", "config-list", "old-string-id", "new-float-id",
             "samples-0", "samples-negative", "tol-negative", "tol-nan", "tol-inf", "samples-not-int",
             "seed-negative"],
    )
    def test_exits_2_with_one_json_error(self, tmp_path, edit, argv):
        doc = _case_24(tmp_path)
        if edit is not None:
            edit(doc)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        _assert_one_json_error([*argv, "--case", str(path)])

    @pytest.mark.parametrize("edit, what, unknown, known", [
        (lambda doc: doc.update(confg=doc.pop("config")), "loss case", "confg", ["layout", "config", "items"]),
        (lambda doc: doc["layout"].update(older=[4]), "layout", "older", ["old", "new"]),
        (lambda doc: doc["config"].update(lamda=doc["config"].pop("lambda")), "config", "lamda",
         ["lambda", "gamma", "alpha", "beta", "kd_includes_bg"]),
        (lambda doc: doc["items"][1].update(sourse=doc["items"][1].pop("source")), "loss case item", "sourse",
         ["source", "scores", "labels", "prev_scores", "kd", "dkd", "ac", "pod"]),
    ], ids=["top-level", "layout", "config", "item"])
    def test_unknown_key_exits_2_naming_the_file_and_the_keys(self, capsys, tmp_path, edit, what, unknown, known):
        """A misspelt key is refused, not read as a missing one: `lamda` would
        leave lambda at 0, `confg` every weight at its default and `sourse`
        a memory item on the current side."""
        doc = _case_24(tmp_path)
        edit(doc)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [*VALUE, "--case", str(path)])
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == {
            "type": "FormatError",
            "message": f"{path}: cannot read loss case ({what} holds unknown keys {[unknown]}; it takes {known})"}

    @pytest.mark.parametrize("side", ["old", "new"])
    @pytest.mark.parametrize("class_id", [0, 255, 300, -1])
    def test_layout_id_outside_1_to_254_exits_2(self, tmp_path, side, class_id):
        """pseudo_replay scores its items without the layout's class check,
        so a layout id no score map could hold is refused when the case loads."""
        doc = _case_24(tmp_path)
        doc["layout"][side].append(class_id)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        _assert_one_json_error(["loss", "value", "--loss", "pseudo_replay", "--case", str(path)])

    def test_non_finite_loss_exits_2(self, tmp_path):
        """A loss that overflows, in a composite's weights or in an atomic
        loss's logits, is an error, not `Infinity` or `NaN` on stdout."""
        doc = _case_24(tmp_path)
        doc["config"]["lambda"] = 1e308
        doc["items"][0]["pod"] = 10.0
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        _assert_one_json_error(["loss", "value", "--loss", "pseudo_replay", "--case", str(path)])
        # pixel 1 of item 0 is labeled 2, whose logit sits 2e308 below the max
        logits = np.zeros((24, 4))
        logits[1] = [1e308, -1e308, -1e308, -1e308]
        write_scores(ScoreMatrix(class_map=(0, 1, 2, 3), logits=logits), tmp_path / "s0.scores")
        for argv in (["loss", "value", "--loss", "ce_current"], GRADCHECK):
            _assert_one_json_error([*argv, "--case", str(path)])

    def test_non_finite_loss_names_the_loss(self, capsys, tmp_path):
        doc = _case_24(tmp_path)
        doc["config"]["lambda"] = 1e308
        doc["items"][0]["pod"] = 10.0
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["loss", "value", "--loss", "pseudo_replay", "--case", str(path)])
        assert (code, out) == (2, None)
        assert json.loads(err)["error"] == {"type": "ValidationError",
                                            "message": "pseudo_replay: loss is not finite (inf)"}

    def test_nan_in_a_document_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(_case_24(tmp_path)))
        nan_report = losses.GradCheckReport("ce_current", 1.0, float("nan"), 1, 1e-5, 1e-6, False)
        monkeypatch.setattr(losses, "grad_check", lambda *args, **kwargs: nan_report)
        code, doc, err = run(capsys, [*GRADCHECK, "--case", str(path)])
        assert (code, doc) == (2, None)
        assert len(err.splitlines()) == 1 and set(json.loads(err)) == {"error"}

    @pytest.mark.parametrize("command", ["value", "gradcheck"])
    def test_zero_pixel_distillation_exits_2(self, tmp_path, command):
        write_scores(ScoreMatrix(class_map=(0, 1, 2, 3), logits=np.zeros((0, 4))), tmp_path / "s.scores")
        write_scores(ScoreMatrix(class_map=(0, 1), logits=np.zeros((0, 2))), tmp_path / "p.scores")
        doc = {"layout": {"old": [1], "new": [2, 3]},
               "items": [{"source": "current", "scores": "s.scores", "prev_scores": "p.scores"}]}
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        _assert_one_json_error(["loss", command, "--loss", "kd_old", "--case", str(path)])


class TestLossCaseReads:
    """A command reads the files of the items and the parts of them that its
    loss scores, and nothing when --item is out of range."""

    @pytest.fixture
    def case(self, tmp_path, monkeypatch):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(_case_24(tmp_path)))
        reads = {"scores": 0, "grids": 0}

        def counted(key, read):
            def wrapper(file):
                reads[key] += 1
                return read(file)
            return wrapper

        monkeypatch.setattr(losses, "read_scores", counted("scores", losses.read_scores))
        monkeypatch.setattr(losses, "read_pgm", counted("grids", losses.read_pgm))
        return path, reads

    @pytest.mark.parametrize(
        "argv, scores, grids",
        [(["--loss", "ce_current", "--item", "0"], 1, 1),
         (["--loss", "kd_old", "--item", "0"], 2, 0),
         (["--loss", "memory_augmented"], 4, 2),
         (["--loss", "bce_replay"], 2, 2),
         (["--loss", "pseudo_replay"], 2, 2)],
        ids=["ce_current", "kd_old", "memory_augmented", "bce_replay", "pseudo_replay"],
    )
    def test_reads_only_scored_files(self, capsys, case, argv, scores, grids):
        path, reads = case
        code, _, err = run(capsys, ["loss", "value", "--case", str(path), *argv])
        assert code == 0, err
        assert reads == {"scores": scores, "grids": grids}

    def test_item_out_of_range_reads_nothing(self, capsys, case):
        path, reads = case
        argv = ["loss", "value", "--case", str(path), "--loss", "ce_current", "--item", "5"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert set(json.loads(err)) == {"error"}
        assert reads == {"scores": 0, "grids": 0}

    @pytest.mark.parametrize("loss_id", COMPOSITE_LOSSES)
    def test_composite_refuses_item_before_reading(self, capsys, case, loss_id):
        """A composite scores every item, so an --item it would ignore is
        refused before the case file, made unreadable here, is read."""
        path, reads = case
        path.write_text("not json")
        code, _, err = run(capsys, ["loss", "value", "--case", str(path), "--loss", loss_id, "--item", "0"])
        assert code == 2
        assert json.loads(err)["error"]["message"] == (
            f"--item selects the item of an atomic loss; {loss_id} scores every item")
        assert reads == {"scores": 0, "grids": 0}

    def test_broken_unscored_item_is_not_read(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(_case_24(tmp_path)))
        argv = ["loss", "value", "--case", str(path), "--loss", "ce_current"]
        code, intact, _ = run(capsys, [*argv, "--item", "0"])
        assert code == 0
        blob = (tmp_path / "s1.scores").read_bytes()
        (tmp_path / "s1.scores").write_bytes(blob[: len(blob) // 2])
        code, doc, err = run(capsys, [*argv, "--item", "0"])
        assert code == 0, err
        assert doc == intact
        _assert_one_json_error([*argv, "--item", "1"])
        _assert_one_json_error(["loss", "value", "--case", str(path), "--loss", "bce_replay"])


def _assert_one_json_error(argv):
    """Run the CLI as a child: exit 2, nothing on stdout, one JSON error line
    on stderr and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "ciss.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


def _edit_manifest(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def _manifest_labels_int(tmp, manifest, spec):
    path = _edit_manifest(manifest, lambda doc: doc["images"][0].update(labels=5))
    return ["build", "--manifest", str(path), "--scenario", "overlapped", "--task", "1-1",
            "--out", str(tmp / "s.json")]


def _manifest_id_int(tmp, manifest, spec):
    path = _edit_manifest(manifest, lambda doc: doc["images"][0].update(id=5))
    return ["build", "--manifest", str(path), "--scenario", "overlapped", "--task", "1-1",
            "--out", str(tmp / "s.json")]


def _manifest_class_count_255(tmp, manifest, spec):
    path = _edit_manifest(manifest, lambda doc: doc.update(class_count=255))
    return ["build", "--manifest", str(path), "--scenario", "overlapped", "--task", "250-5",
            "--out", str(tmp / "s.json")]


def _manifest_grid_missing(tmp, manifest, spec):
    doc = json.loads(manifest.read_text())
    (manifest.parent / doc["images"][2]["labels"]).unlink()
    return ["build", "--manifest", str(manifest), "--scenario", "overlapped", "--task", "1-1",
            "--out", str(tmp / "s.json")]


def _eval_class_count_255(tmp, manifest, spec):
    write_pgm(LabelGrid(width=2, height=1, data=np.array([1, 0], dtype=np.uint8)), tmp / "a.pgm")
    (tmp / "pairs.json").write_text(json.dumps([{"pred": "a.pgm", "gt": "a.pgm"}]))
    return ["eval", "miou", "--pairs", str(tmp / "pairs.json"), "--task", "250-5",
            "--class-count", "255"]


def _split_assignment_string(tmp, manifest, spec):
    path = tmp / "split.json"
    save_split(build_partitioned(load_manifest(manifest), spec, seed=1), path)
    _edit_manifest(path, lambda doc: doc["assignments"].update(Img1="x"))
    return ["memory", "sample", "--manifest", str(manifest), "--split", str(path),
            "--upto-task", "0", "--size", "2", "--seed", "0", "--out", str(tmp / "m.json")]


def _pseudo_classes(value):
    def argv(tmp, manifest, spec):
        gt = LabelGrid(width=2, height=1, data=np.array([3, 0], dtype=np.uint8))
        write_pgm(gt, tmp / "gt.pgm")
        write_scores(one_hot_scores(gt, (0, 3)), tmp / "prev.scores")
        return ["pseudo", "--gt", str(tmp / "gt.pgm"), "--prev-scores", str(tmp / "prev.scores"),
                "--current-classes", value, "--tau", "0.5", "--out", str(tmp / "p.pgm")]
    return argv


UNDECODABLE = b"\xff\xfe{"
DEEP = b"[" * 200_000 + b"]" * 200_000


def _artifacts(tmp, manifest, spec):
    """A valid overlapped split and a memory sampled from it, next to the manifest."""
    split, memory = tmp / "split.json", tmp / "memory.json"
    loaded = load_manifest(manifest)
    save_split(build_overlapped(loaded, spec), split)
    over = load_split(split)
    save_memory(sample_class_balanced(over, loaded, 0, 2, 0), memory, loaded, over.spec)
    return split, memory


def _bad_file(kind, blob):
    """A command that reads a `kind` file holding `blob`; its other inputs are valid."""
    def argv(tmp, manifest, spec):
        split, _ = _artifacts(tmp, manifest, spec)
        bad = tmp / f"bad_{kind}"
        bad.write_bytes(blob)
        return {
            "manifest": ["build", "--manifest", str(bad), "--scenario", "overlapped", "--task", "1-1",
                         "--out", str(tmp / "s.json")],
            "split": ["memory", "sample", "--manifest", str(manifest), "--split", str(bad),
                      "--upto-task", "0", "--size", "2", "--seed", "0", "--out", str(tmp / "m.json")],
            "memory": ["memory", "overlap-ratio", "--memory", str(bad), "--split", str(split),
                       "--task", "1"],
            "pairs": ["eval", "miou", "--pairs", str(bad), "--task", "1-1", "--class-count", "3"],
            "case": ["loss", "value", "--loss", "ce_current", "--case", str(bad)],
            "class-order": ["build", "--manifest", str(manifest), "--scenario", "overlapped",
                            "--task", "1-1", "--class-order", str(bad), "--out", str(tmp / "s.json")],
        }[kind]
    return argv


def _class_order_missing(tmp, manifest, spec):
    return ["build", "--manifest", str(manifest), "--scenario", "overlapped", "--task", "1-1",
            "--class-order", str(tmp / "missing.txt"), "--out", str(tmp / "s.json")]


def _memory_field(edit):
    """`memory overlap-ratio` on a valid memory file changed by `edit`."""
    def argv(tmp, manifest, spec):
        split, memory = _artifacts(tmp, manifest, spec)
        _edit_manifest(memory, edit)
        return ["memory", "overlap-ratio", "--memory", str(memory), "--split", str(split), "--task", "1"]
    return argv


def _split_field(edit):
    """`memory sample` from a valid overlapped split file changed by `edit`."""
    def argv(tmp, manifest, spec):
        split, _ = _artifacts(tmp, manifest, spec)
        _edit_manifest(split, edit)
        return ["memory", "sample", "--manifest", str(manifest), "--split", str(split),
                "--upto-task", "0", "--size", "2", "--seed", "0", "--out", str(tmp / "m.json")]
    return argv


# non-strings in string fields; tuple() and str() would turn all but the labels path into ids
_NON_STRING_FIELDS = {
    "split-image-ids-string": _split_field(lambda doc: doc["tasks"][0].update(image_ids="img00")),
    "split-image-ids-int": _split_field(lambda doc: doc["tasks"][0].update(image_ids=[1, 2])),
    "memory-image-id-int": _memory_field(lambda doc: doc["entries"][0].update(image_id=12345)),
    "memory-labels-path-int": _memory_field(lambda doc: doc["entries"][0].update(labels_path=5)),
    "memory-warnings-string": _memory_field(lambda doc: doc.update(warnings="supply exhausted")),
}

# non-integers in integer fields; all but the string would pass through int() as valid values
_NON_INTEGER_FIELDS = {
    "memory-saved-at-string": _memory_field(lambda doc: doc["entries"][0].update(saved_at="x")),
    "memory-saved-at-float": _memory_field(lambda doc: doc["entries"][0].update(saved_at=0.9)),
    "memory-anchor-class-bool": _memory_field(lambda doc: doc["entries"][0].update(anchor_class=True)),
    "memory-capacity-float": _memory_field(lambda doc: doc.update(capacity=2.7)),
    "split-base-count-bool": _split_field(lambda doc: doc.update(base_count=True)),
    "split-step-bool": _split_field(lambda doc: doc.update(step=True)),
    "split-class-order-float": _split_field(lambda doc: doc.update(class_order=[1.9, 2, 3])),
    "split-task-t-bool": _split_field(lambda doc: doc["tasks"][1].update(t=True)),
    "split-task-classes-float": _split_field(lambda doc: doc["tasks"][1].update(classes=[2.0])),
}


def _pseudo_scores_missing(tmp, manifest, spec):
    argv = _pseudo_classes("3")(tmp, manifest, spec)
    (tmp / "prev.scores").unlink()
    return argv


def _pseudo_scores(blob):
    """`pseudo` whose previous-model score file holds `blob`."""
    def argv(tmp, manifest, spec):
        argv = _pseudo_classes("3")(tmp, manifest, spec)
        (tmp / "prev.scores").write_bytes(blob)
        return argv
    return argv


def _case_scores_missing(tmp, manifest, spec):
    doc = _case_24(tmp)
    doc["items"][0]["scores"] = "missing.scores"
    (tmp / "case.json").write_text(json.dumps(doc))
    return ["loss", "value", "--loss", "ce_current", "--case", str(tmp / "case.json")]


def _build_flags_missing(tmp, manifest, spec):
    return ["build", "--manifest", "x"]


def _build_out_unwritable(tmp, manifest, spec):
    return ["build", "--manifest", str(manifest), "--scenario", "overlapped", "--task", "1-1",
            "--out", str(tmp / "nodir" / "s.json")]


def _memory_out_unwritable(tmp, manifest, spec):
    split, _ = _artifacts(tmp, manifest, spec)
    (tmp / "afile").write_text("")
    return ["memory", "sample", "--manifest", str(manifest), "--split", str(split), "--upto-task", "0",
            "--size", "2", "--seed", "0", "--out", str(tmp / "afile" / "m.json")]


def _pseudo_out_unwritable(tmp, manifest, spec):
    argv = _pseudo_classes("3")(tmp, manifest, spec)
    argv[-1] = str(tmp / "nodir" / "p.pgm")
    return argv


class TestLoaderContract:
    """Malformed, unreadable or unwritable files and bad class ids exit 2 with
    one JSON error on stderr, never a traceback, and never let 255 become a
    class."""

    @pytest.mark.parametrize(
        "make_argv",
        [_manifest_labels_int, _manifest_id_int, _manifest_class_count_255, _manifest_grid_missing,
         _eval_class_count_255, _split_assignment_string, _pseudo_classes("300"),
         _pseudo_classes("3,255"), _pseudo_classes("-1"), _pseudo_classes(""), _pseudo_classes(","),
         *(_bad_file(kind, UNDECODABLE) for kind in ("manifest", "split", "memory", "pairs")),
         *(_bad_file(kind, DEEP) for kind in ("manifest", "split", "memory", "pairs", "case")),
         _class_order_missing, _bad_file("class-order", b"\xff\n"), *_NON_INTEGER_FIELDS.values(),
         *_NON_STRING_FIELDS.values(),
         _pseudo_scores_missing, _pseudo_scores(b"-1 0\n\n"), _pseudo_scores(b"2 2\n0 3\n0.9 0.1 0.2 0.8\n"),
         _pseudo_scores(b"2 2\n0 300\n0.0 5.0\n0.0 5.0\n"), _pseudo_scores(b"2 2\n0 255\n0.0 5.0\n0.0 5.0\n"),
         _case_scores_missing, _build_flags_missing,
         _build_out_unwritable, _memory_out_unwritable, _pseudo_out_unwritable],
        ids=["labels-int", "id-int", "class-count-255", "grid-missing", "eval-class-count-255",
             "assignment-string", "current-classes-300", "current-classes-255", "current-classes-negative",
             "current-classes-empty", "current-classes-comma",
             "manifest-undecodable", "split-undecodable", "memory-undecodable", "pairs-undecodable",
             "manifest-deep", "split-deep", "memory-deep", "pairs-deep", "case-deep",
             "class-order-missing", "class-order-undecodable", *_NON_INTEGER_FIELDS, *_NON_STRING_FIELDS,
             "pseudo-scores-missing", "scores-negative-rows", "scores-one-line",
             "scores-class-300", "scores-class-255", "case-scores-missing",
             "build-flags-missing", "build-out-unwritable", "memory-out-unwritable",
             "pseudo-out-unwritable"],
    )
    def test_exits_2_with_one_json_error(self, tmp_path, manifest_path, fig3_spec, make_argv):
        _assert_one_json_error(make_argv(tmp_path, manifest_path, fig3_spec))


@pytest.mark.parametrize("command", ["memory sample", "memory variant", "memory batch"])
def test_negative_seed_exits_2(capsys, tmp_path, manifest_path, fig3_spec, command):
    """random.Random(-3) draws the stream of random.Random(3), so --seed -3
    would print what --seed 3 prints."""
    argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)[command]
    argv[argv.index("--seed") + 1] = "-3"
    code, doc, err = run(capsys, argv)
    assert (code, doc) == (2, None)
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": {"type": "ValidationError", "message": "seed must be >= 0, got -3"}}


class TestProcessLevel:
    def test_usage_error_exits_2(self, capsys):
        code, doc, err = run(capsys, ["build", "--scenario", "overlapped"])  # missing required flags
        assert code == 2
        assert doc is None
        assert set(json.loads(err)) == {"error"}

    def test_import_leaves_statistics_out(self):
        """statistics, and with it fractions and decimal, cost every command's start-up."""
        code = "import sys, ciss.cli; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_calls_in_one_process_share_one_parser(self, capsys, tmp_path, manifest_path):
        """Commands run one after another in a process, a usage error between
        them, each dispatch to their own handler on the one cached parser."""
        assert build_parser() is build_parser()
        write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 0, 0], dtype=np.uint8)), tmp_path / "o.pgm")
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([{"oracle": "o.pgm", "pseudo": "o.pgm"}]))
        prr = ["eval", "prr", "--pairs", str(pairs), "--task", "2-1", "--class-count", "3", "--current-task", "1"]
        build = ["build", "--manifest", str(manifest_path), "--scenario", "overlapped", "--task", "1-1",
                 "--out", str(tmp_path / "split.json")]
        code, doc, err = run(capsys, prr)
        assert (code, doc["prr"], err) == (0, 100.0, "")
        code, doc, err = run(capsys, ["eval", "prr", "--task", "2-1"])
        assert (code, doc) == (2, None)
        assert json.loads(err)["error"]["message"].startswith("ciss eval prr: the following arguments are required")
        code, doc, err = run(capsys, build)
        assert (code, doc["task_counts"], err) == (0, [4, 2, 3], "")
        code, doc, err = run(capsys, prr)
        assert (code, doc["prr"], err) == (0, 100.0, "")

    def test_help_exits_0(self):
        proc = subprocess.run([sys.executable, "-m", "ciss.cli", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ciss")
        assert proc.stderr == ""

    def test_module_entry_point(self, manifest_path, tmp_path):
        out = tmp_path / "split.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ciss.cli", "build", "--manifest", str(manifest_path),
             "--scenario", "overlapped", "--task", "1-1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["task_counts"] == [4, 2, 3]


def _leaf_commands(tmp, manifest, spec) -> dict[str, list[str]]:
    """One valid invocation of every leaf command."""
    split, memory = _artifacts(tmp, manifest, spec)
    write_pgm(LabelGrid(width=4, height=1, data=np.array([1, 2, 3, 0], dtype=np.uint8)), tmp / "a.pgm")
    (tmp / "miou.json").write_text(json.dumps([{"pred": "a.pgm", "gt": "a.pgm"}]))
    (tmp / "prr.json").write_text(json.dumps([{"oracle": "a.pgm", "pseudo": "a.pgm"}]))
    (tmp / "case.json").write_text(json.dumps(_case_24(tmp)))
    audit = ["--memory", str(memory), "--split", str(split), "--task", "1"]
    layout = ["--task", "2-1", "--class-count", "3"]
    case = ["--case", str(tmp / "case.json"), "--loss", "ce_current"]
    return {
        "build": ["build", "--manifest", str(manifest), "--scenario", "overlapped", "--task", "1-1",
                  "--out", str(tmp / "s.json")],
        "memory sample": ["memory", "sample", "--manifest", str(manifest), "--split", str(split),
                          "--upto-task", "0", "--size", "2", "--seed", "0", "--out", str(tmp / "m.json")],
        "memory overlap-ratio": ["memory", "overlap-ratio", *audit],
        "memory variant": ["memory", "variant", *audit, "--manifest", str(manifest), "--seed", "2",
                           "--out", str(tmp / "v.json")],
        "memory batch": ["memory", "batch", *audit, "--size", "4", "--seed", "3"],
        "pseudo": _pseudo_classes("3")(tmp, manifest, spec),
        "eval miou": ["eval", "miou", "--pairs", str(tmp / "miou.json"), *layout],
        "eval prr": ["eval", "prr", "--pairs", str(tmp / "prr.json"), *layout, "--current-task", "1"],
        "loss value": ["loss", "value", *case],
        "loss gradcheck": ["loss", "gradcheck", *case],
    }


class TestDocuments:
    """Every leaf command exits 0 with one JSON document on stdout, ending in
    a newline, nothing on stderr, and the document's keys as published."""

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("build", {"out", "pairwise_overlaps", "scenario", "task_counts"}),
            ("memory sample", {"capacity", "out", "stored", "warnings"}),
            ("memory overlap-ratio", {"overlap_ratio", "overlap_ratio_display"}),
            ("memory variant", {"out", "overlap_ratio", "overlap_ratio_display", "warnings"}),
            ("memory batch", {"items", "n_current", "n_memory", "warnings"}),
            ("pseudo", {"out", "relabeled_pixels", "tau"}),
            ("eval miou", {"miou_groups", "miou_groups_display", "per_class_iou"}),
            ("eval prr", {"prr", "prr_display"}),
            ("loss value", {"loss", "loss_display", "loss_id"}),
            ("loss gradcheck", {"coords_checked", "loss", "loss_display", "loss_id", "max_rel_err", "passed",
                                "step", "tol"}),
        ],
    )
    def test_one_document(self, capsys, tmp_path, manifest_path, fig3_spec, command, keys):
        code = main(_leaf_commands(tmp_path, manifest_path, fig3_spec)[command])
        out, err = capsys.readouterr()
        doc, end = json.JSONDecoder().raw_decode(out)
        assert (code, out[end:], err) == (0, "\n", "")
        assert set(doc) == keys


# runs ciss.cli as `python -m ciss.cli` does, then prints `{report}` on stderr as
# the entry exits: through `os._exit`, which no `finally` or atexit hook outlives
AT_EXIT = """
import os, runpy, sys
def _exit(code, _exit=os._exit):
    print({report}, file=sys.stderr, flush=True)
    _exit(code)
os._exit = _exit
runpy.run_module("ciss.cli", run_name="__main__", alter_sys=True)
"""
LIST_MODULES = AT_EXIT.format(report='" ".join(sorted(sys.modules))')


def _imported(argv: list[str]) -> set[str]:
    """The modules a CLI child has loaded when it exits."""
    proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


class TestImports:
    """A command imports only the modules it calls."""

    # names of `ciss` submodules, and numpy, which the grid-only commands never need
    NOT_LOADED = {
        "build": {"losses", "scores", "metrics", "numpy"},
        "memory sample": {"losses", "scores", "metrics", "numpy"},
        "memory overlap-ratio": {"losses", "scores", "metrics", "numpy"},
        "memory variant": {"losses", "scores", "metrics", "numpy"},
        "memory batch": {"losses", "scores", "metrics", "numpy"},
        "pseudo": {"losses", "memory", "scenario", "manifest", "metrics"},
        "eval miou": {"losses", "scores", "memory", "scenario", "manifest"},
        "eval prr": {"losses", "scores", "memory", "scenario", "manifest"},
        "loss value": {"memory", "scenario", "manifest", "metrics"},
        "loss gradcheck": {"memory", "scenario", "manifest", "metrics"},
    }

    def test_not_loaded_names_are_submodules(self):
        """A name that is no module of the package would pass unchecked."""
        import ciss

        names = set().union(*self.NOT_LOADED.values()) - {"numpy"}
        assert names <= set(ciss._SUBMODULES)

    def test_cli_looks_up_library_names_but_no_dunders_in_the_package(self):
        """`ciss.cli` takes a library name it does not bind from `ciss`, but
        not `__path__` or `__all__`, which would make it look like a package
        and make `from ciss.cli import *` load every module."""
        import ciss
        import ciss.cli

        assert ciss.cli.load_split is ciss.load_split
        assert not hasattr(ciss.cli, "__path__") and not hasattr(ciss.cli, "__all__")

    @pytest.mark.parametrize("command", sorted(NOT_LOADED))
    def test_command_loads_only_what_it_calls(self, tmp_path, manifest_path, fig3_spec, command):
        modules = _imported(_leaf_commands(tmp_path, manifest_path, fig3_spec)[command])
        assert "ciss" in modules  # ciss.cli itself runs as __main__
        assert not {name if name == "numpy" else f"ciss.{name}" for name in self.NOT_LOADED[command]} & modules
        # only partitioned builds hash; gradcheck samples its coordinates with
        # `random`, not numpy.random, whose import loads hashlib (through secrets)
        assert not {"hashlib", "numpy.random"} & modules

    @pytest.mark.parametrize("command", sorted(c for c, names in NOT_LOADED.items() if "numpy" in names))
    def test_grid_only_command_runs_without_numpy(self, tmp_path, manifest_path, fig3_spec, command):
        """With numpy unimportable, the command prints the same document and
        writes the same files as a normal run."""
        argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)[command]

        def run_and_read(setup: str = "") -> tuple:
            code = f"import runpy, sys; {setup}runpy.run_module('ciss.cli', run_name='__main__', alter_sys=True)"
            proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True)
            files = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
            return proc.returncode, proc.stdout, proc.stderr, files

        code, out, err, files = run_and_read()
        assert (code, err) == (0, b"")
        assert run_and_read("sys.modules['numpy'] = None; ") == (code, out, err, files)

    def test_only_partitioned_builds_load_hashlib(self, tmp_path, manifest_path):
        build = ["build", "--manifest", str(manifest_path), "--task", "1-1"]
        assert "hashlib" in _imported([*build, "--scenario", "partitioned", "--seed", "0",
                                       "--out", str(tmp_path / "p.json")])
        assert "hashlib" not in _imported([*build, "--scenario", "disjoint", "--out", str(tmp_path / "d.json")])

    def test_importtime_lists_the_modules_a_command_loads(self, tmp_path, manifest_path, fig3_spec):
        argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)["eval miou"]
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ciss.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        listed = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()}
        assert {"ciss.metrics", "ciss.pgm", "ciss.tasks"} <= listed
        assert {m for m in listed if m.startswith("ciss.")} == {m for m in _imported(argv) if m.startswith("ciss.")}

    def test_importtime_lists_the_module_a_public_name_loads(self):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ciss; ciss.miou"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "ciss.metrics" in {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()}

    def test_import_ciss_loads_no_submodule(self):
        code = "import sys, ciss; print(sorted(m for m in sys.modules if m.startswith('ciss.')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_public_names_resolve_to_their_definitions(self):
        code = "from ciss import *; import ciss; print(sorted(n for n in ciss.__all__ if n not in globals()))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
        import ciss

        for name in ciss.__all__:
            value = getattr(ciss, name)  # a constant names no module; the table does, else the package defines it
            table = f"ciss.{ciss._MODULE_OF[name]}" if name in ciss._MODULE_OF else "ciss"
            module = getattr(value, "__module__", None) or table
            assert getattr(importlib.import_module(module), name) is value, name
        assert set(ciss.__all__) <= set(dir(ciss))
        assert {"cli", "losses", "scenario"} <= set(dir(ciss))
        assert ciss.losses is importlib.import_module("ciss.losses")
        with pytest.raises(AttributeError):
            ciss.no_such_name

    def test_public_names_see_a_rebinding_in_their_module(self, monkeypatch):
        import ciss

        assert ciss.loss_value is losses.loss_value  # an earlier access
        stand_in = object()
        monkeypatch.setattr(losses, "loss_value", stand_in)
        assert ciss.loss_value is stand_in

    def test_every_module_is_a_submodule(self):
        import ciss

        modules = {path.stem for path in Path(ciss.__file__).parent.glob("*.py")} - {"__init__"}
        assert modules == set(ciss._SUBMODULES)

    def test_parser_choices_are_the_ids_the_library_dispatches_on(self):
        import ciss.scenario

        def choices(*path: str, option: str):
            parser = build_parser()
            for name in path:
                parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
            return next(a.choices for a in parser._actions if option in a.option_strings)

        atomic = tuple(losses._LOSSES)
        composite = tuple(name[: -len("_objective")] for name in dir(losses) if name.endswith("_objective"))
        assert choices("loss", "value", option="--loss") == atomic + losses.COMPOSITE_LOSSES
        assert set(losses.COMPOSITE_LOSSES) == set(composite)
        assert choices("loss", "gradcheck", option="--loss") == atomic == losses.ATOMIC_LOSSES
        kinds = choices("build", option="--scenario")
        assert kinds == ciss.scenario.SCENARIO_KINDS
        assert {name[len("build_"):] for name in dir(ciss.scenario) if name.startswith("build_")} == set(kinds)


def _child_env(**settings: str) -> dict[str, str]:
    """This process's environment with block-buffered stdio and no BLAS thread
    count, then `settings`."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    return {**env, **settings}


# the document's write and flush fail only when the stream is flushed, unless stdio is unbuffered
BUFFERING = pytest.mark.parametrize("buffering", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])


class TestProcessEntry:
    """`python -m ciss.cli` and the `ciss` script run `main` through one entry
    that defaults OpenBLAS to one thread and exits without interpreter
    teardown; `main` itself changes nothing process-wide."""

    def _assert_stdout_error(self, proc: subprocess.CompletedProcess, type_: str, code: int):
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        message = f"stdout: {OSError(code, os.strerror(code))}"
        assert json.loads(line) == {"error": {"type": type_, "message": message}}

    @BUFFERING
    def test_full_stdout_exits_2(self, tmp_path, manifest_path, fig3_spec, buffering):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)["loss value"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ciss.cli", *argv], stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=_child_env(**buffering))
        self._assert_stdout_error(proc, "OSError", errno.ENOSPC)

    @BUFFERING
    def test_closed_pipe_exits_2(self, tmp_path, manifest_path, fig3_spec, buffering):
        argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)["loss value"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "ciss.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=_child_env(**buffering))
        finally:
            os.close(write_end)
        self._assert_stdout_error(proc, "BrokenPipeError", errno.EPIPE)

    @pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)], ids=["default", "user-setting"])
    def test_numeric_child_runs_one_blas_thread_by_default(self, tmp_path, manifest_path, fig3_spec, setting, threads):
        """Without a user setting the child has no thread but its own once numpy
        is loaded; a user's OPENBLAS_NUM_THREADS is kept."""
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task")
        report = ('__import__("json").dumps([os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules, '
                  'len(os.listdir("/proc/self/task")), "openblas" in open("/proc/self/maps").read()])')
        argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)["loss value"]
        env = _child_env() if setting is None else _child_env(OPENBLAS_NUM_THREADS=setting)
        proc = subprocess.run([sys.executable, "-c", AT_EXIT.format(report=report), *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        seen, numpy_loaded, tasks, openblas = json.loads(proc.stderr.splitlines()[-1])
        assert (seen, numpy_loaded) == (str(threads), True)
        if not openblas:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert tasks == threads

    def test_main_leaves_the_environment_as_it_found_it(self, capsys, monkeypatch, tmp_path, manifest_path, fig3_spec):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        code, doc, err = run(capsys, _leaf_commands(tmp_path, manifest_path, fig3_spec)["loss value"])
        assert (code, err) == (0, "")
        assert dict(os.environ) == before

    @pytest.mark.parametrize("command", sorted(TestImports.NOT_LOADED))
    def test_main_closes_every_file_it_opens(self, capsys, tmp_path, manifest_path, fig3_spec, command):
        """The entry exits with no teardown, so nothing may rely on one to close a file."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd")
        argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)[command]
        before = set(os.listdir("/proc/self/fd"))
        code, doc, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert set(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("command", sorted(TestImports.NOT_LOADED))
    def test_file_stdout_gets_the_whole_document(self, capsys, tmp_path, manifest_path, fig3_spec, command):
        """A regular file is block-buffered, as the benchmark's stdout is; the
        child's file holds what an in-process `main` prints."""
        argv = _leaf_commands(tmp_path, manifest_path, fig3_spec)[command]
        with open(tmp_path / "stdout", "wb") as out:
            proc = subprocess.run([sys.executable, "-m", "ciss.cli", *argv], stdout=out, stderr=subprocess.PIPE,
                                  env=_child_env())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert main(argv) == 0
        assert (tmp_path / "stdout").read_bytes() == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("exit_code", [0, 2, 3], ids=["help", "usage", "gradcheck-failed"])
    def test_exit_paths_keep_their_bytes(self, tmp_path, manifest_path, fig3_spec, exit_code):
        """Each exit path prints through the entry what it prints when the
        interpreter tears down after `main`."""
        argv = {0: ["--help"], 2: ["build", "--scenario", "overlapped"],
                3: [*_leaf_commands(tmp_path, manifest_path, fig3_spec)["loss gradcheck"], "--tol", "1e-18"]}[exit_code]
        torn_down = "import sys; from ciss.cli import main; sys.exit(main())"
        entry, reference = (subprocess.run([sys.executable, *how, *argv], capture_output=True, env=_child_env())
                            for how in (["-m", "ciss.cli"], ["-c", torn_down]))
        assert (entry.returncode, entry.stdout, entry.stderr) == (reference.returncode, reference.stdout,
                                                                  reference.stderr)
        assert entry.returncode == exit_code
        assert entry.stdout if exit_code != 2 else entry.stderr

    def test_console_script_is_the_module_entry(self):
        """`[project.scripts] ciss` names the function that `python -m ciss.cli` runs."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
            import tomli as tomllib
        import ast
        import ciss.cli

        root = Path(__file__).resolve().parents[1]
        target = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["ciss"]
        module, name = target.split(":")
        assert importlib.import_module(module) is ciss.cli
        (block,) = [node for node in ast.parse(Path(ciss.cli.__file__).read_text()).body
                    if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(node) for node in block.body] == [f"{name}()"]
        assert callable(getattr(ciss.cli, name))
