"""End-to-end command-line tests; stdout carries one JSON document per call."""
import json
import subprocess
import sys

import numpy as np
import pytest

from ciss import (
    LabelGrid,
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
from ciss.cli import main
from ciss.pgm import read_pgm, write_pgm
from conftest import one_hot_scores


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
         (["--loss", "memory_augmented"], 4, 2)],
        ids=["ce_current", "kd_old", "memory_augmented"],
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
    save_memory(sample_class_balanced(load_split(split), loaded, 0, 2, 0), memory)
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
         _pseudo_classes("3,255"), _pseudo_classes("-1"),
         *(_bad_file(kind, UNDECODABLE) for kind in ("manifest", "split", "memory", "pairs")),
         *(_bad_file(kind, DEEP) for kind in ("manifest", "split", "memory", "pairs", "case")),
         _class_order_missing, _bad_file("class-order", b"\xff\n"), *_NON_INTEGER_FIELDS.values(),
         _pseudo_scores_missing, _pseudo_scores(b"-1 0\n\n"), _pseudo_scores(b"2 2\n0 3\n0.9 0.1 0.2 0.8\n"),
         _pseudo_scores(b"2 2\n0 300\n0.0 5.0\n0.0 5.0\n"), _pseudo_scores(b"2 2\n0 255\n0.0 5.0\n0.0 5.0\n"),
         _case_scores_missing, _build_flags_missing,
         _build_out_unwritable, _memory_out_unwritable, _pseudo_out_unwritable],
        ids=["labels-int", "id-int", "class-count-255", "grid-missing", "eval-class-count-255",
             "assignment-string", "current-classes-300", "current-classes-255", "current-classes-negative",
             "manifest-undecodable", "split-undecodable", "memory-undecodable", "pairs-undecodable",
             "manifest-deep", "split-deep", "memory-deep", "pairs-deep", "case-deep",
             "class-order-missing", "class-order-undecodable", *_NON_INTEGER_FIELDS,
             "pseudo-scores-missing", "scores-negative-rows", "scores-one-line",
             "scores-class-300", "scores-class-255", "case-scores-missing",
             "build-flags-missing", "build-out-unwritable", "memory-out-unwritable",
             "pseudo-out-unwritable"],
    )
    def test_exits_2_with_one_json_error(self, tmp_path, manifest_path, fig3_spec, make_argv):
        _assert_one_json_error(make_argv(tmp_path, manifest_path, fig3_spec))


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
