"""Manifest ingestion and incremental task layouts."""
import json

import numpy as np
import pytest

from ciss import (
    DatasetManifest,
    FormatError,
    LabelGrid,
    OracleRecord,
    TaskSpec,
    ValidationError,
    build_overlapped,
    classes_up_to,
    load_manifest,
    parse_layout,
    sample_class_balanced,
    save_manifest,
    task_classes,
    task_of_class,
)
from ciss.pgm import write_pgm
from conftest import make_record


def _write_manifest(tmp_path, class_count, grids):
    images = []
    for image_id, grid in grids.items():
        rel = f"{image_id}.pgm"
        write_pgm(grid, tmp_path / rel)
        images.append({"id": image_id, "labels": rel})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"class_count": class_count, "images": images}))
    return path


def test_load_manifest_populates_oracle_classes(tmp_path):
    grids = {
        "Img1": make_record("x", {1, 2, 3}).oracle_labels,
        "Img2": make_record("x", {1, 2}).oracle_labels,
        "Img3": make_record("x", {3}).oracle_labels,
        "Img4": make_record("x", {1, 3}).oracle_labels,
        "Img5": make_record("x", {1}).oracle_labels,
    }
    manifest = load_manifest(_write_manifest(tmp_path, 3, grids))
    assert len(manifest) == 5
    assert manifest.record("Img1").oracle_classes == {1, 2, 3}
    assert manifest.record("Img5").oracle_classes == {1}


def test_load_manifest_empty_dataset(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"class_count": 7, "images": []}))
    manifest = load_manifest(path)
    assert manifest.class_count == 7
    assert len(manifest) == 0


def test_load_manifest_rejects_undeclared_class(tmp_path):
    grids = {"Img1": make_record("x", {7}).oracle_labels}
    with pytest.raises(ValidationError, match="undeclared"):
        load_manifest(_write_manifest(tmp_path, 3, grids))


def test_load_manifest_rejects_duplicate_ids(tmp_path):
    grid = make_record("x", {1}).oracle_labels
    path = tmp_path / "manifest.json"
    write_pgm(grid, tmp_path / "a.pgm")
    path.write_text(
        json.dumps(
            {
                "class_count": 1,
                "images": [
                    {"id": "Img1", "labels": "a.pgm"},
                    {"id": "Img1", "labels": "a.pgm"},
                ],
            }
        )
    )
    with pytest.raises(ValidationError, match="duplicate"):
        load_manifest(path)


def test_load_manifest_rejects_malformed_document(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{\"images\": []}")
    with pytest.raises(FormatError):
        load_manifest(path)


def test_manifest_roundtrip(tmp_path, fig3_manifest):
    path = tmp_path / "out.json"
    save_manifest(fig3_manifest, path)
    loaded = load_manifest(path)
    assert loaded.class_count == fig3_manifest.class_count
    assert [r.image_id for r in loaded.records] == [r.image_id for r in fig3_manifest.records]
    for a, b in zip(loaded.records, fig3_manifest.records):
        assert a.oracle_labels == b.oracle_labels
        assert a.oracle_classes == b.oracle_classes


def test_record_requires_foreground():
    grid = LabelGrid(width=2, height=1, data=np.array([0, 255], dtype=np.uint8))
    with pytest.raises(ValidationError):
        OracleRecord.from_grid("empty", grid)


def test_record_rejects_class_drift():
    grid = make_record("x", {1, 2}).oracle_labels
    with pytest.raises(ValidationError):
        OracleRecord(image_id="x", oracle_labels=grid, oracle_classes=frozenset({1}))


def test_task_classes_15_1_layout():
    spec = parse_layout("15-1", 20)
    assert task_classes(spec, 0) == set(range(1, 16))
    assert task_classes(spec, 3) == {18}
    assert spec.task_count == 5


def test_task_classes_5_3_layout():
    spec = parse_layout("5-3", 11)
    assert task_classes(spec, 2) == {9, 10, 11}


def test_task_classes_partition_and_cover():
    spec = TaskSpec(base_count=4, step=2, class_order=(3, 1, 4, 2, 6, 5, 8, 7))
    seen = set()
    for t in range(spec.num_tasks):
        block = task_classes(spec, t)
        assert not block & seen
        seen |= block
    assert seen == set(range(1, 9))
    assert classes_up_to(spec, 1) == {3, 1, 4, 2, 6, 5}
    assert task_of_class(spec, 7) == 2
    assert task_of_class(spec, 3) == 0


def test_task_classes_out_of_range():
    spec = parse_layout("15-1", 20)
    with pytest.raises(ValidationError):
        task_classes(spec, 6)


def test_single_task_layout_is_allowed():
    spec = parse_layout("1-1", 3)
    assert spec.task_count == 2
    whole = parse_layout("3-3", 3)
    assert whole.task_count == 0
    assert task_classes(whole, 0) == {1, 2, 3}


@pytest.mark.parametrize("text", ["15", "a-b", "15-0", "21-1", "15-2", "0-1"])
def test_bad_layouts_rejected(text):
    with pytest.raises(ValidationError):
        parse_layout(text, 20)


def test_order_must_be_permutation():
    with pytest.raises(ValidationError):
        TaskSpec(base_count=1, step=1, class_order=(1, 1, 2))


def test_load_manifest_derives_each_class_set_once(tmp_path, monkeypatch, fig3_manifest):
    save_manifest(fig3_manifest, tmp_path / "m.json")
    calls = []
    derive = LabelGrid.foreground_classes

    def counted(grid):
        calls.append(grid)
        return derive(grid)

    monkeypatch.setattr(LabelGrid, "foreground_classes", counted)
    manifest = load_manifest(tmp_path / "m.json")
    assert len(calls) == len(manifest) == 5


def test_loaded_records_hold_no_grid(tmp_path, fig3_manifest):
    save_manifest(fig3_manifest, tmp_path / "m.json")
    for rec in load_manifest(tmp_path / "m.json").records:
        assert not any(isinstance(v, LabelGrid) for v in vars(rec).values())
        assert rec.n_pixels == rec.oracle_labels.n_pixels


def test_loaded_grid_read_on_demand(tmp_path, fig3_manifest):
    save_manifest(fig3_manifest, tmp_path / "m.json")
    manifest = load_manifest(tmp_path / "m.json")
    rec = manifest.record("Img2")
    write_pgm(make_record("x", {1, 2}, width=5).oracle_labels, rec.labels_path)
    with pytest.raises(FormatError, match="pixels"):
        rec.oracle_labels
    rec.labels_path.unlink()
    with pytest.raises(FormatError):
        rec.oracle_labels
    assert manifest.record("Img1").oracle_labels == fig3_manifest.record("Img1").oracle_labels


def test_deleted_grid_fails_only_the_draw_that_reads_it(tmp_path, fig3_manifest, fig3_spec):
    save_manifest(fig3_manifest, tmp_path / "m.json")
    manifest = load_manifest(tmp_path / "m.json")
    manifest.record("Img3").labels_path.unlink()
    split = build_overlapped(manifest, fig3_spec)
    assert split.task_ids(2) == ("Img1", "Img3", "Img4")
    with pytest.raises(FormatError):
        sample_class_balanced(split, manifest, upto_task=2, capacity=5, seed=0)


@pytest.mark.parametrize("bad", [0, 255, 256])
def test_class_count_outside_1_to_254_is_rejected(bad):
    with pytest.raises(ValidationError, match="1..254"):
        DatasetManifest(class_count=bad, records=())
    with pytest.raises(ValidationError, match="1..254"):
        parse_layout("1-1", bad)


def test_class_order_reaching_the_ignore_id_is_rejected():
    with pytest.raises(ValidationError, match="1..254"):
        TaskSpec(base_count=250, step=5, class_order=tuple(range(1, 256)))


def test_largest_class_count_is_allowed():
    assert DatasetManifest(class_count=254, records=()).class_count == 254
    assert parse_layout("250-4", 254).task_count == 1


@pytest.mark.parametrize("entry", [{"id": "a", "labels": 5}, {"id": 5, "labels": "a.pgm"}])
def test_load_manifest_rejects_non_string_fields(tmp_path, entry):
    write_pgm(make_record("x", {1}).oracle_labels, tmp_path / "a.pgm")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"class_count": 1, "images": [entry]}))
    with pytest.raises(FormatError, match="string"):
        load_manifest(path)


def test_save_over_own_grids_keeps_every_grid(tmp_path, fig3_manifest):
    path = tmp_path / "m.json"
    save_manifest(fig3_manifest, path)
    loaded = load_manifest(path)
    reordered = DatasetManifest(class_count=3, records=loaded.records[::-1])
    save_manifest(reordered, path)
    again = load_manifest(path)
    for rec in again.records:
        assert rec.oracle_labels == fig3_manifest.record(rec.image_id).oracle_labels
