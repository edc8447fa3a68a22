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
    save_memory,
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
    with pytest.raises(FormatError, match="undeclared"):
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
    with pytest.raises(FormatError, match="duplicate"):
        load_manifest(path)


def test_load_manifest_rejects_malformed_document(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{\"images\": []}")
    with pytest.raises(FormatError):
        load_manifest(path)


def _set_image(key, value):
    return lambda doc: doc["images"][0].update({key: value})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["images"].append(doc["images"][0]), "duplicate image id 'Img1'"),
        (lambda doc: doc.update(class_count=300), "class count must lie in 1..254, got 300"),
        (_set_image("labels", "empty.pgm"), "image 'Img1' has no foreground pixels"),
        (lambda doc: doc.update(class_count=True), "class_count must be an integer"),
        (_set_image("id", 5), "each image entry needs string id and labels fields"),
        (_set_image("labels", ["a.pgm"]), "each image entry needs string id and labels fields"),
        (lambda doc: doc["images"][0].pop("labels"), "'labels'"),
        (lambda doc: doc.pop("images"), "'images'"),
        (lambda doc: doc.update(images={"Img1": "a.pgm"}), "images must be a JSON list of objects"),
        # read as an empty manifest, these two made `build` write an all-empty split
        (lambda doc: doc.update(images={}), "images must be a JSON list of objects"),
        (lambda doc: doc.update(images=""), "images must be a JSON list of objects"),
        (lambda doc: doc.update(images=[1]), "images must be a JSON list of objects"),
        (lambda doc: doc.clear() or doc.update(x=[]), "'class_count'"),
    ],
    ids=["duplicate-id", "class-count-300", "no-foreground", "class-count-bool", "id-int", "labels-list",
         "labels-missing", "images-missing", "images-object", "images-empty-object", "images-empty-string",
         "images-list-of-numbers", "no-fields"],
)
def test_load_manifest_refusals_name_the_file(tmp_path, edit, message):
    path = _write_manifest(tmp_path, 2, {"Img1": make_record("x", {1}).oracle_labels,
                                         "Img2": make_record("x", {2}).oracle_labels})
    write_pgm(LabelGrid(width=2, height=1, data=np.array([0, 255], dtype=np.uint8)), tmp_path / "empty.pgm")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_load_manifest_keeps_the_error_of_a_grid_it_cannot_read(tmp_path):
    path = _write_manifest(tmp_path, 1, {"Img1": make_record("x", {1}).oracle_labels})
    (tmp_path / "Img1.pgm").write_bytes(b"P5\n2 1\n255\n\x01")
    with pytest.raises(FormatError) as info:
        load_manifest(path)
    assert str(info.value) == f"{tmp_path / 'Img1.pgm'}: expected 2 raster bytes, found 1"


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
        OracleRecord(image_id="x", oracle_classes=frozenset({1}), n_pixels=grid.n_pixels, grid=grid)


def test_record_needs_a_grid_or_its_path(tmp_path):
    grid = make_record("x", {1}).oracle_labels
    for source in ({}, {"grid": grid, "labels_path": tmp_path / "x.pgm"}):
        with pytest.raises(ValidationError, match="grid or the path"):
            OracleRecord(image_id="x", oracle_classes=frozenset({1}), n_pixels=grid.n_pixels, **source)


def test_task_classes_15_1_layout():
    spec = parse_layout("15-1", 20)
    assert task_classes(spec, 0) == set(range(1, 16))
    assert task_classes(spec, 3) == {18}
    assert spec.num_tasks == 6


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


@pytest.mark.parametrize("class_id", [0, 9, 255])
def test_task_of_a_class_outside_the_order_is_an_error(class_id):
    with pytest.raises(ValidationError) as err:
        task_of_class(parse_layout("4-2", 8), class_id)
    assert str(err.value) == f"class {class_id} not in class order"


@pytest.mark.parametrize("layout", ["1-1", "4-4", "10-2", "15-1"])
def test_task_classes_are_the_class_order_blocks(layout):
    """Over 20 shuffled classes, task t's classes are the t-th block of the
    class order, the blocks partition 1..20, and t outside 0..T is refused."""
    order = tuple(int(c) for c in np.random.default_rng(20).permutation(20) + 1)
    spec = parse_layout(layout, 20, order)
    starts = [0, *range(spec.base_count, 21, spec.step)]
    blocks = [task_classes(spec, t) for t in range(spec.num_tasks)]
    assert blocks == [set(order[a:b]) for a, b in zip(starts, starts[1:])]
    assert sum(map(len, blocks)) == 20 and set().union(*blocks) == set(range(1, 21))
    for t in (-1, spec.num_tasks):
        with pytest.raises(ValidationError, match=rf"task index {t} outside 0\.\.{spec.num_tasks - 1}$"):
            task_classes(spec, t)


def test_single_task_layout_is_allowed():
    spec = parse_layout("1-1", 3)
    assert spec.num_tasks == 3
    whole = parse_layout("3-3", 3)
    assert whole.num_tasks == 1
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
    memory = sample_class_balanced(split, manifest, upto_task=2, capacity=5, seed=0)
    assert "Img3" in memory.ids()  # sampling reads class sets only; the grid is read at save
    with pytest.raises(FormatError):
        save_memory(memory, tmp_path / "memory.json", manifest, fig3_spec)
    assert not (tmp_path / "memory.json").exists()
    assert not (tmp_path / "memory_grids").exists()


@pytest.mark.parametrize("bad", [0, 255, 256])
def test_class_count_outside_1_to_254_is_rejected(bad):
    with pytest.raises(ValidationError, match="1..254"):
        DatasetManifest(class_count=bad, records=())
    with pytest.raises(ValidationError, match="1..254"):
        parse_layout("1-1", bad)


@pytest.mark.parametrize("count", [-5, 10**12, 2**70])
def test_any_class_count_is_refused_without_building_its_order(count):
    """The identity order of a huge count is never built: TaskSpec measures it first."""
    with pytest.raises(ValidationError):
        parse_layout("1-1", count)


def test_class_order_reaching_the_ignore_id_is_rejected():
    with pytest.raises(ValidationError, match="1..254"):
        TaskSpec(base_count=250, step=5, class_order=tuple(range(1, 256)))


def test_largest_class_count_is_allowed():
    assert DatasetManifest(class_count=254, records=()).class_count == 254
    assert parse_layout("250-4", 254).num_tasks == 2


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
