"""Scenario builders, the seen/unseen overlap split, and persistence."""
import dataclasses
import json

import pytest

from ciss import (
    FormatError,
    ValidationError,
    build_disjoint,
    build_overlapped,
    build_partitioned,
    load_split,
    parse_layout,
    relabel,
    save_split,
    split_overlapping,
    task_classes,
)
from conftest import make_record, synthetic_manifest

import ciss


def ids(split, t):
    return set(split.task_ids(t))


class TestOverlapped:
    def test_five_image_example(self, fig3_manifest, fig3_spec):
        split = build_overlapped(fig3_manifest, fig3_spec)
        assert ids(split, 0) == {"Img1", "Img2", "Img4", "Img5"}
        assert ids(split, 1) == {"Img1", "Img2"}
        assert ids(split, 2) == {"Img1", "Img3", "Img4"}

    def test_single_class_images_partition(self):
        manifest = ciss.DatasetManifest(
            class_count=3,
            records=tuple(make_record(f"i{k}", {1 + k % 3}) for k in range(9)),
        )
        split = build_overlapped(manifest, parse_layout("1-1", 3))
        all_ids = [i for t in range(3) for i in split.task_ids(t)]
        assert len(all_ids) == len(set(all_ids)) == 9

    def test_membership_count_matches_class_spread(self):
        manifest = synthetic_manifest(200, 6, seed=3)
        spec = parse_layout("2-2", 6)
        split = build_overlapped(manifest, spec)
        member = split.membership(spec.num_tasks - 1)
        for rec in manifest.records:
            touched = {t for t in range(spec.num_tasks) if rec.oracle_classes & task_classes(spec, t)}
            assert set(member[rec.image_id]) == touched

    def test_membership_upper_bound_drops_later_tasks(self):
        manifest = synthetic_manifest(200, 6, seed=3)
        split = build_overlapped(manifest, parse_layout("2-2", 6))
        full = split.membership(2)
        for upto in range(3):
            bounded = split.membership(upto)
            assert bounded == {
                image_id: [t for t in tasks if t <= upto]
                for image_id, tasks in full.items()
                if tasks[0] <= upto
            }
        assert set(full) == {i for ids in split.tasks for i in ids}


class TestDisjoint:
    def test_five_image_example(self, fig3_manifest, fig3_spec):
        split = build_disjoint(fig3_manifest, fig3_spec)
        assert ids(split, 0) == {"Img5"}
        assert ids(split, 1) == {"Img2"}
        assert ids(split, 2) == {"Img1", "Img3", "Img4"}

    def test_single_task_takes_everything(self, fig3_manifest):
        # degenerate layout: all classes in the base task
        split = build_disjoint(fig3_manifest, parse_layout("3-3", 3))
        assert ids(split, 0) == {"Img1", "Img2", "Img3", "Img4", "Img5"}

    def test_final_task_image(self):
        manifest = ciss.DatasetManifest(
            class_count=4, records=(make_record("late", {4}), make_record("early", {1}))
        )
        split = build_disjoint(manifest, parse_layout("1-1", 4))
        assert ids(split, 3) == {"late"}
        assert ids(split, 0) == {"early"}


class TestPartitioned:
    def test_five_image_example_with_pinned_assignments(self, fig3_manifest, fig3_spec):
        split = build_partitioned(
            fig3_manifest, fig3_spec, seed=0, assignments={"Img1": 2, "Img2": 2, "Img4": 1}
        )
        assert ids(split, 0) == {"Img4", "Img5"}
        assert ids(split, 1) == {"Img1", "Img2"}
        assert ids(split, 2) == {"Img3"}

    def test_single_class_images_ignore_seed(self):
        manifest = ciss.DatasetManifest(
            class_count=3,
            records=tuple(make_record(f"i{k}", {1 + k % 3}) for k in range(12)),
        )
        spec = parse_layout("1-1", 3)
        a = build_partitioned(manifest, spec, seed=1)
        b = build_partitioned(manifest, spec, seed=999)
        assert a.tasks == b.tasks

    def test_assignment_must_be_an_oracle_class(self, fig3_manifest, fig3_spec):
        with pytest.raises(ValidationError):
            build_partitioned(fig3_manifest, fig3_spec, seed=0, assignments={"Img5": 3})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_64_bits(self, fig3_manifest, fig3_spec, seed):
        with pytest.raises(ValidationError, match="^seed must be an unsigned 64-bit integer$"):
            build_partitioned(fig3_manifest, fig3_spec, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_draw_refuses_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValidationError, match="^seed must be an unsigned 64-bit integer$"):
            ciss.assign_partition_class(seed, "x", {1, 2})

    @pytest.mark.parametrize("seed", [None, -1, 2**64, True])
    def test_split_refuses_a_seed_outside_64_bits(self, fig3_manifest, fig3_spec, seed):
        """A split refuses, when built, any seed no partitioned build could
        have drawn with, rather than saving a file that `load_split` refuses."""
        split = build_partitioned(fig3_manifest, fig3_spec, seed=1)
        with pytest.raises(ValidationError, match="^seed must be an unsigned 64-bit integer$"):
            dataclasses.replace(split, seed=seed)

    def test_an_image_without_classes_cannot_be_assigned(self):
        with pytest.raises(ValidationError, match="^image 'x' has no classes to assign$"):
            ciss.assign_partition_class(0, "x", set())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_partition_properties_on_synthetic_data(self, seed):
        manifest = synthetic_manifest(1000, 20, seed=42)
        spec = parse_layout("15-1", 20)
        part = build_partitioned(manifest, spec, seed=seed)
        over = build_overlapped(manifest, spec)
        disj = build_disjoint(manifest, spec)
        seen = set()
        total = 0
        for t in range(spec.num_tasks):
            block = ids(part, t)
            assert not block & seen
            assert block <= ids(over, t)
            assert ids(disj, t) <= ids(over, t)
            seen |= block
            total += len(block)
        assert total == len(manifest)

    def test_order_independence(self, fig3_manifest, fig3_spec, tmp_path):
        reversed_manifest = ciss.DatasetManifest(
            class_count=3, records=tuple(reversed(fig3_manifest.records))
        )
        a = build_partitioned(fig3_manifest, fig3_spec, seed=77)
        b = build_partitioned(reversed_manifest, fig3_spec, seed=77)
        save_split(a, tmp_path / "a.json")
        save_split(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestSplitOverlapping:
    def test_even_overlap_halves(self):
        records = [make_record(f"b{k}", {1, 2}) for k in range(334)]
        records += [make_record(f"s{k}", {1}) for k in range(10)]
        manifest = ciss.DatasetManifest(class_count=2, records=tuple(records))
        seen, unseen = split_overlapping(manifest, parse_layout("1-1", 2), t=1, seed=0)
        assert len(seen) == 167 and len(unseen) == 167
        assert seen | unseen == {f"b{k}" for k in range(334)}
        assert not seen & unseen

    def test_empty_overlap(self):
        manifest = ciss.DatasetManifest(
            class_count=2, records=(make_record("a", {1}), make_record("b", {2}))
        )
        seen, unseen = split_overlapping(manifest, parse_layout("1-1", 2), t=1, seed=5)
        assert seen == unseen == frozenset()

    def test_odd_overlap_gives_seen_the_extra(self):
        records = [make_record(f"b{k}", {1, 2}) for k in range(5)]
        manifest = ciss.DatasetManifest(class_count=2, records=tuple(records))
        seen, unseen = split_overlapping(manifest, parse_layout("1-1", 2), t=1, seed=3)
        assert (len(seen), len(unseen)) == (3, 2)

    def test_requires_incremental_task(self, fig3_manifest, fig3_spec):
        with pytest.raises(ValidationError):
            split_overlapping(fig3_manifest, fig3_spec, t=0, seed=0)

    def test_negative_seed_is_refused(self, fig3_manifest, fig3_spec):
        """random.Random(-3) shuffles as random.Random(3) does."""
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -3$"):
            split_overlapping(fig3_manifest, fig3_spec, t=1, seed=-3)


class TestPersistence:
    def test_partitioned_roundtrip(self, fig3_manifest, fig3_spec, tmp_path):
        split = build_partitioned(fig3_manifest, fig3_spec, seed=123)
        path = tmp_path / "split.json"
        save_split(split, path)
        back = load_split(path)
        assert back == split

    def test_overlapped_roundtrip_and_recompute(self, fig3_manifest, fig3_spec, tmp_path):
        split = build_overlapped(fig3_manifest, fig3_spec)
        path = tmp_path / "split.json"
        save_split(split, path)
        back = load_split(path)
        assert back.tasks == build_overlapped(fig3_manifest, fig3_spec).tasks

    def test_load_rejects_overlapping_partitioned_lists(self, fig3_manifest, fig3_spec, tmp_path):
        split = build_partitioned(fig3_manifest, fig3_spec, seed=1)
        path = tmp_path / "split.json"
        save_split(split, path)
        doc = path.read_text().replace('"Img3"', '"Img5"')  # Img5 already in task 0
        path.write_text(doc)
        with pytest.raises(FormatError):
            load_split(path)

    def test_load_rejects_unknown_scenario(self, fig3_manifest, fig3_spec, tmp_path):
        split = build_overlapped(fig3_manifest, fig3_spec)
        path = tmp_path / "split.json"
        save_split(split, path)
        path.write_text(path.read_text().replace("overlapped", "sideways"))
        with pytest.raises(FormatError):
            load_split(path)

    def test_load_rejects_assignments_outside_the_split(self, tmp_path):
        manifest = synthetic_manifest(20, 6, seed=2)
        path = tmp_path / "split.json"
        save_split(build_partitioned(manifest, parse_layout("2-2", 6), seed=7), path)
        doc = json.loads(path.read_text())
        doc["assignments"]["Ghost"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="assignments name images in no task: \\['Ghost'\\]"):
            load_split(path)

    @pytest.mark.parametrize("edit", [lambda doc: doc["tasks"].pop(),
                                      lambda doc: doc["tasks"].append({"t": 3, "classes": [], "image_ids": []}),
                                      lambda doc: doc["tasks"][1].update(t=2),
                                      lambda doc: doc["tasks"][1].update(classes=[3])],
                             ids=["task-missing", "task-extra", "t-off-position", "classes-off-layout"])
    def test_load_rejects_task_entries_off_the_layout(self, fig3_manifest, fig3_spec, tmp_path, edit):
        path = tmp_path / "split.json"
        save_split(build_overlapped(fig3_manifest, fig3_spec), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_split(path)

    @pytest.mark.parametrize(
        "build, t, edit, reason",
        [
            (build_disjoint, 1, lambda ids: ids + ids, "task 1 image ids are not strictly increasing"),
            (build_disjoint, 2, lambda ids: ids[::-1], "task 2 image ids are not strictly increasing"),
            (build_disjoint, 2, lambda ids: ids + ["Img5"], "disjoint task lists overlap on ['Img5']"),
            (build_overlapped, 0, lambda ids: ids[:1] + ids, "task 0 image ids are not strictly increasing"),
            (build_partitioned, 0, lambda ids: ids[:1] + ids, "task 0 image ids are not strictly increasing"),
        ],
        ids=["disjoint-duplicate", "disjoint-unsorted", "disjoint-shared", "overlapped-duplicate",
             "partitioned-duplicate"],
    )
    def test_load_refuses_task_lists_not_strictly_increasing_or_shared(
        self, fig3_manifest, fig3_spec, tmp_path, build, t, edit, reason
    ):
        extra = {"seed": 1} if build is build_partitioned else {}
        path = tmp_path / "split.json"
        save_split(build(fig3_manifest, fig3_spec, **extra), path)
        doc = json.loads(path.read_text())
        doc["tasks"][t]["image_ids"] = edit(doc["tasks"][t]["image_ids"])
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as err:
            load_split(path)
        assert str(err.value) == f"{path}: cannot read split manifest ({reason})"

    @pytest.mark.parametrize("layout", ["1-1", "2-2", "3-1", "5-1"])
    @pytest.mark.parametrize("build", [build_overlapped, build_disjoint, build_partitioned])
    def test_every_built_split_loads(self, tmp_path, build, layout):
        manifest = synthetic_manifest(40, 6, seed=4)
        extra = {"seed": 9} if build is build_partitioned else {}
        split = build(manifest, parse_layout(layout, 6), **extra)
        save_split(split, tmp_path / "split.json")
        assert load_split(tmp_path / "split.json") == split

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("seed"), "cannot read split manifest (seed must be an unsigned 64-bit integer)"),
        (lambda doc: doc.update(seed=-4), "cannot read split manifest (seed must be an unsigned 64-bit integer)"),
        (lambda doc: doc.update(seed=2**70), "cannot read split manifest (seed must be an unsigned 64-bit integer)"),
        (lambda doc: doc.update(seed=True), "cannot read split manifest (seed must be an unsigned 64-bit integer)"),
        (lambda doc: doc.update(assignments=[]), "partitioned split requires an assignments object"),
        (lambda doc: doc["assignments"].update(Img3="3"), "assignments of ['Img3'] are not integer class ids"),
    ], ids=["no-seed", "seed-negative", "seed-past-64-bits", "seed-true", "assignments-list", "assignment-string"])
    def test_load_refuses_partitioned_fields_of_the_wrong_type(self, fig3_manifest, fig3_spec, tmp_path,
                                                                edit, message):
        path = tmp_path / "split.json"
        save_split(build_partitioned(fig3_manifest, fig3_spec, seed=1), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as err:
            load_split(path)
        assert str(err.value) == f"{path}: {message}"

    def test_split_holds_one_id_list_per_layout_task(self, fig3_manifest, fig3_spec):
        split = build_overlapped(fig3_manifest, fig3_spec)
        assert split.tasks == (("Img1", "Img2", "Img4", "Img5"), ("Img1", "Img2"), ("Img1", "Img3", "Img4"))
        with pytest.raises(ValidationError, match="split holds 2 task lists for layout tasks 0..2"):
            ciss.SplitManifest(scenario="overlapped", spec=fig3_spec, tasks=split.tasks[:2])
        with pytest.raises(ValidationError, match="task index 3 outside 0..2"):
            split.task_ids(3)

    @pytest.mark.parametrize("scenario, extra, message", [
        ("partitioned", {"seed": 1}, "partitioned split requires assignments"),
        ("partitioned", {"seed": 1, "assignments": {"Img1": 1, "Img2": 1, "Img3": 3, "Img4": 1, "Img5": 1}},
         "image 'Img1' sits in task 1 but is assigned class 1"),
        ("overlapped", {"seed": 1}, "overlapped split carries no seed or assignments"),
        ("disjoint", {"assignments": {}}, "disjoint split carries no seed or assignments"),
    ], ids=["partitioned-no-assignments", "partitioned-off-task", "overlapped-seed", "disjoint-assignments"])
    def test_split_checks_its_seed_and_assignments(self, fig3_spec, scenario, extra, message):
        tasks = (("Img4", "Img5"), ("Img1", "Img2"), ("Img3",))
        with pytest.raises(ValidationError) as err:
            ciss.SplitManifest(scenario=scenario, spec=fig3_spec, tasks=tasks, **extra)
        assert str(err.value) == message

    def test_layout_must_cover_the_manifest_classes(self, fig3_manifest):
        with pytest.raises(ValidationError) as err:
            build_overlapped(fig3_manifest, parse_layout("1-1", 2))
        assert str(err.value) == "task layout covers 2 classes, manifest declares 3"


class TestBackgroundShift:
    @staticmethod
    def shift_kinds(manifest, split):
        """Scan the relabeled grids for background pixels whose oracle class
        belongs to a later (future shift) or earlier (past shift) task."""
        import numpy as np

        from ciss import BACKGROUND

        spec = split.spec
        future = past = False
        for t in range(spec.num_tasks):
            current = task_classes(spec, t)
            later = sorted(
                c for u in range(t + 1, spec.num_tasks) for c in task_classes(spec, u)
            )
            earlier = sorted(c for u in range(t) for c in task_classes(spec, u))
            for image_id in split.task_ids(t):
                oracle = manifest.record(image_id).oracle_labels
                visible = relabel(oracle, current)
                at_bg = visible.data == BACKGROUND
                if later and bool((np.isin(oracle.data, later) & at_bg).any()):
                    future = True
                if earlier and bool((np.isin(oracle.data, earlier) & at_bg).any()):
                    past = True
        return future, past

    def test_partitioned_shows_both_shifts_disjoint_never_future(self):
        manifest = synthetic_manifest(300, 10, seed=9, min_classes=2)
        spec = parse_layout("4-2", 10)
        part = build_partitioned(manifest, spec, seed=4)
        future, past = self.shift_kinds(manifest, part)
        assert future and past
        disj = build_disjoint(manifest, spec)
        future, _ = self.shift_kinds(manifest, disj)
        assert not future
