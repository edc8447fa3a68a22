"""Exemplar memory: balanced sampling, overlap auditing, replay batches."""
import collections
import dataclasses
import errno
import json
import random
import tracemalloc

import numpy as np
import pytest

from ciss import (
    DatasetManifest,
    ExemplarEntry,
    ExemplarMemory,
    FormatError,
    LabelGrid,
    OracleRecord,
    ValidationError,
    build_disjoint,
    build_overlapped,
    build_partitioned,
    classes_up_to,
    compose_batch,
    load_manifest,
    load_memory,
    make_non_overlapping_variant,
    overlap_ratio,
    parse_layout,
    read_pgm,
    relabel,
    resolve_batch_labels,
    sample_class_balanced,
    save_manifest,
    save_memory,
    stored_labels,
    task_classes,
)
from conftest import synthetic_manifest

import ciss
from conftest import make_record


@pytest.fixture
def ample_manifest():
    """600 images over 20 classes, plenty of supply for every class."""
    return synthetic_manifest(600, 20, seed=21, min_classes=1, max_classes=4)


@pytest.fixture
def ample_split(ample_manifest):
    return build_overlapped(ample_manifest, parse_layout("15-1", 20))


class TestSampling:
    def test_balanced_counts_with_ample_supply(self, ample_manifest, ample_split):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=5, capacity=100, seed=0)
        assert len(memory) == 100
        counts = collections.Counter(e.anchor_class for e in memory.entries)
        assert set(counts) == set(range(1, 21))
        assert all(c == 5 for c in counts.values())
        assert not memory.warnings

    def test_capacity_one(self, ample_manifest, ample_split):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=1, seed=9)
        assert len(memory) == 1
        # the first class in the order anchors the single slot
        assert memory.entries[0].anchor_class == ample_split.spec.class_order[0]

    def test_missing_class_budget_flows_on(self):
        # class 2 never occurs; capacity must still fill from classes 1 and 3
        records = tuple(make_record(f"a{k}", {1}) for k in range(4)) + tuple(
            make_record(f"c{k}", {3}) for k in range(4)
        )
        manifest = ciss.DatasetManifest(class_count=3, records=records)
        split = build_overlapped(manifest, parse_layout("3-3", 3))
        memory = sample_class_balanced(split, manifest, upto_task=0, capacity=6, seed=1)
        counts = collections.Counter(e.anchor_class for e in memory.entries)
        assert counts == {1: 3, 3: 3}

    def test_exhaustion_warns_instead_of_failing(self, fig3_manifest, fig3_spec):
        split = build_overlapped(fig3_manifest, fig3_spec)
        memory = sample_class_balanced(split, fig3_manifest, upto_task=2, capacity=50, seed=0)
        assert len(memory) == 5
        assert memory.warnings

    def test_deterministic_in_seed(self, ample_manifest, ample_split):
        a = sample_class_balanced(ample_split, ample_manifest, upto_task=3, capacity=40, seed=7)
        b = sample_class_balanced(ample_split, ample_manifest, upto_task=3, capacity=40, seed=7)
        assert a == b
        c = sample_class_balanced(ample_split, ample_manifest, upto_task=3, capacity=40, seed=8)
        assert [e.image_id for e in a.entries] != [e.image_id for e in c.entries]

    def test_stored_labels_use_saved_at_visible_classes(self, ample_manifest, ample_split, tmp_path):
        spec = ample_split.spec
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=4, capacity=60, seed=2)
        save_memory(memory, tmp_path / "memory.json", ample_manifest, spec)
        written = json.loads((tmp_path / "memory.json").read_text())["entries"]
        for entry, doc in zip(memory.entries, written, strict=True):
            oracle = ample_manifest.record(entry.image_id).oracle_labels
            saved_view = relabel(oracle, classes_up_to(spec, entry.saved_at))
            assert stored_labels(entry, ample_manifest, spec) == saved_view
            assert read_pgm(tmp_path / doc["labels_path"]) == saved_view
            assert entry.anchor_class in classes_up_to(spec, entry.saved_at)
            assert entry.saved_at in ample_split.membership(spec.num_tasks - 1)[entry.image_id]

    def test_capacity_never_exceeded(self, ample_manifest, ample_split):
        for capacity in (1, 7, 33):
            memory = sample_class_balanced(
                ample_split, ample_manifest, upto_task=5, capacity=capacity, seed=3
            )
            assert len(memory) <= capacity

    def test_anchor_spread_at_most_one_with_ample_supply(self, ample_manifest, ample_split):
        # 20 classes, capacity 33: counts must land on 1 or 2 per class
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=5, capacity=33, seed=3)
        counts = collections.Counter(e.anchor_class for e in memory.entries)
        assert max(counts.values()) - min(counts.values()) <= 1


class TestOverlapRatio:
    def test_zero_when_nothing_reappears(self):
        records = tuple(make_record(f"a{k}", {1}) for k in range(5)) + (make_record("b", {2}),)
        manifest = ciss.DatasetManifest(class_count=2, records=records)
        split = build_overlapped(manifest, parse_layout("1-1", 2))
        memory = sample_class_balanced(split, manifest, upto_task=0, capacity=4, seed=0)
        assert overlap_ratio(memory, split, 1) == 0.0

    def test_fraction_matches_hand_count(self):
        # 8 base-only images and 2 images that reappear in task 1
        records = tuple(make_record(f"a{k}", {1}) for k in range(8)) + (
            make_record("x0", {1, 2}),
            make_record("x1", {1, 2}),
        )
        manifest = ciss.DatasetManifest(class_count=2, records=records)
        split = build_overlapped(manifest, parse_layout("1-1", 2))
        memory = sample_class_balanced(split, manifest, upto_task=0, capacity=10, seed=0)
        assert overlap_ratio(memory, split, 1) == 0.2

    def test_matches_exhaustive_enumeration(self, ample_manifest, ample_split):
        for seed in range(10):
            memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=30, seed=seed)
            for t in (1, 3, 5):
                expected = sum(
                    1 for e in memory.entries if e.image_id in set(ample_split.task_ids(t))
                ) / len(memory.entries)
                assert overlap_ratio(memory, ample_split, t) == expected

    def test_empty_memory_is_an_error(self, ample_split):
        empty = ciss.ExemplarMemory(capacity=5, entries=())
        with pytest.raises(ValidationError):
            overlap_ratio(empty, ample_split, 1)

    def test_requires_overlapped_split(self, ample_manifest):
        part = build_partitioned(ample_manifest, parse_layout("15-1", 20), seed=0)
        memory = ciss.ExemplarMemory(capacity=5, entries=())
        with pytest.raises(ValidationError):
            overlap_ratio(memory, part, 1)


_ENTRY = ExemplarEntry("a", saved_at=0, anchor_class=1)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"capacity": 0, "entries": ()}, "memory capacity must be >= 1"),
        ({"capacity": 1, "entries": (_ENTRY, ExemplarEntry("b", 0, 1))}, "2 entries exceed capacity 1"),
        ({"capacity": 2, "entries": (_ENTRY, _ENTRY)}, "memory image ids must be unique"),
    ],
    ids=["capacity-0", "over-capacity", "duplicate-id"],
)
def test_memory_invariants(fields, message):
    with pytest.raises(ValidationError) as err:
        ExemplarMemory(**fields)
    assert str(err.value) == message


def test_entry_lookup_names_an_absent_image():
    memory = ExemplarMemory(capacity=1, entries=(_ENTRY,))
    assert memory.entry("a") == _ENTRY
    with pytest.raises(ValidationError) as err:
        memory.entry("b")
    assert str(err.value) == "image 'b' not in memory"


@pytest.mark.parametrize(
    "draw",
    [lambda split, manifest, memory, seed: sample_class_balanced(split, manifest, 0, 2, seed),
     lambda split, manifest, memory, seed: make_non_overlapping_variant(memory, split, manifest, 1, seed),
     lambda split, manifest, memory, seed: compose_batch(split.task_ids(1), memory, 4, seed)],
    ids=["sample", "variant", "batch"],
)
def test_negative_seed_is_refused(fig3_manifest, fig3_spec, draw):
    """random.Random(-n) draws the stream of random.Random(n): a negative seed
    would repeat the draws of its absolute value."""
    split = build_overlapped(fig3_manifest, fig3_spec)
    memory = sample_class_balanced(split, fig3_manifest, 0, 2, 0)
    with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -3$"):
        draw(split, fig3_manifest, memory, -3)


class TestNonOverlappingVariant:
    def test_fixpoint_when_ratio_zero(self):
        records = tuple(make_record(f"a{k}", {1}) for k in range(6)) + (make_record("b", {2}),)
        manifest = ciss.DatasetManifest(class_count=2, records=records)
        split = build_overlapped(manifest, parse_layout("1-1", 2))
        memory = sample_class_balanced(split, manifest, upto_task=0, capacity=4, seed=0)
        assert overlap_ratio(memory, split, 1) == 0.0
        variant = make_non_overlapping_variant(memory, split, manifest, 1, seed=0)
        assert variant.entries == memory.entries

    @pytest.mark.parametrize("build, t, message", [
        (build_partitioned, 1, "the non-overlapping variant is defined on overlapped splits"),
        (build_overlapped, 0, "need an incremental task, got t=0"),
    ], ids=["partitioned", "task-0"])
    def test_refusals(self, fig3_manifest, fig3_spec, build, t, message):
        split = build(fig3_manifest, fig3_spec, **({"seed": 0} if build is build_partitioned else {}))
        with pytest.raises(ValidationError) as err:
            make_non_overlapping_variant(ExemplarMemory(capacity=1, entries=()), split, fig3_manifest, t, seed=0)
        assert str(err.value) == message

    def test_replaces_overlapping_entries(self, ample_manifest, ample_split):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=40, seed=5)
        t = 1
        if overlap_ratio(memory, ample_split, t) == 0.0:
            pytest.skip("fixture produced no overlap")
        variant = make_non_overlapping_variant(memory, ample_split, ample_manifest, t, seed=5)
        assert len(variant) == len(memory)
        assert overlap_ratio(variant, ample_split, t) == 0.0

    def test_anchor_preserved_when_supply_allows(self, ample_manifest, ample_split):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=40, seed=6)
        variant = make_non_overlapping_variant(memory, ample_split, ample_manifest, 1, seed=6)
        before = collections.Counter(e.anchor_class for e in memory.entries)
        after = collections.Counter(e.anchor_class for e in variant.entries)
        if not variant.warnings:
            assert before == after

    def test_anchor_reassigned_when_no_match(self):
        # the only replacement image lacks the overlapping entry's anchor class
        records = (
            make_record("keep", {1}),
            make_record("overlap", {2, 3}),
            make_record("spare", {1}),
        )
        manifest = ciss.DatasetManifest(class_count=3, records=records)
        split = build_overlapped(manifest, parse_layout("2-1", 3))
        memory = sample_class_balanced(split, manifest, upto_task=0, capacity=2, seed=0)
        drawn = {e.image_id for e in memory.entries}
        assert "overlap" in drawn and len(drawn & {"keep", "spare"}) == 1
        variant = make_non_overlapping_variant(memory, split, manifest, 1, seed=0)
        assert {e.image_id for e in variant.entries} == {"keep", "spare"}
        replacement_id = ({"keep", "spare"} - drawn).pop()
        assert variant.entry(replacement_id).anchor_class == 1
        assert variant.warnings

    def test_supply_shortfall_keeps_entry_with_warning(self):
        records = (make_record("overlap", {1, 2}),)
        manifest = ciss.DatasetManifest(class_count=2, records=records)
        split = build_overlapped(manifest, parse_layout("1-1", 2))
        memory = sample_class_balanced(split, manifest, upto_task=0, capacity=1, seed=0)
        variant = make_non_overlapping_variant(memory, split, manifest, 1, seed=0)
        assert variant.entries == memory.entries
        assert any("exhausted" in w for w in variant.warnings)


class TestBatches:
    def test_half_and_half(self, ample_manifest, ample_split):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=100, seed=0)
        batch = compose_batch(list(ample_split.task_ids(1)), memory, batch_size=24, seed=0)
        sources = collections.Counter(item.source for item in batch.items)
        assert sources == {"current": 12, "memory": 12}

    def test_odd_batch_rounds_current_up(self, ample_manifest, ample_split):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=10, seed=0)
        batch = compose_batch(list(ample_split.task_ids(1)), memory, batch_size=5, seed=1)
        sources = collections.Counter(item.source for item in batch.items)
        assert sources == {"current": 3, "memory": 2}

    def test_small_memory_sampled_with_replacement(self, ample_manifest, ample_split):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=1, seed=0)
        batch = compose_batch(list(ample_split.task_ids(1)), memory, batch_size=2, seed=2)
        sources = collections.Counter(item.source for item in batch.items)
        assert sources == {"current": 1, "memory": 1}
        bigger = compose_batch(list(ample_split.task_ids(1)), memory, batch_size=6, seed=2)
        mem_items = [i for i in bigger.items if i.source == "memory"]
        assert len(mem_items) == 3
        assert len({i.image_id for i in mem_items}) == 1
        assert bigger.warnings

    def test_empty_memory_degrades_to_current_only(self, ample_split):
        empty = ciss.ExemplarMemory(capacity=5, entries=())
        batch = compose_batch(list(ample_split.task_ids(1)), empty, batch_size=4, seed=0)
        assert all(item.source == "current" for item in batch.items)
        assert len(batch.items) == 4
        assert batch.warnings

    def test_batch_size_floor(self, ample_split):
        empty = ciss.ExemplarMemory(capacity=5, entries=())
        with pytest.raises(ValidationError):
            compose_batch(list(ample_split.task_ids(1)), empty, batch_size=1, seed=0)

    def test_no_current_images_is_an_error(self):
        memory = ExemplarMemory(capacity=1, entries=(_ENTRY,))
        with pytest.raises(ValidationError) as err:
            compose_batch([], memory, batch_size=2, seed=0)
        assert str(err.value) == "no current-task images to sample"

    def test_batch_size_is_at_most_the_supply(self):
        memory = ExemplarMemory(capacity=1, entries=(_ENTRY,))
        assert len(compose_batch(["b", "c"], memory, batch_size=3, seed=0).items) == 3
        with pytest.raises(ValidationError) as err:
            compose_batch(["b", "c"], memory, batch_size=4, seed=0)
        assert str(err.value) == "batch size must lie in 2..3, the images the task and the memory hold, got 4"

    def test_memory_items_carry_saved_at_labels(self, ample_manifest, ample_split):
        spec = ample_split.spec
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=0, capacity=50, seed=3)
        t = 1
        batch = compose_batch(list(ample_split.task_ids(t)), memory, batch_size=20, seed=3)
        labels = resolve_batch_labels(batch, memory, ample_manifest, spec, current_task=t)
        checked_differs = 0
        for item, grid in zip(batch.items, labels):
            oracle = ample_manifest.record(item.image_id).oracle_labels
            if item.source == "memory":
                entry = memory.entry(item.image_id)
                saved_view = relabel(oracle, classes_up_to(spec, entry.saved_at))
                current_view = relabel(oracle, task_classes(spec, t))
                assert grid == saved_view
                if saved_view != current_view:
                    assert grid != current_view
                    checked_differs += 1
            else:
                assert grid == relabel(oracle, task_classes(spec, t))
        assert checked_differs > 0  # the fixture must exercise the conflict


class TestPersistence:
    def test_memory_roundtrip(self, ample_manifest, ample_split, tmp_path):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=2, capacity=25, seed=4)
        path = tmp_path / "memory.json"
        save_memory(memory, path, ample_manifest, ample_split.spec)
        back = load_memory(path, ample_split)
        assert back == memory

    @pytest.mark.parametrize("entries", [{}, "", {"a": 1}, [1]],
                             ids=["empty-object", "empty-string", "object", "list-of-numbers"])
    def test_entries_must_be_a_list_of_objects(self, ample_split, tmp_path, entries):
        """Read as an empty memory, `{}` and `""` made `memory batch` all-current."""
        path = tmp_path / "memory.json"
        path.write_text(json.dumps({"capacity": 2, "entries": entries}))
        with pytest.raises(FormatError) as info:
            load_memory(path, ample_split)
        assert str(info.value) == f"{path}: entries must be a JSON list of objects"

    def test_memory_reads_only_against_its_own_split(self, ample_manifest, ample_split, tmp_path):
        """Under a 10-5 layout the 15-1 memory's entries sit at tasks the
        split has not, or anchor classes their task does not show."""
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=5, capacity=25, seed=4)
        path = tmp_path / "memory.json"
        save_memory(memory, path, ample_manifest, ample_split.spec)
        other = build_overlapped(ample_manifest, parse_layout("10-5", 20))
        with pytest.raises(FormatError) as info:
            load_memory(path, other)
        assert str(info.value).startswith(f"{path}: ")

    def test_memory_file_byte_stable(self, ample_manifest, ample_split, tmp_path):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=1, capacity=16, seed=4)
        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        run1.mkdir(), run2.mkdir()
        save_memory(memory, run1 / "memory.json", ample_manifest, ample_split.spec)
        save_memory(memory, run2 / "memory.json", ample_manifest, ample_split.spec)
        assert (run1 / "memory.json").read_bytes() == (run2 / "memory.json").read_bytes()

    def test_successful_save_removes_no_file(self, ample_manifest, ample_split, tmp_path, monkeypatch):
        memory = sample_class_balanced(ample_split, ample_manifest, upto_task=1, capacity=16, seed=4)
        removed = []
        monkeypatch.setattr(ciss.artifacts.os, "remove", lambda path: removed.append(path))
        save_memory(memory, tmp_path / "memory.json", ample_manifest, ample_split.spec)
        # replacing the files of the first save
        save_memory(memory, tmp_path / "memory.json", ample_manifest, ample_split.spec)
        assert removed == []
        assert not list(tmp_path.rglob("*.tmp"))
        assert load_memory(tmp_path / "memory.json", ample_split) == memory

    def test_failed_grid_write_leaves_previous_memory(self, ample_manifest, ample_split, tmp_path, monkeypatch):
        path = tmp_path / "memory.json"
        old = sample_class_balanced(ample_split, ample_manifest, upto_task=1, capacity=16, seed=4)
        new = sample_class_balanced(ample_split, ample_manifest, upto_task=1, capacity=16, seed=5)
        assert new != old
        save_memory(old, path, ample_manifest, ample_split.spec)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        written = []

        def fail_fourth(grid, file):
            if len(written) == 3:
                with open(file, "wb") as fh:
                    fh.write(b"P5\n")  # a partly written grid
                raise OSError(errno.ENOSPC, "No space left on device", str(file))
            ciss.pgm.write_pgm(grid, file)
            written.append(file)

        monkeypatch.setattr(ciss.memory, "write_pgm", fail_fourth)
        with pytest.raises(FormatError):
            save_memory(new, path, ample_manifest, ample_split.spec)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not list(tmp_path.rglob("*.tmp"))
        assert load_memory(path, ample_split) == old


class TestGridFree:
    def test_entry_holds_no_grid(self):
        assert [f.name for f in dataclasses.fields(ExemplarEntry)] == ["image_id", "saved_at", "anchor_class"]
        assert "stored_labels" in ciss.__all__
        assert ciss.stored_labels is ciss.memory.stored_labels

    def test_save_peak_memory_is_flat_in_capacity(self, tmp_path):
        """Sampling and saving hold one stored grid at a time: on a manifest
        of 200×150 grids loaded from disk, capacity 40 peaks under twice
        capacity 4."""
        rng = np.random.default_rng(3)
        records = []
        for i in range(60):
            data = np.zeros(200 * 150, dtype=np.uint8)
            for band, cls in enumerate(rng.choice(np.arange(1, 21), size=3, replace=False)):
                data[band * 9000 : band * 9000 + 6000] = cls
            records.append(OracleRecord.from_grid(f"img{i:03d}", LabelGrid(width=200, height=150, data=data)))
        save_manifest(DatasetManifest(class_count=20, records=tuple(records)), tmp_path / "m.json")
        manifest = load_manifest(tmp_path / "m.json")
        split = build_overlapped(manifest, parse_layout("15-1", 20))
        peaks = {}
        for capacity in (4, 40):
            tracemalloc.start()
            try:
                memory = sample_class_balanced(split, manifest, upto_task=5, capacity=capacity, seed=0)
                save_memory(memory, tmp_path / f"memory_{capacity}.json", manifest, split.spec)
                peaks[capacity] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(memory) == capacity
        assert peaks[40] < 2 * peaks[4], peaks


# --- draws match the filter-every-draw loops they replaced ---------------------


def _reference_sample(split, manifest, upto_task, capacity, seed):
    """Class-balanced sampling that filters each pool against the taken ids
    on every draw."""
    spec = split.spec
    order = spec.class_order[: spec.base_count + upto_task * spec.step]
    pools = ciss.memory._class_pools(split, manifest, order, upto_task)
    rng = random.Random(seed)
    taken, entries, warnings = set(), [], []
    while len(entries) < capacity:
        progress = False
        for cls in order:
            if len(entries) >= capacity:
                break
            pool = [cand for cand in pools[cls] if cand[0] not in taken]
            if not pool:
                continue
            image_id, saved_at = pool[rng.randrange(len(pool))]
            taken.add(image_id)
            entries.append(ExemplarEntry(image_id, saved_at, cls))
            progress = True
        if not progress:
            warnings.append(f"supply exhausted: stored {len(entries)} of {capacity} requested entries")
            break
    return ExemplarMemory(capacity=capacity, entries=tuple(entries), warnings=tuple(warnings))


def _reference_variant(memory, split, manifest, t, seed):
    """The non-overlapping variant, filtering its pools by the used ids on
    every replacement."""
    spec = split.spec
    current = set(split.task_ids(t))
    pool = sorted(set(split.task_ids(0)) - current - memory.ids())
    anchors = {e.anchor_class for e in memory.entries if e.image_id in current}
    pools = ciss.memory._class_pools(split, manifest, anchors, spec.num_tasks - 1, pool)
    rng = random.Random(seed)
    used, entries, warnings = set(), [], list(memory.warnings)
    for entry in memory.entries:
        if entry.image_id not in current:
            entries.append(entry)
            continue
        preferred = [cand for cand in pools[entry.anchor_class] if cand[0] not in used]
        if preferred:
            image_id, saved_at = preferred[rng.randrange(len(preferred))]
            anchor = entry.anchor_class
        elif remaining := [image_id for image_id in pool if image_id not in used]:
            image_id, saved_at = remaining[rng.randrange(len(remaining))], 0
            visible = manifest.record(image_id).oracle_classes & classes_up_to(spec, 0)
            anchor = sorted(visible, key=spec.class_order.index)[0]
            warnings.append(f"{entry.image_id}: no replacement with anchor class {entry.anchor_class}, reassigned")
        else:
            entries.append(entry)
            warnings.append(f"{entry.image_id}: non-overlapping supply exhausted, kept")
            continue
        used.add(image_id)
        entries.append(ExemplarEntry(image_id, saved_at, anchor))
    return ExemplarMemory(capacity=memory.capacity, entries=tuple(entries), warnings=tuple(warnings))


def _as_tuples(memory, manifest, spec):
    return (
        memory.capacity,
        [(e.image_id, e.saved_at, e.anchor_class, stored_labels(e, manifest, spec).data.tobytes())
         for e in memory.entries],
        memory.warnings,
    )


@pytest.mark.parametrize("layout", ["15-1", "10-2", "4-4"])
@pytest.mark.parametrize("capacity", [5, 24, 120])
def test_draws_match_the_filtering_loops(layout, capacity):
    """Over 12 seeds, sample (on all three scenarios, where outside
    overlapped an image can be saved at a task after its anchor's) and
    variant (on overlapped) pick the same images, in the same order and with
    the same warnings, as loops that filter every pool on every draw; the
    small manifest runs supply out at the larger capacities."""
    for seed in range(12):
        manifest = synthetic_manifest(90, 20, seed=100 + seed, min_classes=1, max_classes=4)
        spec = parse_layout(layout, 20)
        for split in (build_overlapped(manifest, spec), build_disjoint(manifest, spec),
                      build_partitioned(manifest, spec, seed=seed)):
            for upto in (0, 1):
                memory = sample_class_balanced(split, manifest, upto, capacity, seed)
                reference = _reference_sample(split, manifest, upto, capacity, seed)
                assert _as_tuples(memory, manifest, spec) == _as_tuples(reference, manifest, spec)
                if split.scenario == "overlapped":
                    variant = make_non_overlapping_variant(memory, split, manifest, upto + 1, seed)
                    reference = _reference_variant(memory, split, manifest, upto + 1, seed)
                    assert _as_tuples(variant, manifest, spec) == _as_tuples(reference, manifest, spec)
