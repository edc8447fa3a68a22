"""Checker self-test: every check must flag one deliberately corrupted artifact.

    python3 bench/selftest.py

Generates each workload's inputs under ``.bench_work/``, produces good
outputs by running each command in-process through the CLI's entry point, confirms every check passes on them,
then corrupts one artifact per check (a flipped pixel in a stored memory
grid, an image moved to another task, a loss value off by 1e-6, ...) and
confirms the check reports it. Exits 1 if any check stays silent.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

from run import SRC, WORK
from tracing import Tracer, run_op
from workloads import WORKLOADS


def _rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _flip_pixel(pgm_path: Path) -> None:
    blob = bytearray(pgm_path.read_bytes())
    blob[-1] = 7 if blob[-1] != 7 else 8
    pgm_path.write_bytes(bytes(blob))


def _move_image(split: dict) -> None:
    """Move one image of task 0 to the last task."""
    moved = split["tasks"][0]["image_ids"].pop()
    split["tasks"][-1]["image_ids"].append(moved)


def _scale(key: str):
    """Move a value by one part in a million."""
    return lambda doc: {**doc, key: doc[key] * (1 + 1e-6)}


def corruptions(name: str, work: Path):
    """(label, op index, corrupt) triples. `corrupt(doc)` may change files on
    disk and returns the document the check is then given."""
    data = work / "in"
    if name == "split-memory":

        def move(kind):
            def corrupt(doc):
                _rewrite_json(data / f"split_{kind}.json", _move_image)
                return doc

            return corrupt

        def flip_memory(doc):
            entry = json.loads((data / "memory_20.json").read_text())["entries"][0]
            _flip_pixel(data / entry["labels_path"])
            return doc

        def drop_variant_entry(doc):
            _rewrite_json(data / "variant_2.json", lambda d: d["entries"].pop())
            return doc

        def foreign_batch_item(doc):
            doc = copy.deepcopy(doc)
            memory_item = next(it for it in doc["items"] if it["source"] == "memory")
            memory_item["image_id"] = "img99999"
            return doc

        return [
            ("image moved in the overlapped split", 0, move("overlapped")),
            ("image moved in the disjoint split", 2, move("disjoint")),
            ("image moved in the partitioned split", 5, move("partitioned")),
            ("pixel flipped in a stored memory grid", 1, flip_memory),
            ("overlap ratio off by 1e-6", 4, lambda doc: {**doc, "overlap_ratio": doc["overlap_ratio"] + 1e-6}),
            ("variant entry dropped", 6, drop_variant_entry),
            ("batch item from outside the memory", 7, foreign_batch_item),
        ]
    if name == "loss-kernel":
        return [
            ("atomic loss value off by 1e-6", 0, _scale("loss")),
            ("small gradcheck reporting passed: false", 1, lambda doc: {**doc, "passed": False}),
            ("composite loss value off by 1e-6", 6, _scale("loss")),
        ]

    def flip_pseudo(doc):
        _flip_pixel(data / "pseudo_000.pgm")
        return doc

    def class_iou_off(doc):
        doc = copy.deepcopy(doc)
        key = next(k for k, v in doc["per_class_iou"].items() if v)
        doc["per_class_iou"][key] *= 1 + 1e-6
        return doc

    return [
        ("pixel flipped in a pseudo-label", 0, flip_pseudo),
        ("relabeled_pixels off by one", 0, lambda doc: {**doc, "relabeled_pixels": doc["relabeled_pixels"] + 1}),
        ("one class IoU off by 1e-6", 1, class_iou_off),
        ("prr off by 1e-6", 2, _scale("prr")),
    ]


# Operations the self-test runs in-process: every check kind once, without
# the full-size gradchecks (minutes of work that no corruption needs).
RUN_OPS = {"split-memory": range(9), "loss-kernel": (0, 1, 6), "pseudo-eval": range(7)}


def main() -> int:
    if not (SRC / "ciss" / "cli.py").is_file():
        print(f"no ciss package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    silent = []
    for name, workload in WORKLOADS.items():
        work = WORK / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        (work / "in").mkdir(parents=True)
        try:
            inputs = workload.setup(7, work / "in")
            ops = workload.plan(inputs, 7)
            docs = {}
            for i in RUN_OPS[name]:
                code, docs[i] = run_op(ops[i], Tracer(name))
                problems = ops[i].check(docs[i]) if code == 0 else [f"exit {code}"]
                if problems:
                    print(f"{name}: op {i} fails on good output: {problems}", file=sys.stderr)
                    return 1
            snapshot = {p: p.read_bytes() for p in (work / "in").rglob("*") if p.is_file()}
            for label, i, corrupt in corruptions(name, work):
                found = ops[i].check(corrupt(docs[i]))
                print(f"{'ok    ' if found else 'SILENT'} {name}: {label}" + (f" -> {found[0]}" if found else ""))
                if not found:
                    silent.append(f"{name}: {label}")
                for p, blob in snapshot.items():
                    if p.read_bytes() != blob:
                        p.write_bytes(blob)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if silent:
        print(f"{len(silent)} checks stayed silent", file=sys.stderr)
        return 1
    print("every check flagged its corrupted artifact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
