"""Command-line surface: build splits, manage exemplar memory, evaluate
metrics, generate pseudo-labels, and run the loss kernel.

Every invocation writes exactly one JSON document to stdout; error objects
go to stderr. Exit codes: 0 success, 2 usage or validation failure, 3 failed
numeric check. All randomness comes from explicit --seed flags. Commands run
with RuntimeWarnings, numpy's floating-point warnings, ignored, so none reaches
stderr; a NaN or an infinity that reaches a document is refused instead.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import math
import os
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import ciss

from . import ATOMIC_LOSSES, COMPOSITE_LOSSES, SCENARIO_KINDS, CissError, FormatError, ValidationError
from .artifacts import json_text, read_json, staging


def __getattr__(name: str):
    """`ciss.<name>` for a library name no global here binds (PEP 562), looked
    up on each access, so a command loads only the modules it calls and
    `bench/tracing.py` can bind a timed wrapper under the same name. A dunder
    such as `__path__` or `__all__` is not taken from the package."""
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(ciss, name)


# the handlers call the library as `lib.<name>`, `lib` being this module (`__main__`
# under `python -m ciss.cli`), and the losses as `L.<name>`: the tracer replaces `L` whole
lib = sys.modules[__name__]
L = ciss


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


def _displayed(key: str, value: float) -> dict:
    """`value` under `key`, and as a two-decimal string under `<key>_display`."""
    return {key: value, f"{key}_display": f"{value:.2f}"}


def _load_spec(args, class_count: int | None = None):
    """--task over --class-order, else over 1..`class_count` (a manifest's) or 1..--class-count.
    A --class-count given with --class-order must be the order's length."""
    order = lib.load_class_order(args.class_order) if args.class_order else None
    if class_count is None:
        if order is None and args.class_count is None:
            raise ValidationError(f"eval {args.eval_cmd} needs --class-order or --class-count")
        class_count = len(order) if args.class_count is None else args.class_count
    return lib.parse_layout(args.task, class_count, order)


def cmd_build(args) -> dict:
    manifest = lib.load_manifest(args.manifest)
    spec = _load_spec(args, manifest.class_count)
    if args.scenario == "partitioned":
        if args.seed is None:
            raise ValidationError("partitioned builds require --seed")
        split = lib.build_partitioned(manifest, spec, args.seed)
    else:
        if args.seed is not None:
            raise ValidationError(f"{args.scenario} builds take no --seed")
        builder = lib.build_overlapped if args.scenario == "overlapped" else lib.build_disjoint
        split = builder(manifest, spec)
    lib.save_split(split, args.out)
    doc: dict = {
        "scenario": split.scenario,
        "out": str(args.out),
        "task_counts": [len(ids) for ids in split.tasks],
    }
    if split.scenario == "overlapped":
        sets = [set(ids) for ids in split.tasks]
        doc["pairwise_overlaps"] = [{"a": i, "b": j, "size": len(sets[i] & sets[j])}
                                    for i, j in itertools.combinations(range(len(sets)), 2)]
    return doc


def cmd_memory_sample(args) -> dict:
    split = lib.load_split(args.split)
    manifest = lib.load_manifest(args.manifest)
    memory = lib.sample_class_balanced(split, manifest, args.upto_task, args.size, args.seed)
    lib.save_memory(memory, args.out, manifest, split.spec)
    return {"out": str(args.out), "stored": len(memory), "capacity": memory.capacity,
            "warnings": list(memory.warnings)}


def cmd_memory_overlap_ratio(args) -> dict:
    memory = lib.load_memory(args.memory, split := lib.load_split(args.split))
    return _displayed("overlap_ratio", lib.overlap_ratio(memory, split, args.task))


def cmd_memory_variant(args) -> dict:
    memory = lib.load_memory(args.memory, split := lib.load_split(args.split))
    manifest = lib.load_manifest(args.manifest)
    variant = lib.make_non_overlapping_variant(memory, split, manifest, args.task, args.seed)
    ratio = lib.overlap_ratio(variant, split, args.task)  # an empty variant has none: refused before any write
    lib.save_memory(variant, args.out, manifest, split.spec)
    return {"out": str(args.out), **_displayed("overlap_ratio", ratio), "warnings": list(variant.warnings)}


def cmd_memory_batch(args) -> dict:
    memory = lib.load_memory(args.memory, split := lib.load_split(args.split))
    batch = lib.compose_batch(list(split.task_ids(args.task)), memory, args.size, args.seed)
    return {
        "items": [{"image_id": it.image_id, "source": it.source} for it in batch.items],
        "n_current": sum(1 for it in batch.items if it.source == "current"),
        "n_memory": sum(1 for it in batch.items if it.source == "memory"),
        "warnings": list(batch.warnings),
    }


def cmd_pseudo(args) -> dict:
    gt = lib.read_pgm(args.gt)
    prev = lib.read_scores(args.prev_scores)
    try:
        current = {int(v) for v in args.current_classes.split(",") if v.strip()}
    except ValueError:
        raise ValidationError(
            f"--current-classes must be comma-separated integers, got {args.current_classes!r}"
        ) from None
    out = lib.pseudo_label(gt, prev, current, lib.PseudoConfig(tau=args.tau))
    with staging(args.out, "PGM file") as stage:
        lib.write_pgm(out, stage(args.out))
    return {"out": str(args.out), "tau": args.tau, "relabeled_pixels": int((out.data != gt.data).sum())}


def _read_pairs(path: str, first: str, second: str) -> list[tuple]:
    doc = read_json(path, "pairs file")
    if not isinstance(doc, list):
        raise FormatError(f"{path}: pairs file must hold a JSON list of objects")
    for i, e in enumerate(doc):
        if not (isinstance(e, dict) and all(isinstance(e.get(k), str) and e[k] for k in (first, second))):
            raise FormatError(f"{path}: pairs entry {i} needs the keys {first!r} and {second!r}, each a path")
    if not doc:
        raise ValidationError(f"{path}: pairs file is empty")
    return [(Path(path).parent / e[first], Path(path).parent / e[second]) for e in doc]


def cmd_eval_miou(args) -> dict:
    spec = _load_spec(args)
    acc = lib.ConfusionAccumulator()
    for pred_path, gt_path in _read_pairs(args.pairs, "pred", "gt"):
        lib.accumulate(lib.read_pgm(pred_path), lib.read_pgm(gt_path), acc)
        # the pixels of a ground-truth id are its hits and misses; past the
        # layout's classes the id would be in no mean (the ignore id has neither)
        (beyond,) = (acc.tp + acc.fn)[spec.class_count + 1:].nonzero()
        if beyond.size:
            raise ValidationError(f"pair {pred_path}, {gt_path}: ground truth holds class id "
                                  f"{spec.class_count + 1 + beyond[0]}, outside the layout's 1..{spec.class_count}")
    report = lib.evaluation_report(acc, spec)
    report["miou_groups_display"] = {
        k: (None if v is None else f"{v:.2f}") for k, v in report["miou_groups"].items()
    }
    return report


def cmd_eval_prr(args) -> dict:
    spec = _load_spec(args)
    if not 1 <= args.current_task < spec.num_tasks:
        raise ValidationError(f"--current-task {args.current_task} outside 1..{spec.num_tasks - 1}, "
                              f"the tasks of layout {args.task} that have old classes")
    old = lib.classes_up_to(spec, args.current_task - 1)
    pairs = ((lib.read_pgm(oracle), lib.read_pgm(pseudo))
             for oracle, pseudo in _read_pairs(args.pairs, "oracle", "pseudo"))
    return _displayed("prr", lib.pseudo_label_retrieval_rate(pairs, old))


def _loss(loss_id: str, value: float) -> dict:
    """The loss `value` displayed; a loss that overflowed to infinity or NaN is a `ValidationError`."""
    if not math.isfinite(value):
        raise ValidationError(f"{loss_id}: loss is not finite ({value})")
    return _displayed("loss", value)


def _select_item(case: L.LossCase, index: int | None) -> L.LossItem:
    index = index or 0  # item 0 when --item is not given
    if not 0 <= index < len(case.items):
        raise ValidationError(f"item index {index} outside 0..{len(case.items) - 1}")
    return case.items[index]


def cmd_loss_value(args) -> dict:
    if args.loss in COMPOSITE_LOSSES and args.item is not None:
        raise ValidationError(f"--item selects the item of an atomic loss; {args.loss} scores every item")
    case = L.load_loss_case(args.case)
    if args.loss in COMPOSITE_LOSSES:
        value = getattr(L, f"{args.loss}_objective")(case.items, case.layout, case.cfg)
    else:
        value = L.loss_value(args.loss, _select_item(case, args.item), case.layout, case.cfg)
    return {"loss_id": args.loss, **_loss(args.loss, value)}


def cmd_loss_gradcheck(args) -> dict:
    case = L.load_loss_case(args.case)
    report = L.grad_check(args.loss, _select_item(case, args.item), case.layout, case.cfg,
                          step=args.step, tol=args.tol, max_coords=args.samples, seed=args.seed)
    return {**dataclasses.asdict(report), **_loss(args.loss, report.loss)}


class _Parser(argparse.ArgumentParser):
    """Argument errors take the path of every other exit-2 error: one JSON
    line on stderr."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _command(sub, name: str, help: str, func, *parents) -> argparse.ArgumentParser:
    """A leaf parser whose arguments go to `func`, which returns the command's document."""
    p = sub.add_parser(name, help=help, parents=list(parents))
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    parser = _Parser(prog="ciss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # option groups shared by sibling commands
    audit = argparse.ArgumentParser(add_help=False)
    audit.add_argument("--memory", required=True)
    audit.add_argument("--split", required=True)
    audit.add_argument("--task", type=int, required=True)
    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument("--task", required=True)
    layout.add_argument("--class-order")
    layout.add_argument("--class-count", type=int)
    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--case", required=True)
    case.add_argument("--item", type=int, help="the item an atomic loss scores (default 0)")

    p = _command(sub, "build", "build a split manifest for a scenario", cmd_build)
    p.add_argument("--manifest", required=True)
    p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--task", required=True, help='layout string "B-s"')
    p.add_argument("--class-order", help="file with one class id per line")
    p.add_argument("--seed", type=int, help="required for partitioned")
    p.add_argument("--out", required=True)

    msub = sub.add_parser("memory", help="exemplar memory operations").add_subparsers(
        dest="memory_cmd", required=True)
    m = _command(msub, "sample", "build a class-balanced memory", cmd_memory_sample)
    m.add_argument("--manifest", required=True)
    m.add_argument("--split", required=True)
    m.add_argument("--upto-task", type=int, required=True)
    m.add_argument("--size", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--out", required=True)
    _command(msub, "overlap-ratio", "fraction of memory reappearing in a task", cmd_memory_overlap_ratio, audit)
    m = _command(msub, "variant", "replace overlapping entries with base-task data", cmd_memory_variant, audit)
    m.add_argument("--manifest", required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--out", required=True)
    m = _command(msub, "batch", "compose a half-current, half-memory batch", cmd_memory_batch, audit)
    m.add_argument("--size", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)

    p = _command(sub, "pseudo", "pseudo-label background pixels from previous scores", cmd_pseudo)
    p.add_argument("--gt", required=True)
    p.add_argument("--prev-scores", required=True)
    p.add_argument("--current-classes", required=True, help="comma-separated class ids")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out", required=True)

    esub = sub.add_parser("eval", help="metric evaluation").add_subparsers(dest="eval_cmd", required=True)
    e = _command(esub, "miou", "per-class IoU and group means", cmd_eval_miou, layout)
    e.add_argument("--pairs", required=True, help='JSON list of {"pred", "gt"} paths')
    e = _command(esub, "prr", "pseudo-label retrieval rate", cmd_eval_prr, layout)
    e.add_argument("--pairs", required=True, help='JSON list of {"oracle", "pseudo"} paths')
    e.add_argument("--current-task", type=int, required=True)

    lsub = sub.add_parser("loss", help="loss kernel").add_subparsers(dest="loss_cmd", required=True)
    p = _command(lsub, "value", "evaluate a loss on a case file", cmd_loss_value, case)
    p.add_argument("--loss", required=True, choices=ATOMIC_LOSSES + COMPOSITE_LOSSES)
    g = _command(lsub, "gradcheck", "finite-difference gradient validation", cmd_loss_gradcheck, case)
    g.add_argument("--loss", required=True, choices=ATOMIC_LOSSES, help="composites are affine in these")
    g.add_argument("--step", type=float, default=1e-5)
    g.add_argument("--tol", type=float, default=1e-6)
    g.add_argument("--samples", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its JSON document on stdout, or one JSON error line on
    stderr, written and flushed before `main` returns. A document that stdout
    refuses, a full disk or a closed pipe, is such an error too."""
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings():  # numpy's floating-point warnings are off
            warnings.simplefilter("ignore", RuntimeWarning)
            doc = args.func(args)
        text = json_text(doc)
    except CissError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    except MemoryError as exc:  # whitespace is free in P2 and text payloads, so no read bounds them
        error = {"type": "MemoryError", "message": str(exc) or "out of memory"}
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
            return EXIT_CHECK_FAILED if doc.get("passed") is False else EXIT_OK
        except OSError as exc:
            error = {"type": type(exc).__name__, "message": f"stdout: {exc}"}
    with contextlib.suppress(OSError):  # a closed stderr leaves only the exit code
        sys.stderr.write(json_text({"error": error}, None))
        sys.stderr.flush()
    return EXIT_USAGE


def run() -> NoReturn:
    """The process entry of `python -m ciss.cli` and the `ciss` script: one
    BLAS thread unless the environment names a count (no command calls BLAS),
    then `main`, then an exit that skips interpreter teardown, since `main`
    has flushed all it wrote and holds no open file."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS
    os._exit(main())


if __name__ == "__main__":
    run()
