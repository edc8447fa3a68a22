"""Command-line surface: build splits, manage exemplar memory, evaluate
metrics, generate pseudo-labels, and run the loss kernel.

Every invocation writes exactly one JSON document to stdout; error objects
go to stderr. Exit codes: 0 success, 2 usage or validation failure, 3 failed
numeric check. All randomness comes from explicit --seed flags. numpy's
floating-point warnings are off, so they never reach stderr; a NaN or an
infinity that reaches a document is refused instead.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import losses as L
from .artifacts import json_text, read_json, reading
from .errors import CissError, ValidationError
from .manifest import load_manifest
from .memory import (
    compose_batch,
    load_memory,
    make_non_overlapping_variant,
    overlap_ratio,
    sample_class_balanced,
    save_memory,
)
from .metrics import ConfusionAccumulator, accumulate, evaluation_report, pseudo_label_retrieval_rate
from .pgm import read_pgm, write_pgm
from .pseudo import PseudoConfig, pseudo_label
from .scenario import SCENARIO_KINDS, build_disjoint, build_overlapped, build_partitioned, load_split, save_split
from .scores import read_scores
from .tasks import classes_up_to, load_class_order, parse_layout

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


def _displayed(key: str, value: float) -> dict:
    """`value` under `key`, and as a two-decimal string under `<key>_display`."""
    return {key: value, f"{key}_display": f"{value:.2f}"}


def _load_spec(args, class_count: int | None = None):
    """--task over --class-order, else over 1..`class_count` (a manifest's) or 1..--class-count."""
    order = load_class_order(args.class_order) if args.class_order else None
    if class_count is None:
        if order is None and not args.class_count:
            raise ValidationError(f"eval {args.eval_cmd} needs --class-order or --class-count")
        class_count = len(order) if order is not None else args.class_count
    return parse_layout(args.task, class_count, order)


def cmd_build(args) -> dict:
    manifest = load_manifest(args.manifest)
    spec = _load_spec(args, manifest.class_count)
    if args.scenario == "partitioned":
        if args.seed is None:
            raise ValidationError("partitioned builds require --seed")
        split = build_partitioned(manifest, spec, args.seed)
    else:
        if args.seed is not None:
            raise ValidationError(f"{args.scenario} builds take no --seed")
        builder = build_overlapped if args.scenario == "overlapped" else build_disjoint
        split = builder(manifest, spec)
    save_split(split, args.out)
    doc: dict = {
        "scenario": split.scenario,
        "out": str(args.out),
        "task_counts": [len(task.image_ids) for task in split.tasks],
    }
    if split.scenario == "overlapped":
        sets = [set(task.image_ids) for task in split.tasks]
        doc["pairwise_overlaps"] = [{"a": i, "b": j, "size": len(sets[i] & sets[j])}
                                    for i, j in itertools.combinations(range(len(sets)), 2)]
    return doc


def cmd_memory_sample(args) -> dict:
    split = load_split(args.split)
    manifest = load_manifest(args.manifest)
    memory = sample_class_balanced(split, manifest, args.upto_task, args.size, args.seed)
    save_memory(memory, args.out)
    return {"out": str(args.out), "stored": len(memory), "capacity": memory.capacity,
            "warnings": list(memory.warnings)}


def cmd_memory_overlap_ratio(args) -> dict:
    memory, split = load_memory(args.memory), load_split(args.split)
    return _displayed("overlap_ratio", overlap_ratio(memory, split, args.task))


def cmd_memory_variant(args) -> dict:
    memory, split = load_memory(args.memory), load_split(args.split)
    manifest = load_manifest(args.manifest)
    variant = make_non_overlapping_variant(memory, split, manifest, args.task, args.seed)
    save_memory(variant, args.out)
    return {"out": str(args.out), **_displayed("overlap_ratio", overlap_ratio(variant, split, args.task)),
            "warnings": list(variant.warnings)}


def cmd_memory_batch(args) -> dict:
    memory, split = load_memory(args.memory), load_split(args.split)
    batch = compose_batch(list(split.task_ids(args.task)), memory, args.size, args.seed)
    return {
        "items": [{"image_id": it.image_id, "source": it.source} for it in batch.items],
        "n_current": sum(1 for it in batch.items if it.source == "current"),
        "n_memory": sum(1 for it in batch.items if it.source == "memory"),
        "warnings": list(batch.warnings),
    }


def cmd_pseudo(args) -> dict:
    gt = read_pgm(args.gt)
    prev = read_scores(args.prev_scores)
    try:
        current = {int(v) for v in args.current_classes.split(",") if v.strip()}
    except ValueError:
        raise ValidationError(
            f"--current-classes must be comma-separated integers, got {args.current_classes!r}"
        ) from None
    out = pseudo_label(gt, prev, current, PseudoConfig(tau=args.tau))
    write_pgm(out, args.out)
    return {"out": str(args.out), "tau": args.tau, "relabeled_pixels": int((out.data != gt.data).sum())}


def _read_pairs(path: str, first: str, second: str) -> list[tuple]:
    doc = read_json(path, "pairs file")
    with reading(path, "pairs file"):
        pairs = [(Path(path).parent / e[first], Path(path).parent / e[second]) for e in doc]
    if not pairs:
        raise ValidationError(f"{path}: pairs file is empty")
    return pairs


def cmd_eval_miou(args) -> dict:
    spec = _load_spec(args)
    acc = ConfusionAccumulator()
    for pred_path, gt_path in _read_pairs(args.pairs, "pred", "gt"):
        accumulate(read_pgm(pred_path), read_pgm(gt_path), acc)
    report = evaluation_report(acc, spec)
    report["miou_groups_display"] = {
        k: (None if v is None else f"{v:.2f}") for k, v in report["miou_groups"].items()
    }
    return report


def cmd_eval_prr(args) -> dict:
    spec = _load_spec(args)
    if args.current_task < 1:
        raise ValidationError("--current-task must be >= 1 (there must be old classes)")
    old = classes_up_to(spec, args.current_task - 1)
    pairs = ((read_pgm(oracle), read_pgm(pseudo))
             for oracle, pseudo in _read_pairs(args.pairs, "oracle", "pseudo"))
    return _displayed("prr", pseudo_label_retrieval_rate(pairs, old))


def _loss(loss_id: str, value: float) -> dict:
    """The loss `value` displayed; a loss that overflowed to infinity or NaN is a `ValidationError`."""
    if not math.isfinite(value):
        raise ValidationError(f"{loss_id}: loss is not finite ({value})")
    return _displayed("loss", value)


def _select_item(case: L.LossCase, index: int) -> L.LossItem:
    if not 0 <= index < len(case.items):
        raise ValidationError(f"item index {index} outside 0..{len(case.items) - 1}")
    return case.items[index]


def cmd_loss_value(args) -> dict:
    case = L.load_loss_case(args.case)
    if args.loss in L.COMPOSITE_LOSSES:
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
    """A leaf parser whose parsed arguments go to `func`, which returns the command's document."""
    p = sub.add_parser(name, help=help, parents=list(parents))
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
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
    case.add_argument("--item", type=int, default=0)

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
    p.add_argument("--loss", required=True, choices=L.ATOMIC_LOSSES + L.COMPOSITE_LOSSES)
    g = _command(lsub, "gradcheck", "finite-difference gradient validation", cmd_loss_gradcheck, case)
    g.add_argument("--loss", required=True, choices=L.ATOMIC_LOSSES, help="composites are affine in these")
    g.add_argument("--step", type=float, default=1e-5)
    g.add_argument("--tol", type=float, default=1e-6)
    g.add_argument("--samples", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its JSON document on stdout, or one JSON error line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            doc = args.func(args)
        text = json_text(doc)
    except CissError as exc:
        sys.stderr.write(json_text({"error": {"type": type(exc).__name__, "message": str(exc)}}, None))
        return EXIT_USAGE
    sys.stdout.write(text)
    return EXIT_CHECK_FAILED if doc.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
