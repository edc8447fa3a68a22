"""Command-line surface: build splits, manage exemplar memory, evaluate
metrics, generate pseudo-labels, and run the loss kernel.

Every invocation writes exactly one JSON document to stdout; error objects
go to stderr. Exit codes: 0 success, 2 usage or validation failure, 3 failed
numeric check. All randomness comes from explicit --seed flags.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

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


def _emit(doc: dict) -> None:
    sys.stdout.write(json_text(doc))


def _display(value: float) -> str:
    return f"{value:.2f}"


def _load_spec(args, class_count: int | None = None):
    """--task over --class-order, else over 1..`class_count` (a manifest's) or 1..--class-count."""
    order = load_class_order(args.class_order) if args.class_order else None
    if class_count is None:
        if order is None and not args.class_count:
            raise ValidationError(f"eval {args.eval_cmd} needs --class-order or --class-count")
        class_count = len(order) if order is not None else args.class_count
    return parse_layout(args.task, class_count, order)


def cmd_build(args) -> int:
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
        overlaps = []
        sets = [set(task.image_ids) for task in split.tasks]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                overlaps.append({"a": i, "b": j, "size": len(sets[i] & sets[j])})
        doc["pairwise_overlaps"] = overlaps
    _emit(doc)
    return EXIT_OK


def cmd_memory(args) -> int:
    if args.memory_cmd == "sample":
        split = load_split(args.split)
        manifest = load_manifest(args.manifest)
        memory = sample_class_balanced(split, manifest, args.upto_task, args.size, args.seed)
        save_memory(memory, args.out)
        _emit(
            {
                "out": str(args.out),
                "stored": len(memory),
                "capacity": memory.capacity,
                "warnings": list(memory.warnings),
            }
        )
        return EXIT_OK
    if args.memory_cmd == "overlap-ratio":
        memory = load_memory(args.memory)
        split = load_split(args.split)
        ratio = overlap_ratio(memory, split, args.task)
        _emit({"overlap_ratio": ratio, "overlap_ratio_display": _display(ratio)})
        return EXIT_OK
    if args.memory_cmd == "variant":
        memory = load_memory(args.memory)
        split = load_split(args.split)
        manifest = load_manifest(args.manifest)
        variant = make_non_overlapping_variant(memory, split, manifest, args.task, args.seed)
        save_memory(variant, args.out)
        ratio = overlap_ratio(variant, split, args.task)
        _emit(
            {
                "out": str(args.out),
                "overlap_ratio": ratio,
                "overlap_ratio_display": _display(ratio),
                "warnings": list(variant.warnings),
            }
        )
        return EXIT_OK
    if args.memory_cmd == "batch":
        memory = load_memory(args.memory)
        split = load_split(args.split)
        current_ids = list(split.task_ids(args.task))
        batch = compose_batch(current_ids, memory, args.size, args.seed)
        _emit(
            {
                "items": [{"image_id": it.image_id, "source": it.source} for it in batch.items],
                "n_current": sum(1 for it in batch.items if it.source == "current"),
                "n_memory": sum(1 for it in batch.items if it.source == "memory"),
                "warnings": list(batch.warnings),
            }
        )
        return EXIT_OK
    raise ValidationError(f"unknown memory subcommand {args.memory_cmd!r}")


def cmd_pseudo(args) -> int:
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
    changed = int((out.data != gt.data).sum())
    _emit({"out": str(args.out), "tau": args.tau, "relabeled_pixels": changed})
    return EXIT_OK


def _read_pairs(path: str, first: str, second: str) -> list[tuple]:
    doc = read_json(path, "pairs file")
    with reading(path, "pairs file"):
        pairs = [(Path(path).parent / e[first], Path(path).parent / e[second]) for e in doc]
    if not pairs:
        raise ValidationError(f"{path}: pairs file is empty")
    return pairs


def cmd_eval(args) -> int:
    spec = _load_spec(args)
    if args.eval_cmd == "miou":
        acc = ConfusionAccumulator()
        for pred_path, gt_path in _read_pairs(args.pairs, "pred", "gt"):
            accumulate(read_pgm(pred_path), read_pgm(gt_path), acc)
        report = evaluation_report(acc, spec)
        groups = report["miou_groups"]
        report["miou_groups_display"] = {
            k: (_display(v) if v is not None else None) for k, v in groups.items()
        }
        _emit(report)
        return EXIT_OK
    if args.eval_cmd == "prr":
        if args.current_task < 1:
            raise ValidationError("--current-task must be >= 1 (there must be old classes)")
        old = classes_up_to(spec, args.current_task - 1)
        pairs = [
            (read_pgm(oracle), read_pgm(pseudo))
            for oracle, pseudo in _read_pairs(args.pairs, "oracle", "pseudo")
        ]
        value = pseudo_label_retrieval_rate(pairs, old)
        _emit({"prr": value, "prr_display": _display(value)})
        return EXIT_OK
    raise ValidationError(f"unknown eval subcommand {args.eval_cmd!r}")


def _select_item(case: L.LossCase, index: int) -> L.LossItem:
    if not 0 <= index < len(case.items):
        raise ValidationError(f"item index {index} outside 0..{len(case.items) - 1}")
    return case.items[index]


def cmd_loss(args) -> int:
    case = L.load_loss_case(args.case)
    if args.loss_cmd == "value":
        if args.loss in L.ATOMIC_LOSSES:
            value = L.loss_value(args.loss, _select_item(case, args.item), case.layout, case.cfg)
        elif args.loss == "memory_augmented":
            value = L.memory_augmented_objective(case.items, case.layout, case.cfg)
        elif args.loss == "bce_replay":
            value = L.bce_replay_objective(case.items, case.layout, case.cfg)
        elif args.loss == "pseudo_replay":
            value = L.pseudo_replay_objective(case.items, case.cfg)
        else:
            known = ", ".join(L.ATOMIC_LOSSES + L.COMPOSITE_LOSSES)
            raise ValidationError(f"unknown loss id {args.loss!r}; expected one of {known}")
        _emit({"loss_id": args.loss, "loss": value, "loss_display": _display(value)})
        return EXIT_OK
    if args.loss_cmd == "gradcheck":
        if args.loss not in L.ATOMIC_LOSSES:
            raise ValidationError(
                f"gradcheck supports {', '.join(L.ATOMIC_LOSSES)}; composites are affine in them"
            )
        report = L.grad_check(
            args.loss,
            _select_item(case, args.item),
            case.layout,
            case.cfg,
            step=args.step,
            tol=args.tol,
            max_coords=args.samples,
            seed=args.seed,
        )
        _emit(
            {
                "loss_id": report.loss_id,
                "loss": report.loss,
                "loss_display": _display(report.loss),
                "max_rel_err": report.max_rel_err,
                "coords_checked": report.coords_checked,
                "step": report.step,
                "tol": report.tol,
                "passed": report.passed,
            }
        )
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED
    raise ValidationError(f"unknown loss subcommand {args.loss_cmd!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ciss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a split manifest for a scenario")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--task", required=True, help='layout string "B-s"')
    p.add_argument("--class-order", help="file with one class id per line")
    p.add_argument("--seed", type=int, help="required for partitioned")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("memory", help="exemplar memory operations")
    msub = p.add_subparsers(dest="memory_cmd", required=True)
    m = msub.add_parser("sample", help="build a class-balanced memory")
    m.add_argument("--manifest", required=True)
    m.add_argument("--split", required=True)
    m.add_argument("--upto-task", type=int, required=True)
    m.add_argument("--size", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--out", required=True)
    m = msub.add_parser("overlap-ratio", help="fraction of memory reappearing in a task")
    m.add_argument("--memory", required=True)
    m.add_argument("--split", required=True)
    m.add_argument("--task", type=int, required=True)
    m = msub.add_parser("variant", help="replace overlapping entries with base-task data")
    m.add_argument("--memory", required=True)
    m.add_argument("--split", required=True)
    m.add_argument("--manifest", required=True)
    m.add_argument("--task", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--out", required=True)
    m = msub.add_parser("batch", help="compose a half-current, half-memory batch")
    m.add_argument("--memory", required=True)
    m.add_argument("--split", required=True)
    m.add_argument("--task", type=int, required=True)
    m.add_argument("--size", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_memory)

    p = sub.add_parser("pseudo", help="pseudo-label background pixels from previous scores")
    p.add_argument("--gt", required=True)
    p.add_argument("--prev-scores", required=True)
    p.add_argument("--current-classes", required=True, help="comma-separated class ids")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("eval", help="metric evaluation")
    esub = p.add_subparsers(dest="eval_cmd", required=True)
    e = esub.add_parser("miou", help="per-class IoU and group means")
    e.add_argument("--pairs", required=True, help='JSON list of {"pred", "gt"} paths')
    e.add_argument("--task", required=True)
    e.add_argument("--class-order")
    e.add_argument("--class-count", type=int)
    e = esub.add_parser("prr", help="pseudo-label retrieval rate")
    e.add_argument("--pairs", required=True, help='JSON list of {"oracle", "pseudo"} paths')
    e.add_argument("--task", required=True)
    e.add_argument("--current-task", type=int, required=True)
    e.add_argument("--class-order")
    e.add_argument("--class-count", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loss", help="loss kernel")
    lsub = p.add_subparsers(dest="loss_cmd", required=True)
    v = lsub.add_parser("value", help="evaluate a loss on a case file")
    v.add_argument("--case", required=True)
    v.add_argument("--loss", required=True)
    v.add_argument("--item", type=int, default=0)
    g = lsub.add_parser("gradcheck", help="finite-difference gradient validation")
    g.add_argument("--case", required=True)
    g.add_argument("--loss", required=True)
    g.add_argument("--item", type=int, default=0)
    g.add_argument("--step", type=float, default=1e-5)
    g.add_argument("--tol", type=float, default=1e-6)
    g.add_argument("--samples", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_loss)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CissError as exc:
        sys.stderr.write(json_text({"error": {"type": type(exc).__name__, "message": str(exc)}}, None))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
