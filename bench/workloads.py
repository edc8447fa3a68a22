"""The three workloads: what each generates, the CLI commands one pass runs,
and the check that judges each command's output.

A pass is a fixed list of operations, one CLI command each. Every run
attempts whole passes, so the share of failed operations is the same in
every run whatever its length.
"""
from __future__ import annotations

import functools
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen


@dataclass
class Op:
    """One CLI command of a pass.

    `metric` names the per-command figure its wall time feeds, `argv` is what
    follows ``python -m ciss.cli``, and `check` judges the printed JSON (and
    any files written) once the command exited 0.
    """

    metric: str
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    name: str
    # Per-command figures in report order, each the "mean" or "sum" of the
    # wall times of its commands in a pass (see per_command).
    commands: tuple[tuple[str, str], ...]
    setup: Callable[[int, Path], object]
    plan: Callable[[object, int], list[Op]]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# split-memory
# ---------------------------------------------------------------------------

SPLIT_IMAGES = 150
UPTO_TASK = 1  # memory holds classes 1..16
VARIANT_TASKS = (2, 3)  # tasks whose images the variants must avoid
SMALL_CAPACITY = 20
LARGE_CAPACITY = 75
BATCH_SIZE = 16


def setup_split_memory(seed: int, out: Path) -> gen.Dataset:
    return gen.make_dataset(_rng(seed, 1), out, SPLIT_IMAGES)


def plan_split_memory(ds: gen.Dataset, seed: int) -> list[Op]:
    out = ds.manifest.parent
    m = str(ds.manifest)
    split = {k: out / f"split_{k}.json" for k in ("overlapped", "disjoint", "partitioned")}
    over = split["overlapped"]
    mem = {cap: out / f"memory_{cap}.json" for cap in (SMALL_CAPACITY, LARGE_CAPACITY)}
    large = mem[LARGE_CAPACITY]
    builds, samples, variants = [], [], []
    for kind, path in split.items():
        seed_args = ["--seed", str(seed)] if kind == "partitioned" else []
        builds.append(
            Op(
                "build_s",
                ["build", "--manifest", m, "--scenario", kind, "--task", gen.LAYOUT, *seed_args, "--out", str(path)],
                lambda doc, kind=kind, path=path: checks.check_build(kind, doc, _read_json(path), ds.classes),
            )
        )
    for cap, path in mem.items():
        samples.append(
            Op(
                "memory_sample_s",
                ["memory", "sample", "--manifest", m, "--split", str(over), "--upto-task", str(UPTO_TASK),
                 "--size", str(cap), "--seed", str(seed + 1), "--out", str(path)],
                lambda doc, cap=cap, path=path: checks.check_memory_sample(
                    doc, path, _read_json(over), ds.classes, ds.grids, UPTO_TASK, cap
                ),
            )
        )
    t = VARIANT_TASKS[0]
    ratio = Op(
        "memory_overlap_ratio_s",
        ["memory", "overlap-ratio", "--memory", str(large), "--split", str(over), "--task", str(t)],
        lambda doc: checks.check_overlap_ratio(doc, large, _read_json(over), t),
    )
    for vt in VARIANT_TASKS:
        variant = out / f"variant_{vt}.json"
        variants.append(
            Op(
                "memory_variant_s",
                ["memory", "variant", "--memory", str(large), "--split", str(over), "--manifest", m,
                 "--task", str(vt), "--seed", str(seed + 2), "--out", str(variant)],
                lambda doc, vt=vt, variant=variant: checks.check_variant(
                    doc, variant, large, _read_json(over), ds.classes, ds.grids, vt, UPTO_TASK
                ),
            )
        )
    batch = Op(
        "memory_batch_s",
        ["memory", "batch", "--memory", str(large), "--split", str(over), "--task", str(t),
         "--size", str(BATCH_SIZE), "--seed", str(seed + 3)],
        lambda doc: checks.check_batch(doc, large, _read_json(over), t, BATCH_SIZE),
    )
    # Kinds alternate so each kind's commands are spread over the pass, not
    # timed back to back in one stretch of the machine's speed; every command
    # still follows the ones whose files it reads.
    return [builds[0], samples[0], builds[1], samples[1], ratio, builds[2], variants[0], batch, variants[1]]


# ---------------------------------------------------------------------------
# loss-kernel
# ---------------------------------------------------------------------------

SMALL_SIDE = 48  # N = 2,304: every atomic gradcheck passes at the default 64 coordinates
FULL_CASE_SEED = 1  # fixed: the full-size gradcheck outcome must not depend on --seed
FULL_COORDS = 3
FULL_GRADCHECK_SEED = 0


@dataclass
class LossInputs:
    batch: gen.LossCaseRecord
    small: gen.LossCaseRecord
    full: gen.LossCaseRecord


def setup_loss_kernel(seed: int, out: Path) -> LossInputs:
    return LossInputs(
        batch=gen.make_loss_case(_rng(seed, 2), out, "batch", gen.WIDTH, gen.HEIGHT),
        small=gen.make_loss_case(_rng(seed, 3), out, "small", SMALL_SIDE, SMALL_SIDE),
        full=gen.make_loss_case(np.random.default_rng(FULL_CASE_SEED), out, "full", gen.WIDTH, gen.HEIGHT),
    )


def plan_loss_kernel(inp: LossInputs, seed: int) -> list[Op]:
    @functools.cache
    def want(name: str) -> dict[str, float]:
        # computed on first use: a failing full-size gradcheck needs none
        return checks.expected_losses(getattr(inp, name))

    def value(lid: str) -> Op:
        item = ["--item", str(checks.ATOMIC_ITEM[lid])] if lid in checks.ATOMIC_ITEM else []
        return Op(
            "loss_value_s",
            ["loss", "value", "--case", str(inp.batch.path), "--loss", lid, *item],
            lambda doc: checks.check_loss_value(doc, lid, want("batch")[lid]),
        )

    def gradcheck(name: str, lid: str) -> Op:
        extra = (["--seed", str(seed)] if name == "small"
                 else ["--samples", str(FULL_COORDS), "--seed", str(FULL_GRADCHECK_SEED)])
        return Op(
            "gradcheck_s" if name == "small" else "gradcheck_full_s",
            ["loss", "gradcheck", "--case", str(getattr(inp, name).path), "--loss", lid,
             "--item", str(checks.ATOMIC_ITEM[lid]), *extra],
            lambda doc: checks.check_gradcheck(doc, lid, want(name)[lid]),
        )

    # Each atomic id's value and two gradchecks run together, with a
    # composite after every second id, so every summed figure gathers its
    # commands from the whole pass.
    ops = []
    composites = iter(checks.COMPOSITES)
    for i, lid in enumerate(checks.ATOMIC_ITEM):
        ops += [value(lid), gradcheck("small", lid), gradcheck("full", lid)]
        if i % 2:
            ops.append(value(next(composites)))
    return ops


# ---------------------------------------------------------------------------
# pseudo-eval
# ---------------------------------------------------------------------------

EVAL_IMAGES = 200
PAIR_SETS = 2
PSEUDO_IMAGES = 3


@dataclass
class PseudoInputs:
    dataset: gen.Dataset
    evalset: gen.EvalSet
    images: list[gen.PseudoImage]


def setup_pseudo_eval(seed: int, out: Path) -> PseudoInputs:
    rng = _rng(seed, 4)
    ds = gen.make_dataset(rng, out, EVAL_IMAGES)
    ev = gen.make_eval_set(rng, out, ds, PAIR_SETS)
    images = [gen.make_pseudo_image(rng, out, j, ds.grids[ds.ids[j]]) for j in range(PSEUDO_IMAGES)]
    return PseudoInputs(ds, ev, images)


def plan_pseudo_eval(inp: PseudoInputs, seed: int) -> list[Op]:
    pseudo = []
    for im in inp.images:
        want = checks.expected_pseudo(im.gt_rows, im.planted_class, im.confident)
        pseudo.append(
            Op(
                "pseudo_s",
                ["pseudo", "--gt", str(im.gt), "--prev-scores", str(im.scores),
                 "--current-classes", ",".join(map(str, gen.NEW_CLASSES)), "--tau", str(gen.TAU),
                 "--out", str(im.out)],
                lambda doc, im=im, want=want: checks.check_pseudo(doc, im.out, want, im.gt_rows),
            )
        )
    ev = inp.evalset
    count = ["--task", gen.LAYOUT, "--class-count", str(gen.CLASS_COUNT)]
    evals = []
    for k in range(PAIR_SETS):
        miou = checks.expected_miou(ev.preds[k], ev.oracles[k])
        prr = checks.expected_prr(ev.preds[k], ev.oracles[k], gen.PSEUDO_TASK)
        evals.append(Op("eval_miou_s", ["eval", "miou", "--pairs", str(ev.miou_pairs[k]), *count],
                        lambda doc, miou=miou: checks.check_miou(doc, miou)))
        evals.append(Op("eval_prr_s", ["eval", "prr", "--pairs", str(ev.prr_pairs[k]), *count,
                                       "--current-task", str(gen.PSEUDO_TASK)],
                        lambda doc, prr=prr: checks.check_prr(doc, prr)))
    # pseudo, miou, prr, pseudo, miou, prr, pseudo: kinds alternate over the pass
    return [pseudo[0], *evals[0:2], pseudo[1], *evals[2:4], pseudo[2]]


WORKLOADS = {
    "split-memory": Workload(
        "split-memory",
        (("build_s", "mean"), ("memory_sample_s", "mean"), ("memory_variant_s", "mean")),
        setup_split_memory,
        plan_split_memory,
    ),
    "loss-kernel": Workload(
        "loss-kernel",
        (("loss_value_s", "sum"), ("gradcheck_s", "sum"), ("gradcheck_full_s", "sum")),
        setup_loss_kernel,
        plan_loss_kernel,
    ),
    "pseudo-eval": Workload(
        "pseudo-eval",
        (("pseudo_s", "mean"), ("eval_miou_s", "mean"), ("eval_prr_s", "mean")),
        setup_pseudo_eval,
        plan_pseudo_eval,
    ),
}


def per_command(workload: Workload, passes: list[dict[str, list[float]]]) -> dict[str, float]:
    """The workload's per-command figures: the median over passes of each
    pass's mean or sum. The machine switches between a fast and a slow
    state for seconds at a time; a pass's mean moves smoothly with the time
    spent in each, where a median over single commands jumps between them."""
    out = {}
    for metric, how in workload.commands:
        per_pass = statistics.fmean if how == "mean" else sum
        out[metric] = statistics.median(per_pass(p[metric]) for p in passes)
    return out
