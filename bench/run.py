"""Benchmark of the ``ciss`` CLI on seeded synthetic inputs.

    python3 bench/run.py --workload split-memory --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository: the package is
imported from ``src/`` next to this directory. With ``--trace 0`` every
command runs as its own ``python -m ciss.cli`` child, one at a time, and the
run repeats whole passes over the workload's command sequence for about
``--seconds``. With ``--trace 1`` one pass of the same commands runs
in-process through the CLI's entry point, with spans around the library
calls the handlers make, and the run reports per-layer figures. Every
output is checked against a computation made apart from the package.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it reports the same run under
the per-command names the README uses, each with its unit (with
``--trace 1``: every per-layer figure, including those of layers the
workload never reaches, which read 0). Inputs are generated under
``.bench_work/`` in the checkout and removed when the run ends.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Op, Workload, per_command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# setup_s is the median of at least this many set-ups, and of as many more
# as fit in SETUP_SECONDS, so a set-up of a fraction of a second is sampled
# over seconds of the machine's drifting speed rather than one moment of it.
SETUP_REPEATS = 5
SETUP_SECONDS = 5.0

# End-to-end metrics every workload reports. command1..3_s are the
# workload's own per-command figures, in the order of Workload.commands.
SLOTS = ("command1_s", "command2_s", "command3_s")


@dataclass
class Outcome:
    code: int
    doc: dict | None
    wall_s: float
    maxrss_mb: float
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CISS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv: list[str], env: dict[str, str], scratch: Path) -> Outcome:
    """Run one CLI command to completion; time it and read its own rusage."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ciss.cli", *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        doc = json.loads(out_path.read_text())
    except ValueError:
        doc = None
    return Outcome(proc.returncode, doc, wall, usage.ru_maxrss / 1024.0, err_path.read_text()[-2000:])


class Tally:
    """Operations attempted and failed, and whether every output that the
    program did produce was correct."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: Op, code: int, doc: dict | None) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return
        try:
            found = ["no JSON document on stdout"] if doc is None else op.check(doc)
        except Exception as exc:  # an unreadable artifact is a wrong output, not a crash
            found = [f"check could not read the output: {exc!r}"]
        for p in found:
            self.problems.append(f"{' '.join(op.argv[:2])}: {p}")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": with_units(metrics),
        }


def with_units(metrics: dict[str, tuple[float, str]]) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def cli_passes(workload: Workload, ops: list[Op], seconds: float, scratch: Path, tally: Tally) -> dict:
    env = child_env()
    run_cli(["--help"], env, scratch)  # compiles the package's bytecode once, untimed
    passes, rss = [], []
    start = time.perf_counter()
    while True:
        times: dict[str, list[float]] = {}
        for op in ops:
            res = run_cli(op.argv, env, scratch)
            if res.code != 0:
                print(f"exit {res.code}: {' '.join(op.argv[:4])}: {res.stderr.strip()[-300:]}", file=sys.stderr)
            tally.record(op, res.code, res.doc)
            times.setdefault(op.metric, []).append(res.wall_s)
            rss.append(res.maxrss_mb)
        passes.append(times)
        # Another pass only if it would end nearer to `seconds` than stopping
        # now, so a run lasts `seconds` give or take half a pass.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    return {
        "passes": len(passes),
        "workload_s": statistics.median(sum(map(sum, p.values())) for p in passes),
        "peak_rss_mb": max(rss),
        **per_command(workload, passes),
        "per_op_median_s": {m: statistics.median(t for p in passes for t in p[m]) for m in passes[0]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ciss" / "cli.py").is_file():
        print(f"no ciss package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times: list[float] = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            shutil.rmtree(work, ignore_errors=True)
            (work / "in").mkdir(parents=True)
            inputs = None  # the previous set-up's arrays are freed before timing
            gc.collect()
            start = time.perf_counter()
            inputs = workload.setup(args.seed, work / "in")
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(setup_times)
        ops = workload.plan(inputs, args.seed)
        tally = Tally()
        if args.trace:
            from tracing import BENCHMARK_PER_LAYER, traced_pass, unit

            layers = traced_pass(workload, inputs, ops, tally, SRC, work, WORK)
            named = {"setup_s": (setup_s, "s"), **{k: (v, unit(k)) for k, v in layers.items()}}
            metrics = {k: named[k] for k in BENCHMARK_PER_LAYER}
            extra = {}
        else:
            run = cli_passes(workload, ops, args.seconds, work, tally)
            named = {
                "setup_s": (setup_s, "s"),
                "workload_s": (run["workload_s"], "s"),
                "peak_rss_mb": (run["peak_rss_mb"], "MB"),
                **{m: (run[m], "s") for m, _ in workload.commands},
            }
            metrics = {k: named[k] for k in ("setup_s", "workload_s", "peak_rss_mb")}
            metrics.update({slot: named[m] for slot, (m, _) in zip(SLOTS, workload.commands)})
            extra = {"passes": run["passes"], "per_op_median_s": run["per_op_median_s"]}
        report = {"workload": workload.name, **extra, "metrics": with_units(named)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in tally.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
