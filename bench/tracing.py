"""Traced in-process run of a workload, for per-layer figures.

Each CLI command of the pass runs in-process through the CLI's own entry
point, ``ciss.cli.main(argv)``, with stdout captured, so the handler's call
sequence, exit code and printed JSON are the ones a ``python -m ciss.cli``
child produces. For the traced pass the library names ``ciss.cli`` binds
(``load_manifest``, ``read_pgm``, ``sample_class_balanced``, ... and the loss
calls it makes through ``L``) are replaced by wrappers that open a span
around each call. Spans live in memory and are written to
``.bench_work/trace-<workload>-<pid>.json`` when the run ends.

``read_pgm``, ``foreground_classes``, ``relabel``, ``softmax_probs`` and
``grad_logits`` mostly run inside other calls, so each is also timed as a
standalone probe over the workload's inputs. Their ``_calls`` and byte
figures count what the program itself did during the traced pass, read by
counting wrappers on the package modules that call them.

A layer's figure is the summed self time of its spans: a span's duration
minus the time its child spans cover. The tracing overhead is timed where it
happens: the tracer adds up the time it spends opening and closing spans and
in the wrappers' own work (file sizes, score-file headers, counts).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

# Span names whose summed self time is a per-layer figure (reported as <name>_s).
LAYER_SPANS = (
    "pgm.read_pgm", "pgm.write_pgm",
    "grid.foreground_classes", "grid.relabel",
    "manifest.load_manifest",
    "scenario.build_overlapped", "scenario.build_disjoint", "scenario.build_partitioned",
    "scenario.save_split", "scenario.load_split",
    "memory.sample_class_balanced", "memory.make_non_overlapping_variant", "memory.save_memory",
    "memory.load_memory", "memory.overlap_ratio", "memory.compose_batch",
    "scores.read_text", "scores.read_binary", "scores.softmax_probs",
    "pseudo.pseudo_label",
    "metrics.accumulate", "metrics.evaluation_report", "metrics.retrieval_rate",
    "losses.load_loss_case",
    *(f"losses.value.{lid}" for lid in checks.ATOMIC_ITEM),
    *(f"losses.objective.{lid}" for lid in checks.COMPOSITES),
    *(f"losses.grad.{lid}" for lid in checks.ATOMIC_ITEM),
    *(f"losses.grad_check.{lid}" for lid in checks.ATOMIC_ITEM),
    *(f"losses.grad_check_full.{lid}" for lid in checks.ATOMIC_ITEM),
)
COUNTS = (
    "pgm.read_pgm_calls", "pgm.read_bytes", "pgm.write_bytes",
    "grid.foreground_classes_calls", "grid.relabel_calls",
    "manifest.records", "memory.entries_stored",
    "scores.read_text_bytes", "scores.read_binary_bytes",
    "pseudo.pixels_filled", "metrics.accumulate_calls",
    "losses.grad_check_evals", "losses.grad_check_passed",
)
# layer<k>_s, like command1..3_s, is a per-layer time every workload
# measures: the summed self time of the k-th group of spans of its workload.
# A layer a workload never reaches would read exactly 0 s on every run, so
# its time is carried on the result line only through these slots.
LAYER_SLOTS = {
    "split-memory": (
        ("manifest.load_manifest",),
        ("grid.foreground_classes",),
        ("grid.relabel",),
        ("pgm.write_pgm",),
        ("scenario.build_overlapped", "scenario.build_disjoint", "scenario.build_partitioned"),
        ("memory.sample_class_balanced",),
        ("memory.make_non_overlapping_variant",),
    ),
    "loss-kernel": (
        ("losses.load_loss_case",),
        ("scores.read_binary",),
        ("scores.softmax_probs",),
        tuple(f"losses.value.{lid}" for lid in checks.ATOMIC_ITEM)
        + tuple(f"losses.objective.{lid}" for lid in checks.COMPOSITES),
        tuple(f"losses.grad.{lid}" for lid in checks.ATOMIC_ITEM),
        tuple(f"losses.grad_check.{lid}" for lid in checks.ATOMIC_ITEM),
        tuple(f"losses.grad_check_full.{lid}" for lid in checks.ATOMIC_ITEM),
    ),
    "pseudo-eval": (
        ("scores.read_text",),
        ("scores.softmax_probs",),
        ("pseudo.pseudo_label",),
        ("pgm.write_pgm",),
        ("metrics.accumulate",),
        ("metrics.retrieval_rate",),
        ("metrics.evaluation_report",),
    ),
}
SLOT_NAMES = tuple(f"layer{k}_s" for k in range(1, 8))
# The per-layer figures the result line carries. Counts that the inputs fix
# once every output passes its check (manifest.records, memory.entries_stored,
# pgm.write_bytes, pseudo.pixels_filled, losses.grad_check_evals) are printed
# on the report line only: no change to the program can move them.
BENCHMARK_PER_LAYER = (
    "cli.startup_s", "pgm.read_pgm_s", *SLOT_NAMES, "trace.traced_s", "trace.overhead_s",
    "pgm.read_pgm_calls", "pgm.read_bytes",
    "grid.foreground_classes_calls", "grid.relabel_calls",
    "scores.read_text_bytes", "scores.read_binary_bytes",
    "metrics.accumulate_calls", "losses.grad_check_passed",
)
STARTUP_SAMPLES = 5


class Tracer:
    """Spans (name, start, end, parent, workload) and counters of one pass,
    and the time the tracer itself spent (`own_s`)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.command = ""  # metric of the operation being run
        self.own_s = 0.0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": None, "end": None, "parent": parent, "workload": self.workload})
        self._open.append(index)
        start = self.spans[index]["start"] = time.perf_counter()
        self.own_s += start - t0
        try:
            yield
        finally:
            end = self.spans[index]["end"] = time.perf_counter()
            self._open.pop()
            self.own_s += time.perf_counter() - end

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - c
        return out


def _score_format(path) -> str:
    """"binary" when the payload is exactly N*K float64 values, else "text"."""
    with open(path, "rb") as fh:
        head = fh.readline() + fh.readline()
    n, k = (int(v) for v in head.split(b"\n", 1)[0].split())
    return "binary" if os.path.getsize(path) == len(head) + n * k * 8 else "text"


def _wrap(tr: Tracer, fn, name=None, before=None, after=None):
    """`fn`, counted by `before(*args)` and `after(result, *args)`, and with a
    span named `name(*args)` around it when `name` is given. The hooks' time
    goes to the tracer's own time."""

    def call(*args, **kwargs):
        t0 = time.perf_counter()
        if before is not None:
            before(*args)
        label = name(*args) if name is not None else None
        tr.own_s += time.perf_counter() - t0
        if label is None:
            result = fn(*args, **kwargs)
        else:
            with tr.span(label):
                result = fn(*args, **kwargs)
        if after is not None:
            t1 = time.perf_counter()
            after(result, *args)
            tr.own_s += time.perf_counter() - t1
        return result

    return call


class _Module:
    """A module's attributes, some of them replaced."""

    def __init__(self, module, replaced: dict) -> None:
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def instrumented(tr: Tracer):
    """Install spans and counters for one pass; restore every name after it.

    Spans wrap the library calls ``ciss.cli`` makes. Counters also wrap the
    names inside the package that call the inner functions, so calls made
    inside other library functions are counted too. The loss calls go
    through ``L`` in ``ciss.cli``, which is replaced by a stand-in whose loss
    functions carry spans: ``grad_check`` calls ``loss_value`` from inside
    ``ciss.losses`` and those calls stay outside the value spans."""
    import ciss.cli as cli
    import ciss.grid
    import ciss.losses as L
    import ciss.manifest
    import ciss.memory
    import ciss.metrics

    def fixed(label):
        return lambda *args: label

    def read_pgm_before(path):
        tr.count("pgm.read_pgm_calls", 1)
        tr.count("pgm.read_bytes", os.path.getsize(path))

    def write_pgm_after(_, grid, path):
        tr.count("pgm.write_bytes", os.path.getsize(path))

    def read_scores_before(path):
        tr.count(f"scores.read_{_score_format(path)}_bytes", os.path.getsize(path))

    def calls(counter):
        return lambda *args: tr.count(counter, 1)

    def grad_check_after(report, *args):
        tr.count("losses.grad_check_evals", 2 * report.coords_checked)
        tr.count("losses.grad_check_passed", int(report.passed))

    def grad_check_name(loss_id, *args):
        kind = "grad_check_full" if tr.command == "gradcheck_full_s" else "grad_check"
        return f"losses.{kind}.{loss_id}"

    spanned = {
        "load_manifest": dict(name=fixed("manifest.load_manifest"),
                              after=lambda m, *a: tr.count("manifest.records", len(m))),
        **{f"build_{kind}": dict(name=fixed(f"scenario.build_{kind}"))
           for kind in ("overlapped", "disjoint", "partitioned")},
        "save_split": dict(name=fixed("scenario.save_split")),
        "load_split": dict(name=fixed("scenario.load_split")),
        "sample_class_balanced": dict(name=fixed("memory.sample_class_balanced"),
                                      after=lambda mem, *a: tr.count("memory.entries_stored", len(mem))),
        **{fn: dict(name=fixed(f"memory.{fn}"))
           for fn in ("make_non_overlapping_variant", "save_memory", "load_memory", "overlap_ratio",
                      "compose_batch")},
        "read_pgm": dict(name=fixed("pgm.read_pgm"), before=read_pgm_before),
        "write_pgm": dict(name=fixed("pgm.write_pgm"), after=write_pgm_after),
        "read_scores": dict(name=lambda path: f"scores.read_{_score_format(path)}", before=read_scores_before),
        "pseudo_label": dict(name=fixed("pseudo.pseudo_label"),
                             after=lambda out, gt, *a: tr.count("pseudo.pixels_filled", (out.data != gt.data).sum())),
        "accumulate": dict(name=fixed("metrics.accumulate"), before=calls("metrics.accumulate_calls")),
        "evaluation_report": dict(name=fixed("metrics.evaluation_report")),
        "pseudo_label_retrieval_rate": dict(name=fixed("metrics.retrieval_rate")),
    }
    losses = _Module(L, {
        "load_loss_case": _wrap(tr, L.load_loss_case, name=fixed("losses.load_loss_case")),
        "loss_value": _wrap(tr, L.loss_value, name=lambda loss_id, *a: f"losses.value.{loss_id}"),
        **{f"{lid}_objective": _wrap(tr, getattr(L, f"{lid}_objective"), name=fixed(f"losses.objective.{lid}"))
           for lid in checks.COMPOSITES},
        "grad_check": _wrap(tr, L.grad_check, name=grad_check_name, after=grad_check_after),
    })
    patches = [
        *((cli, fn, _wrap(tr, getattr(cli, fn), **hooks)) for fn, hooks in spanned.items()),
        (cli, "L", losses),
        *((m, "read_pgm", _wrap(tr, m.read_pgm, before=read_pgm_before)) for m in (ciss.manifest, ciss.memory, L)),
        (ciss.memory, "write_pgm", _wrap(tr, ciss.memory.write_pgm, after=write_pgm_after)),
        (L, "read_scores", _wrap(tr, L.read_scores, before=read_scores_before)),
        (ciss.memory, "relabel", _wrap(tr, ciss.memory.relabel, before=calls("grid.relabel_calls"))),
        (ciss.metrics, "accumulate", _wrap(tr, ciss.metrics.accumulate, before=calls("metrics.accumulate_calls"))),
        (ciss.grid.LabelGrid, "foreground_classes",
         _wrap(tr, ciss.grid.LabelGrid.foreground_classes, before=calls("grid.foreground_classes_calls"))),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def run_op(op, tr: Tracer):
    """Run one operation in-process through the CLI's entry point; returns
    (exit code, printed document or None)."""
    from ciss.cli import main

    out = io.StringIO()
    tr.command = op.metric
    with tr.span(f"cli.{op.metric[:-2]}"), contextlib.redirect_stdout(out):
        code = main(op.argv)
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        doc = None
    return code, doc


# ---------------------------------------------------------------------------
# probes: the inner functions, standalone, over the workload's inputs
# ---------------------------------------------------------------------------


def probe_split_memory(inputs, tr: Tracer, scratch: Path) -> None:
    from ciss import grid, pgm, tasks

    data_dir = inputs.manifest.parent
    grids = {}
    for image in json.loads(inputs.manifest.read_text())["images"]:
        with tr.span("pgm.read_pgm"):
            grids[image["id"]] = pgm.read_pgm(data_dir / image["labels"])
    for g in grids.values():
        with tr.span("grid.foreground_classes"):
            g.foreground_classes()
    spec = tasks.parse_layout(gen.LAYOUT, gen.CLASS_COUNT)
    for mem_json in sorted(data_dir.glob("memory_*.json")) + sorted(data_dir.glob("variant_*.json")):
        for k, entry in enumerate(json.loads(mem_json.read_text())["entries"]):
            with tr.span("pgm.read_pgm"):
                stored = pgm.read_pgm(data_dir / entry["labels_path"])
            with tr.span("grid.relabel"):
                grid.relabel(grids[entry["image_id"]], tasks.classes_up_to(spec, entry["saved_at"]))
            with tr.span("pgm.write_pgm"):
                pgm.write_pgm(stored, scratch / f"probe_{k}.pgm")


def probe_loss_kernel(inputs, tr: Tracer, scratch: Path) -> None:
    from ciss import losses as L
    from ciss import pgm, scores

    for rec in (inputs.batch, inputs.small, inputs.full):
        doc = json.loads(rec.path.read_text())
        for item in doc["items"]:
            with tr.span("pgm.read_pgm"):
                pgm.read_pgm(rec.path.parent / item["labels"])
            for key in ("scores", "prev_scores"):
                with tr.span("scores.read_binary"):
                    matrix = scores.read_scores(rec.path.parent / item[key])
                with tr.span("scores.softmax_probs"):
                    scores.softmax_probs(matrix)
    case = L.load_loss_case(inputs.full.path)
    for lid, index in checks.ATOMIC_ITEM.items():
        with tr.span(f"losses.grad.{lid}"):
            L.grad_logits(lid, case.items[index], case.layout, case.cfg)


def probe_pseudo_eval(inputs, tr: Tracer, scratch: Path) -> None:
    from ciss import scores

    for im in inputs.images:
        matrix = scores.read_scores(im.scores)
        with tr.span("scores.softmax_probs"):
            scores.softmax_probs(matrix)


PROBES = {"split-memory": probe_split_memory, "loss-kernel": probe_loss_kernel, "pseudo-eval": probe_pseudo_eval}


def startup_s(src: Path) -> float:
    """Median wall time of an interpreter that imports ciss.cli and exits."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("CISS_THREADS", None)
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ciss.cli"], env=env, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def unit(name: str) -> str:
    """Unit of a per-layer figure: bytes, a count or seconds."""
    if name.endswith("_bytes"):
        return "B"
    return "count" if name in COUNTS or name == "trace.spans" else "s"


def traced_pass(workload, inputs, ops, tally, src: Path, scratch: Path, out_dir: Path):
    """One traced in-process pass, then the probes.

    Returns every per-layer figure by name."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ.pop("CISS_THREADS", None)
    startup = startup_s(src)
    tr = Tracer(workload.name)
    with instrumented(tr):
        start = time.perf_counter()
        for op in ops:
            tally.record(op, *run_op(op, tr))
        traced = time.perf_counter() - start
    overhead = tr.own_s
    (scratch / "probe").mkdir(exist_ok=True)
    PROBES[workload.name](inputs, tr, scratch / "probe")

    self_s = tr.self_times()
    layers = {"cli.startup_s": startup}
    layers.update({f"{name}_s": self_s.get(name, 0.0) for name in LAYER_SPANS})
    layers.update({f"cli.{m[:-2]}.self_s": self_s.get(f"cli.{m[:-2]}", 0.0) for m in {op.metric for op in ops}})
    layers.update({slot: sum(self_s.get(name, 0.0) for name in group)
                   for slot, group in zip(SLOT_NAMES, LAYER_SLOTS[workload.name])})
    layers.update(tr.counts)
    layers.update({"trace.spans": len(tr.spans), "trace.traced_s": traced, "trace.overhead_s": overhead})
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{workload.name}-{os.getpid()}.json").write_text(json.dumps(tr.spans))
    return layers
