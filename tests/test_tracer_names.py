"""The benchmark's traced pass rebinds library names inside the package.

`bench/tracing.py` wraps names bound on `ciss.cli`, `ciss.manifest`,
`ciss.memory`, `ciss.losses`, `ciss.metrics` and `LabelGrid`. Entering its
context fails when a change to the package unbinds one of them, and leaving
it must put every one back."""
from pathlib import Path

import ciss.cli
import ciss.grid
import ciss.losses
import ciss.manifest
import ciss.memory
import ciss.metrics

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = (ciss.cli, ciss.grid.LabelGrid, ciss.losses, ciss.manifest, ciss.memory, ciss.metrics)


def test_tracer_binds_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing.instrumented(tracing.Tracer("split-memory")):
        patched = {(owner.__name__, name) for owner, names in zip(OWNERS, before)
                   for name, value in vars(owner).items() if names.get(name) is not value}
    assert {("ciss.memory", name) for name in ("read_pgm", "write_pgm", "relabel")} <= patched
    assert {("ciss.cli", name) for name in ("L", "load_memory", "save_memory", "read_pgm")} <= patched
    assert {owner for owner, _ in patched} == {owner.__name__ for owner in OWNERS}
    for owner, names in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys(), owner.__name__
        assert [name for name in names if after[name] is not names[name]] == [], owner.__name__


def test_tracer_rebinds_every_stand_in_of_the_cli(monkeypatch):
    """The stand-ins `ciss.cli` binds, its `_forward` objects, `accumulate`
    and `L`, exist only for the tracer to rebind, so it rebinds each one."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = dict(vars(ciss.cli))
    stand_ins = {name for name, value in before.items()
                 if getattr(value, "__qualname__", None) == "_forward.<locals>.call"} | {"accumulate", "L"}
    with tracing.instrumented(tracing.Tracer("split-memory")):
        rebound = {name for name in stand_ins if vars(ciss.cli)[name] is not before[name]}
    assert rebound == stand_ins
