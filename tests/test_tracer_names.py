"""The benchmark's traced pass rebinds library names inside the package.

`bench/tracing.py` wraps names on `ciss.cli`, `ciss.manifest`, `ciss.memory`,
`ciss.losses`, `ciss.metrics` and `LabelGrid`. Entering its context fails
when a change to the package unbinds one of them, and leaving it must put
every one back. `ciss.cli` binds no library name of its own: it looks each
one up in `ciss` until something sets it, so its names are compared by what
they resolve to."""
import ast
import inspect
from pathlib import Path

import ciss
import ciss.cli
import ciss.grid
import ciss.losses
import ciss.manifest
import ciss.memory
import ciss.metrics

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = (ciss.grid.LabelGrid, ciss.losses, ciss.manifest, ciss.memory, ciss.metrics)


def cli_names() -> dict:
    """What each name bound on `ciss.cli` or exported by `ciss` resolves to on `ciss.cli`."""
    return {name: getattr(ciss.cli, name) for name in {*vars(ciss.cli), *ciss.__all__}}


def test_tracer_binds_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    resolved = cli_names()
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing.instrumented(tracing.Tracer("split-memory")):
        added = set(vars(ciss.cli)) - set(resolved)
        cli_patched = {name for name, value in cli_names().items() if value is not resolved.get(name)}
        patched = {(owner.__name__, name) for owner, bound in zip(OWNERS, before)
                   for name, value in vars(owner).items() if bound.get(name) is not value}
    assert added == set()
    assert {"L", "accumulate", "load_memory", "save_memory", "read_pgm"} <= cli_patched
    assert {("ciss.memory", name) for name in ("read_pgm", "write_pgm", "relabel")} <= patched
    assert {owner for owner, _ in patched} == {owner.__name__ for owner in OWNERS}
    after = cli_names()
    assert [name for name in cli_patched if after[name] is not resolved[name]] == []
    for owner, bound in zip(OWNERS, before):
        now = dict(vars(owner))
        assert now.keys() == bound.keys(), owner.__name__
        assert [name for name in bound if now[name] is not bound[name]] == [], owner.__name__


def test_tracer_rebinds_only_names_the_cli_calls(monkeypatch):
    """Each name the tracer rebinds on `ciss.cli` is `L` or one a handler calls
    as `lib.<name>`, so every span it opens there can be reached."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    called = {node.attr for node in ast.walk(ast.parse(inspect.getsource(ciss.cli)))
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lib"}
    resolved = cli_names()
    with tracing.instrumented(tracing.Tracer("split-memory")):
        rebound = {name for name, value in cli_names().items() if value is not resolved.get(name)}
    assert "L" in rebound
    assert rebound - {"L"} <= called, sorted(rebound - {"L"} - called)
