"""The benchmark's tracer must still find every function it wraps.

``perfbench/run.py`` patches public functions by module and attribute name;
a target that no longer resolves is skipped silently and its layer metric
(e.g. ``lockloop.export_s``) reads zero.  This checks every target resolves.
"""
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Targets already absent when this test was written: cli reads configs through
#: ``load_config`` and never imports ``validate_config`` by name.
KNOWN_ABSENT = {"offsetlock.cli.validate_config"}


def load_bench_runner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    run = load_bench_runner(monkeypatch)
    absent = []
    for module_name, path, _span, _counter in run.trace_targets():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.append(f"{module_name}.{path}")
    assert set(absent) <= KNOWN_ABSENT, absent
