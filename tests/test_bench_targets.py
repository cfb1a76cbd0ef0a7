"""The benchmark's tracer must still find every function it wraps.

``perfbench/run.py`` patches public functions by module and attribute name;
a target that no longer resolves is skipped silently and its layer metric
(e.g. ``lockloop.export_s``) reads zero.  This checks every target resolves.
"""
import importlib.util
import math
from pathlib import Path

from offsetlock import (
    DiscriminatorConfig,
    OscillatorModel,
    resolve_lock_point,
    servo_for_bandwidth,
    simulate_lock,
)

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


def test_servo_update_counter_binds_a_real_call(monkeypatch):
    """The servo-update counter reads ``servo``, ``duration_s`` and ``dt_s`` from each call;
    a renamed parameter would otherwise fail only the traced benchmark pass."""
    run = load_bench_runner(monkeypatch)
    counters = [counter for _module, path, _span, counter in run.trace_targets()
                if path == "simulate_lock"]
    lock = resolve_lock_point(DiscriminatorConfig(delay_s=25e-9), 30e6)
    models = (OscillatorModel(198_000_030_000_000), OscillatorModel(198_000_000_000_000),
              lock, servo_for_bandwidth(lock, 100.0))
    timing = (0.0105, 1e-4, 1)  # 105 samples, a ragged last update of 5
    lockrun = simulate_lock(*models, *timing)
    n, stride = len(lockrun.laser_offset_trace), lockrun.update_stride
    assert (n, stride) == (105, 10)
    expected = {"lockloop.servo_updates": math.ceil(n / stride)}
    assert len(counters) == 2  # cli and scenario
    for counter in counters:
        assert counter(lockrun, models + timing, {}) == expected
        assert counter(lockrun, models, dict(duration_s=0.0105, dt_s=1e-4, seed=1)) == expected
