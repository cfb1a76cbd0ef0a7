"""Self-time arithmetic of the benchmark's tracer on synthetic span trees.

Run: ``python3 -m pytest perfbench/test_tracer.py`` from the repository root.
"""
import sys
import types

import pytest

from tracer import Tracer, self_times, summarize

# cli.invoke [0, 10]
#   scenario.run_scenario [1, 9]
#     noisegen.synth_power_law [2, 5]
#     metrology.count [5, 6]
#     metrology.write [7, 8.5]
#   scenario.validate_config [9, 9.5]
TREE = [
    ["cli.invoke", 0.0, 10.0, None],
    ["scenario.run_scenario", 1.0, 9.0, 0],
    ["noisegen.synth_power_law", 2.0, 5.0, 1],
    ["metrology.count", 5.0, 6.0, 1],
    ["metrology.write", 7.0, 8.5, 1],
    ["scenario.validate_config", 9.0, 9.5, 0],
]


def test_self_time_is_duration_minus_children():
    assert self_times(TREE) == pytest.approx([1.5, 2.5, 3.0, 1.0, 1.5, 0.5])


def test_layer_self_times_account_for_root():
    by_name, by_layer, root_s = summarize(TREE)
    assert root_s == 10.0
    assert by_layer == pytest.approx(
        {"cli": 1.5, "scenario": 3.0, "noisegen": 3.0, "metrology": 2.5})
    assert sum(by_layer.values()) == pytest.approx(root_s)
    assert by_name["scenario.run_scenario"] == pytest.approx(
        {"calls": 1, "inclusive_s": 8.0, "self_s": 2.5})


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],   # overlaps b on [3, 4]
        ["d", 8.0, 12.0, 0],  # overhangs the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_repeated_names_sum_over_calls():
    spans = [["r", 0.0, 4.0, None], ["x.f", 0.0, 1.0, 0], ["x.f", 2.0, 3.5, 0]]
    by_name, by_layer, _ = summarize(spans)
    assert by_name["x.f"] == pytest.approx({"calls": 2, "inclusive_s": 2.5, "self_s": 2.5})
    assert by_layer["r"] == pytest.approx(1.5)


def test_wrapped_calls_nest_and_absent_targets_are_reported():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    sys.modules["fake_layer"] = module
    try:
        tracer.install([
            ("fake_layer", "inner", "fake.inner", lambda r, a, k: {"fake.items": r}),
            ("fake_layer", "outer", "fake.outer", None),
            ("fake_layer", "gone", "fake.gone", None),
            ("no_such_module_here", "f", "fake.f", None),
        ])
        assert tracer.call("root", module.outer, 3) == 8
    finally:
        tracer.uninstall()
        del sys.modules["fake_layer"]
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("root", None), ("fake.outer", 0), ("fake.inner", 1)]
    assert tracer.counts["fake.items"] == 4
    assert tracer.absent == ["fake_layer.gone", "no_such_module_here.f"]
    assert module.inner(1) == 2 and module.outer.__name__ == "<lambda>"
