"""offsetlock benchmark: one workload at one seed, measured for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload spectral_hour --seed 11 --seconds 30 --trace 0

The CLI is driven in-process through click's ``CliRunner``, one operation
after another, from this single process.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md beside this file for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh-interpreter set-up probes per run; setup_s is their median.
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 120
#: The package's modules in import (dependency) order.
LAYERS = ("noisegen", "metrology", "lockloop", "chain", "scenario", "cli")
#: Per-layer times that do not overlap; the largest is reported as dominant.
TIME_COMPONENTS = ("noisegen.synth_s", "lockloop.spectral_self_s", "lockloop.servo_self_s",
                   "lockloop.export_s", "metrology.count_s", "metrology.adev_s",
                   "metrology.write_s", "scenario.run_self_s", "scenario.validate_s",
                   "chain.evaluate_s", "cli.self_s")


def trace_targets():
    """Public functions to wrap, patched where the caller looks them up."""
    from offsetlock import lockloop

    simulate = getattr(lockloop, "simulate_lock", None)
    signature = inspect.signature(simulate) if simulate is not None else None

    def servo_updates(_run, args, kwargs):
        a = signature.bind(*args, **kwargs).arguments
        n = round(a["duration_s"] / a["dt_s"])
        stride = round(a["servo"].update_dt_s / a["dt_s"])
        return {"lockloop.servo_updates": -(-n // stride)}

    def synth_samples(trace, _args, _kwargs):
        return {"noisegen.synth_samples": trace.samples.size}

    def written_bytes(_result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"metrology.write_bytes": os.path.getsize(path)}

    def exported_bytes(paths, _args, _kwargs):
        return {"lockloop.export_bytes": sum(os.path.getsize(p) for p in paths)}

    return [
        ("offsetlock.cli", "load_config", "scenario.load_config", None),
        ("offsetlock.cli", "validate_config", "scenario.validate_config", None),
        ("offsetlock.scenario", "validate_config", "scenario.validate_config", None),
        ("offsetlock.cli", "run_scenario", "scenario.run_scenario", None),
        ("offsetlock.cli", "simulate_lock", "lockloop.simulate_lock", servo_updates),
        ("offsetlock.scenario", "simulate_lock", "lockloop.simulate_lock", servo_updates),
        ("offsetlock.scenario", "closed_loop_components",
         "lockloop.closed_loop_components", None),
        ("offsetlock.scenario", "out_of_loop_beat", "lockloop.out_of_loop_beat", None),
        ("offsetlock.lockloop", "LockRun.export", "lockloop.export", exported_bytes),
        ("offsetlock.scenario", "oscillator_trace", "noisegen.oscillator_trace", None),
        ("offsetlock.lockloop", "oscillator_trace", "noisegen.oscillator_trace", None),
        ("offsetlock.noisegen", "synth_power_law", "noisegen.synth_power_law", synth_samples),
        ("offsetlock.lockloop", "synth_power_law", "noisegen.synth_power_law", synth_samples),
        ("offsetlock.scenario", "count", "metrology.count", None),
        ("offsetlock.scenario", "adev_overlapping", "metrology.adev", None),
        ("offsetlock.scenario", "adev_nonoverlapping", "metrology.adev", None),
        ("offsetlock.scenario", "peak_to_peak", "metrology.peak_to_peak", None),
        ("offsetlock.scenario", "write_series_csv", "metrology.write", written_bytes),
        ("offsetlock.scenario", "write_allan_csv", "metrology.write", written_bytes),
        ("offsetlock.chain", "evaluate_chain", "chain.evaluate_chain", None),
        ("offsetlock.chain", "comb_beat", "chain.comb_beat", None),
    ]


def layer_metrics(tracer):
    """Per-layer figures of one traced pass."""
    by_name, by_layer, root_s = tr.summarize(tracer.spans)
    counts = tracer.counts

    def inclusive(name):
        return by_name.get(name, {}).get("inclusive_s", 0.0)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    synth_s = inclusive("noisegen.synth_power_law")
    servo_s = self_s("lockloop.simulate_lock")
    m = {
        "traced_wall_s": (root_s, "s"),
        "scenario.validate_s": (inclusive("scenario.validate_config"), "s"),
        "scenario.run_self_s": (self_s("scenario.run_scenario"), "s"),
        "noisegen.synth_s": (synth_s, "s"),
        "noisegen.synth_calls": (calls("noisegen.synth_power_law"), "count"),
        "noisegen.synth_samples": (counts["noisegen.synth_samples"], "count"),
        "noisegen.synth_ns_per_sample": (
            per(synth_s, counts["noisegen.synth_samples"], 1e9), "ns"),
        "lockloop.spectral_self_s": (self_s("lockloop.closed_loop_components"), "s"),
        "lockloop.servo_self_s": (servo_s, "s"),
        "lockloop.servo_updates": (counts["lockloop.servo_updates"], "count"),
        "lockloop.servo_us_per_update": (
            per(servo_s, counts["lockloop.servo_updates"], 1e6), "us"),
        "lockloop.export_s": (inclusive("lockloop.export"), "s"),
        "lockloop.export_bytes": (counts["lockloop.export_bytes"], "bytes"),
        "metrology.count_s": (inclusive("metrology.count"), "s"),
        "metrology.count_calls": (calls("metrology.count"), "count"),
        "metrology.adev_s": (inclusive("metrology.adev"), "s"),
        "metrology.adev_calls": (calls("metrology.adev"), "count"),
        "metrology.write_s": (inclusive("metrology.write"), "s"),
        "metrology.write_bytes": (counts["metrology.write_bytes"], "bytes"),
        "chain.evaluate_s": (inclusive("chain.evaluate_chain"), "s"),
        "chain.evaluate_calls": (calls("chain.evaluate_chain"), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    return m


def import_times(stderr):
    """Seconds to import each ``offsetlock`` module, from ``python -X importtime``.

    A module's time includes the third-party modules it is first to import
    and excludes the ``offsetlock`` modules nested in it, so the times of
    the package's modules do not overlap.
    """
    out = {}
    stack = []  # (depth, offsetlock seconds this entry holds for its parent)
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].strip()
        depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
        cumulative = int(fields[1]) / 1e6
        nested = 0.0
        while stack and stack[-1][0] > depth:  # output is post-order: children come first
            nested += stack.pop()[1]
        if name == "offsetlock" or name.startswith("offsetlock."):
            out.setdefault(name, cumulative - nested)
            stack.append((depth, cumulative))
        else:
            stack.append((depth, nested))
    return out


def setup_probes(configs, cwd, importtime):
    """Time ``SETUP_RUNS`` fresh interpreters that import the CLI and validate configs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), *map(str, configs)]
    times, imports, errors = [], [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            errors.append(f"set-up probe exceeded {PROBE_TIMEOUT_S} s")
            continue
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            errors.append(f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif importtime:
            imports.append(import_times(proc.stderr))
    return times, imports, errors


def artifact_bytes(out_dir):
    return sum(f.stat().st_size for f in Path(out_dir).rglob("*") if f.is_file())


class Runner:
    """Runs passes over a workload's operations and checks every result."""

    def __init__(self, ops, configs, out_dir):
        from click.testing import CliRunner
        from offsetlock.cli import main

        self.ops, self.configs, self.out_dir = ops, configs, out_dir
        self.cli, self.main = CliRunner(), main
        self.expected = wl.load_expected()
        self.lock_runs = []
        self.observing = wl.observe_lock_runs(self.lock_runs)
        self.attempted = 0
        self.errors = []

    def run_pass(self, tracer=None):
        """One pass over the ops; returns (wall seconds, artifact bytes)."""
        wall = 0.0
        for op, config in zip(self.ops, self.configs):
            self.lock_runs.clear()
            argv = op.argv(config, self.out_dir / op.scenario)
            t0 = time.perf_counter()
            if tracer is None:
                result = self.cli.invoke(self.main, argv)
            else:
                result = tracer.call("cli.invoke", self.cli.invoke, self.main, argv)
            wall += time.perf_counter() - t0
            self.attempted += 1
            errors = wl.check(op, result, self.lock_runs, self.expected)
            if errors:
                self.errors.append(f"{op.command} {op.scenario}: {'; '.join(errors)}")
        self.lock_runs.clear()
        written = artifact_bytes(self.out_dir)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        return wall, written


def passes(seconds, one_pass):
    """Repeat ``one_pass`` while the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results


def machine():
    import importlib.metadata

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "click": importlib.metadata.version("click"),
            "loadavg_1m": os.getloadavg()[0]}


def describe(values):
    return (f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"
            if values else "no samples")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "offsetlock" / "cli.py").is_file():
        print(f"no offsetlock sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import offsetlock

    if Path(offsetlock.__file__).resolve().parent != SRC / "offsetlock":
        print(f"imported offsetlock from {offsetlock.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["OLS_OUT_DIR"] = str(work / "out")
    ops = wl.operations(args.workload, args.seed)
    configs = [wl.write_config(ROOT, op, work / "configs") for op in ops]
    info = machine()
    seeds = sorted({s for op in ops for s in op.seeds})
    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload}, seed {args.seed} -> scenario seeds {seeds}, "
          f"{len(ops)} CLI call(s) per pass, trace {args.trace}")

    setup_times, imports, setup_errors = setup_probes(configs, work, importtime=bool(args.trace))
    runner = Runner(ops, configs, work / "out" / "pass")
    if not runner.observing:
        setup_errors.append("offsetlock.cli.simulate_lock is absent; lock runs unobserved")

    report = {"workload": args.workload, "seed": args.seed, "scenario_seeds": seeds,
              "trace": args.trace, "machine": info}
    if args.trace == 0:
        walls, written = zip(*passes(args.seconds, runner.run_pass))
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
            "artifact_mb": (statistics.median(written) / 1e6, "MB"),
        }
        notes = {"wall_s": describe(walls), "setup_s": describe(setup_times),
                 "peak_rss_mb": "peak of this process", "artifact_mb": describe(written)}
        report["samples"] = {"wall_s": walls, "setup_s": setup_times, "artifact_bytes": written}
    else:
        tracers, untraced = [], []

        def pair():
            untraced.append(runner.run_pass()[0])
            tracer = tr.Tracer()
            tracer.install(trace_targets())
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            tracers.append(tracer)

        passes(args.seconds, pair)
        per_pass = [layer_metrics(t) for t in tracers]
        metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        for layer in LAYERS:
            values = [i.get(f"offsetlock.{layer}", 0.0) for i in imports]
            metrics[f"{layer}.import_s"] = (statistics.median(values) if values else 0.0, "s")
        traced = [p["traced_wall_s"][0] for p in per_pass]
        metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(untraced),
                                       "s")
        absent = sorted(set(tracers[0].absent)
                        | {f"offsetlock.{m}" for m in LAYERS
                           if imports and f"offsetlock.{m}" not in imports[0]})
        shares = [sum(p[f"{layer}.self_s"][0] for layer in LAYERS) / p["traced_wall_s"][0]
                  for p in per_pass]
        dominant = max(TIME_COMPONENTS, key=lambda n: metrics[n][0])
        notes = {"traced_wall_s": describe(traced),
                 "trace_overhead_s": f"untraced {describe(untraced)}"}
        print(f"  layer self times account for {min(shares):.4%} to {max(shares):.4%} of "
              f"each traced pass; dominant: {dominant} = "
              f"{metrics[dominant][0] / metrics['traced_wall_s'][0]:.1%} of traced wall_s")
        if absent:
            print(f"  absent wrap targets: {', '.join(absent)}")
        report.update(absent=absent, untraced_wall_s=untraced, per_pass=per_pass,
                      spans=[t.spans for t in tracers], counts=[dict(t.counts) for t in tracers])

    failed = len(runner.errors) + len(setup_errors)
    attempted = runner.attempted + SETUP_RUNS
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} {'':6s} "
          f"({failed} failed of {attempted} attempted)")
    for error in setup_errors + runner.errors:
        print(f"  FAILED {error}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    report.update(result=result, errors=setup_errors + runner.errors)
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
