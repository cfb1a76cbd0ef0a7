"""Record the reference values that the benchmark's correctness check compares against.

Run from the repository root: ``python3 perfbench/record_expected.py``.
For every scenario seed a workload can use, it runs the CLI on the
generated config and stores the report statistics (``run``) and the lock
status (``lock``) in expected.json.  Re-record only when a change is meant
to alter these values, and say so with the change.
"""
import json
import shutil
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOCK_KEYS = ("lock_fraction", "mean_beat_hz")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from click.testing import CliRunner
    from offsetlock.cli import main as cli

    work = HERE / "_work" / "record"
    runner = CliRunner()
    lock_runs = []
    wl.observe_lock_runs(lock_runs)
    expected = {"run": {}, "lock": {}}
    plan = [(name, "run", wl.SEED_WINDOWS["spectral"]) for name in wl.SPECTRAL]
    plan += [(wl.TIME_DOMAIN, command, wl.SEED_WINDOWS["time-domain"])
             for command in ("run", "lock")]
    for name, command, (lo, hi) in plan:
        extra = ("--lock-id", "lock1010") if command == "lock" else ()
        for seed in range(lo, hi + 1):
            op = wl.Op(name, command, (seed,), extra)
            lock_runs.clear()
            result = runner.invoke(cli, op.argv(wl.write_config(ROOT, op, work), work / "out"))
            if result.exit_code != 0:
                raise SystemExit(f"{name}@{seed} {command}: exit {result.exit_code}\n"
                                 f"{result.output}")
            if command == "run":
                [verdict] = wl.json_objects(result.stdout)
                if not verdict["overall_pass"]:
                    raise SystemExit(f"{name}@{seed}: envelope failed {verdict['failed']}")
                value = verdict["statistics"]
            else:
                value = {k: lock_runs[0].status[k] for k in LOCK_KEYS}
            expected[command].setdefault(name, {})[str(seed)] = value
            print(name, command, seed, value, flush=True)
            shutil.rmtree(work / "out")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
