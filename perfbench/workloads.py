"""The benchmark's workloads: generated configs, CLI operations and output checks.

Each workload is a list of ``offsetlock`` CLI operations run one after
another by a single caller (closed loop).  The configs are the shipped
golden scenarios with the seed replaced; the program sees only those
generated files and an output directory.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("spectral_hour", "servo_seeds", "lock_export")
TIME_DOMAIN = "fig4_lock_1010_timedomain"
SPECTRAL = ("fig3_lock_1514", "fig4_inloop_1010", "chain_afc_606")
#: Seeds per ``run --seeds`` call in ``servo_seeds``.
SERVO_SEEDS_N = 3
#: Scenario seeds at which every golden envelope was checked to pass and the
#: reference values in expected.json were recorded.  The benchmark seed is
#: folded into these windows; the goldens' own seed, 11, maps to itself.
SEED_WINDOWS = {"spectral": (11, 26), "time-domain": (11, 30)}
#: Relative tolerance of the reference check: loose enough for reassociated
#: floating-point sums, tight enough to catch a change in the physics.
RTOL = 1e-9

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Op:
    """One CLI call: ``offsetlock <command> <config> <extra...> -o <out>``."""

    scenario: str
    command: str
    seeds: tuple
    extra: tuple = ()

    def argv(self, config_path, out_dir):
        return [self.command, str(config_path), *self.extra, "-o", str(out_dir)]


def scenario_seed(seed, window, width=1):
    """Fold ``seed`` into ``window`` so that ``width`` consecutive seeds fit."""
    lo, hi = window
    return lo + (seed - lo) % (hi - lo + 2 - width)


def operations(workload, seed):
    if workload == "spectral_hour":
        s = scenario_seed(seed, SEED_WINDOWS["spectral"])
        return [Op(name, "run", (s,)) for name in SPECTRAL]
    if workload == "servo_seeds":
        s = scenario_seed(seed, SEED_WINDOWS["time-domain"], SERVO_SEEDS_N)
        return [Op(TIME_DOMAIN, "run", tuple(range(s, s + SERVO_SEEDS_N)),
                   ("--seeds", str(SERVO_SEEDS_N)))]
    if workload == "lock_export":
        s = scenario_seed(seed, SEED_WINDOWS["time-domain"])
        return [Op(TIME_DOMAIN, "lock", (s,), ("--lock-id", "lock1010"))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_config(root, op, config_dir):
    """Write the op's golden scenario with its first seed; return the path."""
    with open(Path(root, "src", "offsetlock", "scenarios", f"{op.scenario}.json")) as fh:
        doc = json.load(fh)
    doc["seed"] = op.seeds[0]
    path = Path(config_dir, f"{op.scenario}_seed{op.seeds[0]}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_expected():
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def observe_lock_runs(runs):
    """Append every LockRun that the ``lock`` command simulates to ``runs``.

    Reading the returned object keeps the check independent of the artifact
    file format.  Returns False when the hook point no longer exists.
    """
    import offsetlock.cli as cli

    original = getattr(cli, "simulate_lock", None)
    if original is None:
        return False

    def observed(*args, **kwargs):
        run = original(*args, **kwargs)
        runs.append(run)
        return run

    cli.simulate_lock = observed
    return True


def inloop_adev(run):
    """The time-domain golden's ``inloop_adev`` statistic (1 s gate, tau 1 s) of a LockRun."""
    from offsetlock.metrology import CounterConfig, adev_overlapping, count

    return adev_overlapping(count(run.inloop_beat_trace, CounterConfig(gate_s=1.0)),
                            [1.0]).sigma_at(1.0)


def json_objects(text):
    """Every JSON object printed back to back in ``text``."""
    decoder = json.JSONDecoder()
    out, i = [], 0
    while True:
        i = text.find("{", i)
        if i < 0:
            return out
        obj, i = decoder.raw_decode(text, i)
        out.append(obj)


def _compare(measured, reference, label):
    errors = []
    for key, want in reference.items():
        got = measured.get(key)
        if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=RTOL):
            errors.append(f"{label}.{key}: {got!r} != recorded {want!r}")
    return errors


def check(op, result, lock_runs, expected):
    """Errors in one CLI result; an empty list means the operation is correct."""
    errors = []
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        errors.append(f"exception {result.exception!r}")
    if result.exit_code != 0:
        errors.append(f"exit code {result.exit_code}")
    if op.command == "run":
        try:
            verdicts = json_objects(result.stdout)
        except json.JSONDecodeError as exc:
            return errors + [f"unreadable verdict output ({exc})"]
        if len(verdicts) != len(op.seeds):
            return errors + [f"{len(verdicts)} verdicts for {len(op.seeds)} seeds"]
        for seed, verdict in zip(op.seeds, verdicts):
            label = f"{op.scenario}@{seed}"
            if verdict.get("overall_pass") is not True or verdict.get("failed"):
                errors.append(f"{label}: envelope failed {verdict.get('failed')}")
            reference = expected["run"][op.scenario].get(str(seed))
            if reference is None:
                errors.append(f"{label}: no recorded statistics")
            else:
                errors += _compare(verdict.get("statistics", {}), reference, label)
    else:
        seed = str(op.seeds[0])
        label = f"{op.scenario}@{seed}"
        if len(lock_runs) != 1:
            return errors + [f"{label}: lock run not observed"]
        reference = expected["lock"][op.scenario].get(seed)
        if reference is None:
            return errors + [f"{label}: no recorded lock status"]
        # The lock status alone barely moves with the servo; the in-loop ADEV
        # of the same run, recorded by ``run``, does.
        run = lock_runs[0]
        measured = dict(run.status, inloop_adev=inloop_adev(run))
        reference = dict(reference, inloop_adev=expected["run"][op.scenario][seed]["inloop_adev"])
        errors += _compare(measured, reference, label)
    return errors
