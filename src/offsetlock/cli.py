"""Command-line entry points: synth, lock, adev, chain, run, compare."""
from __future__ import annotations

import ctypes
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import click

from . import chain as chainmod
from .errors import MALFORMED, ParameterError
from .lockloop import simulate_lock
from .metrology import (
    adev_nonoverlapping,
    adev_overlapping,
    allan_csv,
    octave_taus,
    read_series_csv,
    to_fractional,
    write_allan_csv,
)
from .noisegen import NoiseSpec, derive_seed, json_fields, synth_power_law, write_json, write_trace_csv
from .scenario import (
    OUT_DIR_ENV,
    RunReport,
    compare_expected,
    expand_seeds,
    load_config,
    run_scenario,
)


class _Group(click.Group):
    """Exit status 2 with one ``Error:`` line on stderr for any error click does not report
    itself (a bad input, an unwritable path, a run too large to allocate); 1 is a failed check."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            click.echo(f"Error: {exc}", err=True)
            sys.exit(2)


@contextmanager
def _malformed(param: str):
    """Report an input that does not parse as a ParameterError naming ``param`` (exit status 2)."""
    try:
        yield
    except MALFORMED as exc:
        raise ParameterError(f"{param}: {exc}") from None


@click.group(cls=_Group)
def main():
    """Offset-lock simulation and time-frequency metrology toolkit."""
    # glibc raises its mmap and trim thresholds to the largest mapped block freed so far, so
    # freed traces stay resident or not by the heap's layout (the same run's peak RSS moved by
    # 4.7 MB). Fixed at 1 MiB, each block of 1 MiB or more is mapped alone and the heap trimmed.
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param in (-3, -1):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
            mallopt(param, 1 << 20)


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True,
              help="NoiseSpec JSON: {\"h\": {\"0\": 2.0, \"-2\": 0.1}, \"drift_rate_hz_per_s\": 0}")
@click.option("--duration", type=float, required=True, help="Trace duration, s.")
@click.option("--dt", type=float, required=True, help="Sample spacing, s.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--nominal-hz", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "-o", type=click.Path(), required=True)
def synth(spec_path, duration, dt, seed, nominal_hz, out):
    """Synthesize a power-law frequency-noise trace to a CSV."""
    with open(spec_path) as fh, _malformed("--spec"):
        spec = NoiseSpec(**json_fields(json.load(fh), spec_path, NoiseSpec))
    trace = replace(synth_power_law(spec, duration, dt, seed), nominal_hz=nominal_hz)
    write_trace_csv(trace, out)
    click.echo(f"wrote {len(trace)} samples to {out}")


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.option("--lock-id", required=True, help="Which lock block of the scenario to run.")
@click.option("--out-dir", "-o", type=click.Path(), default=None)
def lock(config, lock_id, out_dir):
    """Run one time-domain lock block of a scenario; export a LockRun directory."""
    cfg = load_config(config)
    block = cfg.locks.get(lock_id)
    if block is None:
        raise click.UsageError(f"no lock block with id {lock_id!r}")
    if block.fidelity != "time-domain":
        raise click.UsageError(
            "the lock command runs time-domain blocks only; "
            "use 'offsetlock run' for spectral-fidelity scenarios")
    out_dir = out_dir or os.path.join(os.environ.get(OUT_DIR_ENV, "runs"),
                                      f"{cfg.name}_{lock_id}")
    os.makedirs(out_dir, exist_ok=True)  # an unwritable directory fails before the run
    run = simulate_lock(block.laser, block.line, block.lock, block.servo, cfg.duration_s,
                        cfg.dt_s, derive_seed(cfg.seed, f"lock:{block.id}"), thermal=block.thermal)
    written = run.export(out_dir)
    click.echo(f"lock fraction {run.status['lock_fraction']:.3f}; wrote {len(written)} files to {out_dir}")


@main.command()
@click.argument("series_csv", type=click.Path(exists=True))
@click.option("--taus", default="octave", show_default=True,
              help="Comma-separated taus in seconds, or 'octave'.")
@click.option("--overlapping/--nonoverlapping", "overlapping", default=True, show_default=True)
@click.option("--fractional", "fractional_hz", type=int, default=None,
              help="Convert sigmas to fractional units at this carrier (Hz).")
@click.option("--out", "-o", type=click.Path(), default=None,
              help="Output CSV (default: stdout).")
def adev(series_csv, taus, overlapping, fractional_hz, out):
    """Allan standard deviation of a counter series CSV (one reading per gate, as run writes)."""
    with _malformed("SERIES_CSV"):
        series = read_series_csv(series_csv)
    if taus == "octave":
        tau_list = octave_taus(series.dt_s, series.dt_s * len(series))
    else:
        with _malformed("--taus"):
            tau_list = [float(t) for t in taus.split(",")]
    fn = adev_overlapping if overlapping else adev_nonoverlapping
    result = fn(series, tau_list)
    if fractional_hz is not None:
        result = to_fractional(result, fractional_hz)
    if out:
        write_allan_csv(result, out)
        click.echo(f"wrote {result.taus_s.size} points to {out}")
    else:
        click.echo(allan_csv(result), nl=False)
    if result.omitted_taus_s:
        click.echo(f"warning: omitted taus {list(result.omitted_taus_s)}", err=True)


@main.command("chain")
@click.argument("chain_json", type=click.Path(exists=True))
@click.option("--out", "-o", type=click.Path(), default=None,
              help="The evaluated chain: its nodes and AFC budget (default: stdout).")
def chain_cmd(chain_json, out):
    """Evaluate a chain-description JSON; emit its nodes and AFC budget."""
    with open(chain_json) as fh, _malformed("CHAIN_JSON"):
        result = chainmod.evaluate_chain(json.load(fh))
    if out:
        write_json(result, out)
        click.echo(f"wrote {out}")
    else:
        click.echo(json.dumps(result, indent=2, sort_keys=True))
    budget = result.get("budget")
    if budget is not None and not (budget["stability_pass"] and budget["offset_pass"]):
        sys.exit(1)


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.option("--out-dir", "-o", type=click.Path(), default=None)
@click.option("--seeds", type=click.IntRange(min=1), default=1, show_default=True,
              help="Expand into N runs with consecutive seeds.")
def run(config, out_dir, seeds):
    """Run a full scenario config; exit 1 if any envelope fails, 2 on an error."""
    cfg = load_config(config)
    worst = 0
    for c in [cfg] if seeds == 1 else expand_seeds(cfg, seeds):
        target = out_dir if out_dir is None or seeds == 1 else os.path.join(out_dir, c.name)
        report = run_scenario(c, target)
        code, verdict = compare_expected(report)
        click.echo(json.dumps(verdict, indent=2, sort_keys=True))
        worst = max(worst, code)
    sys.exit(worst)


@main.command()
@click.argument("report_json", type=click.Path(exists=True))
def compare(report_json):
    """Re-check a report's envelopes; exit zero iff all pass."""
    with open(report_json) as fh, _malformed("REPORT_JSON"):
        doc = json.load(fh)
        doc.pop("wall_time_s", None)  # a report written before runs dropped their wall clock
        code, verdict = compare_expected(RunReport(**doc))
    click.echo(json.dumps(verdict, indent=2, sort_keys=True))
    sys.exit(code)


if __name__ == "__main__":
    main()
