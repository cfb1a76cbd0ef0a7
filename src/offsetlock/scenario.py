"""Config-driven scenario runner: synthesis -> lock -> count -> statistics.

A scenario JSON names oscillators/combs, lock blocks, measurements and
expectation envelopes; running it emits counter-series and Allan CSVs plus
a report JSON with one verdict per expectation.  Runs are deterministic
per seed: re-running a config produces byte-identical artifacts, report included.
"""
from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from . import chain as chainmod
from .errors import MALFORMED, ConfigKeyError, ParameterError
from .lockloop import (
    DiscriminatorConfig,
    LockPoint,
    ServoConfig,
    ThermalModel,
    cable_delay,
    check_spectral_bandwidth,
    closed_loop_components,
    out_of_loop_beat,
    resolve_lock_point,
    servo_for_bandwidth,
    servo_stride,
    simulate_lock,
)
from .metrology import (
    UNITS_FRACTIONAL,
    UNITS_HZ,
    CounterConfig,
    adev_nonoverlapping,
    adev_overlapping,
    count,
    gate_steps,
    octave_taus,
    peak_to_peak,
    tau_index,
    tau_steps,
    to_fractional,
    window_steps,
    write_allan_csv,
    write_series_csv,
)
from .noisegen import (
    CombModel,
    FrequencyTrace,
    NoiseSpec,
    OscillatorModel,
    comb_line_oscillator,
    derive_seed,
    exact_int,
    finite,
    grid_steps,
    json_fields,
    laser_from_linewidth,
    noise_spec_from_profile,
    oscillator_trace,
    write_json,
)

OUT_DIR_ENV = "OLS_OUT_DIR"
#: Longest duration the time-domain servo model runs, s.
TIME_DOMAIN_CAP_S = 60.0


# ---------------------------------------------------------------------------
# Config objects: ``json_fields`` checks each one's keys; every default lives in its model.

def _oscillator(d, path: str) -> OscillatorModel:
    drift = ("drift_rate_hz_per_s", "drift_random_walk")  # the linewidth form's drift
    kw = json_fields(d, path, OscillatorModel, dict.fromkeys(("linewidth_hz", *drift), float),
                     ["adev_profile"], either=[("noise", "linewidth_hz"), ("noise", "adev_profile"),
                                               ("linewidth_hz", "adev_profile")],
                     needs=dict.fromkeys(drift, "linewidth_hz"))
    if "linewidth_hz" in kw:
        return laser_from_linewidth(**kw)
    if "noise" in kw:
        kw["noise"] = NoiseSpec(**json_fields(kw["noise"], f"{path}.noise", NoiseSpec))
    if "adev_profile" in kw:
        nominal = float(exact_int(kw["nominal_hz"], "nominal_hz"))
        kw["noise"] = noise_spec_from_profile(kw.pop("adev_profile")).scaled(nominal)
    return OscillatorModel(**kw)


def _comb(d, path: str) -> CombModel:
    kw = json_fields(d, path, CombModel, ["adev_profile"],
                     either=[("reference_noise", "adev_profile")])
    if "reference_noise" in kw:
        noise = json_fields(kw["reference_noise"], f"{path}.reference_noise", NoiseSpec)
        kw["reference_noise"] = NoiseSpec(**noise)
    if "adev_profile" in kw:
        kw["reference_noise"] = noise_spec_from_profile(kw.pop("adev_profile"))
    return CombModel(**kw)


def _discriminator(d, path: str) -> DiscriminatorConfig:
    kw = json_fields(d, path, DiscriminatorConfig, {"cable_m": float, "velocity_factor": float},
                     either=[("delay_s", "cable_m")], needs={"velocity_factor": "cable_m"})
    cable = {k: kw.pop(k) for k in ("cable_m", "velocity_factor") if k in kw}
    if cable:  # velocity_factor needs cable_m
        kw["delay_s"] = cable_delay(**cable)
    return DiscriminatorConfig(**kw)


def _thermal(d, path: str, duration_s: float) -> ThermalModel:
    kw = json_fields(d, path, {"tempco_per_K": float, "ramp_K_per_s": float,
                               "times_s": None, "temps_K": None},
                     required=("tempco_per_K", "ramp_K_per_s"),
                     either=[("ramp_K_per_s", "times_s")],
                     needs={"times_s": "temps_K", "temps_K": "times_s"})
    if "ramp_K_per_s" in kw:  # the table of the ramp's ends over the run
        kw["times_s"], kw["temps_K"] = (0.0, duration_s), (0.0, kw["ramp_K_per_s"] * duration_s)
    return ThermalModel(kw["tempco_per_K"], (kw["times_s"], kw["temps_K"]))


def _file_name(x) -> bool:
    """A string that names one file or directory inside the output directory."""
    return (isinstance(x, str) and x not in ("", ".", "..") and "\0" not in x
            and x == os.path.basename(x))


def _comb_line(laser: OscillatorModel, comb: CombModel) -> Tuple[int, OscillatorModel]:
    """(index, oscillator) of the comb line nearest the laser carrier."""
    n, _ = chainmod.comb_beat(laser.nominal_hz, comb)
    return n, comb_line_oscillator(comb, n)


@dataclass(frozen=True)
class LockBlock:
    """A lock resolved against its comb and discriminator: the line nearest the laser and the
    lock point that f_lock_hz names."""

    id: str
    laser: OscillatorModel
    line: OscillatorModel
    line_index: int
    lock: LockPoint
    fidelity: str  # "spectral" | "time-domain"
    loop_bandwidth_hz: Optional[float]  # time-domain: None when the servo gains are given
    servo: Optional[ServoConfig]  # time-domain: as given, or derived from the bandwidth
    thermal: Optional[ThermalModel]


@dataclass(frozen=True)
class Signal:
    """A parsed ``kind:source[:ref]`` signal reference; equal signals share one trace."""

    kind: str  # "freerun" | "locked" | "inloop" | "outofloop"
    source: str  # oscillator name (freerun) or lock id
    #: outofloop: the reference's seed label, an oscillator name or ``<comb>:line<n>`` for the
    #: comb line nearest the lock's laser
    ref: Optional[str]
    #: What a freerun signal (its source) or an outofloop one (its reference) draws; the
    #: name it is drawn under, ref or else source, labels its seed.  Not part of equality.
    oscillator: Optional[OscillatorModel] = field(default=None, compare=False)


@dataclass(frozen=True)
class Measurement:
    """One measurement with every default applied and its tau grid resolved."""

    id: str
    kind: str  # a key of _MEASUREMENT_KEYS
    signal: Signal
    baseline: Optional[Signal]  # adev_ratio_max only
    gate_s: float
    taus_s: Tuple[float, ...]  # adev kinds: explicit, or the octave grid of the series
    estimator: str
    fractional_hz: Optional[int]  # adev: carrier of fractional units; None for Hz
    pick_tau_s: Optional[float]
    window_s: Optional[float]  # peak_to_peak: leading window; None for the whole series


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    duration_s: float
    dt_s: float
    locks: Dict[str, LockBlock]
    measurements: List[Measurement]
    chain: Optional[dict]  # evaluated chain: nodes and budget report
    chain_statistics: Dict[str, float]  # the budget's four statistics; empty without an afc
    expectations: Dict[str, Tuple[float, float]]
    raw: dict


_TOP_KEYS = {"name": str, "seed": int, "duration_s": float, "dt_s": float, "oscillators": None,
             "combs": None, "locks": None, "measurements": None, "chain": None,
             "expectations": None}
_LOCK_KEYS = {"id": None, "laser": None, "comb": None, "f_lock_hz": float, "fidelity": None,
              "loop_bandwidth_hz": float, "discriminator": None, "servo": None, "thermal": None}
#: The keys each kind of measurement reads besides id, kind, signal and gate_s, with their types.
_MEASUREMENT_KEYS = {
    "peak_to_peak": {"window_s": float},
    "adev": {"taus_s": None, "estimator": None, "units": None, "fractional_ref": None,
             "pick_tau_s": float},
    "adev_ratio_max": {"baseline": None, "taus_s": None, "estimator": None},
}
_SIGNAL_ARITY = {"freerun": 1, "locked": 1, "inloop": 1, "outofloop": 2}  # names after the kind
_ESTIMATORS = ("overlapping", "non-overlapping")


def validate_config(raw) -> Tuple[Optional[ScenarioConfig], List[str]]:
    """Full structural and referential validation; all errors reported at once.

    Never raises: any JSON value gives ``(config, [])`` or ``(None, errors)``,
    and a config that validates runs to a report or fails before its first write.
    """
    errors: List[str] = []
    if isinstance(raw, (str, bytes)):
        try:
            doc = json.loads(raw)
        except MALFORMED as exc:
            return None, [f"$: invalid JSON ({exc})"]
    else:
        doc = raw
    if not isinstance(doc, dict):
        return None, ["$: config must be a JSON object"]

    def parsed(build, value, path, *spec, **options):
        """``build(value, path, *spec, **options)``, or None with its error recorded under ``path``."""
        try:
            return build(value, path, *spec, **options)
        except ConfigKeyError as exc:
            errors.append(str(exc))
        except MALFORMED as exc:
            errors.append(f"{path}: {exc}")
        return None

    top = parsed(json_fields, doc, "$", _TOP_KEYS, required=("name", "duration_s", "dt_s")) or {}

    def section(key, kind):
        value = doc.get(key, kind())
        if isinstance(value, kind):
            return value
        errors.append(f"{key}: must be a JSON {'object' if kind is dict else 'array'}")
        return kind()

    name, seed = top.get("name", "unnamed"), top.get("seed", 0)
    if not _file_name(name):  # run writes to <output root>/<name>
        errors.append("name: must be a string usable as a directory name")
    duration, dt = top.get("duration_s", 1.0), top.get("dt_s", 1.0)
    errors += [f"{key}: must be a positive number"
               for key in ("duration_s", "dt_s") if top.get(key, 1.0) <= 0]
    n_samples = 0  # below 2 unless the run's time grid is valid
    if top and duration > 0 < dt:
        n_samples = grid_steps(duration, dt, 1e-6)
        if n_samples < 2:
            errors.append("duration_s: must be a multiple of dt_s, at least 2*dt_s")

    def models(key, build) -> dict:
        """Every object of section ``key`` by name: None for one whose error is recorded."""
        return {k: parsed(build, d, f"{key}.{k}") for k, d in section(key, dict).items()}

    oscillators: Dict[str, Optional[OscillatorModel]] = models("oscillators", _oscillator)
    combs: Dict[str, Optional[CombModel]] = models("combs", _comb)

    def named(table, key, path, what):
        """``table[key]``, or None: with an error when ``key`` is not a name in ``table``, and
        without one when it names a model whose error is recorded already."""
        if isinstance(key, str) and key in table:
            return table[key]
        errors.append(f"{path}: unknown {what} {key!r}")
        return None

    def entries(key, what, ids, default):
        """(path, object, id, error count) of each object of list section ``key``.  A missing
        id is ``default`` and the index, if ``default`` is given.  An entry that is not an
        object, or whose id is not a file name, adds to ``ids`` a placeholder that no
        reference can name."""
        for i, d in enumerate(section(key, list)):
            path = f"{key}[{i}]"
            if not isinstance(d, dict):
                errors.append(f"{path}: must be a JSON object")
                ids.add((key, i))
                continue
            n_errors = len(errors)
            eid = d.get("id", default and f"{default}{i}")
            if not _file_name(eid):
                errors.append(f"{path}.id: must be a string usable as a file name")
                eid = (key, i)
            elif eid in ids:
                errors.append(f"{path}.id: duplicate {what} id {eid!r}")
            ids.add(eid)
            yield path, d, eid, n_errors

    locks: Dict[str, LockBlock] = {}
    lock_ids = set()
    for path, ld, lid, n_errors in entries("locks", "lock", lock_ids, "lock"):
        fidelity = ld.get("fidelity", "spectral")
        timed = fidelity == "time-domain"
        kw = parsed(json_fields, ld, path, _LOCK_KEYS,
                    required=("f_lock_hz", "servo" if timed else "loop_bandwidth_hz"),
                    either=[("servo", "loop_bandwidth_hz")] if timed else ())
        laser = named(oscillators, ld.get("laser"), f"{path}.laser", "oscillator")
        comb = named(combs, ld.get("comb"), f"{path}.comb", "comb")
        if fidelity not in ("spectral", "time-domain"):
            errors.append(f"{path}.fidelity: must be 'spectral' or 'time-domain'")
        if timed and duration > TIME_DOMAIN_CAP_S:
            errors.append(f"{path}: time-domain fidelity requires duration_s <= {TIME_DOMAIN_CAP_S}")
        disc = parsed(_discriminator, ld.get("discriminator", {}), f"{path}.discriminator")
        servo = thermal = None
        for key in ("servo", "thermal"):
            if not timed and key in ld:
                errors.append(f"{path}.{key}: applies to time-domain fidelity only")
        if timed and "servo" in ld:
            servo = parsed(lambda d, p: ServoConfig(**json_fields(d, p, ServoConfig)),
                           ld["servo"], f"{path}.servo")
        if timed and "thermal" in ld and n_samples >= 2:  # a ramp's table spans the run
            thermal = parsed(_thermal, ld["thermal"], f"{path}.thermal", duration)
        if len(errors) > n_errors or laser is None or comb is None:
            continue
        bw = kw.get("loop_bandwidth_hz")
        try:
            n, line = _comb_line(laser, comb)
            lock = resolve_lock_point(disc, kw["f_lock_hz"])
            if timed:
                servo = servo or servo_for_bandwidth(lock, bw)
            if n_samples >= 2 and not timed:  # the timing rules need the run's time grid
                check_spectral_bandwidth(bw, dt)
            elif n_samples >= 2:
                servo_stride(lock, servo, dt)
        except MALFORMED as exc:
            errors.append(f"{path}: {exc}")
            continue
        locks[lid] = LockBlock(id=lid, laser=laser, line=line, line_index=n, lock=lock,
                               fidelity=fidelity, loop_bandwidth_hz=bw, servo=servo,
                               thermal=thermal)

    # a rejected lock may be the one a signal names: its error stands for both
    lock_rejected = len(locks) < len(lock_ids)

    def parse_signal(text, path) -> Optional[Signal]:
        kind, *names = text.split(":") if isinstance(text, str) else [""]
        if len(names) != _SIGNAL_ARITY.get(kind):
            errors.append(f"{path}: malformed signal {text!r}")
            return None
        source, ref, osc = names[0], None, None
        if kind == "freerun":
            osc = named(oscillators, source, path, "oscillator")
        elif source not in lock_ids and not lock_rejected:
            errors.append(f"{path}: unknown lock id {source!r}")
        if kind == "outofloop":
            ref = names[1]
            if ref in combs and ref in oscillators:
                errors.append(f"{path}: out-of-loop reference {ref!r} names both an "
                              f"oscillator and a comb")
            elif ref not in combs:
                osc = named(oscillators, ref, path, "out-of-loop reference")
            elif combs[ref] is not None and source in locks:
                try:
                    n, osc = _comb_line(locks[source].laser, combs[ref])
                except MALFORMED as exc:
                    errors.append(f"{path}: {exc}")
                    return None
                ref = f"{ref}:line{n}"
        return Signal(kind, source, ref, osc)

    chain, chain_statistics = None, {}
    if doc.get("chain") is not None:
        try:
            chain = chainmod.evaluate_chain(doc["chain"])
        except ParameterError as exc:
            errors.append(f"chain: {exc}")
        else:
            budget = chain.get("budget")
            if budget is not None:
                chain_statistics = {
                    "chain_nominal_hz": float(budget["node"]["nominal_hz"]),
                    "chain_sigma_abs_hz": float(budget["node"]["sigma_abs_hz"]),
                    "chain_stability_pass": float(budget["stability_pass"]),
                    "chain_offset_pass": float(budget["offset_pass"])}

    measurements: List[Measurement] = []
    stat_ids, measurement_ids = set(), set()
    for path, md, mid, n_errors in entries("measurements", "measurement", measurement_ids, None):
        kind = md.get("kind")
        if kind != "adev" or "pick_tau_s" in md:  # an unknown kind's id too
            if mid in chain_statistics:
                errors.append(f"{path}.id: the chain produces statistic {mid!r} too")
            stat_ids.add(mid)
        kind_keys = _MEASUREMENT_KEYS.get(kind) if isinstance(kind, str) else None
        if kind_keys is None:
            errors.append(f"{path}.kind: must be one of {tuple(_MEASUREMENT_KEYS)}")
            continue
        kw = parsed(json_fields, md, path, ("id", "kind", "signal"), {"gate_s": float}, kind_keys)
        signal = parse_signal(md.get("signal"), f"{path}.signal")
        baseline = None
        if kind == "adev_ratio_max":
            baseline = parse_signal(md.get("baseline"), f"{path}.baseline")
            osc = baseline and baseline.kind == "freerun" and baseline.oscillator
            if osc and osc.noise.is_zero:
                errors.append(f"{path}.baseline: oscillator {baseline.source!r} has no noise, "
                              f"drift or adev_profile, so its ADEV is zero at every tau")
        grid = None
        if kind != "peak_to_peak":
            grid = md.get("taus_s", "octave")
            if grid != "octave" and not (isinstance(grid, list)
                                         and all(finite(t) and t > 0 for t in grid)):
                errors.append(f"{path}.taus_s: must be 'octave' or a list of positive numbers")
                grid = None
            if md.get("estimator", "overlapping") not in _ESTIMATORS:
                errors.append(f"{path}.estimator: must be 'overlapping' or 'non-overlapping'")
        fractional_hz = None
        if kind == "adev":
            units = md.get("units", UNITS_HZ)
            if units == UNITS_FRACTIONAL:
                ref = named(oscillators, md.get("fractional_ref"), f"{path}.fractional_ref",
                            "oscillator")
                fractional_hz = ref.nominal_hz if ref else None
            elif units != UNITS_HZ:
                errors.append(f"{path}.units: must be '{UNITS_HZ}' or '{UNITS_FRACTIONAL}'")
            elif "fractional_ref" in md:
                errors.append(f"{path}.fractional_ref: valid only with units '{UNITS_FRACTIONAL}'")
        if kw is None or n_samples < 2:
            continue  # the error is recorded; the rules below need typed keys and a time grid
        # metrology's gate, window, tau and pick rules, applied to the sizes of the run
        gate = kw.get("gate_s", 1.0)
        taus: Tuple[float, ...] = ()
        try:
            n_gates = n_samples // gate_steps(gate, dt, n_samples)
            if "window_s" in kw:
                window_steps(kw["window_s"], gate, n_gates)
            if grid is not None:
                if grid == "octave":
                    grid = octave_taus(gate, gate * n_gates)
                taus = tuple(float(t) for t in grid)
                steps, _ = tau_steps(taus, gate, n_gates)  # a tau too long is omitted, not raised
                if not steps:
                    errors.append(f"{path}.taus_s: no tau fits twice into the series")
                elif "pick_tau_s" in kw:
                    tau_index([m * gate for m in steps], kw["pick_tau_s"])
        except ParameterError as exc:
            errors.append(f"{path}: {exc}")
        if len(errors) == n_errors:
            measurements.append(Measurement(
                id=mid, kind=kind, signal=signal, baseline=baseline, gate_s=gate, taus_s=taus,
                estimator=kw.get("estimator", "overlapping"), fractional_hz=fractional_hz,
                pick_tau_s=kw.get("pick_tau_s"), window_s=kw.get("window_s")))

    stat_ids.update(chain_statistics)
    # a rejected measurement may be the one an expectation names: its error stands for both
    id_rejected = any(isinstance(mid, tuple) for mid in measurement_ids)
    expectations: Dict[str, Tuple[float, float]] = {}
    for sid, env in section("expectations", dict).items():
        path = f"expectations.{sid}"
        if sid not in stat_ids and not id_rejected:
            errors.append(f"{path}: no measurement produces statistic {sid!r}")
            continue
        if not isinstance(env, list) or len(env) != 2 or not all(finite(v) for v in env):
            errors.append(f"{path}: envelope must be [min, max]")
            continue
        if env[0] > env[1]:
            errors.append(f"{path}: envelope min exceeds max")
            continue
        expectations[sid] = (float(env[0]), float(env[1]))

    if errors:
        return None, errors
    return ScenarioConfig(
        name=name, seed=seed, duration_s=duration, dt_s=dt, locks=locks,
        measurements=measurements, chain=chain, chain_statistics=chain_statistics,
        expectations=expectations, raw=doc,
    ), []


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        cfg, errors = validate_config(fh.read())
    if errors:
        raise ParameterError(f"config error in {path}: " + "; ".join(errors))
    return cfg


@dataclass
class RunReport:
    name: str
    statistics: Dict[str, float]
    verdicts: Dict[str, bool]
    overall_pass: bool
    unchecked: bool
    manifest: List[str]
    config_echo: dict
    #: measurement id -> the series files its statistic read: signal's, then any baseline's
    series: Dict[str, List[str]] = field(default_factory=dict)  # absent from older reports


def execute_lock(cfg: ScenarioConfig,
                 block: LockBlock) -> Tuple[FrequencyTrace, FrequencyTrace, dict]:
    """Run one lock block: (locked laser trace, in-loop beat trace, status)."""
    seed = derive_seed(cfg.seed, f"lock:{block.id}")
    if block.fidelity == "time-domain":
        run = simulate_lock(block.laser, block.line, block.lock, block.servo,
                            cfg.duration_s, cfg.dt_s, seed, thermal=block.thermal)
        return run.laser_offset_trace, run.inloop_beat_trace, run.status
    locked_off, ref_off = closed_loop_components(block.laser, block.line, block.lock,
                                                 block.loop_bandwidth_hz, cfg.duration_s,
                                                 cfg.dt_s, seed)
    locked = FrequencyTrace(block.laser.nominal_hz, cfg.dt_s, locked_off, seed)
    inloop = out_of_loop_beat(locked, FrequencyTrace(block.line.nominal_hz, cfg.dt_s, ref_off))
    status = {"model": "spectral", "loop_bandwidth_hz": block.loop_bandwidth_hz,
              "f_lock_hz": block.lock.f_hz, "comb_line": block.line_index}
    return locked, inloop, status


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> RunReport:
    """Execute a validated scenario; writes artifacts and returns the report.

    Every statistic is computed before the first artifact is written, so a
    run that fails leaves no partial output behind.
    """
    if out_dir is None:
        root = os.environ.get(OUT_DIR_ENV, "runs")
        out_dir = os.path.join(root, cfg.name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".writable")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise ParameterError(f"output directory {out_dir!r} is not writable: {exc}")

    # the reads each full-rate trace has left: one per (signal, gate) that counts it, and one
    # of locked:<lock> per out-of-loop signal beaten against it; a trace is dropped at its last
    left = Counter(sig for sig, _ in {(s, m.gate_s) for m in cfg.measurements
                                      for s in (m.signal, m.baseline) if s is not None})
    left.update([Signal("locked", sig.source, None) for sig in left if sig.kind == "outofloop"])
    traces: Dict[Signal, FrequencyTrace] = {}
    lockruns = []  # written last, as (file name, writer, payload) like every artifact
    for lid, block in cfg.locks.items():
        locked, inloop, status = execute_lock(cfg, block)
        for sig, trace in ((Signal("locked", lid, None), locked),
                           (Signal("inloop", lid, None), inloop)):
            if left[sig]:  # a trace nothing reads is never stored
                traces[sig] = trace
        del locked, inloop, trace  # these names would hold the traces to the next lock or the end
        lockruns.append((f"{lid}_lockrun.json", write_json, {
            "f_lock_hz": block.lock.f_hz, "line_nominal_hz": block.line.nominal_hz, "status": status}))

    statistics: Dict[str, float] = {}
    artifacts = []  # (file name, writer, payload), written once every statistic exists
    counts: Dict[Tuple[Signal, float], Tuple[str, FrequencyTrace]] = {}  # (file name, series)
    read: Dict[str, List[str]] = {}  # measurement id -> the series files its statistic read

    def take(sig: Signal) -> FrequencyTrace:
        """One read of ``sig``'s trace; the last one drops it."""
        left[sig] -= 1
        return traces[sig] if left[sig] else traces.pop(sig)

    def counted(m: Measurement, sig: Signal, name: str) -> FrequencyTrace:
        """``sig``'s series at ``m``'s gate, counted and written once, as its first read's name."""
        key = (sig, m.gate_s)
        if key not in counts:
            if sig not in traces:  # a freerun or outofloop signal draws its oscillator
                trace = oscillator_trace(sig.oscillator, cfg.duration_s, cfg.dt_s,
                                         derive_seed(cfg.seed, f"freerun:{sig.ref or sig.source}"))
                if sig.kind == "outofloop":  # the reference trace is used once, so it is not kept
                    trace = out_of_loop_beat(take(Signal("locked", sig.source, None)), trace)
                traces[sig] = trace
            counts[key] = name, count(take(sig), CounterConfig(gate_s=m.gate_s))
            artifacts.append((name, write_series_csv, counts[key][1]))
        name, series = counts[key]
        read.setdefault(m.id, []).append(name)
        return series

    def allan(m: Measurement, series):
        fn = adev_overlapping if m.estimator == "overlapping" else adev_nonoverlapping
        return fn(series, m.taus_s)

    for m in cfg.measurements:
        series = counted(m, m.signal, f"{m.id}_series.csv")
        if m.kind == "peak_to_peak":
            statistics[m.id] = peak_to_peak(series, m.window_s)
        elif m.kind == "adev":
            result = allan(m, series)
            if m.fractional_hz is not None:
                result = to_fractional(result, m.fractional_hz)
            artifacts.append((f"{m.id}_adev.csv", write_allan_csv, result))
            if m.pick_tau_s is not None:
                statistics[m.id] = result.sigma_at(m.pick_tau_s)
        else:
            num = allan(m, series)
            den = allan(m, counted(m, m.baseline, f"{m.id}_baseline.csv"))
            # both series are counted on the run's grid with one gate and tau list: equal taus
            ratios = [a / b for a, b in zip(num.sigmas, den.sigmas) if b > 0]
            if not ratios:
                raise ParameterError(f"measurement {m.id}: baseline ADEV is zero at every tau")
            statistics[m.id] = float(max(ratios))

    statistics.update(cfg.chain_statistics)
    if cfg.chain is not None:
        artifacts.append(("chain_budget.json", write_json, cfg.chain))
    artifacts += lockruns

    verdicts = {sid: bool(lo <= statistics[sid] <= hi)  # closed interval: endpoints pass
                for sid, (lo, hi) in cfg.expectations.items()}
    manifest: List[str] = []
    for name, write, payload in artifacts:
        write(payload, os.path.join(out_dir, name))
        manifest.append(name)

    report = RunReport(
        name=cfg.name,
        statistics=statistics,
        verdicts=verdicts,
        overall_pass=all(verdicts.values()) if verdicts else True,
        unchecked=not verdicts,
        manifest=manifest,
        config_echo=cfg.raw,
        series=read,
    )
    write_json(asdict(report), os.path.join(out_dir, "report.json"))
    report.manifest.append("report.json")
    return report


def compare_expected(report: RunReport) -> Tuple[int, dict]:
    """Exit status and machine-readable verdict for a completed report."""
    verdict = {
        "name": report.name,
        "overall_pass": report.overall_pass,
        "unchecked": report.unchecked,
        "failed": sorted(sid for sid, ok in report.verdicts.items() if not ok),
        "statistics": report.statistics,
    }
    return (0 if report.overall_pass else 1), verdict


def expand_seeds(cfg: ScenarioConfig, n_seeds: int) -> List[ScenarioConfig]:
    """One scenario = one seed; ensembles are N configs with consecutive seeds."""
    if n_seeds < 1:
        raise ParameterError("n_seeds must be >= 1")
    out = []
    for seed in range(cfg.seed, cfg.seed + n_seeds):
        name = f"{cfg.name}_seed{seed}"
        out.append(replace(cfg, seed=seed, name=name, raw=dict(cfg.raw, seed=seed, name=name)))
    return out
