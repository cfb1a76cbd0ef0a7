"""Gated-counter emulation and frequency-stability statistics.

Counter readings are plain (Pi-type) means over each gate, and a counter
series is a ``FrequencyTrace`` whose spacing ``dt_s`` is the gate.  Stability
is summarized with the two-sample (Allan) standard deviation, either
overlapping or non-overlapping, in absolute Hz or fractional form.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError
from .noisegen import FrequencyTrace, grid_steps, write_column

UNITS_HZ = "hz"
UNITS_FRACTIONAL = "fractional"


@dataclass(frozen=True)
class CounterConfig:
    """Pi-type frequency counter: reading = mean frequency over each gate."""

    gate_s: float

    def __post_init__(self):
        if self.gate_s <= 0.0:
            raise ParameterError("gate_s must be > 0")


@dataclass(frozen=True)
class AllanResult:
    """(tau, sigma, n_pairs) triples from a two-sample deviation estimate."""

    taus_s: np.ndarray
    sigmas: np.ndarray
    n_pairs: np.ndarray
    units: str
    omitted_taus_s: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "taus_s", np.asarray(self.taus_s, dtype=float))
        object.__setattr__(self, "sigmas", np.asarray(self.sigmas, dtype=float))
        object.__setattr__(self, "n_pairs", np.asarray(self.n_pairs, dtype=int))

    def sigma_at(self, tau_s: float) -> float:
        return float(self.sigmas[tau_index(self.taus_s, tau_s)])


def write_series_csv(series: FrequencyTrace, path) -> None:
    with open(path, "w") as fh:
        write_column(fh, f"# nominal_hz={series.nominal_hz} gate_s={series.dt_s:.17g}",
                     series.samples)


_SERIES_HEADER = re.compile(r"#\s*nominal_hz=(-?\d+)\s+gate_s=(\S+)")


def read_series_csv(path) -> FrequencyTrace:
    with open(path) as fh:
        m = _SERIES_HEADER.match(fh.readline())
        if not m:
            raise ParameterError(f"{path}: not a counter series CSV")
        lines = fh.readlines()
    if not any(line.split("#", 1)[0].strip() for line in lines):  # loadtxt would warn, then fail
        raise ParameterError(f"{path}: no readings after the header")
    try:
        readings = np.loadtxt(lines, dtype=float, ndmin=1)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    series = FrequencyTrace(int(m.group(1)), float(m.group(2)), readings)
    if not np.isfinite(series.dt_s * len(series)):  # octave_taus would double to overflow
        raise ParameterError(f"{path}: gate_s times the number of readings must be finite")
    return series


def allan_csv(result: AllanResult) -> str:
    """The AllanResult CSV text: a header, then one ``tau,sigma,units,n_pairs`` line per tau."""
    rows = zip(result.taus_s, result.sigmas, result.n_pairs)
    return "tau_s,sigma,units,n_pairs\n" + "".join(
        f"{tau:.17g},{sigma:.17g},{result.units},{n}\n" for tau, sigma, n in rows)


def write_allan_csv(result: AllanResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(allan_csv(result))


# The gate, window, tau and pick rules.  Each takes sizes and tau grids, not data, so
# validation applies to a run's sizes the rule that counting and the ADEV apply to its data.

def gate_steps(gate_s: float, dt_s: float, n_samples: int) -> int:
    """Samples per gate of a trace of ``n_samples`` samples of ``dt_s``."""
    m = grid_steps(gate_s, dt_s, 1e-6)
    if not 2 <= m <= n_samples:
        raise ParameterError("gate_s must be an integer multiple of dt_s, "
                             "from 2*dt_s up to the duration")
    return m


def window_steps(window_s: float, gate_s: float, n_gates: int) -> int:
    """Readings in a leading window of a series of ``n_gates`` readings."""
    k = grid_steps(window_s, gate_s, 1e-9)
    if not 1 <= k <= n_gates:
        raise ParameterError("window_s must be a multiple of gate_s within the series span")
    return k


def tau_steps(taus: Sequence[float], gate_s: float, n_gates: int) -> Tuple[List[int], List[float]]:
    """Gates per tau of the taus that fit twice into ``n_gates`` readings, and the taus omitted."""
    steps, omitted = [], []
    for tau in taus:
        m = grid_steps(tau, gate_s, 1e-9)
        if not m:
            raise ParameterError(f"taus_s must be multiples of gate_s; tau={tau} is not "
                                 f"(gate_s={gate_s})")
        if 2 * m <= n_gates:
            steps.append(m)
        else:
            omitted.append(float(tau))
    return steps, omitted


def tau_index(taus_s: Sequence[float], tau_s: float) -> int:
    """Where ``tau_s`` is in a grid of the taus that fit twice into a series (to 1e-9 of it)."""
    idx = np.nonzero(np.isclose(taus_s, tau_s, rtol=1e-9, atol=0.0))[0]
    if idx.size == 0:
        raise ParameterError(f"pick_tau_s must be a tau of the grid that fits twice into the "
                             f"series: no ADEV point at tau={tau_s}")
    return int(idx[0])


def count(trace: FrequencyTrace, cfg: CounterConfig) -> FrequencyTrace:
    """Apply a gated Pi counter to a trace; trailing partial gate discarded."""
    m = gate_steps(cfg.gate_s, trace.dt_s, trace.samples.size)
    readings = trace.samples[: trace.samples.size // m * m].reshape(-1, m).mean(axis=1)
    return FrequencyTrace(trace.nominal_hz, cfg.gate_s, readings)


def _allan(series: FrequencyTrace, taus: Sequence[float],
           differences: Callable[[int], np.ndarray]) -> AllanResult:
    """sigma(tau) = sqrt(0.5 * <d^2>) over the ``differences(m)`` of m-gate averages."""
    steps, omitted = tau_steps(taus, series.dt_s, len(series))
    out_t, out_s, out_n = [], [], []
    for m in steps:
        d = differences(m)
        out_t.append(m * series.dt_s)
        out_s.append(float(np.sqrt(0.5 * np.mean(d * d))))
        out_n.append(d.size)
    return AllanResult(taus_s=np.array(out_t), sigmas=np.array(out_s), n_pairs=np.array(out_n),
                       units=UNITS_HZ, omitted_taus_s=tuple(omitted))


def adev_overlapping(series: FrequencyTrace, taus: Sequence[float]) -> AllanResult:
    """Overlapping Allan standard deviation.

    sigma^2(tau) = 0.5 * <(ybar_{k+m} - ybar_k)^2> over all overlapping
    starts k, with ybar_k the m-gate average beginning at reading k.
    Taus too large for the series are omitted and flagged, not raised.
    """
    c = np.concatenate([[0.0], np.cumsum(series.samples)])

    def differences(m: int) -> np.ndarray:
        avg = (c[m:] - c[:-m]) / m
        return avg[m:] - avg[:-m]
    return _allan(series, taus, differences)


def adev_nonoverlapping(series: FrequencyTrace, taus: Sequence[float]) -> AllanResult:
    """Non-overlapping (strided) Allan standard deviation over disjoint intervals."""
    y = series.samples

    def differences(m: int) -> np.ndarray:
        blocks = y[: y.size // m * m].reshape(-1, m).mean(axis=1)
        return blocks[1:] - blocks[:-1]
    return _allan(series, taus, differences)


def to_fractional(result: AllanResult, nominal_hz: int) -> AllanResult:
    """Convert an absolute-Hz result to fractional units (sigma / nu0)."""
    if nominal_hz <= 0:
        raise ParameterError("nominal_hz must be > 0")
    if result.units != UNITS_HZ:
        raise ParameterError("result is already fractional")
    return replace(result, sigmas=result.sigmas / float(nominal_hz), units=UNITS_FRACTIONAL)


def peak_to_peak(series: FrequencyTrace, window_s: Optional[float] = None) -> float:
    """Max minus min reading over the leading window (full series if omitted)."""
    y = series.samples
    if window_s is not None:
        y = y[:window_steps(window_s, series.dt_s, y.size)]
    return float(y.max() - y.min())


def octave_taus(gate_s: float, span_s: float) -> list:
    """Default tau grid: {1, 2, 4, ...} * gate up to span/4."""
    taus = []
    m = 1
    while m * gate_s <= span_s / 4.0:
        taus.append(m * gate_s)
        m *= 2
    return taus
