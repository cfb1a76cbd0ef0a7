"""Delay-line frequency discriminator, PI servo and closed-loop lock models.

The discriminator mixes the beat note with a delayed copy of itself; after
low-pass filtering the error voltage is ``sign * V0 * cos(2 pi f tau_d)``.
Zero crossings at ``f = (2k+1)/(4 tau_d)`` serve as lock points, with slope
magnitude ``2 pi V0 tau_d`` and monotonic capture half-range ``1/(4 tau_d)``
(so |slope| * halfwidth = pi V0 / 2 for any delay: the stability/capture
trade-off).  Two fidelities are provided: a discrete-time PI loop for short
runs and a single-pole spectral shaping model for hour-long runs.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError
from .noisegen import (
    FrequencyTrace,
    NoiseSpec,
    OscillatorModel,
    derive_seed,
    exact_int,
    finite,
    grid_steps,
    oscillator_trace,
    synth_power_law,
    write_json,
)

#: Speed of light, m/s (exact).
C_M_PER_S = 299792458.0

#: Velocity factor of solid-PE coax; 5 m at 0.66 puts a lock point within
#: 2% of 30 MHz, consistent with the hardware this models.
DEFAULT_VELOCITY_FACTOR = 0.66


def cable_delay(cable_m: float, velocity_factor: float = DEFAULT_VELOCITY_FACTOR) -> float:
    """Delay of a discriminator's cable from its config keys: cable_m / (velocity_factor * c)."""
    if cable_m < 0.0:
        raise ParameterError("cable_m must be >= 0")
    if not 0.0 < velocity_factor <= 1.0:
        raise ParameterError("velocity_factor must be in (0, 1]")
    return cable_m / (velocity_factor * C_M_PER_S)


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Delay-line discriminator parameters.

    ``noise_v2_per_hz`` is the white detection-noise voltage density at the
    mixer output (V^2/Hz); it sets the in-loop noise floor and is a
    calibration knob, not a physically derived value.
    """

    delay_s: float
    amplitude_v: float = 1.0
    sign: int = 1
    bandpass_center_hz: float = 30e6
    bandpass_halfwidth_hz: float = 15e6
    noise_v2_per_hz: float = 0.0

    def __post_init__(self):
        if self.delay_s <= 0.0:
            raise ParameterError("delay_s must be > 0")
        if self.amplitude_v <= 0.0:
            raise ParameterError("amplitude_v must be > 0")
        if exact_int(self.sign, "sign") not in (-1, 1):
            raise ParameterError("sign must be +1 or -1")
        if self.bandpass_halfwidth_hz <= 0.0:
            raise ParameterError("bandpass_halfwidth_hz must be > 0")
        if self.noise_v2_per_hz < 0.0:
            raise ParameterError("noise_v2_per_hz must be >= 0")
        lo = self.bandpass_center_hz - self.bandpass_halfwidth_hz
        hi = self.bandpass_center_hz + self.bandpass_halfwidth_hz
        k = _lock_index(self, lo)  # the first zero crossing may sit on the open edge lo
        if not any(self.in_passband(_crossing_hz(self, j)) for j in (k, k + 1)):
            raise ParameterError("bandpass passband contains no lock point")

    def in_passband(self, f_hz) -> np.ndarray:
        return np.abs(np.asarray(f_hz, float) - self.bandpass_center_hz) < self.bandpass_halfwidth_hz


@dataclass(frozen=True)
class ThermalModel:
    """Fractional delay change per kelvin and a table ``(times_s, temps_K)`` of K since the run's
    start, interpolated linearly into the delay schedule ``delays``; checked whole when built,
    as a delay positive at two points is positive between them.  A ramp is a 2-point table."""

    tempco_per_K: float
    temperature_profile: Tuple[Sequence[float], Sequence[float]]

    def __post_init__(self):
        if abs(self.tempco_per_K) >= 1e-2:
            raise ParameterError("|tempco_per_K| must be < 1e-2")
        times, temps = (np.asarray(v, dtype=object) for v in self.temperature_profile)
        if not all(map(finite, (*times.flat, *temps.flat))):
            raise ParameterError("times_s and temps_K must hold finite numbers only")
        times, temps = times.astype(float), temps.astype(float)
        object.__setattr__(self, "temperature_profile", (times, temps))
        if not times.ndim == temps.ndim == 1 or not 0 < times.size == temps.size:
            raise ParameterError("times_s and temps_K must be non-empty and of equal length")
        if np.any(np.diff(times) <= 0):
            raise ParameterError("times_s must be strictly increasing")
        if not np.all(1.0 + self.tempco_per_K * temps > 0.0):
            raise ParameterError("temperature excursion drives the delay to zero or below")

    def delays(self, disc: DiscriminatorConfig, t_s):
        """tau_d(t) = tau_d(0) (1 + tempco dT(t)) at ``t_s``, a time or an array of times (s)."""
        times, temps = self.temperature_profile
        return disc.delay_s * (1.0 + self.tempco_per_K * np.interp(t_s, times, temps))


@dataclass(frozen=True)
class ServoConfig:
    """Discrete PI servo acting directly on the laser frequency actuator."""

    kp: float = 0.0
    ki: float = 0.0
    actuator_limit_hz: float = 50e6
    update_dt_s: float = 1e-3

    def __post_init__(self):
        if self.actuator_limit_hz <= 0.0:
            raise ParameterError("actuator_limit_hz must be > 0")
        if self.update_dt_s <= 0.0:
            raise ParameterError("update_dt_s must be > 0")
        if self.kp == 0.0 and self.ki == 0.0:
            raise ParameterError("at least one of kp, ki must be nonzero")


def error_signal(f_beat_hz, disc: DiscriminatorConfig, delay_s: Optional[float] = None):
    """Discriminator output, sign * V0 * cos(2 pi f tau_d); 0 V outside the passband."""
    tau = disc.delay_s if delay_s is None else delay_s
    f = np.asarray(f_beat_hz, dtype=float)
    v = disc.sign * disc.amplitude_v * np.cos(2.0 * np.pi * f * tau)
    v = np.where(disc.in_passband(f), v, 0.0)
    return float(v) if np.isscalar(f_beat_hz) else v


def _lock_index(disc: DiscriminatorConfig, f_hz: float) -> int:
    """Index k >= 0 of the first zero crossing at or above ``f_hz``."""
    return max(0, math.ceil((f_hz * 4.0 * disc.delay_s - 1.0) / 2.0))


def _crossing_hz(disc: DiscriminatorConfig, k: int) -> float:
    """Zero crossing k of the error voltage, (2k+1)/(4 tau_d)."""
    return (2 * k + 1) / (4.0 * disc.delay_s)


@dataclass(frozen=True)
class LockPoint:
    """Zero crossing k of ``disc``, exactly, inside its passband (else raises); ``slope`` is
    d(error)/df there, 2 pi V0 tau_d * ``slope_sign``, whose sign is -sign * (-1)^k."""

    disc: DiscriminatorConfig
    f_hz: float
    slope_sign: int = field(init=False)
    slope: float = field(init=False)

    def __post_init__(self):
        disc, k = self.disc, (self.f_hz * 4.0 * self.disc.delay_s - 1.0) / 2.0
        k = round(k) if math.isfinite(k) else -1
        if not (k >= 0 and _crossing_hz(disc, k) == self.f_hz):
            raise ParameterError(f"{self.f_hz!r} Hz is not a zero crossing of the discriminator")
        if not disc.in_passband(self.f_hz):
            raise ParameterError(f"lock point {self.f_hz!r} Hz lies outside the passband")
        sign = -disc.sign * (1 if k % 2 == 0 else -1)
        object.__setattr__(self, "slope_sign", sign)
        object.__setattr__(self, "slope", 2.0 * np.pi * disc.amplitude_v * disc.delay_s * sign)


def lock_points(disc: DiscriminatorConfig, f_min_hz: float, f_max_hz: float) -> List[LockPoint]:
    """All zero crossings (2k+1)/(4 tau_d) inside [f_min, f_max] and the passband."""
    if f_min_hz >= f_max_hz:
        raise ParameterError("f_min must be < f_max")
    out = []
    k = _lock_index(disc, f_min_hz)
    while (f := _crossing_hz(disc, k)) <= f_max_hz:
        if f >= f_min_hz and disc.in_passband(f):
            out.append(LockPoint(disc, f))
        k += 1
    return out


def resolve_lock_point(disc: DiscriminatorConfig, f_hz: float) -> LockPoint:
    """The passband lock point nearest ``f_hz``, which must lie inside its capture half-range.

    The one place a frequency becomes a lock point; the model functions take the LockPoint.
    No f_hz <= 0 resolves: the first lock point lies a full capture half-range above zero.
    """
    hw = capture_halfwidth(disc)
    if not f_hz - hw < f_hz + hw:
        raise ParameterError(f"f_lock_hz {f_hz!r}: no lock point can be resolved at this frequency "
                             f"(its float spacing exceeds the capture half-range {hw:.6g} Hz)")
    p = min(lock_points(disc, f_hz - hw, f_hz + hw), key=lambda p: abs(p.f_hz - f_hz), default=None)
    if p is None or not abs(p.f_hz - f_hz) < hw:
        raise ParameterError(f"f_lock_hz {f_hz!r}: no passband lock point within the capture "
                             f"half-range {hw:.6g} Hz")
    return p


def capture_halfwidth(disc: DiscriminatorConfig) -> float:
    """Monotonic half-range around any lock point, 1/(4 tau_d)."""
    return 1.0 / (4.0 * disc.delay_s)


def servo_for_bandwidth(lock: LockPoint, bandwidth_hz: float) -> ServoConfig:
    """Pure-integral gain ki = 2 pi bw / |slope| at ``lock``: a discrete integrator that acts
    one update T_u late, with loop gain k = 2 pi bw T_u, is first-order-like of bandwidth bw
    only for k << 1 and stable only for k < 2 (``servo_stride`` checks it).

    Linearised, a_j = (1 - k) a_{j-1} - k x_{j-1}, where x_{j-1} is the locked offset averaged
    over update j - 1: G = -k z^-1 / (1 - (1 - k) z^-1) at z = e^{i 2 pi f T_u}.  The average
    and the hold each weigh f by D = sinc(f T_u), so a white-FM laser leaves the loop with
    |1 - H|^2 = |1 + D^2 G|^2 + D^2 |G|^2 (1 - D^2), the last term aliased by the hold.  At
    bw = 100 Hz and T_u = 1 ms it exceeds 1 from 130 Hz and peaks at 1.68 near 320 Hz.
    """
    if not bandwidth_hz > 0.0:
        raise ParameterError(f"loop_bandwidth_hz {bandwidth_hz!r} must be > 0")
    return ServoConfig(kp=0.0, ki=2.0 * np.pi * bandwidth_hz / abs(lock.slope))


@dataclass(frozen=True)
class LockRun:
    """One closed-loop run, each array at the rate README.md's "LockRun directory" gives it."""

    laser_offset_trace: FrequencyTrace
    inloop_beat_trace: FrequencyTrace
    error_trace: np.ndarray
    actuator_trace: np.ndarray
    update_stride: int
    status: dict
    config: dict

    def export(self, out_dir) -> List[str]:
        """Write the LockRun directory that README.md describes; return its five paths."""
        os.makedirs(out_dir, exist_ok=True)
        written = [os.path.join(out_dir, name) for name in (
            "laser_offset.npy", "inloop_beat.npy", "error_v.npy", "actuator_hz.npy", "lockrun.json")]
        laser, beat = self.laser_offset_trace, self.inloop_beat_trace
        for path, arr in zip(written, (laser.samples, beat.samples, self.error_trace, self.actuator_trace)):
            np.save(path, arr, allow_pickle=False)
        traces = {"dt_s": laser.dt_s, "update_stride": self.update_stride,
                  "laser_offset": {"nominal_hz": laser.nominal_hz, "seed": laser.seed},
                  "inloop_beat": {"nominal_hz": beat.nominal_hz, "seed": beat.seed}}
        write_json({"f_lock_hz": self.config["f_lock_hz"], "status": self.status, "config": self.config,
                    "traces": traces}, written[-1])
        return written


def servo_stride(lock: LockPoint, servo: ServoConfig, dt_s: float) -> int:
    """Samples per servo update at ``lock``; raises on unrunnable timing or gains.  With g_p =
    kp |slope| and g_i = ki |slope| T_u the linearised update a_j = (1 - g_p - g_i) a_{j-1} +
    g_p a_{j-2} is stable (Jury's test) when |g_p| < 1, g_i > 0 and 2 - 2 g_p - g_i > 0, or
    without ki when |g_p| < 1."""
    stride = grid_steps(servo.update_dt_s, dt_s, 1e-6)
    if not stride:
        raise ParameterError("servo.update_dt_s must be an integer multiple of dt (dt must not exceed it)")
    implied_bw = abs(lock.slope) * (
        abs(servo.ki) / (2.0 * np.pi) + abs(servo.kp) / (2.0 * np.pi * servo.update_dt_s))
    if not implied_bw < 1.0 / (10.0 * dt_s):  # NaN gains fail too
        raise ParameterError("servo gains imply a loop bandwidth above the 1/(10 dt) guard")
    g_p, g_i = servo.kp * abs(lock.slope), servo.ki * abs(lock.slope) * servo.update_dt_s
    if not (abs(g_p) < 1.0 and (servo.ki == 0.0 or g_i > 0.0 and 2.0 - 2.0 * g_p - g_i > 0.0)):
        raise ParameterError(f"servo gains make an unstable loop (g_p = kp*|slope| = {g_p:.4g}, "
                             f"g_i = ki*|slope|*update_dt_s = {g_i:.4g}): stability needs "
                             f"|g_p| < 1 and, with ki, g_i > 0 and 2 - 2 g_p - g_i > 0")
    return stride


def _mean(v: List[float]) -> float:
    """``np.mean`` of a short list, bit for bit: numpy adds 8 or more values pairwise."""
    if len(v) == 10:
        return ((((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7])))
                + v[8] + v[9]) / 10
    return float(np.add.reduce(v)) / len(v)


def simulate_lock(
    laser: OscillatorModel,
    reference: OscillatorModel,
    lock: LockPoint,
    servo: ServoConfig,
    duration_s: float,
    dt_s: float,
    seed: int,
    thermal: Optional[ThermalModel] = None,
    initial_beat_offset_hz: float = 0.0,
) -> LockRun:
    """Time-step the closed loop: free-run noise plus PI actuator correction.

    The beat is tracked signed (laser minus reference line) and folded to
    magnitude at the discriminator.  The servo consumes the error voltage
    averaged over the preceding update interval (integrate-and-dump, the
    anti-aliasing a real mixer low-pass provides); the actuator is held
    between updates, and each update sees the delay ``thermal.delays`` gives at its first sample.
    A run that railed the actuator in more than half its updates, or locked in less than half its
    samples, is reported unstable in the status block, not raised.  See :class:`LockRun` for rates.
    """
    if not dt_s > 0.0:
        raise ParameterError("dt must be > 0")
    disc, f0, fb = lock.disc, lock.f_hz, lock.slope_sign  # fb: negative feedback for either sign
    stride = servo_stride(lock, servo, dt_s)

    # synthesis raises unless duration_s is a multiple of dt_s of at least 2 samples
    laser_free = oscillator_trace(laser, duration_s, dt_s, derive_seed(seed, "laser")).samples
    ref_free = oscillator_trace(reference, duration_s, dt_s, derive_seed(seed, "reference")).samples
    n = laser_free.size

    beat0 = laser.nominal_hz - reference.nominal_hz
    polarity = 1.0 if beat0 >= 0 else -1.0
    base = float(beat0) + initial_beat_offset_hz + laser_free
    base -= ref_free
    del ref_free

    n_upd = (n + stride - 1) // stride
    if disc.noise_v2_per_hz > 0.0:
        rng = np.random.default_rng(derive_seed(seed, "detector"))
        v_noise = rng.standard_normal(n_upd) * math.sqrt(
            disc.noise_v2_per_hz / (2.0 * servo.update_dt_s))
    else:
        v_noise = np.zeros(n_upd)

    # Plain floats per update: numpy calls on a 10-sample slice cost far more than the
    # arithmetic.  This is error_signal() inlined, in its rounding order (2 pi f) tau.
    act_upd = np.empty(n_upd)  # polarity * actuator command, held for one update
    err_upd = np.empty(n_upd)
    tau_upd = (np.full(n_upd, disc.delay_s) if thermal is None
               else thermal.delays(disc, np.arange(n_upd) * stride * dt_s))
    v0 = disc.sign * disc.amplitude_v
    two_pi = 2.0 * np.pi
    center, half = disc.bandpass_center_hz, disc.bandpass_halfwidth_hz
    pa = 0.0  # polarity * actuator command (a correction in the beat frame, Hz)
    integ = 0.0
    railed_updates = 0
    for j in range(n_upd):
        k0 = j * stride
        tau_d = tau_upd.item(j)
        # the discriminator sees the beat of the previous interval (the first sample at j=0)
        volts = []
        for b in base[k0 - stride:k0].tolist() if j else base[:1].tolist():
            f = abs(b + pa)
            volts.append(v0 * math.cos(two_pi * f * tau_d) if abs(f - center) < half else 0.0)
        e = _mean(volts) + v_noise.item(j)
        integ += e * servo.update_dt_s
        u = servo.kp * e + servo.ki * integ
        act_cmd = -fb * u
        if abs(act_cmd) > servo.actuator_limit_hz:
            act_cmd = math.copysign(servo.actuator_limit_hz, act_cmd)
            if servo.ki != 0.0:  # anti-windup: pin the integrator at the rail
                integ = (-fb * act_cmd - servo.kp * e) / servo.ki
            railed_updates += 1
        act_upd[j] = pa = polarity * act_cmd
        err_upd[j] = e

    # Only the outputs stay allocated: each full-rate array below is built in the buffer of
    # one it replaces, or is a temporary freed at once.  The op order keeps every bit.
    act = np.repeat(act_upd, stride)[:n]
    laser_free += act  # the locked laser offsets
    base += act
    del act
    f_abs = np.abs(base, out=base)
    dev = np.repeat(f0 * disc.delay_s / tau_upd, stride)[:n]  # the lock point f0 tau_d(0)/tau_d
    np.abs(np.subtract(f_abs, dev, out=dev), out=dev)
    lock_fraction = float(np.count_nonzero(dev <= np.repeat(1.0 / (4.0 * tau_upd), stride)[:n]) / n)
    rail_fraction = railed_updates / n_upd
    beat_nominal = int(round(f0))

    status = {
        "lock_fraction": lock_fraction,
        "mean_beat_hz": float(np.mean(f_abs)),
        "actuator_rail_fraction": float(rail_fraction),
        "unstable": bool(rail_fraction > 0.5 or lock_fraction < 0.5),
    }
    f_abs -= beat_nominal  # now the in-loop beat samples
    config = {
        "f_lock_hz": f0,
        "duration_s": duration_s,
        "dt_s": dt_s,
        "seed": int(seed),
        "discriminator": asdict(disc),
        "servo": asdict(servo),
    }
    return LockRun(
        laser_offset_trace=FrequencyTrace(
            nominal_hz=laser.nominal_hz, dt_s=dt_s, samples=laser_free, seed=int(seed)),
        inloop_beat_trace=FrequencyTrace(
            nominal_hz=beat_nominal, dt_s=dt_s, samples=f_abs, seed=int(seed)),
        error_trace=err_upd,
        actuator_trace=act_upd,
        update_stride=stride,
        status=status,
        config=config,
    )


#: Nepers a block's warm-up decays, (1 - a)**warm < 2**-120: far below one ulp, so a
#: warm-up nearly always ends on the exact state (each one is checked, not trusted).
_SETTLE = 120.0 * math.log(2.0)
#: Samples per block at least; the fewest blocks worth vectorising; samples per chunk of
#: a transposed copy and of a Python-float run (cache- and list-sized).
_BLOCK, _MIN_BLOCKS, _CHUNK = 256, 64, 1 << 15


def _one_pole_run(x: np.ndarray, out: np.ndarray, a: float, c: float, z: float) -> None:
    """The one-pole recurrence sample by sample from state ``z``, in Python floats."""
    for i in range(0, x.size, _CHUNK):
        ys = []
        for xk in x[i:i + _CHUNK].tolist():
            y = xk * a + z
            z = xk * 0.0 - y * c
            ys.append(y)
        out[i:i + _CHUNK] = ys


def _one_pole_lowpass(x: np.ndarray, bandwidth_hz: float, dt_s: float) -> np.ndarray:
    """Causal single-pole IIR started steady at x[0], bit for bit scipy's
    ``lfilter([a], [1, a - 1], x, zi=[(1 - a) * x[0]])``: y = x a + z, then
    z = x 0.0 - y (a - 1), whose ``x 0.0`` sets the sign of a zero z.

    The series runs as blocks of L samples side by side, the rows of an (L, n_blocks)
    array (a blocked linear recurrence).  Block j > 0 starts from the state that a warm-up
    from z = 0 over the last ``warm`` samples of block j - 1 reaches.  That state is exact
    if and only if the warm-up ends on block j - 1's exact last value, bit for bit; a block
    that fails the check is recomputed sequentially from the exact state, and the block
    after it is checked again.  Short series and narrow bandwidths run sequentially.
    """
    rate = 2.0 * np.pi * bandwidth_hz * dt_s
    a = 1.0 - math.exp(-rate)
    c = a - 1.0
    n = x.size
    warm = math.ceil(_SETTLE / rate) if rate * n > _SETTLE else n  # no huge int or 1/0
    L = max(_BLOCK, warm)
    nb = n // L
    if nb < _MIN_BLOCKS:
        out = np.empty(n)
        _one_pole_run(x, out, a, c, (1.0 - a) * x.item(0))
        return out
    m = nb * L
    y, head = np.empty((L, nb)), x[:m]
    step = max(1, _CHUNK // L)
    for j in range(0, nb, step):  # cache-sized chunks: 5x faster than one whole copy
        y[:, j:j + step] = head[j * L:(j + step) * L].reshape(-1, L).T
    x0 = y * 0.0
    y *= a  # y holds x a until step k overwrites row k with the output
    z = np.zeros(nb)
    zw, ends = z[1:], np.empty(nb - 1)
    for k in range(L - warm, L):
        np.add(y[k, :-1], zw, out=ends)
        np.multiply(ends, c, out=zw)
        np.subtract(x0[k, :-1], zw, out=zw)
    z[0] = (1.0 - a) * x.item(0)
    for k in range(L):
        yk = y[k]
        np.add(yk, z, out=yk)
        np.multiply(yk, c, out=z)
        np.subtract(x0[k], z, out=z)
    del x0
    ends, last = ends.view(np.int64), y[-1].view(np.int64)
    exact = 0  # blocks 0..exact are exact
    for j in (np.flatnonzero(ends != last[:-1]) + 1).tolist():
        while exact < j < nb and ends[j - 1] != last[j - 1]:
            _one_pole_run(x[j * L:(j + 1) * L], y[:, j], a, c,
                          x.item(j * L - 1) * 0.0 - y.item(L - 1, j - 1) * c)
            j += 1
        exact = max(exact, j)
    out = np.empty(n)
    out[:m].reshape(nb, L)[...] = y.T
    del y
    _one_pole_run(x[m:], out[m:], a, c, x.item(m - 1) * 0.0 - out.item(m - 1) * c)
    return out


def check_spectral_bandwidth(loop_bandwidth_hz: float, dt_s: float) -> None:
    """Raise unless the spectral model's bandwidth lies in (0, Nyquist), 0 < bw < 1/(2 dt)."""
    if not 0.0 < loop_bandwidth_hz < 1.0 / (2.0 * dt_s):
        raise ParameterError(f"loop_bandwidth_hz {loop_bandwidth_hz!r} must lie in "
                             f"(0, Nyquist 1/(2*dt_s) = {1.0 / (2.0 * dt_s):.6g} Hz)")


def closed_loop_components(
    laser: OscillatorModel,
    reference: OscillatorModel,
    lock: LockPoint,
    loop_bandwidth_hz: float,
    duration_s: float,
    dt_s: float,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Spectral-model building blocks: (locked laser offsets, reference offsets).

    Locked = lowpass(reference + detection noise) + highpass(laser free-run), with the
    complementary responses of the discrete one-pole y_i = a x_i + (1 - a) y_{i-1},
    a = 1 - exp(-2 pi bw dt).  The laser's |1 - H|^2 = |(1 - a)(1 - z^-1) / (1 - (1 - a) z^-1)|^2
    at z = e^{i 2 pi f dt} stays below 1, so this model amplifies no laser noise, unlike
    the time-domain loop (``servo_for_bandwidth``).  Criterion 09 compares the two models at
    one statistic only, the in-loop ADEV at 1 s.
    """
    if not dt_s > 0.0:
        raise ParameterError("dt must be > 0")
    check_spectral_bandwidth(loop_bandwidth_hz, dt_s)
    laser_free = oscillator_trace(laser, duration_s, dt_s, derive_seed(seed, "laser")).samples
    ref_free = oscillator_trace(reference, duration_s, dt_s, derive_seed(seed, "reference")).samples
    seen = ref_free
    h0 = lock.disc.noise_v2_per_hz / lock.slope**2  # detection noise, V^2/Hz -> Hz^2/Hz
    if h0 > 0.0:
        seen = synth_power_law(NoiseSpec(h={0: h0}), duration_s, dt_s,
                               derive_seed(seed, "detector")).samples
        seen += ref_free
    locked = _one_pole_lowpass(seen, loop_bandwidth_hz, dt_s)
    laser_free -= _one_pole_lowpass(laser_free, loop_bandwidth_hz, dt_s)
    locked += laser_free
    return locked, ref_free


def out_of_loop_beat(locked: FrequencyTrace, independent_ref: FrequencyTrace) -> FrequencyTrace:
    """Beat of a locked trace against an independent reference trace.

    Sample-wise difference of absolute offsets, rebased to the nominal beat
    frequency |nu_locked - nu_ref|.
    """
    if abs(locked.dt_s - independent_ref.dt_s) > 1e-12 * locked.dt_s:
        raise ParameterError("traces must share dt")
    if len(locked) != len(independent_ref):
        raise ParameterError("traces must share length")
    polarity = 1.0 if locked.nominal_hz >= independent_ref.nominal_hz else -1.0
    samples = polarity * (locked.samples - independent_ref.samples)
    return FrequencyTrace(
        nominal_hz=abs(locked.nominal_hz - independent_ref.nominal_hz),
        dt_s=locked.dt_s, samples=samples, seed=locked.seed,
    )
