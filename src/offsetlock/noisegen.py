"""Seeded synthesis of oscillator frequency-noise traces.

Signals are instantaneous frequency offsets (Hz) from an exact integer
carrier.  Stochastic content is described by a one-sided power-law PSD

    S_nu(f) = sum_alpha h_alpha * f**alpha,   alpha in {-2, -1, 0, +1, +2}

in Hz^2/Hz, optionally augmented by a deterministic linear drift.  Carriers
never pass through floating point: at 2e14 Hz a double has ~0.04 Hz
granularity, so offsets are stored separately from the integer carrier.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import ClassVar, Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigKeyError, ParameterError

#: Spectral exponents supported by :class:`NoiseSpec`.
POWER_LAW_EXPONENTS = (-2, -1, 0, 1, 2)

_LN2 = float(np.log(2.0))
_MAX_CARRIER = 2**63


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from a root seed and a role label.

    Stable across processes and platforms (BLAKE2s of ``"seed:label"``),
    so scenario re-runs regenerate bit-identical traces.
    """
    digest = hashlib.blake2s(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class NoiseSpec:
    """Power-law frequency-noise recipe.

    Parameters
    ----------
    h_coeffs : mapping
        Exponent alpha -> coefficient h_alpha of the one-sided PSD
        ``S_nu(f) = sum h_alpha f**alpha`` (Hz^2/Hz).
    drift_rate : float
        Deterministic linear drift, Hz/s.
    drift_random_walk : float
        Random-walk FM intensity; acts as an additional contribution to
        h_{-2}, kept separate as a calibration knob.
    """

    h_coeffs: Mapping[int, float] = field(default_factory=dict)
    drift_rate: float = 0.0
    drift_random_walk: float = 0.0

    #: Config key of each field whose key is not the field's name (see :func:`json_fields`).
    JSON_KEYS: ClassVar[Dict[str, str]] = {"h": "h_coeffs", "drift_rate_hz_per_s": "drift_rate"}

    def __post_init__(self):
        coeffs = {}
        for key, h in dict(self.h_coeffs).items():
            # an exact int or, as a JSON key, its canonical decimal string: not "00", "+0", 0.5, True
            alpha = int(key) if isinstance(key, str) and key.removeprefix("-").isdecimal() else key
            if (not isinstance(alpha, (int, np.integer)) or isinstance(alpha, bool)
                    or str(alpha) != str(key)):
                raise ParameterError(f"PSD exponent {key!r} must be an integer or its decimal string")
            alpha = int(alpha)
            if alpha not in POWER_LAW_EXPONENTS:
                raise ParameterError(f"unsupported PSD exponent {alpha}")
            if not (finite(h) and h >= 0.0):
                raise ParameterError(f"h_{alpha} must be a finite number >= 0, got {h!r}")
            h = float(h)
            if h != 0.0:
                coeffs[alpha] = h
        if self.drift_random_walk < 0.0:
            raise ParameterError("drift_random_walk must be >= 0")
        object.__setattr__(self, "h_coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        """True for the ideal oscillator (no stochastic or drift content)."""
        return not self.h_coeffs and self.drift_rate == 0.0 and self.drift_random_walk == 0.0

    @property
    def has_stochastic(self) -> bool:
        return bool(self.h_coeffs) or self.drift_random_walk > 0.0

    def effective_h(self) -> dict:
        """h_coeffs with the random-walk knob folded into h_{-2}."""
        h = dict(self.h_coeffs)
        if self.drift_random_walk > 0.0:
            h[-2] = h.get(-2, 0.0) + self.drift_random_walk
        return h

    def psd(self, freqs: np.ndarray) -> np.ndarray:
        """One-sided PSD evaluated on ``freqs`` (0 at f <= 0)."""
        freqs = np.asarray(freqs, dtype=float)
        out = np.zeros_like(freqs)
        # Every bin is evaluated and f <= 0 zeroed after: gathering the f > 0 bins costs more.
        with np.errstate(divide="ignore", invalid="ignore"):
            for alpha, h in self.effective_h().items():
                out += h * freqs**alpha
        out[~(freqs > 0.0)] = 0.0
        return out

    def scaled(self, factor: float) -> "NoiseSpec":
        """PSD scaled by ``factor**2`` (drift rate scales by ``factor``)."""
        return NoiseSpec(
            h_coeffs={a: h * factor**2 for a, h in self.h_coeffs.items()},
            drift_rate=self.drift_rate * factor,
            drift_random_walk=self.drift_random_walk * factor**2,
        )


def _validate_profile(profile) -> Tuple[Tuple[float, float], ...]:
    pts = tuple((t, s) for t, s in profile)
    if not all(finite(t) and finite(s) for t, s in pts):
        raise ParameterError("adev_profile taus and sigmas must be finite numbers")
    pts = tuple((float(t), float(s)) for t, s in pts)
    if len(pts) < 2:
        raise ParameterError("adev_profile needs at least 2 points")
    taus = [t for t, _ in pts]
    if taus[0] <= 0.0 or any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ParameterError("adev_profile taus must be > 0 and strictly increasing")
    if not all(s > 0.0 and 0.0 < s * s < math.inf for _, s in pts):
        raise ParameterError("adev_profile sigmas must be > 0 with a finite, nonzero square")
    return pts


def exact_int(value, name: str) -> int:
    """``value`` as a Python int; a float, even an integral one, or a bool is rejected."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an exact integer")
    return int(value)


def finite(x) -> bool:
    """A number (JSON, Python or numpy scalar) that converts to a finite float; a bool is not one."""
    if isinstance(x, np.generic):
        x = x.item()
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


#: What a value of each type ``json_fields`` checks must be: its message, and its test.
_JSON_TYPES = {
    float: ("a number", finite),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def json_fields(obj, path: str, *specs, required=(), either=(), needs=None) -> dict:
    """The members of the JSON object ``obj`` found at ``path``, checked against ``specs``.

    A spec is a dataclass, whose fields are allowed keys (spelt as its ``JSON_KEYS`` say)
    and required unless they have a default; a dict of allowed keys to their types; or a
    collection of allowed keys.  ``required`` names more required keys.  A ``float`` value
    must be a finite number, not NaN, an infinity, a bool or a string; float() converts it.
    An ``int`` value must be an integer, not a bool or a float; a ``str`` value a string.
    Of a dataclass's fields only the floats are typed.  Of each pair ``(a, b)`` in ``either``
    at most one may be given, and one must be if ``a`` is required.  ``needs`` maps a key to
    the key it is valid only with.  Returns the members by field name; raises one
    ConfigKeyError naming ``path`` and every offending key.
    """
    if not isinstance(obj, dict):
        raise ConfigKeyError(f"{path}: must be a JSON object")
    names, types, required = {}, {}, list(required)
    for spec in specs:
        if not is_dataclass(spec):
            types.update(spec if isinstance(spec, dict) else dict.fromkeys(spec))
            continue
        keys = {name: key for key, name in getattr(spec, "JSON_KEYS", {}).items()}
        for f in fields(spec):
            key = keys.get(f.name, f.name)
            names[key], types[key] = f.name, float if f.type in (float, "float") else None
            if f.default is MISSING and f.default_factory is MISSING:
                required.append(key)
    problems = [f"unknown key {k!r}" for k in obj if k not in types]
    for a, b in either:
        if a in obj and b in obj:
            problems.append(f"give {a!r} or {b!r}, not both")
        if a in required and a not in obj:
            required.remove(a)
            if b not in obj:
                problems.append(f"missing required key {a!r} or {b!r}")
    problems += [f"missing required key {k!r}" for k in required if k not in obj]
    problems += [f"{k!r} is valid only with {v!r}" for k, v in (needs or {}).items()
                 if k in obj and v not in obj]
    problems += [f"{k!r} must be {_JSON_TYPES[types[k]][0]}" for k, v in obj.items()
                 if types.get(k) in _JSON_TYPES and not _JSON_TYPES[types[k]][1](v)]
    if problems:
        raise ConfigKeyError(f"{path}: " + "; ".join(problems))
    return {names.get(k, k): float(v) if types[k] is float else v for k, v in obj.items()}


def grid_steps(x: float, unit: float, rtol: float) -> int:
    """The integer m with ``x == m * unit`` to within ``rtol * x``; 0 if there is none.

    Every duration, gate, tau, window and servo update is put on its grid here, never snapped.
    """
    q = x / unit
    m = round(q) if math.isfinite(q) else 0
    return m if abs(m * unit - x) <= rtol * x else 0


@dataclass(frozen=True)
class OscillatorModel:
    """A noise recipe bound to an exact integer carrier.

    A config's ``linewidth_hz`` or fractional ``adev_profile`` becomes ``noise`` when it is parsed.
    """

    nominal_hz: int
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        object.__setattr__(self, "nominal_hz", exact_int(self.nominal_hz, "nominal_hz"))
        if self.nominal_hz <= 0:
            raise ParameterError("nominal_hz must be > 0")


@dataclass(frozen=True)
class CombModel:
    """Optical frequency comb: lines at ``f_ceo + n * f_rep``.

    ``reference_noise`` or ``adev_profile`` (not both) describes common-mode *fractional*
    noise applied to every line.
    """

    f_rep_hz: int
    f_ceo_hz: int = 0
    reference_noise: Optional[NoiseSpec] = None
    adev_profile: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        for name in ("f_rep_hz", "f_ceo_hz"):
            object.__setattr__(self, name, exact_int(getattr(self, name), name))
        if self.f_rep_hz <= 0:
            raise ParameterError("f_rep_hz must be > 0")
        if not 0 <= self.f_ceo_hz < self.f_rep_hz:
            raise ParameterError("f_ceo_hz must satisfy 0 <= f_ceo < f_rep")
        if self.reference_noise is not None and self.adev_profile is not None:
            raise ParameterError("give 'reference_noise' or 'adev_profile', not both")
        if self.adev_profile is not None:
            object.__setattr__(self, "adev_profile", _validate_profile(self.adev_profile))

    def line_hz(self, n: int) -> int:
        return self.f_ceo_hz + int(n) * self.f_rep_hz


@dataclass(frozen=True)
class FrequencyTrace:
    """Uniformly sampled frequency offsets (Hz) from an integer carrier."""

    nominal_hz: int
    dt_s: float
    samples: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.dt_s <= 0.0:
            raise ParameterError("dt must be > 0")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("samples must be a nonempty 1-d sequence")
        object.__setattr__(self, "nominal_hz", int(self.nominal_hz))
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


#: Values per ``write_column`` chunk (series, ``synth``); larger is no faster and costs memory.
_COLUMN_CHUNK = 4096


def write_column(fh, header: str, values: np.ndarray) -> None:
    """Write ``header``, then each value on its own line exactly as ``f"{v:.17g}"`` prints it.

    Serves counter series and ``synth`` CSVs; a ``tolist()`` chunk avoids boxing each np.float64.
    """
    fh.write(header + "\n")
    for i in range(0, len(values), _COLUMN_CHUNK):
        chunk = values[i:i + _COLUMN_CHUNK].tolist()
        fh.write("%.17g\n" * len(chunk) % tuple(chunk))


def write_json(obj, path) -> None:
    """Write ``obj`` as a JSON artifact: indent 2, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(trace: FrequencyTrace, path) -> None:
    """Write a trace in the canonical CSV format.

    Header: ``# nominal_hz=<int> dt=<float> seed=<uint64>`` followed by one
    offset per line with full round-trip precision.
    """
    with open(path, "w") as fh:
        write_column(fh, f"# nominal_hz={trace.nominal_hz} dt={trace.dt_s:.17g} seed={trace.seed}",
                     trace.samples)


def read_column(fh, path) -> np.ndarray:
    """The values ``write_column`` wrote after its header; a malformed row raises ParameterError."""
    try:
        return np.loadtxt(fh, dtype=float, ndmin=1)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n: an FFT length numpy's pocketfft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())  # smallest p35 * 2^j >= n
            p35 *= 3
        p5 *= 5
    return best


def _shaped_spectrum(spec: NoiseSpec, m: int, dt_s: float, seed: int) -> np.ndarray:
    """The m-point real spectrum: white Gaussian bins times sqrt(S(f)), DC bin 0.

    Its own function so that the draws and amplitudes are freed before the irfft runs.
    """
    k = m // 2 + 1
    rng = np.random.default_rng(seed)
    # rfftfreq's own rounding, without the f = 0 bin, whose amplitude is zeroed anyway.
    amp = spec.psd(np.arange(1, k) * (1.0 / (m * dt_s)))
    # E|X_k|^2 = m * S(f_k) / (2 dt) gives a periodogram matching S.
    amp *= m / (2.0 * dt_s)
    np.sqrt(amp, out=amp)
    spectrum = np.zeros(k, dtype=complex)
    np.multiply(amp, rng.standard_normal(k)[1:], out=spectrum.real[1:])
    np.multiply(amp, rng.standard_normal(k)[1:], out=spectrum.imag[1:])
    nyquist = spectrum.real[-1]
    # numpy's complex division by sqrt(2) multiplies by this reciprocal; dividing each
    # part by sqrt(2) would round differently.
    spectrum *= 1.0 / np.sqrt(2.0)
    if m % 2 == 0:
        spectrum[-1] = nyquist
    return spectrum


def synth_power_law(spec: NoiseSpec, duration_s: float, dt_s: float, seed: int) -> FrequencyTrace:
    """Synthesize a frequency-noise trace with the PSD prescribed by ``spec``.

    Frequency-domain shaping: a white Gaussian spectrum is multiplied by
    sqrt(S_nu(f)) with the DC bin zeroed, then inverse-FFT'd.  The working
    length is twice the output length to suppress circular correlation in
    the low-frequency (random-walk) components.  Deterministic per
    (spec, duration, dt, seed).
    """
    if dt_s <= 0.0:
        raise ParameterError("dt must be > 0")
    n = grid_steps(duration_s, dt_s, 1e-6)
    if n < 2:
        raise ParameterError("duration must be a multiple of dt, at least 2*dt")
    if spec.has_stochastic:
        m = _fast_len(2 * n)
        # The copy frees the 2n-sample irfft buffer once the trace is sliced out of it.
        samples = np.fft.irfft(_shaped_spectrum(spec, m, dt_s, seed), n=m)[:n].copy()
    else:
        samples = np.zeros(n)
    if spec.drift_rate != 0.0:
        samples += spec.drift_rate * dt_s * np.arange(n)
    return FrequencyTrace(nominal_hz=0, dt_s=dt_s, samples=samples, seed=int(seed))


def laser_from_linewidth(
    nominal_hz: int,
    fwhm_linewidth_hz: float,
    drift_rate: float = 0.0,
    random_walk: float = 0.0,
) -> OscillatorModel:
    """Build a laser model from its Lorentzian FWHM linewidth.

    Uses the white-FM relation ``FWHM = pi * h0``; flicker/random-walk
    content is attached through the explicit drift arguments.
    """
    if fwhm_linewidth_hz <= 0.0:
        raise ParameterError("fwhm_linewidth_hz must be > 0")
    spec = NoiseSpec(
        h_coeffs={0: fwhm_linewidth_hz / np.pi},
        drift_rate=drift_rate,
        drift_random_walk=random_walk,
    )
    return OscillatorModel(nominal_hz=nominal_hz, noise=spec)


def comb_line_oscillator(comb: CombModel, n: int) -> OscillatorModel:
    """Oscillator model of comb line ``n`` (exact integer carrier).

    The comb's common-mode fractional noise is rescaled to absolute Hz at the
    line frequency; a fractional ADEV profile is decomposed at that frequency.
    """
    if n < 1:
        raise ParameterError("comb line index must be >= 1")
    nu = comb.line_hz(n)
    if nu >= _MAX_CARRIER:
        raise ParameterError(f"comb line {n} overflows the integer carrier range")
    if comb.adev_profile is not None:
        return OscillatorModel(nu, noise_spec_from_profile(comb.adev_profile, nu))
    if comb.reference_noise is not None:
        return OscillatorModel(nu, comb.reference_noise.scaled(float(nu)))
    return OscillatorModel(nu)


def decompose_adev_profile(profile) -> Tuple[float, float, float]:
    """Fit sigma^2(tau) = A/tau + B + C*tau to an ADEV profile by nonnegative least squares.

    A, B, C >= 0 are the white-, flicker- and random-walk-FM Allan variance coefficients: of the
    column subsets white+RW, white+flicker, flicker+RW, each alone, then all three, the one whose
    unconstrained fit is finite, >= 0 and lowest in residual (KKT; Lawson & Hanson 1974), the
    earlier on a tie.  A square subset fits exactly and ends the search, so a two-point profile
    keeps white FM (it governs extrapolation to shorter taus) whenever a pair with it fits.
    """
    pts = _validate_profile(profile)
    m, e = np.frexp([t for t, _ in pts])  # power-of-two scaling: no product overflows, no bit moves
    e_var = math.frexp(max(s * s for _, s in pts))[1]
    var = np.ldexp([s * s for _, s in pts], -e_var)
    basis = np.column_stack([np.ldexp(1.0 / m, e[0] - e), np.ones_like(var), np.ldexp(m, e - e[-1])])
    best, best_res = None, math.inf
    for cols in (c for c in ([0, 2], [0, 1], [1, 2], [0], [1], [2], [0, 1, 2])
                 if len(c) <= len(pts) and best_res > 0.0):  # read lazily: an exact fit ends it
        sub, square = basis[:, cols], len(cols) == len(pts)
        try:
            sol = np.linalg.solve(sub, var) if square else np.linalg.lstsq(sub, var, rcond=None)[0]
        except np.linalg.LinAlgError:  # a singular square subset
            continue
        res = 0.0 if square else float(np.sum((sub @ sol - var) ** 2))
        if np.all(np.isfinite(sol) & (sol >= 0.0)) and res < best_res:
            best, best_res = np.zeros(3), res
            best[cols] = sol
    scale = np.array([e_var + e[0], e_var, e_var - e[-1]])  # best is set: a lone column fits
    with np.errstate(over="ignore"):
        coeffs = np.ldexp(best, scale)
    if not np.array_equal(np.ldexp(coeffs, -scale), best):  # overflowed or underflowed
        raise ParameterError("adev_profile's Allan variance coefficients fall outside a double's range")
    return tuple(coeffs.tolist())


def noise_spec_from_profile(profile, nominal_hz: int) -> NoiseSpec:
    """Convert a fractional ADEV profile to an absolute-Hz NoiseSpec at an exact integer carrier."""
    nu2 = float(exact_int(nominal_hz, "nominal_hz")) ** 2
    a, b, c = decompose_adev_profile(profile)
    return NoiseSpec(h_coeffs={  # a zero coefficient leaves no h
        0: 2.0 * a * nu2,  # sigma^2 = h0 / (2 tau)
        -1: b * nu2 / (2.0 * _LN2),  # sigma^2 = 2 ln2 h_{-1}
        -2: 3.0 * c * nu2 / (2.0 * np.pi**2),  # sigma^2 = (2 pi^2 / 3) h_{-2} tau
    })


def oscillator_trace(
    model: OscillatorModel, duration_s: float, dt_s: float, seed: int
) -> FrequencyTrace:
    """Synthesize the model's free-running offsets from its carrier."""
    return replace(synth_power_law(model.noise, duration_s, dt_s, seed), nominal_hz=model.nominal_hz)
