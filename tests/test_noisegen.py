import io
import json
import math
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy.optimize import nnls

from offsetlock import (
    CombModel,
    CounterConfig,
    FrequencyTrace,
    NoiseSpec,
    OscillatorModel,
    ParameterError,
    adev_overlapping,
    comb_line_oscillator,
    count,
    derive_seed,
    laser_from_linewidth,
    oscillator_trace,
    synth_power_law,
    write_trace_csv,
)
from offsetlock import noisegen
from offsetlock.lockloop import LockRun
from offsetlock.metrology import write_series_csv
from offsetlock.noisegen import (
    _COLUMN_CHUNK,
    POWER_LAW_EXPONENTS,
    _fast_len,
    decompose_adev_profile,
    grid_steps,
    noise_spec_from_profile,
    write_column,
)

from conftest import assert_lockrun_dir, psd_estimate, read_trace_csv


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "laser") == derive_seed(42, "laser")

    def test_labels_distinct(self):
        seeds = {derive_seed(42, lbl) for lbl in ("laser", "reference", "detector")}
        assert len(seeds) == 3

    def test_root_seeds_distinct(self):
        assert derive_seed(1, "laser") != derive_seed(2, "laser")

    def test_fits_in_64_bit_rng_seed(self):
        s = derive_seed(2**63, "x")
        assert 0 <= s < 2**63


class TestNoiseSpec:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ParameterError):
            NoiseSpec(h={0: -1.0})

    def test_unsupported_exponent_rejected(self):
        with pytest.raises(ParameterError):
            NoiseSpec(h={3: 1.0})

    def test_exponent_keys_exact(self):
        # keys used to go through int(): "00" and "+0" both read as 0 (the later one won),
        # 0.5 was truncated to 0 and True read as 1
        assert NoiseSpec(h={"0": 1.0, "-2": 2.0, np.int64(1): 3.0}).h == {
            0: 1.0, -2: 2.0, 1: 3.0}
        for bad in ({"00": 12732.4, "+0": 1.0}, {"00": 1.0}, {"+0": 1.0}, {"-0": 1.0},
                    {" 0": 1.0}, {"0.0": 1.0}, {"": 1.0}, {0.5: 1.0}, {0.0: 1.0}, {True: 1.0},
                    {np.bool_(False): 1.0}):
            key = next(iter(bad))
            with pytest.raises(ParameterError, match=f"PSD exponent {re.escape(repr(key))} must"):
                NoiseSpec(h=bad)
        with pytest.raises(ParameterError, match="unsupported PSD exponent 3"):
            NoiseSpec(h={"3": 1.0})

    def test_negative_random_walk_rejected(self):
        # random-walk FM is h_{-2}; the linewidth form's drift_random_walk is that coefficient
        with pytest.raises(ParameterError, match="h_-2 must be a finite number >= 0"):
            NoiseSpec(h={-2: -1.0})
        with pytest.raises(ParameterError, match="h_-2 must be a finite number >= 0"):
            laser_from_linewidth(10**14, 1e3, drift_random_walk=-1.0)

    def test_ideal_oscillator(self):
        assert NoiseSpec().is_zero
        assert not NoiseSpec(h={0: 1.0}).is_zero
        assert not NoiseSpec(drift_rate_hz_per_s=1.0).is_zero

    def test_carrier_must_be_positive(self):
        with pytest.raises(ParameterError, match="nominal_hz must be > 0"):
            OscillatorModel(0)

    def test_random_walk_folds_into_h_minus_2(self):
        # h0 first: psd adds its terms in this order, and the goldens' bytes depend on it
        spec = laser_from_linewidth(10**14, np.pi, drift_random_walk=2.0).noise
        assert list(spec.h.items()) == [(0, 1.0), (-2, 2.0)]
        assert laser_from_linewidth(10**14, np.pi, drift_random_walk=0.0).noise.h == {0: 1.0}

    def test_scaled_is_quadratic_in_psd_linear_in_drift(self):
        spec = NoiseSpec(h={0: 2.0, -2: 4.0}, drift_rate_hz_per_s=3.0)
        s = spec.scaled(10.0)
        assert s.h[0] == pytest.approx(200.0)
        assert s.drift_rate_hz_per_s == pytest.approx(30.0)
        assert s.h[-2] == pytest.approx(400.0)

    def test_psd_zero_at_and_below_dc_without_warnings(self):
        spec = NoiseSpec(h={a: 1.0 for a in POWER_LAW_EXPONENTS})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psd = spec.psd(np.array([0.0, -0.0, -2.0, np.nan, 0.5]))
        assert psd.tolist() == [0.0, 0.0, 0.0, 0.0, 4.0 + 2.0 + 1.0 + 0.5 + 0.25]


def reference_multiple(x, unit, rtol):
    """The scenario module's grid rule before noisegen.grid_steps replaced it, kept as the oracle."""
    q = x / unit
    m = round(q) if math.isfinite(q) else 0
    return m if abs(m * unit - x) <= rtol * x else 0


class TestGridSteps:
    @settings(max_examples=500, deadline=None)
    @given(unit=st.floats(1e-9, 1e3), m=st.integers(0, 10**6),
           rel=st.floats(-1e-5, 1e-5) | st.sampled_from([0.0, 0.5e-6, -0.5e-9, 2e-9]),
           rtol=st.sampled_from([1e-6, 1e-9]))
    def test_matches_reference_near_the_grid(self, unit, m, rel, rtol):
        x = m * unit * (1.0 + rel)
        assert grid_steps(x, unit, rtol) == reference_multiple(x, unit, rtol)

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(), unit=st.floats().filter(lambda u: u != 0.0),
           rtol=st.sampled_from([1e-6, 1e-9]))
    def test_matches_reference_on_any_float(self, x, unit, rtol):
        assert grid_steps(x, unit, rtol) == reference_multiple(x, unit, rtol)

    def test_off_grid_is_zero_not_snapped(self):
        assert grid_steps(2.0, 1.0, 1e-6) == 2
        assert grid_steps(2.5, 1.0, 1e-6) == 0
        assert grid_steps(3 * 0.1, 0.1, 1e-9) == 3


class TestSynthPowerLaw:
    def test_all_zero_spec_gives_zero_trace(self):
        trace = synth_power_law(NoiseSpec(), 10.0, 1e-3, seed=1)
        assert len(trace) == 10_000
        assert np.all(trace.samples == 0.0)

    def test_pure_drift_exact_ramp(self):
        trace = synth_power_law(NoiseSpec(drift_rate_hz_per_s=1.0), 10.0, 1.0, seed=1)
        assert np.array_equal(trace.samples, np.arange(10.0))

    def test_deterministic_per_seed(self):
        spec = NoiseSpec(h={0: 2.0, -2: 0.5})
        a = synth_power_law(spec, 32.0, 0.5, seed=9)
        b = synth_power_law(spec, 32.0, 0.5, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_seeds_differ(self):
        spec = NoiseSpec(h={0: 2.0})
        a = synth_power_law(spec, 32.0, 0.5, seed=1)
        b = synth_power_law(spec, 32.0, 0.5, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_invalid_timing(self):
        with pytest.raises(ParameterError):
            synth_power_law(NoiseSpec(), 1.0, -0.1, seed=0)
        with pytest.raises(ParameterError):
            synth_power_law(NoiseSpec(), 0.5, 1.0, seed=0)

    def test_duration_off_the_sample_grid_rejected(self):
        # 2.5 samples used to be rounded to a 2-sample trace
        with pytest.raises(ParameterError, match="multiple of dt"):
            synth_power_law(NoiseSpec(), 2.5, 1.0, seed=0)

    def test_white_fm_adev_one_seed(self):
        # sigma(1 s) = sqrt(h0/2) = 1 Hz for h0 = 2; loose single-seed check
        # (the tight ensemble version lives in the acceptance suite).
        trace = synth_power_law(NoiseSpec(h={0: 2.0}), 4096.0, 0.5, seed=3)
        series = count(trace, CounterConfig(gate_s=1.0))
        sigma = adev_overlapping(series, [1.0]).sigmas[0]
        assert sigma == pytest.approx(1.0, rel=0.2)

    @pytest.mark.parametrize("alpha", [-2, -1, 0, 1, 2])
    def test_psd_slope_matches_exponent(self, alpha):
        # Ensemble-averaged periodogram log-log slope over a designated decade.
        # Steep blue spectra are fit higher in band where boxcar leakage from
        # the dominant high-frequency power does not bias the estimate.
        lo, hi = (0.01, 0.1) if alpha <= 0 else (0.04, 0.4)
        psds = []
        for seed in range(8):
            trace = synth_power_law(NoiseSpec(h={alpha: 1.0}), 4096.0, 1.0, seed=seed)
            freqs, psd = psd_estimate(trace, segments=8)
            psds.append(psd)
        psd = np.mean(psds, axis=0)
        band = (freqs >= lo) & (freqs <= hi)
        slope = np.polyfit(np.log(freqs[band]), np.log(psd[band]), 1)[0]
        assert slope == pytest.approx(alpha, abs=0.15)

    def test_psd_level_white(self):
        psds = []
        for seed in range(8):
            trace = synth_power_law(NoiseSpec(h={0: 2.0}), 2048.0, 1.0, seed=seed)
            freqs, psd = psd_estimate(trace, segments=4)
            psds.append(psd)
        psd = np.mean(psds, axis=0)
        mid = (freqs > 0.05) & (freqs < 0.4)
        assert np.mean(psd[mid]) == pytest.approx(2.0, rel=0.15)


class TestFastLen:
    """``_fast_len`` against the scipy routine it replaced on the synthesis path."""

    def test_matches_scipy_up_to_5000(self):
        assert [_fast_len(n) for n in range(1, 5001)] == [
            sp_fft.next_fast_len(n, real=True) for n in range(1, 5001)]

    @pytest.mark.parametrize("n", [400_000, 1_200_000, 3_686_400])
    def test_golden_lengths(self, n):
        assert _fast_len(n) == sp_fft.next_fast_len(n, real=True) == n

    @settings(max_examples=500, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10**8))
    def test_matches_scipy(self, n):
        assert _fast_len(n) == sp_fft.next_fast_len(n, real=True)


def reference_synth_power_law(spec, duration_s, dt_s, seed):
    """``synth_power_law`` as it was with scipy's FFT and the masked PSD: the byte oracle."""
    n = grid_steps(duration_s, dt_s, 1e-6)
    samples = np.zeros(n)
    if spec.h:
        m = sp_fft.next_fast_len(2 * n, real=True)
        rng = np.random.default_rng(seed)
        freqs = np.fft.rfftfreq(m, dt_s)
        psd = np.zeros_like(freqs)
        pos = freqs > 0.0
        for alpha, h in spec.h.items():
            psd[pos] += h * freqs[pos] ** alpha
        amp = np.sqrt(psd * (m / (2.0 * dt_s)))
        re = rng.standard_normal(amp.size)
        im = rng.standard_normal(amp.size)
        spectrum = amp * (re + 1j * im) / np.sqrt(2.0)
        spectrum[0] = 0.0
        if m % 2 == 0:
            spectrum[-1] = amp[-1] * re[-1]
        samples = sp_fft.irfft(spectrum, n=m)[:n].copy()
    if spec.drift_rate_hz_per_s != 0.0:
        samples += spec.drift_rate_hz_per_s * dt_s * np.arange(n)
    return samples


SYNTH_SPECS = {
    **{f"h{a}": NoiseSpec(h={a: 3.7}) for a in (-2, -1, 0, 1, 2)},
    "mixed": NoiseSpec(h={-2: 0.3, -1: 1.1, 0: 2.0, 1: 0.05, 2: 1e-3}),
    "drift_rate": NoiseSpec(h={0: 2.0}, drift_rate_hz_per_s=-0.4),
    # what an oscillator's linewidth_hz and drift_random_walk keys give: h0, then h_{-2}
    "drift_random_walk": laser_from_linewidth(10**14, 0.5, drift_random_walk=0.8).noise,
}


class TestSynthMatchesReference:
    """The numpy synthesis kernel against the scipy one it replaced: equal to the bit.

    2n = 4 and 1 200 000 give an even FFT length m, 2n = 14 and 2002 an odd one (15, 2025).
    """

    @pytest.mark.parametrize("n", [2, 7, 1001])
    @pytest.mark.parametrize("name", sorted(SYNTH_SPECS))
    def test_short_traces(self, name, n):
        got = synth_power_law(SYNTH_SPECS[name], n * 0.25, 0.25, seed=n).samples
        assert got.tobytes() == reference_synth_power_law(
            SYNTH_SPECS[name], n * 0.25, 0.25, n).tobytes()

    @pytest.mark.parametrize("name", ["mixed", "drift_rate", "drift_random_walk"])
    def test_full_rate_trace(self, name):
        got = synth_power_law(SYNTH_SPECS[name], 60.0, 1e-4, seed=11).samples
        assert got.size == 600_000
        assert got.tobytes() == reference_synth_power_law(SYNTH_SPECS[name], 60.0, 1e-4, 11).tobytes()

    def test_fft_length_parity_is_covered(self):
        assert [_fast_len(2 * n) % 2 for n in (2, 7, 1001, 600_000)] == [0, 1, 1, 0]

    # (n, chunk C): n = 1000 gives m // 2 = 1000 amplitude bins and n = 1125 gives 1125, so that
    # the bins number C - 1, C, C + 1 and 2C + 1: one chunk, a full one, then two and three.
    @pytest.mark.parametrize("case, n, chunk", [("C-1", 1000, 1001), ("C", 1000, 1000),
                                                ("C+1", 1000, 999), ("2C+1", 1125, 562)])
    @pytest.mark.parametrize("name", sorted(SYNTH_SPECS))
    def test_amplitude_chunk_boundaries(self, monkeypatch, name, case, n, chunk):
        bins = {"C-1": chunk - 1, "C": chunk, "C+1": chunk + 1, "2C+1": 2 * chunk + 1}[case]
        assert _fast_len(2 * n) // 2 == bins
        monkeypatch.setattr(noisegen, "_AMP_CHUNK", chunk)
        got = synth_power_law(SYNTH_SPECS[name], n * 0.25, 0.25, seed=n).samples
        assert got.tobytes() == reference_synth_power_law(
            SYNTH_SPECS[name], n * 0.25, 0.25, n).tobytes()

    def test_odd_fft_length_across_chunks(self, monkeypatch):
        # m = 2025: 1012 bins in chunks of 500, 500 and 12, and no Nyquist bin
        monkeypatch.setattr(noisegen, "_AMP_CHUNK", 500)
        got = synth_power_law(SYNTH_SPECS["mixed"], 1001 * 0.25, 0.25, seed=5).samples
        assert got.tobytes() == reference_synth_power_law(
            SYNTH_SPECS["mixed"], 1001 * 0.25, 0.25, 5).tobytes()

    def test_fig3_laser_hour(self):
        """fig3's laser (h0, h_{-2} and drift) over its hour: 1.84 M samples, 57 chunks."""
        doc = json.loads((resources.files("offsetlock") / "scenarios"
                          / "fig3_lock_1514.json").read_text())
        osc = doc["oscillators"]["laser1514"]
        spec = laser_from_linewidth(osc["nominal_hz"], osc["linewidth_hz"],
                                    osc["drift_rate_hz_per_s"], osc["drift_random_walk"]).noise
        assert set(spec.h) == {0, -2} and spec.drift_rate_hz_per_s != 0.0
        got = synth_power_law(spec, doc["duration_s"], doc["dt_s"], seed=doc["seed"]).samples
        assert got.size == 1_843_200
        assert got.tobytes() == reference_synth_power_law(
            spec, doc["duration_s"], doc["dt_s"], doc["seed"]).tobytes()


class TestAmplitudeThread:
    """Every spectrum gets its amplitudes on one helper thread, however many chunks it has."""

    SPEC = SYNTH_SPECS["mixed"]
    N = 3 * noisegen._AMP_CHUNK  # three chunks of amplitude bins

    def synth(self, seed=1, n=N):
        return synth_power_law(self.SPEC, n * 0.25, 0.25, seed=seed).samples

    def test_psd_error_on_a_later_chunk_is_reraised(self, monkeypatch):
        boom, threads = RuntimeError("psd failed on the second chunk"), []
        psd = NoiseSpec.psd

        def failing_psd(spec, freqs):
            threads.append(threading.current_thread())
            if len(threads) == 2:
                raise boom
            return psd(spec, freqs)

        monkeypatch.setattr(NoiseSpec, "psd", failing_psd)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            self.synth()
        assert info.value is boom
        assert threading.active_count() == before
        assert len(threads) == 2 and threads[0] is not threading.current_thread()

    def test_helper_ends_with_the_call(self):
        before = threading.active_count()
        self.synth()
        assert threading.active_count() == before

    # n = C gives m // 2 = C bins, one chunk; n = C + 1 gives C + 37, two
    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_helper_per_synthesis(self, monkeypatch, extra):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        self.synth(n=noisegen._AMP_CHUNK + extra)
        assert len(started) == 1 and started[0].name.startswith("offsetlock-amplitudes")

    def test_concurrent_callers_get_their_own_bytes(self):
        """Four callers at once, switching threads every microsecond: each trace is its own."""
        seeds = range(4)
        want = [reference_synth_power_law(self.SPEC, self.N * 0.25, 0.25, s).tobytes() for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                got = [x.tobytes() for x in pool.map(self.synth, seeds, timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestLaserFromLinewidth:
    def test_300_khz(self):
        model = laser_from_linewidth(198_000_000_000_000, 300e3)
        assert model.noise.h[0] == pytest.approx(9.549e4, rel=1e-3)

    def test_40_khz(self):
        model = laser_from_linewidth(297_000_000_000_000, 40e3)
        assert model.noise.h[0] == pytest.approx(1.273e4, rel=1e-3)

    def test_pi_linewidth_gives_unit_h0(self):
        model = laser_from_linewidth(10**14, np.pi)
        assert model.noise.h[0] == 1.0

    def test_drift_terms_attached(self):
        model = laser_from_linewidth(10**14, 1e3, drift_rate_hz_per_s=5.0, drift_random_walk=7.0)
        assert model.noise.drift_rate_hz_per_s == 5.0
        assert model.noise.h[-2] == 7.0

    def test_nonpositive_linewidth_rejected(self):
        with pytest.raises(ParameterError):
            laser_from_linewidth(10**14, 0.0)


class TestCombModel:
    def test_line_arithmetic_exact(self):
        comb = CombModel(f_rep_hz=107_000_000, f_ceo_hz=0)
        assert comb.line_hz(2) == 214_000_000

    def test_optical_scale_line_exact(self):
        comb = CombModel(f_rep_hz=107_000_000, f_ceo_hz=20_000_000)
        line = comb_line_oscillator(comb, 1_850_467)
        assert line.nominal_hz == 197_999_989_000_000

    def test_f_ceo_range(self):
        with pytest.raises(ParameterError):
            CombModel(f_rep_hz=107_000_000, f_ceo_hz=107_000_000)
        with pytest.raises(ParameterError):
            CombModel(f_rep_hz=107_000_000, f_ceo_hz=-1)
        with pytest.raises(ParameterError):
            CombModel(f_rep_hz=0)

    def test_line_index_and_overflow(self):
        comb = CombModel(f_rep_hz=107_000_000, f_ceo_hz=20_000_000)
        with pytest.raises(ParameterError):
            comb_line_oscillator(comb, 0)
        with pytest.raises(ParameterError):
            comb_line_oscillator(comb, 10**12)

    def test_fractional_noise_scaled_to_carrier(self):
        comb = CombModel(f_rep_hz=107_000_000, f_ceo_hz=0,
                         reference_noise=NoiseSpec(h={0: 1e-24}))
        line = comb_line_oscillator(comb, 1000)
        nu = 1000 * 107_000_000
        assert line.noise.h[0] == pytest.approx(1e-24 * nu**2)

    def test_profile_passes_through_fractional(self):
        # fig4's line: a comb's profile is fitted once, as fractional noise, and scaled to each
        # line like any reference_noise.  A fit at the line's carrier rounded h_-2 1 ulp lower.
        profile = ((1.0, 3.4e-12), (263.0, 7.2e-12))
        comb = CombModel(f_rep_hz=107_000_000, f_ceo_hz=20_000_000,
                         reference_noise=noise_spec_from_profile(profile))
        line = comb_line_oscillator(comb, 2_775_701)
        nu = 297_000_027_000_000
        assert line.nominal_hz == nu
        assert line.noise == noise_spec_from_profile(profile).scaled(float(nu))
        assert line.noise.h[-2] == 2640.2899726006367


@st.composite
def adev_profiles(draw):
    """2 to 8 points anywhere in the range ``decompose_adev_profile`` accepts."""
    taus = draw(st.lists(st.floats(math.ulp(0.0), sys.float_info.max), min_size=2, max_size=8,
                         unique=True))
    sigma = st.floats(math.sqrt(math.ulp(0.0)), math.sqrt(sys.float_info.max))
    return [(tau, draw(sigma.filter(lambda s: s * s < math.inf))) for tau in sorted(taus)]


class TestAdevProfile:
    def test_profile_validation(self):
        for bad in (((1.0, 1e-12),), ((2.0, 1e-12), (1.0, 1e-12)), ((1.0, 0.0), (2.0, 1e-12)),
                    # a tau of zero or below used to drop out of the fit (h_-2 only, h_-1 only);
                    # sigma^2 overflowed to infinity, or underflowed to a noiseless NoiseSpec
                    ((0.0, 1e-12), (2.0, 1e-12)), ((-1.0, 1e-12), (2.0, 1e-12)),
                    ((1.0, 1e200), (2.0, 1e-12)), ((1.0, 1e-200), (2.0, 1e-200))):
            with pytest.raises(ParameterError, match="adev_profile"):
                noise_spec_from_profile(bad)

    def test_numbers_inside_profile_and_h_checked(self):
        # numpy scalars are numbers; a bool, a string or NaN used to be coerced or let through
        profile = ((np.float64(1.0), np.float32(3.5e-12)), (np.int64(263), 7.2e-12))
        assert noise_spec_from_profile(profile) == noise_spec_from_profile(
            ((1.0, float(np.float32(3.5e-12))), (263.0, 7.2e-12)))
        assert NoiseSpec(h={0: np.float32(0.5), -2: np.float64(2.0)}).h == {
            0: 0.5, -2: 2.0}
        for bad in (True, "1", float("nan"), None):
            with pytest.raises(ParameterError, match="finite numbers"):
                noise_spec_from_profile(((1.0, 1e-12), (2.0, bad)))
            with pytest.raises(ParameterError, match="h_0 must be a finite number >= 0"):
                NoiseSpec(h={0: bad})

    def test_white_only_profile_decomposition(self):
        # sigma ~ 1/sqrt(tau) over a factor 100 is pure white FM.
        sigma = 4e-12
        a, b, c = decompose_adev_profile([(1.0, sigma), (100.0, sigma / 10.0)])
        assert a == pytest.approx(sigma**2, rel=1e-9)
        assert b == pytest.approx(0.0, abs=1e-30)
        assert c == pytest.approx(0.0, abs=1e-30)

    def test_two_point_profile_reconstructs_exactly(self):
        # the goldens' profiles, pinned to the bits of np.linalg.solve on the white+RW pair
        for profile, (a_hex, c_hex) in [
                (((1.0, 3.4e-12), (263.0, 7.2e-12)),
                 ("0x1.b7963c7b27303p-77", "0x1.e79d595b80fdfp-83")),
                (((1.0, 9.1e-13), (155.0, 6.8e-13)),
                 ("0x1.febe69fd693a5p-81", "0x1.d344cbb1bff53p-89"))]:
            a, b, c = decompose_adev_profile(profile)
            assert (a, b, c) == (float.fromhex(a_hex), 0.0, float.fromhex(c_hex))
            for tau, sigma in profile:
                var = a / tau + b + c * tau
                assert var == pytest.approx(sigma**2, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @example([(1.0, 1e-12), (10.0, 8e-13), (100.0, 1.2e-12)])
    @given(adev_profiles())
    def test_fit_is_nonnegative_least_squares(self, profile):
        """Finite coefficients >= 0 whose residual is scipy's nnls's, or a ParameterError;
        never a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                coeffs = decompose_adev_profile(profile)
            except ParameterError as exc:
                assert "adev_profile" in str(exc)
                return
        assert all(math.isfinite(x) and x >= 0.0 for x in coeffs)
        # nnls on the problem with each column and the variances scaled by a power of two:
        # unscaled, extreme profiles overflow inside nnls, and one crashed it
        taus, sigmas = np.array(profile).T
        var = sigmas**2
        e_short, e_long, e_var = (math.frexp(x)[1] for x in (taus[0], taus[-1], var.max()))
        with np.errstate(over="ignore"):
            white = 1.0 / np.ldexp(taus, -e_short)
        basis = np.column_stack([white, np.ones_like(taus), np.ldexp(taus, -e_long)])
        var = np.ldexp(var, -e_var)
        scaled = [math.ldexp(x, k)
                  for x, k in zip(coeffs, (-e_short - e_var, -e_var, e_long - e_var))]
        _, oracle = nnls(basis, var)
        assert np.sum((basis @ scaled - var) ** 2) <= oracle**2 + 1e-12 * np.sum(var**2)

    @pytest.mark.parametrize("profile", [
        [(5e-324, 0.5), (1.0, 1.0)],  # white FM at the shortest tau: A = 1.25e-324 underflows
        [(1e300, 1e150), (2e300, 5e149)],  # white FM alone: A = 1e600 overflows
    ])
    def test_fit_beyond_double_range_rejected(self, profile):
        with pytest.raises(ParameterError, match="adev_profile's Allan variance coefficients"):
            decompose_adev_profile(profile)

    def test_noise_spec_from_profile_white_relation(self):
        # Pure white profile: h0 = 2 * A * nu^2 reproduces sigma = sqrt(h0/(2 tau)).
        nu = 297_000_000_000_000
        spec = noise_spec_from_profile([(1.0, 1e-12), (100.0, 1e-13)]).scaled(float(nu))
        assert spec.h[0] == pytest.approx(2.0 * (1e-12 * nu) ** 2, rel=1e-9)

    def test_trace_matches_profile_iodine(self):
        profile = ((1.0, 9.1e-13), (155.0, 6.8e-13))
        nu = 297_000_000_000_000
        model = OscillatorModel(nu, noise_spec_from_profile(profile).scaled(float(nu)))
        trace = oscillator_trace(model, 3600.0, 0.5, seed=5)
        series = count(trace, CounterConfig(gate_s=1.0))
        result = adev_overlapping(series, [1.0, 155.0])
        for tau, sigma_frac in profile:
            target = sigma_frac * model.nominal_hz
            assert result.sigma_at(tau) == pytest.approx(target, rel=0.25)

    def test_oscillator_trace_dispatch(self):
        plain = OscillatorModel(10**14, noise=NoiseSpec(drift_rate_hz_per_s=1.0))
        tr = oscillator_trace(plain, 4.0, 1.0, seed=0)
        assert np.array_equal(tr.samples, np.arange(4.0))
        assert tr.nominal_hz == 10**14


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        trace = synth_power_law(NoiseSpec(h={0: 2.0}, drift_rate_hz_per_s=0.25),
                                16.0, 0.5, seed=17)
        trace = FrequencyTrace(198_000_019_000_000, trace.dt_s, trace.samples, trace.seed)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.nominal_hz == trace.nominal_hz
        assert back.dt_s == trace.dt_s
        assert back.seed == trace.seed
        assert np.array_equal(back.samples, trace.samples)

    def test_header_precision(self, tmp_path):
        trace = FrequencyTrace(1, 1.0 / 3.0, np.array([1.0 / 7.0]))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.dt_s == trace.dt_s
        assert back.samples[0] == trace.samples[0]


def per_value_column(header, values):
    """The one-value-at-a-time writer that ``write_column`` replaced: its byte oracle."""
    return header + "\n" + "".join(f"{v:.17g}\n" for v in values)


SPECIAL_VALUES = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
                  1.0, -2.0, 1e16, 2.0**53, 123456789.0]
# one value, exactly one chunk, one past it, two chunks and a ragged tail
COLUMN_LENGTHS = [1, _COLUMN_CHUNK, _COLUMN_CHUNK + 1, 2 * _COLUMN_CHUNK + 3]


def column_values(n):
    """Special values interleaved with random ones spread over the whole exponent range."""
    rng = np.random.default_rng(n)
    spread = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return np.where(np.arange(n) % 2 == 0, np.resize(SPECIAL_VALUES, n), spread)


class TestWriteColumn:
    @pytest.mark.parametrize("n", [0] + COLUMN_LENGTHS)
    def test_bytes_match_per_value_format(self, n):
        values = column_values(n)
        fh = io.StringIO()
        write_column(fh, "# dt=0.5", values)
        assert fh.getvalue() == per_value_column("# dt=0.5", values)

    @pytest.mark.parametrize("n", COLUMN_LENGTHS)
    def test_trace_csv_bytes(self, tmp_path, n):
        trace = FrequencyTrace(198_000_019_000_000, 1.0 / 3.0, column_values(n), seed=2**63 - 1)
        write_trace_csv(trace, tmp_path / "t.csv")
        expected = per_value_column(
            "# nominal_hz=198000019000000 dt=0.33333333333333331 seed=9223372036854775807",
            trace.samples)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("n", COLUMN_LENGTHS)
    def test_series_csv_bytes(self, tmp_path, n):
        series = FrequencyTrace(nominal_hz=30_000_000, dt_s=0.1, samples=column_values(n))
        write_series_csv(series, tmp_path / "s.csv")
        expected = per_value_column("# nominal_hz=30000000 gate_s=0.10000000000000001",
                                    series.samples)
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("n", COLUMN_LENGTHS)
    def test_lockrun_export_bytes(self, tmp_path, n):
        values = column_values(n)
        per_update = values[::3]  # servo-rate arrays: one value per 3 samples, ragged end kept
        run = LockRun(laser_offset_trace=FrequencyTrace(29_679_453, 1.0 / 3.0, values, seed=7),
                      inloop_beat_trace=FrequencyTrace(198_000_019_000_000, 1.0 / 3.0,
                                                       np.roll(values, 1), seed=2**63 - 1),
                      error_trace=per_update[::-1].copy(), actuator_trace=-per_update,
                      update_stride=3, f_lock_hz=29_679_453.0, status={}, config={})
        assert_lockrun_dir(run, run.export(tmp_path), tmp_path)


@settings(max_examples=30, deadline=None)
@given(
    h0=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    drift=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_synthesis_determinism_property(h0, drift, seed):
    spec = NoiseSpec(h={0: h0}, drift_rate_hz_per_s=drift)
    a = synth_power_law(spec, 8.0, 0.5, seed=seed)
    b = synth_power_law(spec, 8.0, 0.5, seed=seed)
    assert np.array_equal(a.samples, b.samples)
    assert len(a) == 16
