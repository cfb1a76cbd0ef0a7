import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetlock import (
    AllanResult,
    CounterConfig,
    FrequencyTrace,
    NoiseSpec,
    ParameterError,
    adev_nonoverlapping,
    adev_overlapping,
    count,
    octave_taus,
    peak_to_peak,
    synth_power_law,
    to_fractional,
)
from offsetlock.metrology import read_series_csv, write_allan_csv, write_series_csv

from conftest import (
    brute_force_adev_nonoverlapping,
    brute_force_adev_overlapping,
    psd_estimate,
    read_allan_csv,
)


class TestCount:
    def test_constant_trace(self):
        trace = FrequencyTrace(0, 0.5, np.full(20, 5.0))
        series = count(trace, CounterConfig(gate_s=1.0))
        assert np.all(series.samples == 5.0)
        assert series.dt_s == 1.0

    def test_ramp_gate_means(self):
        trace = FrequencyTrace(0, 1.0, np.arange(10.0))
        series = count(trace, CounterConfig(gate_s=2.0))
        assert np.array_equal(series.samples, [0.5, 2.5, 4.5, 6.5, 8.5])

    def test_trailing_partial_gate_discarded(self):
        trace = FrequencyTrace(0, 1.0, np.arange(11.0))
        series = count(trace, CounterConfig(gate_s=2.0))
        assert series.samples.size == 5

    def test_gate_not_multiple_rejected(self):
        trace = FrequencyTrace(0, 0.3, np.zeros(10))
        with pytest.raises(ParameterError):
            count(trace, CounterConfig(gate_s=1.0))

    def test_gate_too_small_rejected(self):
        trace = FrequencyTrace(0, 1.0, np.zeros(10))
        with pytest.raises(ParameterError):
            count(trace, CounterConfig(gate_s=1.0))
        with pytest.raises(ParameterError, match="gate_s must be > 0"):
            CounterConfig(0.0)

    def test_white_fm_reading_variance_scales_inverse_gate(self):
        vars_by_gate = {}
        for gate in (1.0, 4.0):
            v = []
            for seed in range(12):
                trace = synth_power_law(NoiseSpec(h={0: 2.0}), 512.0, 0.5, seed=seed)
                series = count(trace, CounterConfig(gate_s=gate))
                v.append(np.var(series.samples))
            vars_by_gate[gate] = np.mean(v)
        assert vars_by_gate[1.0] / vars_by_gate[4.0] == pytest.approx(4.0, rel=0.3)


class TestAdevOverlapping:
    def test_constant_series_zero(self, make_series):
        result = adev_overlapping(make_series(np.full(16, 3.0)), [1.0, 2.0, 4.0])
        assert np.all(result.sigmas == 0.0)

    def test_alternating_pattern(self, make_series):
        result = adev_overlapping(make_series([1.0, -1.0] * 8), [1.0])
        assert result.sigmas[0] == pytest.approx(np.sqrt(2.0))

    def test_pure_drift_law_exact(self, make_series):
        readings = 1.0 * np.arange(64.0)  # 1 Hz/s drift sampled at 1 s gates
        result = adev_overlapping(make_series(readings), [1.0, 2.0, 4.0])
        for tau, sigma in zip(result.taus_s, result.sigmas):
            assert abs(sigma - tau / np.sqrt(2.0)) <= 1e-9 * sigma

    def test_too_large_tau_omitted_not_raised(self, make_series):
        result = adev_overlapping(make_series(np.arange(8.0)), [1.0, 16.0])
        assert result.omitted_taus_s == (16.0,)
        assert list(result.taus_s) == [1.0]

    def test_non_multiple_tau_rejected(self, make_series):
        with pytest.raises(ParameterError):
            adev_overlapping(make_series(np.arange(8.0)), [1.5])

    def test_sigma_at_matches_to_1e9_relative(self):
        # np.isclose's default atol of 1e-8 matched 2 ns to the 1 ns point before it
        result = AllanResult(taus_s=[1e-9, 2e-9], sigmas=[1.0, 2.0], n_pairs=[3, 1], units="hz")
        assert result.sigma_at(2e-9) == 2.0
        with pytest.raises(ParameterError, match="no ADEV point at tau=0.0"):
            result.sigma_at(0.0)

    def test_n_pairs_counts_overlapping_starts(self, make_series):
        result = adev_overlapping(make_series(np.arange(10.0)), [2.0])
        assert result.n_pairs[0] == 10 - 2 * 2 + 1


class TestAdevNonoverlapping:
    def test_constant_zero(self, make_series):
        result = adev_nonoverlapping(make_series(np.full(8, 2.0)), [2.0])
        assert result.sigmas[0] == 0.0

    def test_coincides_with_overlapping_at_gate(self, make_series):
        rng = np.random.default_rng(5)
        series = make_series(rng.normal(size=40))
        a = adev_overlapping(series, [1.0]).sigmas[0]
        b = adev_nonoverlapping(series, [1.0]).sigmas[0]
        assert a == b

    def test_matches_double_loop_at_three_gates(self, make_series):
        rng = np.random.default_rng(6)
        readings = rng.normal(size=32)
        result = adev_nonoverlapping(make_series(readings), [3.0])
        oracle = brute_force_adev_nonoverlapping(readings, 3)
        assert result.sigmas[0] == pytest.approx(oracle, rel=1e-12)

    def test_estimators_converge_on_long_white_series(self, make_series):
        rng = np.random.default_rng(7)
        series = make_series(rng.normal(size=8192))
        a = adev_overlapping(series, [8.0]).sigmas[0]
        b = adev_nonoverlapping(series, [8.0]).sigmas[0]
        assert a == pytest.approx(b, rel=0.1)


@settings(max_examples=60, deadline=None)
@given(
    readings=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                allow_nan=False, allow_infinity=False),
                      min_size=4, max_size=64),
    m=st.integers(min_value=1, max_value=8),
)
def test_overlapping_matches_brute_force_property(readings, m):
    if len(readings) < 2 * m:
        m = 1
    series = FrequencyTrace(0, 1.0, np.array(readings))
    result = adev_overlapping(series, [float(m)])
    oracle = brute_force_adev_overlapping(readings, m)
    assert result.sigmas[0] == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    readings=st.lists(st.floats(min_value=-100.0, max_value=100.0,
                                allow_nan=False, allow_infinity=False),
                      min_size=8, max_size=48),
    scale=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    offset=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
def test_scale_equivariance_offset_invariance(readings, scale, offset):
    base = FrequencyTrace(0, 1.0, np.array(readings))
    moved = FrequencyTrace(0, 1.0, np.array(readings) * scale + offset)
    a = adev_overlapping(base, [1.0, 2.0])
    b = adev_overlapping(moved, [1.0, 2.0])
    np.testing.assert_allclose(b.sigmas, a.sigmas * scale, rtol=1e-9, atol=1e-9)


class TestUnitConversion:
    def _result(self, sigmas, units="hz"):
        n = len(sigmas)
        return AllanResult(np.arange(1, n + 1, dtype=float), np.array(sigmas),
                           np.full(n, 10), units)

    def test_absolute_to_fractional_198_thz(self):
        result = to_fractional(self._result([710.0]), 198_000_000_000_000)
        assert result.sigmas[0] == pytest.approx(3.59e-12, rel=1e-2)

    def test_absolute_to_fractional_297_thz(self):
        result = to_fractional(self._result([1000.0]), 297_000_000_000_000)
        assert result.sigmas[0] == pytest.approx(3.37e-12, rel=1e-2)

    def test_zero_maps_to_zero(self):
        result = to_fractional(self._result([0.0]), 10**14)
        assert result.sigmas[0] == 0.0

    def test_double_conversion_rejected(self):
        frac = to_fractional(self._result([1.0]), 10**14)
        with pytest.raises(ParameterError):
            to_fractional(frac, 10**14)

    def test_nonpositive_nominal_rejected(self):
        with pytest.raises(ParameterError):
            to_fractional(self._result([1.0]), 0)


class TestPeakToPeak:
    def test_basic(self, make_series):
        assert peak_to_peak(make_series([1.0, 5.0, 3.0])) == 4.0

    def test_leading_window(self, make_series):
        series = make_series([0.0, 1.0, 2.0, 50.0])
        assert peak_to_peak(series, window_s=3.0) == 2.0

    def test_window_too_small_rejected(self, make_series):
        with pytest.raises(ParameterError):
            peak_to_peak(make_series([1.0, 2.0]), window_s=0.1)

    def test_window_exceeding_span_rejected(self, make_series):
        with pytest.raises(ParameterError):
            peak_to_peak(make_series([1.0, 2.0]), window_s=10.0)

    def test_window_off_the_gate_grid_rejected(self, make_series):
        # 1.4 gates used to be rounded to a 1-gate window
        with pytest.raises(ParameterError, match="multiple of gate_s"):
            peak_to_peak(make_series([1.0, 2.0, 3.0]), window_s=1.4)


class TestOctaveTaus:
    def test_covers_span_quarter(self):
        taus = octave_taus(1.0, 3600.0)
        assert taus[0] == 1.0
        assert taus[-1] <= 900.0
        assert all(b == 2 * a for a, b in zip(taus, taus[1:]))

    def test_short_span(self):
        assert octave_taus(1.0, 5.0) == [1.0]


def log_log_slope(result):
    """Least-squares slope of log sigma against log tau over every point of an AllanResult."""
    return np.polyfit(np.log(result.taus_s), np.log(result.sigmas), 1)[0]


class TestFitNoiseSlope:
    def test_white_fm_slope(self):
        sigmas = []
        taus = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        per_seed = []
        for seed in range(10):
            trace = synth_power_law(NoiseSpec(h={0: 2.0}), 4096.0, 0.5, seed=seed)
            series = count(trace, CounterConfig(gate_s=1.0))
            per_seed.append(adev_overlapping(series, taus).sigmas)
        mean = AllanResult(np.array(taus), np.mean(per_seed, axis=0),
                           np.full(len(taus), 10), "hz")
        assert log_log_slope(mean) == pytest.approx(-0.5, abs=0.05)

    def test_drift_slope_exact(self, make_series):
        series = make_series(np.arange(256.0))
        result = adev_overlapping(series, [1.0, 2.0, 4.0, 8.0])
        assert log_log_slope(result) == pytest.approx(1.0, abs=0.02)

    def test_flicker_plateau_slope(self):
        per_seed = []
        taus = [1.0, 2.0, 4.0, 8.0, 16.0]
        for seed in range(10):
            trace = synth_power_law(NoiseSpec(h={-1: 2.0}), 2048.0, 0.5, seed=seed)
            series = count(trace, CounterConfig(gate_s=1.0))
            per_seed.append(adev_overlapping(series, taus).sigmas)
        mean = AllanResult(np.array(taus), np.mean(per_seed, axis=0),
                           np.full(len(taus), 10), "hz")
        assert log_log_slope(mean) == pytest.approx(0.0, abs=0.1)


class TestPsdEstimate:
    def test_all_zero(self):
        trace = FrequencyTrace(0, 1.0, np.zeros(64))
        freqs, psd = psd_estimate(trace, segments=2)
        assert np.all(psd == 0.0)

    def test_tone_dominant_bin(self):
        n, dt = 512, 1.0
        f0 = 32 / (n * dt)
        t = dt * np.arange(n)
        trace = FrequencyTrace(0, dt, np.sin(2 * np.pi * f0 * t))
        freqs, psd = psd_estimate(trace, segments=1)
        assert freqs[np.argmax(psd)] == pytest.approx(f0)

    def test_parseval(self):
        trace = synth_power_law(NoiseSpec(h={0: 2.0, -2: 1.0}), 1024.0, 1.0, seed=4)
        freqs, psd = psd_estimate(trace, segments=1)
        df = freqs[1] - freqs[0]
        assert np.sum(psd) * df == pytest.approx(np.mean(trace.samples**2), rel=0.05)


class TestCsvFormats:
    def test_series_round_trip(self, tmp_path, make_series):
        series = make_series(np.array([1.0 / 3.0, -2.5, 1e-7]), gate_s=0.5,
                             nominal_hz=30_000_000)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert back.nominal_hz == series.nominal_hz
        assert back.dt_s == series.dt_s
        assert np.array_equal(back.samples, series.samples)

    def test_allan_round_trip(self, tmp_path):
        result = AllanResult(np.array([1.0, 2.0]), np.array([0.5, 1.0 / 3.0]),
                             np.array([9, 4]), "fractional")
        path = tmp_path / "adev.csv"
        write_allan_csv(result, path)
        taus, sigmas, units, n_pairs = read_allan_csv(path)
        assert np.array_equal(taus, result.taus_s)
        assert np.array_equal(sigmas, result.sigmas)
        assert np.array_equal(n_pairs, result.n_pairs)
        assert units == ("fractional", "fractional")

    def test_reject_foreign_series(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("nope\n")
        with pytest.raises(ParameterError):
            read_series_csv(path)

    @pytest.mark.parametrize("gate", ["0", "-1", "nan"])
    def test_gate_must_be_positive(self, tmp_path, gate):
        # a NaN gate used to pass, and adev printed an empty table with exit status 0
        path = tmp_path / "series.csv"
        path.write_text(f"# nominal_hz=30000000 gate_s={gate}\n1.5\n2.5\n")
        with pytest.raises(ParameterError, match="dt must be > 0"):
            read_series_csv(path)

    def test_malformed_row_names_the_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("# nominal_hz=30000000 gate_s=1\n1.5\nabc\n")
        with pytest.raises(ParameterError, match="series.csv: could not convert"):
            read_series_csv(path)
