import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from offsetlock import (
    CounterConfig,
    DiscriminatorConfig,
    FrequencyTrace,
    LockPoint,
    NoiseSpec,
    OscillatorModel,
    ParameterError,
    ServoConfig,
    ThermalModel,
    adev_overlapping,
    cable_delay,
    capture_halfwidth,
    closed_loop_components,
    count,
    derive_seed,
    error_signal,
    laser_from_linewidth,
    lock_points,
    oscillator_trace,
    out_of_loop_beat,
    resolve_lock_point,
    servo_for_bandwidth,
    simulate_lock,
    synth_power_law,
)
from offsetlock import lockloop
from offsetlock.lockloop import _one_pole_lowpass

from conftest import assert_lockrun_dir, psd_estimate, tracked_lock_point

IDEAL = OscillatorModel(198_000_019_000_000, NoiseSpec())
IDEAL_REF = OscillatorModel(197_999_989_000_000, NoiseSpec())


def wide_disc(delay_s=25e-9, amplitude_v=1.0, **kw):
    """Discriminator with a passband spanning DC-80 MHz, for analytics tests."""
    kw.setdefault("bandpass_center_hz", 40e6)
    kw.setdefault("bandpass_halfwidth_hz", 41e6)
    return DiscriminatorConfig(delay_s=delay_s, amplitude_v=amplitude_v, **kw)


#: The 30 MHz lock point of ``wide_disc()``, which the loop and spectral tests servo onto.
WIDE_LOCK = resolve_lock_point(wide_disc(), 30e6)


class TestCableDelay:
    def test_zero_length(self):
        assert cable_delay(0.0, 0.66) == 0.0

    def test_five_meters(self):
        assert cable_delay(5.0, 0.66) == pytest.approx(2.527e-8, rel=1e-3)

    def test_two_meters_vacuum_factor(self):
        assert cable_delay(2.0, 1.0) == pytest.approx(6.671e-9, rel=1e-3)

    def test_velocity_factor_bounds(self):
        with pytest.raises(ParameterError):
            cable_delay(1.0, 0.0)
        with pytest.raises(ParameterError):
            cable_delay(1.0, 1.5)
        with pytest.raises(ParameterError):
            cable_delay(-1.0, 0.66)


class TestErrorSignal:
    def test_dc_maximum(self):
        assert error_signal(0.0, wide_disc()) == pytest.approx(1.0)

    def test_zero_at_30_mhz_lock_point(self):
        assert error_signal(30e6, wide_disc()) == pytest.approx(0.0, abs=1e-9)

    def test_minus_one_at_20_mhz(self):
        assert error_signal(20e6, wide_disc()) == pytest.approx(-1.0)

    def test_sign_convention(self):
        assert error_signal(0.0, wide_disc(sign=-1)) == pytest.approx(-1.0)

    def test_outside_passband_zero(self):
        disc = DiscriminatorConfig(delay_s=25e-9, amplitude_v=1.0)  # 30 +/- 15 MHz
        assert error_signal(50e6, disc) == 0.0
        assert error_signal(45e6, disc) == 0.0  # open interval: edge is outside

    def test_array_input(self):
        v = error_signal(np.array([0.0, 20e6, 30e6]), wide_disc())
        assert v.shape == (3,)
        np.testing.assert_allclose(v, [1.0, -1.0, 0.0], atol=1e-9)


class TestLockPoints:
    def test_25ns_band_enumeration(self):
        pts = lock_points(wide_disc(), 0.0, 60e6)
        assert [p.f_hz for p in pts] == pytest.approx([10e6, 30e6, 50e6])

    def test_cable_lock_points_near_round_values(self):
        disc = wide_disc(delay_s=cable_delay(5.0, 0.66))
        pts = [p.f_hz for p in lock_points(disc, 0.0, 60e6)]
        for f, target in zip(pts, [10e6, 30e6, 50e6]):
            assert abs(f - target) <= 0.02 * target

    def test_empty_window(self):
        assert lock_points(wide_disc(delay_s=25e-9, bandpass_center_hz=100e6,
                                     bandpass_halfwidth_hz=95e6), 100e6, 101e6) == []

    def test_passband_filters_points(self):
        disc = DiscriminatorConfig(delay_s=25e-9, amplitude_v=1.0)  # 30 +/- 15 MHz open
        pts = [p.f_hz for p in lock_points(disc, 0.0, 60e6)]
        assert pts == pytest.approx([30e6])

    def test_consecutive_spacing_half_inverse_delay(self):
        for tau in (5e-9, 25e-9, 100e-9):
            disc = wide_disc(delay_s=tau, bandpass_center_hz=5e8, bandpass_halfwidth_hz=5.1e8)
            pts = [p.f_hz for p in lock_points(disc, 0.0, 2e8)]
            spacing = 1.0 / (2.0 * tau)
            for a, b in zip(pts, pts[1:]):
                assert b - a == pytest.approx(spacing, rel=1e-12)

    def test_slope_signs_alternate(self):
        pts = lock_points(wide_disc(), 0.0, 60e6)
        assert [p.slope_sign for p in pts] == [-1, 1, -1]

    def test_invalid_band(self):
        with pytest.raises(ParameterError):
            lock_points(wide_disc(), 10e6, 10e6)


class TestDiscriminatorSlope:
    """The signed slope d(error)/df that a LockPoint carries."""

    def test_magnitude_25ns(self):
        assert abs(WIDE_LOCK.slope) == pytest.approx(1.571e-7, rel=1e-3)

    def test_doubling_delay_doubles_slope(self):
        s1 = abs(resolve_lock_point(wide_disc(delay_s=25e-9), 30e6).slope)
        s2 = abs(resolve_lock_point(wide_disc(delay_s=50e-9), 35e6).slope)
        assert s2 == pytest.approx(2.0 * s1, rel=1e-12)

    def test_half_amplitude_double_delay_same_magnitude(self):
        slope = abs(resolve_lock_point(wide_disc(delay_s=50e-9, amplitude_v=0.5), 35e6).slope)
        assert slope == pytest.approx(1.571e-7, rel=1e-3)

    def test_sign_matches_lock_point_annotation(self):
        # the slope is the error voltage's own: a central difference over +/- 1 Hz
        for disc in (wide_disc(), wide_disc(sign=-1)):
            for p in lock_points(disc, 0.0, 60e6):
                numeric = (error_signal(p.f_hz + 1.0, disc)
                           - error_signal(p.f_hz - 1.0, disc)) / 2.0
                assert np.sign(p.slope) == p.slope_sign
                assert numeric == pytest.approx(p.slope, rel=1e-6)

    def test_non_lock_point_rejected(self):
        with pytest.raises(ParameterError, match="not a zero crossing"):
            LockPoint(wide_disc(), 31e6)


def reference_lock_point(disc, f_lock_hz):
    """The scenario module's lock-point rule before lockloop.resolve_lock_point replaced it.

    Kept as the oracle, with the lock_points enumeration it called inlined.
    """
    tau = disc.delay_s
    hw = 1.0 / (4.0 * tau)
    f_min, f_max = f_lock_hz - hw, f_lock_hz + hw
    pts = []
    k = max(0, math.ceil((f_min * 4.0 * tau - 1.0) / 2.0))
    while True:
        f = (2 * k + 1) / (4.0 * tau)
        if f > f_max:
            break
        if f >= f_min and disc.in_passband(f):
            pts.append(f)
        k += 1
    f0 = min(pts, key=lambda f: abs(f - f_lock_hz), default=math.inf)
    if not abs(f0 - f_lock_hz) < hw:
        raise ParameterError("no passband lock point within the capture half-range")
    return f0


@st.composite
def discs_and_frequencies(draw):
    """A discriminator and a frequency near (within 1.5 half-ranges of) one of its lock points."""
    delay = draw(st.floats(1e-9, 1e-6))
    try:
        disc = DiscriminatorConfig(
            delay_s=delay, amplitude_v=1.0, sign=draw(st.sampled_from([-1, 1])),
            bandpass_center_hz=draw(st.floats(0.0, 1e8)),
            bandpass_halfwidth_hz=draw(st.floats(1e3, 1e8)))
    except ParameterError:  # the passband holds no lock point
        assume(False)
    hw = 1.0 / (4.0 * delay)
    k = draw(st.integers(0, 60))
    frac = draw(st.floats(-1.5, 1.5) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
    f = (2 * k + 1) * hw + frac * hw
    assume(f > 0.0)
    return disc, f


class TestResolveLockPoint:
    @settings(max_examples=500, deadline=None)
    @given(discs_and_frequencies())
    def test_matches_reference(self, case):
        """Same f0 as the oracle, or both reject."""
        disc, f = case
        try:
            expected = reference_lock_point(disc, f)
        except ParameterError:
            expected = None
        try:
            got = resolve_lock_point(disc, f)
        except ParameterError:
            got = None
        assert (None if got is None else got.f_hz) == expected

    def test_slope_sign_matches_lock_points(self):
        disc = wide_disc()
        for p in lock_points(disc, 0.0, 80e6):
            assert resolve_lock_point(disc, p.f_hz) == p


# 1/(4 * 25 ns) = 10 MHz is a zero crossing, but it lies outside the default 30 +/- 15 MHz
# passband, where the error voltage is 0 V and no servo can lock.
OUT_OF_BAND_LOCK_HZ = 1.0 / (4.0 * 25e-9)


# Every model function takes a LockPoint, so each case fails where its LockPoint is made.
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda disc: LockPoint(disc, OUT_OF_BAND_LOCK_HZ).slope,
                 "outside the passband", id="discriminator_slope"),
    pytest.param(lambda disc: servo_for_bandwidth(LockPoint(disc, OUT_OF_BAND_LOCK_HZ), 100.0),
                 "outside the passband", id="servo_for_bandwidth"),
    pytest.param(lambda disc: simulate_lock(IDEAL, IDEAL_REF,
                                            resolve_lock_point(disc, OUT_OF_BAND_LOCK_HZ),
                                            ServoConfig(ki=1.0), 1.0, 1e-4, seed=1),
                 "no passband lock point", id="simulate_lock"),
])
def test_lock_point_outside_passband_rejected(call, message):
    disc = DiscriminatorConfig(delay_s=25e-9, amplitude_v=1.0)
    assert [p.f_hz for p in lock_points(disc, 0.0, 60e6)] == [pytest.approx(30e6)]
    with pytest.raises(ParameterError, match=message):
        call(disc)


# Each model entry that takes a time step rejects one that is not > 0 as FrequencyTrace does.
@pytest.mark.parametrize("dt_s", [0.0, -1e-3, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda dt: closed_loop_components(IDEAL, IDEAL_REF, WIDE_LOCK, 100.0, 1.0, dt,
                                                   seed=1), id="closed_loop_components"),
    pytest.param(lambda dt: simulate_lock(IDEAL, IDEAL_REF, WIDE_LOCK,
                                          servo_for_bandwidth(WIDE_LOCK, 100.0), 1.0, dt, seed=1),
                 id="simulate_lock"),
    pytest.param(lambda dt: synth_power_law(NoiseSpec(h={0: 1.0}), 1.0, dt, seed=1),
                 id="synth_power_law"),
])
def test_nonpositive_dt_rejected(call, dt_s):
    with pytest.raises(ParameterError, match="^dt must be > 0$"):
        call(dt_s)


class TestCaptureHalfwidth:
    def test_values(self):
        assert capture_halfwidth(wide_disc(delay_s=25e-9)) == pytest.approx(10e6)
        assert capture_halfwidth(wide_disc(delay_s=50e-9)) == pytest.approx(5e6)

    def test_tradeoff_identity(self):
        for tau in (5e-9, 25e-9, 100e-9):
            for v0 in (0.4, 1.0, 2.5):
                disc = wide_disc(delay_s=tau, amplitude_v=v0,
                                 bandpass_center_hz=1.0 / (4 * tau),
                                 bandpass_halfwidth_hz=1.0 / (4 * tau) + 1.0)
                lock = lock_points(disc, 0.0, 1.0 / tau)[0]
                product = abs(lock.slope) * capture_halfwidth(disc)
                assert product == pytest.approx(np.pi * v0 / 2.0, rel=1e-12)


def drifted_lock_point(thermal, t_s, f_lock_hz=30e6):
    """The lock point f_lock * tau_d(0) / tau_d(t) that the servo loop tracks at time t."""
    disc = wide_disc()
    return f_lock_hz * disc.delay_s / thermal.delays(disc, t_s)


class TestThermal:
    def test_zero_delta_t_no_shift(self):
        thermal = ThermalModel(1.7e-4, ([0.0, 200.0], [0.0, 0.0]))
        assert drifted_lock_point(thermal, 100.0) == 30e6

    def test_two_kelvin_shift(self):
        thermal = ThermalModel(1.7e-4, ([0.0], [2.0]))
        shift = drifted_lock_point(thermal, 1.0) - 30e6
        assert shift == pytest.approx(-10.2e3, rel=5e-3)

    def test_tempco_sign_antisymmetry(self):
        up = ThermalModel(1.7e-4, ([0.0], [2.0]))
        dn = ThermalModel(-1.7e-4, ([0.0], [2.0]))
        s_up = drifted_lock_point(up, 0.0) - 30e6
        s_dn = drifted_lock_point(dn, 0.0) - 30e6
        assert s_dn == pytest.approx(-s_up, rel=1e-3)

    def test_sampled_profile_interpolates(self):
        thermal = ThermalModel(1e-4, ([0.0, 10.0], [0.0, 1.0]))
        disc = wide_disc()
        assert thermal.delays(disc, 5.0) == disc.delay_s * (1.0 + 1e-4 * 0.5)

    def test_delays_take_a_time_or_an_array_of_times(self):
        # the servo loop takes every update's delay in one call: each equals the scalar call's
        thermal = ThermalModel(1.7e-4, ([0.0, 0.4, 2.0], [0.0, 1.5, -0.5]))
        disc, times = wide_disc(), np.arange(2000) * 10 * 1e-4
        delays = thermal.delays(disc, times)
        assert delays.shape == times.shape
        assert delays.tobytes() == np.array([thermal.delays(disc, t) for t in times]).tobytes()
        assert [thermal.delays(disc, t) for t in (0.0, 0.4, 2.0, 3.0)] == [
            disc.delay_s, disc.delay_s * (1.0 + 1.7e-4 * 1.5),
            disc.delay_s * (1.0 - 1.7e-4 * 0.5), disc.delay_s * (1.0 - 1.7e-4 * 0.5)]

    def test_sampled_profile_holds_numbers_only(self):
        thermal = ThermalModel(1e-4, (np.array([0.0, 10.0]), [np.float32(0.0), np.int64(1)]))
        disc = wide_disc()
        assert thermal.delays(disc, 5.0) == disc.delay_s * (1.0 + 1e-4 * 0.5)
        for times, temps in ((["0", "10"], [0.0, 1.0]), ([0.0, 10.0], [True, 1.0]),
                             ([0.0, float("inf")], [0.0, 1.0])):
            with pytest.raises(ParameterError, match="finite numbers only"):
                ThermalModel(1e-4, (times, temps))

    def test_tempco_bound(self):
        with pytest.raises(ParameterError):
            ThermalModel(0.5, ([0.0], [0.0]))

    def test_sampled_excursion_collapsing_delay_rejected(self):
        with pytest.raises(ParameterError, match="zero or below"):
            ThermalModel(5e-3, ([0.0, 1.0, 2.0], [0.0, -200.0, 0.0]))

    def test_ramp_collapsing_delay_rejected_when_built(self):
        # a ramp is the table of its ends, so the whole run's delays are checked up front:
        # -300 K/s over 2 s ends at -600 K, where 1 + 5e-3 * dT is -2
        with pytest.raises(ParameterError, match="zero or below"):
            ThermalModel(5e-3, ([0.0, 2.0], [0.0, -600.0]))
        # between positive points the interpolated delay stays positive
        thermal = ThermalModel(5e-3, ([0.0, 2.0], [0.0, -199.0]))
        times = np.linspace(0.0, 3.0, 301)
        assert np.all(thermal.delays(wide_disc(), times) > 0.0)


class TestConfigValidation:
    @pytest.mark.parametrize("key, value", [
        ("delay_s", 0.0), ("amplitude_v", -1.0), ("sign", 2), ("bandpass_halfwidth_hz", 0.0),
        ("noise_v2_per_hz", -1e-9)])
    def test_discriminator_guards(self, key, value):
        with pytest.raises(ParameterError, match=f"^{key} must be"):
            wide_disc(**{key: value})

    def test_servo_guards(self):
        with pytest.raises(ParameterError, match="actuator_limit_hz must be > 0"):
            ServoConfig(ki=1.0, actuator_limit_hz=0.0)
        with pytest.raises(ParameterError, match="dt must be > 0"):
            simulate_lock(IDEAL, IDEAL_REF, WIDE_LOCK, servo_for_bandwidth(WIDE_LOCK, 100.0),
                          1.0, 0.0, seed=1)

    def test_passband_must_contain_lock_point(self):
        with pytest.raises(ParameterError):
            DiscriminatorConfig(delay_s=25e-9, amplitude_v=1.0,
                                bandpass_center_hz=20e6, bandpass_halfwidth_hz=1e6)

    def test_lock_points_on_the_open_passband_edges_rejected(self):
        # 10 and 30 MHz are zero crossings of a 25 ns line, but the passband (10, 30) MHz is open
        with pytest.raises(ParameterError, match="no lock point"):
            DiscriminatorConfig(delay_s=25e-9, amplitude_v=1.0,
                                bandpass_center_hz=20e6, bandpass_halfwidth_hz=10e6)
        disc = DiscriminatorConfig(delay_s=25e-9, amplitude_v=1.0,
                                   bandpass_center_hz=20e6, bandpass_halfwidth_hz=10.5e6)
        assert [p.f_hz for p in lock_points(disc, 0.0, 60e6)] == [10e6, 30e6]

    def test_servo_needs_some_gain(self):
        with pytest.raises(ParameterError):
            ServoConfig(kp=0.0, ki=0.0)

    def test_servo_timing(self):
        with pytest.raises(ParameterError):
            ServoConfig(ki=1.0, update_dt_s=0.0)


class TestSimulateLock:
    def _run(self, duration_s, disc=None, laser=IDEAL, **kw):
        """A 100 Hz loop at the 30 MHz lock point of ``disc`` (default ``wide_disc()``)."""
        lock = WIDE_LOCK if disc is None else resolve_lock_point(disc, 30e6)
        return simulate_lock(laser, IDEAL_REF, lock, servo_for_bandwidth(lock, 100.0),
                             duration_s, 1e-4, seed=1, **kw)

    def test_fixed_point_all_traces_constant(self):
        run = self._run(2.0)
        assert np.allclose(run.inloop_beat_trace.samples + run.inloop_beat_trace.nominal_hz,
                           30e6, atol=1e-6)
        assert np.allclose(run.actuator_trace, 0.0, atol=1e-6)
        assert np.allclose(run.error_trace, 0.0, atol=1e-12)
        assert run.status["lock_fraction"] == 1.0

    def test_convergence_inside_capture(self):
        run = self._run(3.0, initial_beat_offset_hz=5e6)
        final = run.inloop_beat_trace.samples[-1] + run.inloop_beat_trace.nominal_hz
        assert final == pytest.approx(30e6, abs=1.0)
        assert run.status["lock_fraction"] > 0.5 and not run.status["unstable"]

    def test_no_convergence_outside_capture(self):
        disc = wide_disc(bandpass_center_hz=30e6, bandpass_halfwidth_hz=10e6)
        run = self._run(3.0, disc, initial_beat_offset_hz=15e6)
        assert run.status["lock_fraction"] == 0.0
        # the actuator never rails, yet a loop that never locks is unstable
        assert run.status["actuator_rail_fraction"] == 0.0
        assert run.status["unstable"]

    def test_negative_sign_convention_still_locks(self):
        run = self._run(3.0, wide_disc(sign=-1), initial_beat_offset_hz=2e6)
        final = run.inloop_beat_trace.samples[-1] + run.inloop_beat_trace.nominal_hz
        assert final == pytest.approx(30e6, abs=1.0)

    def test_status_values_are_plain_python_numbers(self):
        # json writes a float subclass like a float, but a caller comparing types sees numpy's
        run = self._run(1.0)
        assert {key: type(value) for key, value in run.status.items()} == {
            "lock_fraction": float, "mean_beat_hz": float,
            "actuator_rail_fraction": float, "unstable": bool}

    def test_thermal_tracking(self):
        thermal = ThermalModel(1.7e-4, ([0.0, 20.0], [0.0, 2.0]))  # 0.1 K/s over 20 s
        run = self._run(20.0, thermal=thermal)
        beat = run.inloop_beat_trace.samples + run.inloop_beat_trace.nominal_hz
        assert np.max(np.abs(beat - tracked_lock_point(run, wide_disc(), thermal))) < 5.0
        drift = beat[-1] - beat[0]
        assert drift == pytest.approx(-10.2e3, rel=0.05)

    def test_unstable_gains_guard(self):
        hot = ServoConfig(kp=0.0, ki=1e13, update_dt_s=1e-3)
        with pytest.raises(ParameterError):
            simulate_lock(IDEAL, IDEAL_REF, WIDE_LOCK, hot, 1.0, 1e-4, seed=1)

    @pytest.mark.parametrize("g_p, g_i, stable", [
        (0.0, 1.99, True), (0.0, 2.01, False),  # pure integral gain: k < 2
        (0.99, 0.0, True), (1.01, 0.0, False),  # pure proportional gain: |g_p| < 1
        (0.5, 0.99, True), (0.5, 1.01, False),  # both: 2 - 2 g_p - g_i > 0
        (-0.5, 2.99, True), (0.0, -0.1, False),  # g_i > 0: a negative ki is positive feedback
    ])
    def test_gains_obey_the_stability_rule(self, g_p, g_i, stable):
        # g_p = kp |slope| and g_i = ki |slope| T_u; every case lies below the 1/(10 dt) guard
        slope = abs(WIDE_LOCK.slope)
        servo = ServoConfig(kp=g_p / slope, ki=g_i / (slope * 1e-3), update_dt_s=1e-3)
        if stable:
            assert lockloop.servo_stride(WIDE_LOCK, servo, 1e-4) == 10
        else:
            with pytest.raises(ParameterError, match=r"unstable loop .* 2 - 2 g_p - g_i > 0"):
                lockloop.servo_stride(WIDE_LOCK, servo, 1e-4)

    def test_railed_actuator_reported_not_raised(self):
        servo = ServoConfig(kp=0.0, ki=2.0 * np.pi * 100.0 / 1.571e-7,
                            actuator_limit_hz=1e5, update_dt_s=1e-3)
        run = simulate_lock(IDEAL, IDEAL_REF, WIDE_LOCK, servo, 2.0, 1e-4,
                            seed=1, initial_beat_offset_hz=5e6)
        assert run.status["unstable"]
        assert run.status["actuator_rail_fraction"] > 0.5

    def test_dt_exceeding_update_rejected(self):
        with pytest.raises(ParameterError):
            simulate_lock(IDEAL, IDEAL_REF, WIDE_LOCK, servo_for_bandwidth(WIDE_LOCK, 100.0),
                          1.0, 0.01, seed=1)

    def test_f_lock_must_be_lock_point(self):
        # 33 MHz lies in the capture half-range of the 30 MHz crossing, so it resolves to it;
        # a LockPoint, which every model function takes, is the crossing itself
        assert resolve_lock_point(wide_disc(), 33e6) == WIDE_LOCK
        with pytest.raises(ParameterError, match="not a zero crossing"):
            LockPoint(wide_disc(), 33e6)

    def test_traces_share_dt_and_length(self):
        run = self._run(1.0)
        n = len(run.laser_offset_trace)
        assert len(run.inloop_beat_trace) == n
        # the servo's own arrays hold one value per update of 10 samples
        assert run.update_stride == 10
        assert run.error_trace.size == n // 10
        assert run.actuator_trace.size == n // 10

    def test_peak_memory_is_the_outputs(self):
        # Noiseless oscillators make synthesis np.zeros, so the peak is the loop's own arrays.
        # Expanding the servo's traces to full rate peaked at 10.5 x 8n bytes; now about 4.6,
        # of which 4.1 are the three full-rate outputs, the lock-point deviation and one repeat.
        lock = lock_points(DiscriminatorConfig(delay_s=cable_delay(5.0)), 15e6, 45e6)[0]
        laser = OscillatorModel(IDEAL_REF.nominal_hz + round(lock.f_hz), NoiseSpec())
        n = 200_000
        tracemalloc.start()
        try:
            run = simulate_lock(laser, IDEAL_REF, lock, servo_for_bandwidth(lock, 100.0),
                                n * 1e-4, 1e-4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.laser_offset_trace) == n and run.status["lock_fraction"] == 1.0
        assert peak < 5.5 * 8 * n

    def test_export_writes_manifest(self, tmp_path):
        run = self._run(1.0, laser=laser_from_linewidth(198_000_019_000_000, 1e3))
        assert run.error_trace.size == 1_000
        out = tmp_path / "run"
        assert_lockrun_dir(run, run.export(out), out)


def reference_simulate_lock(laser, reference, disc, servo, f_lock_hz, duration_s, dt_s, seed,
                            thermal=None, initial_beat_offset_hz=0.0):
    """The servo loop as first written, with numpy calls on each update's slice.

    Kept as the oracle for the scalar loop in ``simulate_lock``, which must
    reproduce it bit for bit.  Returns the traces and the status block.
    """
    stride = int(round(servo.update_dt_s / dt_s))
    f0 = lock_points(disc, f_lock_hz - 1.0, f_lock_hz + 1.0)[0].f_hz
    fb = 1.0 if error_signal(f0 + 1.0, disc) > error_signal(f0 - 1.0, disc) else -1.0
    n = int(round(duration_s / dt_s))
    laser_free = oscillator_trace(laser, duration_s, dt_s, derive_seed(seed, "laser")).samples
    ref_free = oscillator_trace(reference, duration_s, dt_s, derive_seed(seed, "reference")).samples
    beat0 = laser.nominal_hz - reference.nominal_hz
    polarity = 1.0 if beat0 >= 0 else -1.0
    base = float(beat0) + initial_beat_offset_hz + laser_free - ref_free
    n_upd = (n + stride - 1) // stride
    if disc.noise_v2_per_hz > 0.0:
        rng = np.random.default_rng(derive_seed(seed, "detector"))
        v_noise = rng.standard_normal(n_upd) * math.sqrt(
            disc.noise_v2_per_hz / (2.0 * servo.update_dt_s))
    else:
        v_noise = np.zeros(n_upd)
    beat_signed, act_arr, err_arr = np.empty(n), np.empty(n), np.empty(n)
    lockpoint_arr, halfwidth_arr = np.empty(n), np.empty(n)
    act_cmd = 0.0
    integ = 0.0
    railed_updates = 0
    for j in range(n_upd):
        k0 = j * stride
        k1 = min(k0 + stride, n)
        tau_d = disc.delay_s
        if thermal is not None:
            times, temps = thermal.temperature_profile
            tau_d *= 1.0 + thermal.tempco_per_K * float(np.interp(k0 * dt_s, times, temps))
        if j == 0:
            f_abs = np.abs(base[k0:k0 + 1] + polarity * act_cmd)
        else:
            f_abs = np.abs(beat_signed[k0 - stride:k0])
        e = float(np.mean(error_signal(f_abs, disc, delay_s=tau_d))) + v_noise[j]
        integ += e * servo.update_dt_s
        act_cmd = -fb * (servo.kp * e + servo.ki * integ)
        if abs(act_cmd) > servo.actuator_limit_hz:
            act_cmd = math.copysign(servo.actuator_limit_hz, act_cmd)
            if servo.ki != 0.0:
                integ = (-fb * act_cmd - servo.kp * e) / servo.ki
            railed_updates += 1
        beat_signed[k0:k1] = base[k0:k1] + polarity * act_cmd
        act_arr[k0:k1] = polarity * act_cmd
        err_arr[k0:k1] = e
        lockpoint_arr[k0:k1] = f0 * disc.delay_s / tau_d
        halfwidth_arr[k0:k1] = 1.0 / (4.0 * tau_d)
    f_abs_arr = np.abs(beat_signed)
    lock_fraction = float(np.mean(np.abs(f_abs_arr - lockpoint_arr) <= halfwidth_arr))
    rail_fraction = railed_updates / n_upd
    status = {
        "lock_fraction": lock_fraction,
        "mean_beat_hz": float(np.mean(f_abs_arr)),
        "actuator_rail_fraction": float(rail_fraction),
        "unstable": bool(rail_fraction > 0.5 or lock_fraction < 0.5),
    }
    traces = {
        "laser_offset": laser_free + act_arr,
        "inloop_beat": f_abs_arr - int(round(f0)),
        "error": err_arr,
        "actuator": act_arr,
        "lockpoint": lockpoint_arr,
    }
    return traces, status


NOISY_LASER = laser_from_linewidth(198_000_019_000_000, 40e3, drift_rate_hz_per_s=500.0)
NOISY_LOW_LASER = laser_from_linewidth(197_999_959_000_000, 40e3, drift_rate_hz_per_s=500.0)
NOISY_REF = OscillatorModel(197_999_989_000_000, NoiseSpec(h={0: 1e3}))


class TestScalarLoopMatchesReference:
    """simulate_lock against the numpy-per-update loop it replaced: equal to the bit."""

    @pytest.mark.parametrize("case", [
        dict(id="thermal-ramp", thermal=ThermalModel(1.7e-4, ([0.0, 2.0], [0.0, 0.2]))),
        dict(id="thermal-sampled",
             thermal=ThermalModel(1.7e-4, ([0.0, 0.4, 2.0], [0.0, 1.5, -0.5]))),
        # the needed correction shrinks from 5 to 1 MHz: railed for a quarter of the run
        dict(id="railed-anti-windup", initial_beat_offset_hz=5e6,
             laser=laser_from_linewidth(198_000_019_000_000, 40e3, drift_rate_hz_per_s=-2e6),
             servo=ServoConfig(kp=1e6, ki=4e9, actuator_limit_hz=4e6)),
        dict(id="railed-throughout", initial_beat_offset_hz=5e6,
             servo=ServoConfig(ki=4e9, actuator_limit_hz=1e5)),
        dict(id="kp-and-ki", initial_beat_offset_hz=1e6,
             servo=ServoConfig(kp=1e5, ki=2e9)),
        dict(id="detector-noise", disc=wide_disc(noise_v2_per_hz=1e-8)),
        dict(id="laser-below-line", laser=NOISY_LOW_LASER, disc=wide_disc(sign=-1)),
        dict(id="stride-7-ragged-end", duration_s=1.2345, n_updates=1764,  # 12 345 samples
             servo=ServoConfig(ki=2e9, update_dt_s=7e-4)),
        dict(id="narrow-passband", initial_beat_offset_hz=12e6,
             disc=wide_disc(bandpass_center_hz=30e6, bandpass_halfwidth_hz=10e6)),
    ], ids=lambda case: case["id"])
    def test_bitwise_equal(self, case):
        disc = case.get("disc", wide_disc())
        lock = resolve_lock_point(disc, 30e6)
        servo = case.get("servo", servo_for_bandwidth(lock, 100.0))
        laser, timing = case.get("laser", NOISY_LASER), (case.get("duration_s", 2.0), 1e-4, 7)
        kwargs = dict(thermal=case.get("thermal"),
                      initial_beat_offset_hz=case.get("initial_beat_offset_hz", 0.0))
        run = simulate_lock(laser, NOISY_REF, lock, servo, *timing, **kwargs)
        expected, status = reference_simulate_lock(laser, NOISY_REF, disc, servo, 30e6, *timing,
                                                   **kwargs)
        n, stride = len(run.laser_offset_trace), run.update_stride
        assert stride == round(servo.update_dt_s / 1e-4)
        servo_rate = (run.error_trace, run.actuator_trace)
        assert [a.size for a in servo_rate] == [case.get("n_updates", 2000)] * 2
        error, actuator = (np.repeat(a, stride)[:n] for a in servo_rate)
        # with no thermal model, a zero tempco gives every update the delay tau_d(0) exactly
        thermal = kwargs["thermal"] or ThermalModel(0.0, ([0.0], [0.0]))
        got = {
            "laser_offset": run.laser_offset_trace.samples,
            "inloop_beat": run.inloop_beat_trace.samples,
            "error": error,
            "actuator": actuator,
            "lockpoint": tracked_lock_point(run, disc, thermal),
        }
        for name, want in expected.items():
            assert got[name].tobytes() == want.tobytes(), name
        assert run.status == status


class TestSpectralLock:
    def test_noiseless_all_zero(self):
        locked, _ = closed_loop_components(IDEAL, IDEAL_REF, WIDE_LOCK, 100.0, 10.0, 1e-3, seed=1)
        assert np.allclose(locked, 0.0)

    def test_white_laser_suppressed_at_long_tau(self):
        laser = laser_from_linewidth(198_000_019_000_000, 300e3)
        free = oscillator_trace(laser, 256.0, 2e-3, seed=2)
        locked_off, _ = closed_loop_components(laser, IDEAL_REF, WIDE_LOCK, 100.0, 256.0, 2e-3,
                                               seed=2)
        locked = FrequencyTrace(laser.nominal_hz, 2e-3, locked_off)
        taus = [1.0, 8.0]
        s_free = adev_overlapping(count(free, CounterConfig(1.0)), taus).sigmas
        s_locked = adev_overlapping(count(locked, CounterConfig(1.0)), taus).sigmas
        assert np.all(s_locked * 10.0 < s_free)

    def test_bandwidth_above_nyquist_rejected(self):
        with pytest.raises(ParameterError,
                           match=r"loop_bandwidth_hz 100\.0 must lie in \(0, Nyquist"):
            closed_loop_components(IDEAL, IDEAL_REF, WIDE_LOCK, 100.0, 10.0, 1e-1, seed=1)

    def test_reference_passes_through_below_bandwidth(self):
        # A drifting reference within the loop bandwidth is followed 1:1.
        ref = OscillatorModel(197_999_989_000_000, NoiseSpec(drift_rate_hz_per_s=100.0))
        locked, _ = closed_loop_components(IDEAL, ref, WIDE_LOCK, 50.0, 20.0, 1e-3, seed=3)
        expected_drift = 100.0 * 20.0
        assert locked[-1] - locked[0] == pytest.approx(expected_drift, rel=0.05)

    def test_tiny_bandwidth_runs_without_a_huge_warm_up(self):
        # bw 1e-300 validates; its warm-up (~1e303 samples) must not size an allocation.
        # Its pole is 1.0, so the low-pass holds the first sample.
        laser = laser_from_linewidth(198_000_019_000_000, 300e3)
        ref = OscillatorModel(197_999_989_000_000, NoiseSpec(h={0: 1e4}))
        locked, ref_free = closed_loop_components(laser, ref, WIDE_LOCK, 1e-300, 2.0, 1e-3, seed=4)
        laser_free = oscillator_trace(laser, 2.0, 1e-3, derive_seed(4, "laser")).samples
        assert locked.tobytes() == (ref_free[0] + (laser_free - laser_free[0])).tobytes()


class TestLoopResponse:
    """|1 - H|^2 of each lock model: the Welch PSD of the locked laser over that of the same
    free-running laser (white FM), band-averaged at 7 frequencies, against its closed form.

    Tolerance: K non-overlapping 2^11-sample segments and B adjacent bins make each PSD band a
    mean of K*B independent chi^2_2 values, with relative standard error 1/sqrt(K*B).  The two
    PSDs share one realization, so their errors correlate positively and the ratio's relative
    error is at most sqrt(2/(K*B)); 4 of those is the bound.  Here K = 292, B = 7: 12.5 %.
    At 50-700 Hz either model's response lies outside the other's bound.
    """

    DT, DURATION, BW, SEG, BINS = 1e-4, 60.0, 100.0, 2**11, 7
    FREQS = (50, 100, 200, 300, 500, 700, 1000)
    LASER = OscillatorModel(198_000_019_000_000, NoiseSpec(h={0: 1e4}))

    def assert_response(self, locked, seed, response):
        free = oscillator_trace(self.LASER, self.DURATION, self.DT, derive_seed(seed, "laser"))
        k = free.samples.size // self.SEG
        f, s_free = psd_estimate(free, k)
        _, s_locked = psd_estimate(FrequencyTrace(0, self.DT, locked), k)
        tol = 4.0 * math.sqrt(2.0 / (k * self.BINS))
        assert k == 292 and tol == pytest.approx(0.125, abs=5e-4)
        for fc in self.FREQS:
            lo = round(fc / f[1]) - self.BINS // 2
            band = slice(lo, lo + self.BINS)
            measured = s_locked[band].sum() / s_free[band].sum()
            assert measured == pytest.approx(response(f[band]).mean(), rel=tol), fc

    def test_time_domain_loop(self):
        """The pure-integral loop of ``servo_for_bandwidth``, linearised: per update T_u of N
        samples, a_j = (1 - k) a_{j-1} - k x_{j-1}, where x_{j-1} is the locked offset averaged
        over update j - 1 and k = 2 pi bw T_u, so G = -k z^-1 / (1 - (1 - k) z^-1) at
        z = e^{i 2 pi f T_u}.  The average and the hold each weigh f by D = sin(pi f T_u) /
        (N sin(pi f dt)), so |1 - H|^2 = |1 + D^2 G|^2 + D^2 |G|^2 (1 - D^2): the second term
        is the white FM that the hold aliases from f + n/T_u, 3 % of the first at 200-500 Hz."""
        seed, servo = 7, servo_for_bandwidth(WIDE_LOCK, self.BW)
        run = simulate_lock(self.LASER, IDEAL_REF, WIDE_LOCK, servo, self.DURATION, self.DT, seed)
        t_u, n = servo.update_dt_s, run.update_stride
        k = 2.0 * np.pi * self.BW * t_u

        def response(f):
            z_inv = np.exp(-2j * np.pi * f * t_u)
            g = -k * z_inv / (1.0 - (1.0 - k) * z_inv)
            d2 = (np.sin(np.pi * f * t_u) / (n * np.sin(np.pi * f * self.DT))) ** 2
            return np.abs(1.0 + d2 * g) ** 2 + d2 * np.abs(g) ** 2 * (1.0 - d2)

        self.assert_response(run.laser_offset_trace.samples, seed, response)

    def test_spectral_model(self):
        """laser - lowpass(laser) with the discrete one-pole y_i = a x_i + (1 - a) y_{i-1},
        a = 1 - exp(-2 pi bw dt): |1 - H|^2 = |(1 - a)(1 - z^-1) / (1 - (1 - a) z^-1)|^2 at
        z = e^{i 2 pi f dt}, which never exceeds 1."""
        seed = 7
        locked, _ = closed_loop_components(self.LASER, IDEAL_REF, WIDE_LOCK, self.BW,
                                           self.DURATION, self.DT, seed)
        a = 1.0 - math.exp(-2.0 * np.pi * self.BW * self.DT)

        def response(f):
            z_inv = np.exp(-2j * np.pi * f * self.DT)
            return np.abs((1.0 - a) * (1.0 - z_inv) / (1.0 - (1.0 - a) * z_inv)) ** 2

        self.assert_response(locked, seed, response)


DT_GOLDEN = 1.0 / 512.0  # fig3 and fig4: 100 Hz at 512 samples per second


def assert_matches_lfilter(x, bandwidth_hz=100.0, dt_s=DT_GOLDEN):
    """``_one_pole_lowpass`` equals the scipy filter it replaced, the byte oracle, to the bit."""
    a = 1.0 - math.exp(-2.0 * np.pi * bandwidth_hz * dt_s)
    want = lfilter([a], [1.0, a - 1.0], x, zi=[(1.0 - a) * x[0]])[0]
    assert _one_pole_lowpass(x, bandwidth_hz, dt_s).tobytes() == want.tobytes()


def walk(n, seed=5):
    """A random walk plus white noise, with exact zeros of both signs."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n)) + rng.standard_normal(n)
    x[3::97], x[5::89] = 0.0, -0.0
    return x


class TestOnePoleMatchesLfilter:
    """``_one_pole_lowpass`` against scipy's ``lfilter``: equal to the bit."""

    @pytest.mark.parametrize("n", [2, 3, 255, 4097, 100_001, 3600 * 512])
    def test_golden_parameters(self, n):
        assert_matches_lfilter(walk(n))

    @pytest.mark.parametrize("n", [4097, 50_001])  # sequential, blocked
    @pytest.mark.parametrize("draw", [
        np.zeros,
        lambda n: np.full(n, -0.0),
        lambda n: np.where(np.arange(n) % 3, 0.0, -0.0),
        # the smallest subnormals and signed zeros: x 0.0 decides the sign of a zero state
        lambda n: np.random.default_rng(6).choice(
            [k * 5e-324 for k in (-3, -2, -1, 1, 2, 3)] + [0.0, -0.0], n),
    ], ids=["+0.0", "-0.0", "signed zeros", "subnormal"])
    def test_zeros_and_subnormals(self, draw, n):
        assert_matches_lfilter(draw(n))

    @pytest.mark.parametrize("bandwidth_hz, dt_s, n", [
        (np.nextafter(256.0, 0.0), DT_GOLDEN, 100_001),  # just under Nyquist
        (0.05, DT_GOLDEN, 200_001),  # a 135 600-sample warm-up: too few blocks, sequential
        (0.05, 1.0, 100_001),  # the same bandwidth at 1 s: a 265-sample warm-up, blocked
        (1e-300, DT_GOLDEN, 1001),  # pole 1.0
        (5e-324, DT_GOLDEN, 1001),  # 2 pi bw dt underflows to 0
    ])
    def test_bandwidths(self, bandwidth_hz, dt_s, n):
        assert_matches_lfilter(walk(n), bandwidth_hz, dt_s)

    @pytest.mark.parametrize("settle", [1.0, 36.0])
    def test_blocks_that_fail_to_synchronise_are_recomputed(self, monkeypatch, settle):
        # A warm-up of 1 (settle 1.0) or 30 samples (36.0) instead of 68 leaves all or some
        # blocks on an inexact state; the check must find each, and the output stay exact.
        runs = []
        real_run = lockloop._one_pole_run
        monkeypatch.setattr(lockloop, "_SETTLE", settle)
        monkeypatch.setattr(lockloop, "_one_pole_run", lambda x, *a: runs.append(x.size)
                            or real_run(x, *a))
        assert_matches_lfilter(walk(100_001))
        blocks = 100_001 // lockloop._BLOCK
        recomputed = runs.count(lockloop._BLOCK)
        assert (recomputed == blocks - 1) if settle == 1.0 else (0 < recomputed < blocks - 1)


class TestOutOfLoopBeat:
    def test_self_beat_zero(self):
        trace = FrequencyTrace(198_000_019_000_000, 0.5, np.array([1.0, -2.0, 3.0]))
        beat = out_of_loop_beat(trace, trace)
        assert np.all(beat.samples == 0.0)
        assert beat.nominal_hz == 0

    def test_against_ideal_reference_is_identity(self):
        locked = FrequencyTrace(198_000_019_000_000, 0.5, np.array([1.0, -2.0, 3.0]))
        ref = FrequencyTrace(197_999_989_000_000, 0.5, np.zeros(3))
        beat = out_of_loop_beat(locked, ref)
        assert np.array_equal(beat.samples, locked.samples)
        assert beat.nominal_hz == 30_000_000

    def test_mismatched_sampling_rejected(self):
        a = FrequencyTrace(10**14, 0.5, np.zeros(4))
        b = FrequencyTrace(10**14, 0.25, np.zeros(4))
        with pytest.raises(ParameterError):
            out_of_loop_beat(a, b)
        c = FrequencyTrace(10**14, 0.5, np.zeros(5))
        with pytest.raises(ParameterError):
            out_of_loop_beat(a, c)
