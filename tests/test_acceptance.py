"""End-to-end acceptance gate.

Each test prints one ``[criterion NN] PASS/FAIL`` line (visible under
``pytest -v`` via ``capfd.disabled``) and then asserts, so a red criterion
is both visible in the console stream and counted by pytest.
"""
import json
import time
from importlib import resources

import numpy as np
import pytest

from offsetlock import (
    AfcSpec,
    ChainNode,
    CombModel,
    CounterConfig,
    DiscriminatorConfig,
    FrequencyTrace,
    NoiseSpec,
    OscillatorModel,
    ThermalModel,
    adev_overlapping,
    afc_budget,
    cable_delay,
    capture_halfwidth,
    comb_beat,
    comb_line_oscillator,
    count,
    lock_points,
    pdc_degenerate,
    resolve_lock_point,
    run_scenario,
    servo_for_bandwidth,
    sfg,
    shg,
    simulate_lock,
    synth_power_law,
    validate_config,
)

from conftest import brute_force_adev_overlapping, tracked_lock_point

GPS_PROFILE = ((1.0, 3.4e-12), (263.0, 7.2e-12))
CABLE_DELAY_S = cable_delay(5.0, 0.66)


def _verdict(capfd, num, ok):
    with capfd.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok


def golden_doc(name):
    text = (resources.files("offsetlock") / "scenarios" / name).read_text()
    return json.loads(text)


def run_golden(doc, out_dir):
    cfg, errors = validate_config(doc)
    assert errors == []
    return run_scenario(cfg, out_dir)


def test_criterion_01_adev_oracle_equivalence(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        n = int(rng.integers(8, 65))
        readings = rng.integers(-1000, 1001, size=n).astype(float)
        series = FrequencyTrace(nominal_hz=30_000_000, dt_s=1.0, samples=readings)
        for m in (1, 2, 4, 8):
            if 2 * m > n:
                continue
            expected = brute_force_adev_overlapping(readings, m)
            got = adev_overlapping(series, [m * 1.0]).sigmas[0]
            # integer readings and power-of-two m keep every intermediate a
            # dyadic rational, so both evaluations are exact in binary
            ok = ok and (got == expected)
    elapsed = time.perf_counter() - t0
    _verdict(capfd, 1, ok and elapsed < 5.0)


def test_criterion_02_white_fm_law(capfd):
    t0 = time.perf_counter()
    spec = NoiseSpec(h={0: 2.0})
    taus = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    sigmas = []
    for seed in range(20):
        trace = synth_power_law(spec, 4096.0, 0.5, seed)
        series = count(trace, CounterConfig(gate_s=1.0))
        sigmas.append(adev_overlapping(series, taus).sigmas)
    mean_sigma = np.mean(sigmas, axis=0)
    slope = np.polyfit(np.log10(taus), np.log10(mean_sigma), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = (abs(mean_sigma[0] - 1.0) <= 0.10
          and abs(slope + 0.5) <= 0.05
          and elapsed < 30.0)
    _verdict(capfd, 2, ok)


def test_criterion_03_drift_law(capfd):
    spec = NoiseSpec(drift_rate_hz_per_s=1.0)
    trace = synth_power_law(spec, 64.0, 0.25, seed=0)
    series = count(trace, CounterConfig(gate_s=1.0))
    result = adev_overlapping(series, [1.0, 2.0, 4.0])
    expected = result.taus_s / np.sqrt(2.0)
    ok = bool(np.all(np.abs(result.sigmas / expected - 1.0) <= 1e-9))
    _verdict(capfd, 3, ok)


def test_criterion_04_discriminator_analytics(capfd):
    # lock point near 30 MHz for the 5 m / vf 0.66 cable
    disc = DiscriminatorConfig(delay_s=CABLE_DELAY_S, amplitude_v=1.0)
    pts = [p.f_hz for p in lock_points(disc, 15e6, 45e6)]
    near_30mhz = min(abs(f - 30e6) / 30e6 for f in pts) <= 0.02

    # slope-capture trade-off identity across delay values
    tradeoff = True
    for tau_d in (5e-9, 25e-9, 100e-9):
        d = DiscriminatorConfig(
            delay_s=tau_d, amplitude_v=1.0,
            bandpass_center_hz=1.0 / (4.0 * tau_d),
            bandpass_halfwidth_hz=1.0 / (4.0 * tau_d) + 1.0)
        product = abs(lock_points(d, 0.0, 1.0 / tau_d)[0].slope) * capture_halfwidth(d)
        tradeoff = tradeoff and abs(product / (np.pi * 1.0 / 2.0) - 1.0) <= 1e-12

    # noiseless basin of attraction: converges iff |offset| < 1/(4 tau_d)
    half = capture_halfwidth(disc)
    basin_disc = DiscriminatorConfig(
        delay_s=CABLE_DELAY_S, amplitude_v=1.0,
        bandpass_center_hz=29_679_453.342, bandpass_halfwidth_hz=half)
    lock = lock_points(basin_disc, 25e6, 35e6)[0]
    f0 = lock.f_hz
    laser = OscillatorModel(198_000_000_000_000 + int(round(f0)), NoiseSpec())
    ref = OscillatorModel(198_000_000_000_000, NoiseSpec())
    servo = servo_for_bandwidth(lock, 100.0)
    basin_ok = True
    for delta in np.linspace(-20e6, 20e6, 21):
        run = simulate_lock(laser, ref, lock, servo, 3.0, 1e-4,
                            seed=1, initial_beat_offset_hz=float(delta))
        final = run.inloop_beat_trace.samples[-1] + run.inloop_beat_trace.nominal_hz
        converged = abs(final - f0) < 1.0
        basin_ok = basin_ok and (converged == (abs(delta) < half))

    _verdict(capfd, 4, near_30mhz and tradeoff and basin_ok)


def test_criterion_05_locked_vs_freerun_1514(capfd, tmp_path):
    t0 = time.perf_counter()
    report = run_golden(golden_doc("fig3_lock_1514.json"), tmp_path / "out")
    s = report.statistics
    elapsed = time.perf_counter() - t0
    ok = (12.5e6 <= s["freerun_pp"] <= 50e6
          and s["locked_pp"] <= 250e3
          and s["locked_pp"] <= s["freerun_pp"] / 100.0
          and 300.0 <= s["outofloop_adev"] <= 1500.0
          and elapsed < 60.0)
    _verdict(capfd, 5, ok)


def test_criterion_06_inloop_stability_1010(capfd, tmp_path):
    t0 = time.perf_counter()
    report = run_golden(golden_doc("fig4_inloop_1010.json"), tmp_path / "out")
    s = report.statistics
    elapsed = time.perf_counter() - t0
    ok = (6e6 <= s["freerun_pp"] <= 24e6
          and 0.8e-12 <= s["inloop_adev"] <= 5e-12
          and s["suppression"] <= 1.0  # in-loop <= free-run at every tau
          and elapsed < 60.0)
    _verdict(capfd, 6, ok)


def test_criterion_07_thermal_drift(capfd):
    disc = DiscriminatorConfig(delay_s=25e-9, amplitude_v=1.0,
                               bandpass_center_hz=30e6, bandpass_halfwidth_hz=15e6)
    thermal = ThermalModel(1.7e-4, ([0.0, 20.0], [0.0, 2.0]))  # 0.1 K/s over the 20 s run
    laser = OscillatorModel(198_000_030_000_000, NoiseSpec())
    ref = OscillatorModel(198_000_000_000_000, NoiseSpec())
    lock = resolve_lock_point(disc, 30e6)
    run = simulate_lock(laser, ref, lock, servo_for_bandwidth(lock, 100.0), 20.0, 1e-4, seed=1,
                        thermal=thermal)
    beat = run.inloop_beat_trace.samples + run.inloop_beat_trace.nominal_hz
    drift = beat[-1] - beat[0]
    tracking_err = np.max(np.abs(beat - tracked_lock_point(run, disc, thermal)))
    ok = abs(abs(drift) - 10.2e3) <= 0.05 * 10.2e3 and tracking_err < 10.0
    _verdict(capfd, 7, ok)


def test_criterion_08_chain_budget(capfd):
    t0 = time.perf_counter()
    l1514 = ChainNode(198_000_019_000_000, sigma_abs_hz=710.0, provenance=("l1514",))
    l1010 = ChainNode(297_000_057_000_000, sigma_abs_hz=1000.0, provenance=("l1010",))
    photon606 = sfg(pdc_degenerate(shg(l1514)), l1010)
    exact = photon606.nominal_hz == 495_000_076_000_000
    sigma_ok = abs(photon606.sigma_abs_hz - np.hypot(710.0, 1000.0)) <= 10.0
    budget = afc_budget(photon606, AfcSpec(center_hz=495_000_076_000_000,
                                           width_hz=4e6, stability_target_hz=1e5))
    budget_ok = budget["stability_pass"] and budget["offset_pass"]

    comb = CombModel(f_rep_hz=107_000_000, f_ceo_hz=20_000_000)
    base = comb.line_hz(1000)
    beat_ok = True
    for start in range(0, 107_000_000, 1_000_000):
        offsets = np.arange(start, min(start + 1_000_000, 107_000_000), dtype=np.int64)
        _, beats = comb_beat(base + offsets, comb)
        beat_ok = beat_ok and int(beats.max()) <= 107_000_000 // 2
    elapsed = time.perf_counter() - t0
    _verdict(capfd, 8, exact and sigma_ok and budget_ok and beat_ok and elapsed < 30.0)


def test_criterion_09_model_agreement(capfd, tmp_path):
    doc_td = golden_doc("fig4_lock_1010_timedomain.json")
    doc_td["seed"] = 42
    doc_sp = json.loads(json.dumps(doc_td))
    doc_sp["name"] = "fig4_lock_1010_spectral"
    doc_sp["locks"][0]["fidelity"] = "spectral"
    report_td = run_golden(doc_td, tmp_path / "td")
    report_sp = run_golden(doc_sp, tmp_path / "sp")
    ratio = report_td.statistics["inloop_adev"] / report_sp.statistics["inloop_adev"]
    _verdict(capfd, 9, 0.75 <= ratio <= 1.25)


def test_criterion_10_determinism(capfd, tmp_path):
    names = ["fig3_lock_1514.json", "fig4_inloop_1010.json",
             "fig4_lock_1010_timedomain.json", "chain_afc_606.json"]
    ok = True
    for name in names:
        a = tmp_path / name / "a"
        b = tmp_path / name / "b"
        run_golden(golden_doc(name), a)
        run_golden(golden_doc(name), b)
        files = sorted(p.name for p in a.iterdir())
        # every artifact, report.json included, is a function of the config and the seed
        ok = ok and "report.json" in files and files == sorted(p.name for p in b.iterdir())
        ok = ok and all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    _verdict(capfd, 10, ok)
