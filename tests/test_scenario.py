import copy
import json
import math
import os
import tempfile
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from offsetlock import (
    ParameterError,
    RunReport,
    compare_expected,
    load_config,
    run_scenario,
    validate_config,
)
from offsetlock import scenario
from offsetlock.lockloop import closed_loop_components
from offsetlock.noisegen import OscillatorModel, noise_spec_from_profile
from offsetlock.scenario import expand_seeds

GOLDEN_NAMES = [
    "fig3_lock_1514.json",
    "fig4_inloop_1010.json",
    "fig4_lock_1010_timedomain.json",
    "chain_afc_606.json",
]


def golden_text(name):
    return (resources.files("offsetlock") / "scenarios" / name).read_text()


def small_doc():
    """Tiny drift-only scenario with an exactly predictable statistic."""
    return {
        "name": "tiny",
        "seed": 3,
        "duration_s": 16.0,
        "dt_s": 0.5,
        "oscillators": {
            "osc": {"nominal_hz": 10**14, "noise": {"drift_rate_hz_per_s": 1.0}},
        },
        "measurements": [
            {"id": "pp", "kind": "peak_to_peak", "signal": "freerun:osc", "gate_s": 1.0},
        ],
        "expectations": {"pp": [15.0, 15.0]},
    }


class TestValidateConfig:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_golden_files_validate(self, name):
        cfg, errors = validate_config(golden_text(name))
        assert errors == []
        assert cfg is not None

    def test_invalid_json_reported(self):
        cfg, errors = validate_config("{not json")
        assert cfg is None
        assert "invalid JSON" in errors[0]

    def test_unknown_oscillator_reference(self):
        doc = json.loads(golden_text("fig4_lock_1010_timedomain.json"))
        doc["locks"][0]["laser"] = "L99"
        cfg, errors = validate_config(doc)
        assert cfg is None
        assert any("locks[0].laser" in e and "L99" in e for e in errors)

    def test_bad_timing(self):
        doc = small_doc()
        doc["dt_s"] = 0
        cfg, errors = validate_config(doc)
        assert any(e.startswith("dt_s") for e in errors)

    def test_duplicate_measurement_id(self):
        doc = small_doc()
        doc["measurements"].append(dict(doc["measurements"][0]))
        cfg, errors = validate_config(doc)
        assert any("duplicate" in e for e in errors)

    def test_envelope_min_above_max(self):
        doc = small_doc()
        doc["expectations"]["pp"] = [2.0, 1.0]
        cfg, errors = validate_config(doc)
        assert any("min exceeds max" in e for e in errors)

    def test_expectation_without_statistic(self):
        doc = small_doc()
        doc["expectations"]["ghost"] = [0.0, 1.0]
        cfg, errors = validate_config(doc)
        assert any("ghost" in e for e in errors)

    def test_time_domain_cap(self):
        doc = json.loads(golden_text("fig4_lock_1010_timedomain.json"))
        doc["duration_s"] = 7200.0
        cfg, errors = validate_config(doc)
        assert any("time-domain" in e for e in errors)

    def test_gate_must_divide(self):
        doc = small_doc()
        doc["measurements"][0]["gate_s"] = 0.75
        cfg, errors = validate_config(doc)
        assert any("gate_s" in e for e in errors)

    def test_fractional_units_need_reference(self):
        doc = small_doc()
        doc["measurements"][0] = {
            "id": "a", "kind": "adev", "signal": "freerun:osc",
            "gate_s": 1.0, "units": "fractional",
        }
        doc["expectations"] = {}
        cfg, errors = validate_config(doc)
        assert any("fractional_ref" in e for e in errors)

    def test_ids_must_be_file_names(self):
        doc = json.loads(golden_text("fig4_lock_1010_timedomain.json"))
        doc["locks"][0]["id"] = "a/b"
        doc["measurements"][0]["id"] = "../escape"
        cfg, errors = validate_config(doc)
        assert any(e.startswith("locks[0].id") for e in errors)
        assert any(e.startswith("measurements[0].id") for e in errors)

    def test_malformed_signal(self):
        doc = small_doc()
        doc["measurements"][0]["signal"] = "bogus"
        cfg, errors = validate_config(doc)
        assert any("malformed signal" in e for e in errors)

    def test_spectral_bandwidth_below_nyquist(self):
        doc = json.loads(golden_text("fig3_lock_1514.json"))
        ideal = OscillatorModel(10**14)
        for bw in (256.0, 1000.0):  # Nyquist of the 1/512 s grid is 256 Hz
            doc["locks"][0]["loop_bandwidth_hz"] = bw
            cfg, errors = validate_config(doc)
            with pytest.raises(ParameterError, match="Nyquist") as exc:
                closed_loop_components(ideal, ideal, bw, doc["duration_s"], doc["dt_s"], seed=1)
            assert errors == [f"locks[0]: {exc.value}"]

    @pytest.mark.parametrize("bw", [100.0, 1e9, "abc"])
    def test_time_domain_lock_takes_servo_or_bandwidth(self, bw):
        # the gains used to win and the bandwidth, whatever its value, was never read
        doc = json.loads(golden_text("fig4_lock_1010_timedomain.json"))
        doc["locks"][0].update(servo={"ki": 5000.0}, loop_bandwidth_hz=bw)
        cfg, errors = validate_config(doc)
        assert cfg is None
        assert "locks[0]: give 'servo' or 'loop_bandwidth_hz', not both" in errors[0]
        assert ("'loop_bandwidth_hz' must be a number" in errors[0]) == isinstance(bw, str)
        del doc["locks"][0]["servo"], doc["locks"][0]["loop_bandwidth_hz"]
        cfg, errors = validate_config(doc)
        assert errors == ["locks[0]: missing required key 'servo' or 'loop_bandwidth_hz'"]

    @pytest.mark.parametrize("name, path, value, message", [
        # 5 and 50 MHz both sit outside the 9.89 MHz capture half-range of the
        # 29.68 MHz lock point that 30 MHz selects
        pytest.param("fig3_lock_1514.json", ("locks", 0, "f_lock_hz"), 5e6, "capture",
                     id="f_lock-5MHz"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "f_lock_hz"), 50e6, "capture",
                     id="f_lock-50MHz"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "f_lock_hz"), 1e24,
                     "no lock point can be resolved", id="f_lock-beyond-float-resolution"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "servo"), {"ki": 1.0},
                     "time-domain fidelity only", id="servo-on-spectral"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 1e-5, "ramp_K_per_s": 0.01},
                     "time-domain fidelity only", id="thermal-on-spectral"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010", "nominal_hz"),
                     1.5e14 + 0.7, "exact integer", id="fractional-nominal_hz"),
        pytest.param("fig4_lock_1010_timedomain.json", ("combs", "comb_gps", "f_rep_hz"),
                     107000000.5, "exact integer", id="fractional-f_rep_hz"),
        pytest.param("fig4_lock_1010_timedomain.json", ("combs", "comb_gps", "f_ceo_hz"),
                     20000000.5, "exact integer", id="fractional-f_ceo_hz"),
        pytest.param("fig4_lock_1010_timedomain.json", ("seed",), True, "seed",
                     id="boolean-seed"),
        # each top-level key is typed; the parent's hand-written checks gave other words,
        # so these cases match the key alone
        pytest.param("chain_afc_606.json", ("name",), 7, "name", id="number-name"),
        pytest.param("chain_afc_606.json", ("name",), "", "name", id="empty-name"),
        pytest.param("chain_afc_606.json", ("seed",), 1.5, "seed", id="fractional-seed"),
        pytest.param("chain_afc_606.json", ("duration_s",), "3600", "duration_s",
                     id="string-duration"),
        pytest.param("chain_afc_606.json", ("dt_s",), None, "dt_s", id="null-dt"),
        # run writes to <root>/<name>: these names used to write outside the output root
        pytest.param("chain_afc_606.json", ("name",), "/abs/path",
                     "name: must be a string usable as a directory name",
                     id="absolute-name"),
        pytest.param("chain_afc_606.json", ("name",), "../up",
                     "name: must be a string usable as a directory name",
                     id="parent-relative-name"),
        pytest.param("chain_afc_606.json", ("name",), "a/b",
                     "name: must be a string usable as a directory name",
                     id="nested-name"),
        pytest.param("chain_afc_606.json", ("name",), "..",
                     "name: must be a string usable as a directory name",
                     id="parent-directory-name"),
        # a NUL byte passed the file-name rules, and the first write raised ValueError
        pytest.param("chain_afc_606.json", ("name",), "a\0b",
                     "name: must be a string usable as a directory name", id="nul-name"),
        pytest.param("fig4_inloop_1010.json", ("locks", 0, "id"), "lock\0",
                     "locks[0].id: must be a string usable as a file name", id="nul-lock-id"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "id"), "pp\0",
                     "measurements[0].id: required non-empty string usable as a file name",
                     id="nul-measurement-id"),
        # 2.00049 s is 20004.9 samples of 0.1 ms; it used to run as 20005
        pytest.param("fig4_lock_1010_timedomain.json", ("duration_s",), 2.00049,
                     "multiple of dt_s", id="duration-off-sample-grid"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "servo"),
                     {"ki": 1.0, "k_i": 2.0}, "k_i", id="misspelled-servo-key"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "servo"),
                     {"ki": 1.0, "update_dt_s": 5e-5}, "must not exceed",
                     id="servo-update-below-dt"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "servo"),
                     {"ki": 1.0, "update_dt_s": 0.00015}, "integer multiple",
                     id="servo-update-not-dt-multiple"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "servo"), {"ki": 1e13},
                     "1/(10 dt)", id="servo-gain-above-guard"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "servo"),
                     {"ki": float("nan")}, "locks[0].servo: 'ki' must be a number",
                     id="servo-gain-nan"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 1e-5, "times_s": [0.0, 30.0, 60.0], "temps_K": [0.0, 1.0]},
                     "equal length", id="thermal-length-mismatch"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 1e-5, "times_s": [0.0, 60.0, 30.0],
                      "temps_K": [0.0, 1.0, 2.0]},
                     "strictly increasing", id="thermal-times-decreasing"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 1e-5, "times_s": [], "temps_K": []},
                     "non-empty", id="thermal-empty"),
        # 1 + tempco * dT must stay positive, or the delay line has zero or negative length
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 5e-3, "times_s": [0.0, 2.0], "temps_K": [0.0, -300.0]},
                     "zero or below", id="thermal-sampled-delay-collapse"),
        # a ramp is checked where the run ends, by the delay_at that the servo loop calls
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 5e-3, "ramp_K_per_s": -5.0},
                     "s at t=60.0 s is not positive", id="thermal-ramp-delay-collapse"),
        # a bandwidth or lock point <= 0 is reported by the lockloop function it would reach
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "loop_bandwidth_hz"), 0,
                     "locks[0]: loop_bandwidth_hz 0.0 must be > 0", id="zero-servo-bandwidth"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "loop_bandwidth_hz"), -5.0,
                     "locks[0]: loop_bandwidth_hz -5.0 must be > 0", id="negative-servo-bandwidth"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "loop_bandwidth_hz"), 0,
                     "locks[0]: loop_bandwidth_hz 0.0 must lie in (0, Nyquist",
                     id="zero-spectral-bandwidth"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "f_lock_hz"), 0,
                     "locks[0]: f_lock_hz 0.0: no passband lock point", id="zero-f-lock"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "f_lock_hz"), -30e6,
                     "locks[0]: f_lock_hz -30000000.0: no passband lock point",
                     id="negative-f-lock"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "f_lock_hz"), "30e6",
                     "locks[0]: 'f_lock_hz' must be a number", id="string-f-lock"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "loop_bandwidth_hz"), None,
                     "locks[0]: 'loop_bandwidth_hz' must be a number", id="null-servo-bandwidth"),
        # a null servo or thermal block is a given key, not an absent one
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "servo"), None,
                     "locks[0].servo: must be a JSON object", id="null-servo"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"), None,
                     "locks[0].thermal: must be a JSON object", id="null-thermal"),
        pytest.param("fig3_lock_1514.json", ("locks", 0, "thermal"), None,
                     "locks[0].thermal: applies to time-domain fidelity only",
                     id="null-thermal-on-spectral"),
        # NaN and the infinities are JSON numbers to Python's parser, but no model takes them
        pytest.param("fig4_lock_1010_timedomain.json",
                     ("locks", 0, "discriminator", "noise_v2_per_hz"), float("inf"),
                     "locks[0].discriminator: 'noise_v2_per_hz' must be a number",
                     id="infinite-noise_v2_per_hz"),
        pytest.param("fig4_lock_1010_timedomain.json",
                     ("locks", 0, "discriminator", "amplitude_v"), float("nan"),
                     "locks[0].discriminator: 'amplitude_v' must be a number", id="nan-amplitude_v"),
        pytest.param("fig4_lock_1010_timedomain.json",
                     ("locks", 0, "discriminator", "cable_m"), float("nan"),
                     "locks[0].discriminator: 'cable_m' must be a number", id="nan-cable_m"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": float("nan"), "ramp_K_per_s": 0.01},
                     "locks[0].thermal: 'tempco_per_K' must be a number", id="nan-tempco_per_K"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "f_lock_hz"), float("-inf"),
                     "locks[0]: 'f_lock_hz' must be a number", id="infinite-f-lock"),
        pytest.param("chain_afc_606.json", ("chain", "sources", "laser1514", "nominal_hz"),
                     198000019000000.7, "exact integer", id="fractional-chain-nominal_hz"),
        pytest.param("chain_afc_606.json", ("chain", "afc", "center_hz"),
                     495000076000000.5, "exact integer", id="fractional-afc-center_hz"),
        # unknown keys used to be ignored: the misspelled linewidth gave a noiseless laser,
        # and the misspelled fidelity a spectral lock
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010", "linewidht_hz"),
                     40000.0, "oscillators.laser1010: unknown key 'linewidht_hz'",
                     id="misspelled-oscillator-key"),
        pytest.param("fig4_lock_1010_timedomain.json", ("expectation",), {"inloop_adev": [0, 1]},
                     "$: unknown key 'expectation'", id="misspelled-top-level-key"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "fidelty"), "time-domain",
                     "locks[0]: unknown key 'fidelty'", id="misspelled-lock-key"),
        pytest.param("fig4_lock_1010_timedomain.json", ("measurements", 0, "estimater"),
                     "non-overlapping", "measurements[0]: unknown key 'estimater'",
                     id="misspelled-measurement-key"),
        pytest.param("fig4_lock_1010_timedomain.json", ("combs", "comb_gps", "f_ceo"), 0,
                     "combs.comb_gps: unknown key 'f_ceo'", id="misspelled-comb-key"),
        pytest.param("chain_afc_606.json", ("chain", "sources", "laser1514", "sigma_abs"), 1.0,
                     "sources.laser1514: unknown key 'sigma_abs'", id="misspelled-chain-source-key"),
        # used to be truncated to -1, and coerced to 2.0 and 1.0
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "discriminator", "sign"), -1.5,
                     "locks[0].discriminator: sign must be an exact integer", id="fractional-sign"),
        pytest.param("fig4_lock_1010_timedomain.json",
                     ("locks", 0, "discriminator", "amplitude_v"), "2",
                     "locks[0].discriminator: 'amplitude_v' must be a number",
                     id="string-amplitude_v"),
        pytest.param("fig4_lock_1010_timedomain.json",
                     ("locks", 0, "discriminator", "amplitude_v"), True,
                     "locks[0].discriminator: 'amplitude_v' must be a number",
                     id="boolean-amplitude_v"),
        # both forms of an either/or pair: one of them used to be dropped
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010", "noise"),
                     {"h": {"0": 1.0}}, "oscillators.laser1010: give 'noise' or 'linewidth_hz'",
                     id="noise-and-linewidth"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "discriminator", "delay_s"),
                     25e-9, "locks[0].discriminator: give 'delay_s' or 'cable_m'",
                     id="delay-and-cable"),
        # a key of one form next to the other form, or half of a form
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "discriminator"),
                     {"delay_s": 25e-9, "velocity_factor": 0.66},
                     "locks[0].discriminator: 'velocity_factor' is valid only with 'cable_m'",
                     id="velocity-factor-with-delay"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "noise": {"h": {"0": 1e4}},
                      "drift_rate_hz_per_s": 500.0},
                     "oscillators.laser1010: 'drift_rate_hz_per_s' is valid only with 'linewidth_hz'",
                     id="drift-with-noise"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 1e-5, "times_s": [0.0, 60.0]},
                     "locks[0].thermal: 'times_s' is valid only with 'temps_K'",
                     id="thermal-times-without-temps"),
        # values inside lists and maps used to be coerced with float(): "1" and true read as 1.0
        pytest.param("fig4_lock_1010_timedomain.json", ("combs", "comb_gps", "adev_profile"),
                     [["1", "3.4e-12"], [263.0, 7.2e-12]],
                     "combs.comb_gps: adev_profile taus and sigmas must be finite numbers",
                     id="string-adev_profile-pair"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "noise": {"h": {"0": "12732.4"}}},
                     "oscillators.laser1010: h_0 must be a finite number >= 0, got '12732.4'",
                     id="string-noise-h"),
        # noise h keys used to go through int(): "00" and "+0" both read as 0 and the later
        # one replaced the earlier; 0.5 read as 0 and True as 1
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "noise": {"h": {"00": 12732.4, "+0": 1.0}}},
                     "oscillators.laser1010: PSD exponent '00' must be an integer",
                     id="non-canonical-noise-h-keys"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "noise": {"h": {0.5: 1.0}}},
                     "oscillators.laser1010: PSD exponent 0.5 must be an integer",
                     id="fractional-noise-h-key"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "noise": {"h": {True: 1.0}}},
                     "oscillators.laser1010: PSD exponent True must be an integer",
                     id="boolean-noise-h-key"),
        pytest.param("fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"),
                     {"tempco_per_K": 1e-5, "times_s": ["0", "60"], "temps_K": [True, "1"]},
                     "locks[0].thermal: times_s and temps_K must hold finite numbers only",
                     id="string-and-boolean-thermal-samples"),
        # each kind of measurement used to accept, and then drop, the keys of the other kinds
        pytest.param("fig4_inloop_1010.json", ("measurements", 2, "window_s"), 1.0,
                     "measurements[2]: unknown key 'window_s'", id="window-s-on-adev"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 2, "baseline"), "freerun:laser1010",
                     "measurements[2]: unknown key 'baseline'", id="baseline-on-adev"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "estimator"), "non-overlapping",
                     "measurements[0]: unknown key 'estimator'", id="estimator-on-peak-to-peak"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "units"), "fractional",
                     "measurements[0]: unknown key 'units'", id="units-on-peak-to-peak"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "pick_tau_s"), 1.0,
                     "measurements[0]: unknown key 'pick_tau_s'", id="pick-tau-s-on-peak-to-peak"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "taus_s"), "octave",
                     "measurements[0]: unknown key 'taus_s'", id="taus-s-on-peak-to-peak"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 3, "units"), "hz",
                     "measurements[3]: unknown key 'units'", id="units-on-adev-ratio-max"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 3, "fractional_ref"), "laser1010",
                     "measurements[3]: unknown key 'fractional_ref'",
                     id="fractional-ref-on-adev-ratio-max"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 3, "pick_tau_s"), 1.0,
                     "measurements[3]: unknown key 'pick_tau_s'", id="pick-tau-s-on-adev-ratio-max"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 3, "window_s"), 1.0,
                     "measurements[3]: unknown key 'window_s'", id="window-s-on-adev-ratio-max"),
        pytest.param("fig3_lock_1514.json", ("measurements", 2, "fractional_ref"), "laser1514",
                     "measurements[2].fractional_ref: valid only with units 'fractional'",
                     id="fractional-ref-with-hz-units"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "kind"), [],
                     "measurements[0].kind: must be one of", id="list-measurement-kind"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "kind"), {},
                     "measurements[0].kind: must be one of", id="object-measurement-kind"),
        pytest.param("fig4_inloop_1010.json", ("measurements", 0, "kind"), 3,
                     "measurements[0].kind: must be one of", id="number-measurement-kind"),
        # an oscillator's adev_profile used to override its other noise form, which was dropped
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010", "adev_profile"),
                     [[1.0, 3.4e-12], [263.0, 7.2e-12]],
                     "oscillators.laser1010: give 'linewidth_hz' or 'adev_profile', not both",
                     id="linewidth-and-adev-profile"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "noise": {"h": {"0": 1e4}},
                      "adev_profile": [[1.0, 3.4e-12], [263.0, 7.2e-12]]},
                     "oscillators.laser1010: give 'noise' or 'adev_profile', not both",
                     id="noise-and-adev-profile"),
        # and a comb's adev_profile overrode its reference_noise
        pytest.param("fig4_lock_1010_timedomain.json", ("combs", "comb_gps", "reference_noise"),
                     {"h": {"0": 1e-24}},
                     "combs.comb_gps: give 'reference_noise' or 'adev_profile', not both",
                     id="reference-noise-and-adev-profile"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": "297 THz", "adev_profile": [[1.0, 3.4e-12], [263.0, 7.2e-12]]},
                     "oscillators.laser1010: nominal_hz must be an exact integer",
                     id="string-carrier-with-adev-profile"),
        # a profile tau of zero or below dropped out of the decomposition, a sigma whose square
        # underflows gave a noiseless oscillator, and one whose square overflows broke the fit
        pytest.param("fig3_lock_1514.json", ("combs", "comb_narrow", "adev_profile"),
                     [[0.0, 1e-12], [2.0, 1e-12]],
                     "combs.comb_narrow: adev_profile taus must be > 0", id="zero-tau-comb-profile"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "adev_profile": [[-1.0, 1e-12], [2.0, 1e-12]]},
                     "oscillators.laser1010: adev_profile taus must be > 0",
                     id="negative-tau-oscillator-profile"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000, "adev_profile": [[1.0, 1e200], [2.0, 1e-12]]},
                     "oscillators.laser1010: adev_profile sigmas must be > 0 with a finite",
                     id="overflowing-sigma-oscillator-profile"),
        pytest.param("fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
                     {"nominal_hz": 297000057000000,
                      "adev_profile": [[1.0, 1e-200], [2.0, 1e-200]]},
                     "oscillators.laser1010: adev_profile sigmas must be > 0 with a finite",
                     id="underflowing-sigma-oscillator-profile"),
        pytest.param("fig3_lock_1514.json", ("combs", "comb_narrow", "adev_profile"),
                     [[1.0, 1e-200], [2.0, 1e-200]],
                     "combs.comb_narrow: adev_profile sigmas must be > 0 with a finite",
                     id="underflowing-sigma-comb-profile"),
        # the measurement rules, which validate_config takes from metrology: each case
        # matches words of the rule it breaks
        pytest.param("fig4_lock_1010_timedomain.json", ("measurements", 0, "gate_s"), 120.0,
                     "multiple of dt_s, from 2*dt_s up to", id="gate-longer-than-run"),
        pytest.param("fig4_lock_1010_timedomain.json", ("measurements", 0, "taus_s"), [1.0, 1.5],
                     "multiples of gate_s", id="tau-not-gate-multiple"),
        pytest.param("fig4_lock_1010_timedomain.json", ("measurements", 0, "taus_s"), [32.0, 64.0],
                     "measurements[0].taus_s: no tau fits twice into the series",
                     id="no-tau-fits-twice"),
        pytest.param("fig3_lock_1514.json", ("measurements", 0, "window_s"), 7200.0,
                     "a multiple of gate_s within the", id="window-beyond-run"),
        pytest.param("fig4_lock_1010_timedomain.json", ("measurements", 0, "pick_tau_s"), 3.0,
                     "a tau of the grid that fits twice", id="pick-tau-off-grid"),
        pytest.param("fig4_lock_1010_timedomain.json", ("measurements", 0, "gate_s"), True,
                     "gate_s", id="boolean-gate-s"),
        pytest.param("fig3_lock_1514.json", ("measurements", 0, "window_s"), True,
                     "window_s", id="boolean-window-s"),
        pytest.param("fig4_lock_1010_timedomain.json", ("measurements", 0, "pick_tau_s"), True,
                     "pick_tau_s", id="boolean-pick-tau-s"),
        # null is not a number; it used to read as an absent window (the whole series)
        pytest.param("fig3_lock_1514.json", ("measurements", 0, "window_s"), None,
                     "measurements[0]: 'window_s' must be a number", id="null-window-s"),
    ])
    def test_rejects_silently_altered_input(self, name, path, value, message):
        doc = json.loads(golden_text(name))
        *parents, key = path
        target = doc
        for k in parents:
            target = target[k]
        target[key] = value
        if key == "servo" and target.get("fidelity") == "time-domain":
            del target["loop_bandwidth_hz"]  # the gains are given instead of a bandwidth
        cfg, errors = validate_config(doc)
        assert cfg is None
        assert any(message in e for e in errors), errors

    def test_long_run_validates_in_constant_time(self):
        # the measurement rules take the run's sizes, not a trace of its length: 2**40 s of
        # 1/512 s samples is 5.6e14 samples
        doc = json.loads(golden_text("fig3_lock_1514.json"))
        doc["duration_s"] = 2.0**40
        cfg, errors = validate_config(doc)
        assert errors == []
        assert cfg.duration_s == 2.0**40

    def test_missing_cable_named(self):
        doc = json.loads(golden_text("fig4_lock_1010_timedomain.json"))
        del doc["locks"][0]["discriminator"]["cable_m"]
        del doc["locks"][0]["discriminator"]["velocity_factor"]
        cfg, errors = validate_config(doc)
        assert cfg is None
        assert errors == ["locks[0].discriminator: missing required key 'delay_s' or 'cable_m'"]

    def test_noiseless_ratio_baseline_rejected(self):
        doc = small_doc()
        doc["oscillators"]["ideal"] = {"nominal_hz": 10**14}
        doc["measurements"].append({"id": "r", "kind": "adev_ratio_max",
                                    "signal": "freerun:osc", "baseline": "freerun:ideal"})
        cfg, errors = validate_config(doc)
        assert cfg is None
        assert any(e.startswith("measurements[1].baseline:") and "'ideal'" in e for e in errors)

    def test_all_errors_reported_at_once(self):
        doc = small_doc()
        doc["dt_s"] = 0
        doc["expectations"]["ghost"] = [0.0, 1.0]
        cfg, errors = validate_config(doc)
        assert len(errors) >= 2


class TestRunScenario:
    def test_exact_drift_statistic_and_closed_interval(self, tmp_path):
        cfg, errors = validate_config(small_doc())
        assert not errors
        report = run_scenario(cfg, tmp_path / "out")
        assert report.statistics["pp"] == 15.0
        assert report.verdicts["pp"] is True  # endpoint of the envelope passes
        assert report.overall_pass

    def test_manifest_complete(self, tmp_path):
        cfg, _ = validate_config(small_doc())
        out = tmp_path / "out"
        report = run_scenario(cfg, out)
        written = sorted(p.name for p in out.iterdir())
        assert sorted(report.manifest) == written

    def test_report_json_round_trip(self, tmp_path):
        cfg, _ = validate_config(small_doc())
        report = run_scenario(cfg, tmp_path / "out")
        with open(tmp_path / "out" / "report.json") as fh:
            back = RunReport(**json.load(fh))
        assert back.statistics == report.statistics
        assert back.overall_pass == report.overall_pass

    def test_unchecked_flag_when_no_expectations(self, tmp_path):
        doc = small_doc()
        doc["expectations"] = {}
        cfg, _ = validate_config(doc)
        report = run_scenario(cfg, tmp_path / "out")
        assert report.unchecked
        assert report.overall_pass

    def test_deterministic_artifacts(self, tmp_path):
        cfg, _ = validate_config(small_doc())
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for p in sorted((tmp_path / "a").iterdir()):
            if p.suffix == ".csv":
                assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        cfg, _ = validate_config(small_doc())
        with pytest.raises(ParameterError):
            run_scenario(cfg, blocker / "sub")

    def test_each_counted_signal_counted_once(self, tmp_path, monkeypatch):
        doc = small_doc()
        doc["measurements"] += [
            {"id": "a", "kind": "adev", "signal": "freerun:osc", "pick_tau_s": 1.0},
            {"id": "r", "kind": "adev_ratio_max", "signal": "freerun:osc",
             "baseline": "freerun:osc"},
        ]
        cfg, errors = validate_config(doc)
        assert not errors
        calls = []
        real_count = scenario.count
        monkeypatch.setattr(scenario, "count", lambda *a: calls.append(a) or real_count(*a))
        report = run_scenario(cfg, tmp_path / "out")
        assert report.statistics["r"] == 1.0
        assert len(calls) == 4  # pp, a, and r's signal and baseline

    def test_profile_oscillator_as_ratio_baseline(self, tmp_path):
        # no golden has a profile-form oscillator: its profile becomes its noise when parsed
        profile = [[1.0, 1e-12], [4.0, 5e-13]]
        doc = small_doc()
        doc["oscillators"]["ref"] = {"nominal_hz": 10**14, "adev_profile": profile}
        doc["measurements"].append({"id": "r", "kind": "adev_ratio_max",
                                    "signal": "freerun:osc", "baseline": "freerun:ref"})
        cfg, errors = validate_config(doc)
        assert errors == []
        assert cfg.oscillators["ref"].noise == noise_spec_from_profile(profile, 10**14)
        report = run_scenario(cfg, str(tmp_path))
        assert report.statistics["r"] > 0.0 and "r_series.csv" in report.manifest

    def test_failing_envelope(self, tmp_path):
        doc = small_doc()
        doc["expectations"]["pp"] = [0.0, 1.0]
        cfg, _ = validate_config(doc)
        report = run_scenario(cfg, tmp_path / "out")
        assert not report.overall_pass
        assert report.verdicts["pp"] is False


class TestCompareExpected:
    def test_pass_exit_zero(self, tmp_path):
        cfg, _ = validate_config(small_doc())
        report = run_scenario(cfg, tmp_path / "out")
        code, verdict = compare_expected(report)
        assert code == 0
        assert verdict["failed"] == []

    def test_fail_names_statistic(self, tmp_path):
        doc = small_doc()
        doc["expectations"]["pp"] = [0.0, 1.0]
        cfg, _ = validate_config(doc)
        report = run_scenario(cfg, tmp_path / "out")
        code, verdict = compare_expected(report)
        assert code == 1
        assert verdict["failed"] == ["pp"]

    def test_unchecked_passes(self, tmp_path):
        doc = small_doc()
        doc["expectations"] = {}
        cfg, _ = validate_config(doc)
        report = run_scenario(cfg, tmp_path / "out")
        code, verdict = compare_expected(report)
        assert code == 0
        assert verdict["unchecked"]


class TestLoadConfigAndSeeds:
    def test_load_config_raises_on_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "duration_s": -1, "dt_s": 1}')
        with pytest.raises(ParameterError):
            load_config(path)

    def test_expand_seeds(self):
        cfg, _ = validate_config(small_doc())
        cfgs = expand_seeds(cfg, 3)
        assert [c.seed for c in cfgs] == [3, 4, 5]
        assert [c.name for c in cfgs] == ["tiny_seed3", "tiny_seed4", "tiny_seed5"]
        assert [(c.raw["seed"], c.raw["name"]) for c in cfgs] == [
            (c.seed, c.name) for c in cfgs]

    def test_expand_seeds_invalid(self):
        cfg, _ = validate_config(small_doc())
        with pytest.raises(ParameterError):
            expand_seeds(cfg, 0)


class TestGoldenChainScenario:
    def test_chain_statistics(self, tmp_path):
        cfg, _ = validate_config(golden_text("chain_afc_606.json"))
        report = run_scenario(cfg, tmp_path / "out")
        assert report.overall_pass
        assert report.statistics["chain_nominal_hz"] == 495_000_076_000_000
        assert report.statistics["chain_sigma_abs_hz"] == pytest.approx(1226.4, rel=1e-3)
        assert (tmp_path / "out" / "chain_budget.json").exists()


# ---------------------------------------------------------------------------
# Properties: validation never raises, and a config that validates runs.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12,
)


def _subtree_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _subtree_paths(child, prefix + (key,))


@st.composite
def mutated_goldens(draw):
    """A golden scenario with 1-3 random subtrees replaced by random JSON."""
    doc = json.loads(golden_text(draw(st.sampled_from(GOLDEN_NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(list(_subtree_paths(doc))))
        target = doc
        for k in parents:
            target = target[k]
        target[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON_VALUES, mutated_goldens()))
def test_validate_config_never_raises(doc):
    cfg, errors = validate_config(doc)
    if cfg is None:
        assert errors and all(isinstance(e, str) for e in errors)
    else:
        assert errors == []


@st.composite
def tiny_drift_configs(draw):
    """A drift-only scenario of at most 32 samples with one random measurement."""
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
    duration = dt * draw(st.integers(2, 32))
    number = st.one_of(st.integers(0, 40).map(lambda k: k * dt / 2), st.floats(-1.0, 40.0),
                       st.booleans(), st.sampled_from(["1", "octave", None]))
    kind = draw(st.sampled_from(["peak_to_peak", "adev", "adev_ratio_max"]))
    md = {"id": "m", "kind": kind, "signal": "freerun:osc"}
    if kind == "adev_ratio_max":
        md["baseline"] = "freerun:ref"
    # only the keys this kind reads: any other key is rejected
    for key, values, kinds in (("gate_s", number, (kind,)),
                               ("estimator", st.sampled_from(["overlapping", "non-overlapping"]),
                                ("adev", "adev_ratio_max")),
                               ("pick_tau_s", number, ("adev",)),
                               ("window_s", number, ("peak_to_peak",)),
                               ("taus_s", number | st.lists(number, max_size=4),
                                ("adev", "adev_ratio_max"))):
        if kind in kinds and draw(st.booleans()):
            md[key] = draw(values)
    drift = {"noise": {"drift_rate_hz_per_s": 1.0}}
    return {
        "name": "tiny", "seed": 1, "duration_s": duration, "dt_s": dt,
        "oscillators": {"osc": dict(drift, nominal_hz=10**14),
                        "ref": dict(drift, nominal_hz=2 * 10**14)},
        "measurements": [md],
    }


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tiny_drift_configs())
def test_validated_config_runs_to_a_report(doc):
    cfg, errors = validate_config(doc)
    if errors:
        return
    with tempfile.TemporaryDirectory() as out:
        report = run_scenario(cfg, out)
        assert sorted(report.manifest) == sorted(os.listdir(out))


def _mostly(values):
    """A draw from ``values`` nine times in ten, else any JSON value (NaN and infinities too)."""
    return st.sampled_from([values] * 9 + [JSON_VALUES]).flatmap(lambda s: s)


@st.composite
def tiny_lock_configs(draw):
    """One lock of 20-40 samples on ideal oscillators, its keys drawn mostly from values near
    the rules' edges and otherwise from any JSON value, NaN and the infinities included."""
    dt = 1e-4
    timed = draw(st.booleans())
    gain = _mostly(st.sampled_from([0.0, 1e5, 4e9, 1e13]))
    servo = st.fixed_dictionaries({"ki": gain}, optional={
        "kp": gain, "update_dt_s": _mostly(st.sampled_from([1e-3, 2e-4, 1.5e-4, 5e-5])),
        "actuator_limit_hz": _mostly(st.sampled_from([1.0, 50e6]))})
    profile = (st.fixed_dictionaries({"ramp_K_per_s": _mostly(st.sampled_from([0.01, -1e6]))})
               | st.fixed_dictionaries({"times_s": _mostly(st.just([0.0, 1.0])), "temps_K": _mostly(
                   st.sampled_from([[0.0, -300.0], [0.0, 1.0]]))}))
    thermal = st.tuples(_mostly(st.sampled_from([0.0, 1e-5, 5e-3])), profile).map(
        lambda t: dict(t[1], tempco_per_K=t[0]))
    values = {"f_lock_hz": st.sampled_from([30e6, 29.5e6, 20e6, 0.0, -30e6]),
              "loop_bandwidth_hz": st.sampled_from([100.0, 999.0, 4999.0, 5000.0, 0.0]),
              "servo": servo, "thermal": thermal}
    if timed:  # one of servo and loop_bandwidth_hz, or (rejected) both or neither
        given = draw(st.sampled_from([["servo"], ["loop_bandwidth_hz"]] * 4
                                     + [["servo", "loop_bandwidth_hz"], []]))
        given += ["thermal"] if draw(st.booleans()) else []
    else:  # servo and thermal are rejected
        given = ["loop_bandwidth_hz"] + draw(st.sampled_from([[]] * 8 + [["servo"], ["thermal"]]))
    lock = {"id": "L", "laser": "laser", "comb": "comb", "discriminator": {"cable_m": 5.0},
            "fidelity": "time-domain" if timed else "spectral"}
    lock.update({key: draw(_mostly(values[key])) for key in ["f_lock_hz"] + given})
    return {
        "name": "tiny", "seed": 1, "duration_s": dt * draw(st.integers(20, 40)), "dt_s": dt,
        "oscillators": {"laser": {"nominal_hz": 297000057000000}},
        "combs": {"comb": {"f_rep_hz": 107000000, "f_ceo_hz": 20000000}},
        "locks": [lock],
        "measurements": [{"id": "pp", "kind": "peak_to_peak", "signal": "inloop:L",
                          "gate_s": 2 * dt}],
    }


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tiny_lock_configs())
def test_validated_lock_runs_to_a_report(doc):
    cfg, errors = validate_config(doc)
    if cfg is None:
        assert errors and all(isinstance(e, str) for e in errors)
        return
    with tempfile.TemporaryDirectory() as out:
        report = run_scenario(cfg, out)
        assert sorted(report.manifest) == sorted(os.listdir(out))
        assert math.isfinite(report.statistics["pp"])
