import json
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from offsetlock import CounterSeries
from offsetlock.cli import main
from offsetlock.metrology import write_series_csv

from conftest import LOCKRUN_FILES, read_allan_csv, read_trace_csv, run_python


@pytest.fixture
def runner():
    return CliRunner()


def golden_path(name):
    return str(resources.files("offsetlock") / "scenarios" / name)


class TestSynth:
    def test_writes_trace(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"h": {"0": 2.0}, "drift_rate_hz_per_s": 1.0}))
        out = tmp_path / "trace.csv"
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--duration", "8", "--dt", "0.5",
                                      "--seed", "7", "--nominal-hz", "1000",
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        trace = read_trace_csv(out)
        assert len(trace) == 16
        assert trace.nominal_hz == 1000
        assert trace.seed == 7


class TestAdev:
    def _series_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        series = CounterSeries(nominal_hz=30_000_000, gate_s=1.0,
                               readings=rng.normal(size=64))
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        return path

    def test_stdout_listing(self, runner, tmp_path):
        path = self._series_csv(tmp_path)
        result = runner.invoke(main, ["adev", str(path), "--taus", "1,2,4"])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "tau_s,sigma,units,n_pairs"
        assert len(lines) == 4

    def test_output_file_and_fractional(self, runner, tmp_path):
        path = self._series_csv(tmp_path)
        out = tmp_path / "adev.csv"
        result = runner.invoke(main, ["adev", str(path), "--taus", "1,2",
                                      "--fractional", "30000000", "-o", str(out)])
        assert result.exit_code == 0, result.output
        taus, _, units, _ = read_allan_csv(out)
        assert units == ("fractional", "fractional")
        assert taus.size == 2

    def test_nonoverlapping_flag(self, runner, tmp_path):
        path = self._series_csv(tmp_path)
        a = runner.invoke(main, ["adev", str(path), "--taus", "2"])
        b = runner.invoke(main, ["adev", str(path), "--taus", "2", "--nonoverlapping"])
        assert a.output != b.output

    def test_octave_default(self, runner, tmp_path):
        path = self._series_csv(tmp_path)
        result = runner.invoke(main, ["adev", str(path)])
        assert result.exit_code == 0
        # octave grid up to span/4 = 16 s: 1, 2, 4, 8, 16
        assert len(result.output.strip().splitlines()) == 6


class TestChainCommand:
    DOC = {
        "sources": {
            "a": {"nominal_hz": 198_000_000_000_000, "sigma_abs_hz": 710.0},
            "b": {"nominal_hz": 297_000_000_000_000, "sigma_abs_hz": 1000.0},
        },
        "operations": [{"op": "sfg", "in": ["a", "b"], "out": "c"}],
        "afc": {"center_hz": 495_000_000_000_000, "width_hz": 4e6,
                "stability_target_hz": 1e5},
        "budget_node": "c",
    }

    def test_passing_budget_exit_zero(self, runner, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self.DOC))
        result = runner.invoke(main, ["chain", str(path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["budget"]["stability_pass"]

    def test_failing_budget_exit_one(self, runner, tmp_path):
        doc = json.loads(json.dumps(self.DOC))
        doc["sources"]["a"]["sigma_abs_hz"] = 5e5
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["chain", str(path)])
        assert result.exit_code == 1

    def test_output_file(self, runner, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self.DOC))
        out = tmp_path / "budget.json"
        result = runner.invoke(main, ["chain", str(path), "-o", str(out)])
        assert result.exit_code == 0
        assert "budget" in json.loads(out.read_text())


class TestRunCommand:
    def test_golden_chain_scenario(self, runner, tmp_path):
        result = runner.invoke(main, ["run", golden_path("chain_afc_606.json"),
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        verdict = json.loads(result.output)
        assert verdict["overall_pass"]

    def test_invalid_config_exit_two(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "duration_s": 1.0, "dt_s": 0.5,
                                    "locks": [{"id": "l", "laser": "nope", "comb": "nope",
                                               "f_lock_hz": 1.0}]}))
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_extreme_comb_profile_runs_to_a_verdict(self, tmp_path):
        # The profile passes validation, but scipy's nnls, which used to fit it, died with
        # SIGSEGV; in a fresh process a crash fails this test, not the session.  The exact fit
        # is flicker FM alone, a finite h_-1 of 1.1e294 Hz^2/Hz at the comb line, so the run
        # ends in an envelope failure.
        doc = json.loads((resources.files("offsetlock") / "scenarios"
                          / "fig3_lock_1514.json").read_text())
        doc["combs"]["comb_narrow"]["adev_profile"] = [
            [1.7613675502242292e-195, 9.30571501351394e-52],
            [6.157066705634049e-104, 1.2686142013793315e+133],
            [4.9336747762105416e-83, 6.158886544606135e-91],
            [7.571640409386293e+104, 4488.459918398783]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        proc = run_python("-m", "offsetlock.cli", "run", str(path), "-o", str(tmp_path / "out"))
        assert (proc.returncode, proc.stderr) == (1, "")
        assert json.loads(proc.stdout)["failed"] == ["outofloop_adev"]

    def test_invalid_json_exit_two(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "invalid JSON" in result.stderr
        assert result.stdout == ""

    def test_unwritable_out_dir_exit_two(self, runner, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        result = runner.invoke(main, ["run", golden_path("chain_afc_606.json"),
                                      "-o", str(blocker / "sub")])
        assert result.exit_code == 2
        assert "not writable" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("seed, n_seeds", [(1.7, "2"), (1, "0")])
    def test_bad_seeds_exit_two(self, runner, tmp_path, seed, n_seeds):
        doc = json.loads((resources.files("offsetlock") / "scenarios"
                          / "chain_afc_606.json").read_text())
        doc["seed"] = seed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out"),
                                      "--seeds", n_seeds])
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

    def test_seeds_expansion(self, runner, tmp_path):
        doc = {
            "name": "tiny", "seed": 1, "duration_s": 8.0, "dt_s": 0.5,
            "oscillators": {"osc": {"nominal_hz": 1000,
                                    "noise": {"drift_rate_hz_per_s": 1.0}}},
            "measurements": [{"id": "pp", "kind": "peak_to_peak",
                              "signal": "freerun:osc", "gate_s": 1.0}],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", str(path), "-o", str(tmp_path / "out"),
                                      "--seeds", "2"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "tiny_seed1").is_dir()
        assert (tmp_path / "out" / "tiny_seed2").is_dir()
        echo = json.loads((tmp_path / "out" / "tiny_seed2" / "report.json").read_text())
        assert echo["config_echo"]["seed"] == 2
        assert echo["config_echo"]["name"] == "tiny_seed2"

    def test_out_dir_env_var(self, runner, tmp_path):
        result = runner.invoke(main, ["run", golden_path("chain_afc_606.json")],
                               env={"OLS_OUT_DIR": str(tmp_path / "envroot")})
        assert result.exit_code == 0, result.output
        assert (tmp_path / "envroot" / "chain_afc_606" / "report.json").exists()


class TestLockCommand:
    def test_time_domain_block(self, runner, tmp_path):
        result = runner.invoke(main, ["lock", golden_path("fig4_lock_1010_timedomain.json"),
                                      "--lock-id", "lock1010", "-o", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "run" / "lockrun.json").exists()
        assert (tmp_path / "run" / "inloop_beat.npy").exists()

    def test_lock_directory_is_byte_identical_across_runs(self, runner, tmp_path):
        for out in ("a", "b"):
            result = runner.invoke(main, ["lock", golden_path("fig4_lock_1010_timedomain.json"),
                                          "--lock-id", "lock1010", "-o", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        for out in ("a", "b"):
            assert sorted(p.name for p in (tmp_path / out).iterdir()) == sorted(LOCKRUN_FILES)
        for name in LOCKRUN_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_spectral_block_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["lock", golden_path("fig3_lock_1514.json"),
                                      "--lock-id", "lock1514", "-o", str(tmp_path / "run")])
        assert result.exit_code == 2
        assert "spectral" in result.output

    def test_unknown_lock_id(self, runner, tmp_path):
        result = runner.invoke(main, ["lock", golden_path("fig3_lock_1514.json"),
                                      "--lock-id", "nope", "-o", str(tmp_path / "run")])
        assert result.exit_code == 2

    def test_invalid_config_exit_two(self, runner, tmp_path):
        doc = json.loads((resources.files("offsetlock") / "scenarios"
                          / "fig4_lock_1010_timedomain.json").read_text())
        doc["locks"][0]["f_lock_hz"] = 5e6
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["lock", str(path), "--lock-id", "lock1010",
                                      "-o", str(tmp_path / "run")])
        assert result.exit_code == 2
        assert "config error" in result.stderr
        assert not (tmp_path / "run").exists()


class TestCompareCommand:
    def test_round_trip_through_report(self, runner, tmp_path):
        run = runner.invoke(main, ["run", golden_path("chain_afc_606.json"),
                                   "-o", str(tmp_path / "out")])
        assert run.exit_code == 0
        result = runner.invoke(main, ["compare", str(tmp_path / "out" / "report.json")])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["overall_pass"]


def _chain_text(edit):
    doc = json.loads((resources.files("offsetlock") / "scenarios"
                      / "chain_afc_606.json").read_text())["chain"]
    edit(doc)
    return json.dumps(doc)


SERIES_CSV = "# nominal_hz=30000000 gate_s=1\n" + "".join(f"{v}.0\n" for v in range(8))


@pytest.mark.parametrize("command, text, options", [
    pytest.param("chain", "{not json", [], id="chain-invalid-json"),
    pytest.param("chain", _chain_text(lambda d: d["afc"].pop("width_hz")), [],
                 id="chain-missing-afc-width"),
    pytest.param("chain", _chain_text(lambda d: d["operations"][2].update({"in": ["photon1514"]})),
                 [], id="chain-sfg-one-input"),
    pytest.param("compare", json.dumps({"name": "x", "statistics": {}}), [],
                 id="compare-missing-keys"),
    pytest.param("synth", "{not json", ["--duration", "8", "--dt", "0.5"], id="synth-invalid-spec"),
    pytest.param("synth", '{"h": {"0": 2.0}, "drift_rate": 1.0}', ["--duration", "8", "--dt", "0.5"],
                 id="synth-unknown-spec-key"),
    pytest.param("adev", SERIES_CSV, ["--taus", "1,abc"], id="adev-malformed-taus"),
])
def test_malformed_input_exits_two(runner, tmp_path, command, text, options):
    """Malformed input is exit 2 with a message, not a traceback (exit 1 means a failed check)."""
    path = tmp_path / "input"
    path.write_text(text)
    if command == "synth":
        args = ["synth", "--spec", str(path), *options, "-o", str(tmp_path / "out.csv")]
    else:
        args = [command, str(path), *options]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ")
    assert result.stdout == ""
