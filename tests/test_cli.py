import ctypes
import json
import sys
import textwrap
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from offsetlock import FrequencyTrace
from offsetlock.cli import main
from offsetlock.metrology import write_series_csv
from offsetlock.scenario import execute_lock, load_config

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

    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--nominal-hz", "-5")])
    def test_negative_option_exits_two(self, runner, tmp_path, option, value):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"h": {"0": 2.0}}))
        out = tmp_path / "trace.csv"
        result = runner.invoke(main, ["synth", "--spec", str(spec_path), "--duration", "8",
                                      "--dt", "0.5", option, value, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.stderr
        assert not out.exists()


class TestAdev:
    def _series_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        series = FrequencyTrace(nominal_hz=30_000_000, dt_s=1.0,
                                samples=rng.normal(size=64))
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

    def test_omitted_taus_warned(self, runner, tmp_path):
        # 1000 s does not fit twice into 64 one-second readings: a warning, not an error
        path = self._series_csv(tmp_path)
        result = runner.invoke(main, ["adev", str(path), "--taus", "1,1000"])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines()[0] == "tau_s,sigma,units,n_pairs"
        assert len(result.stdout.splitlines()) == 2
        assert result.stderr == "warning: omitted taus [1000.0]\n"

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

    def test_zero_baseline_adev_exits_two_before_writing(self, runner, tmp_path):
        # validation rejects a noiseless oscillator baseline; a noiseless lock shows it at run time
        doc = {
            "name": "flat", "seed": 1, "duration_s": 16.0, "dt_s": 1.0 / 64,
            "oscillators": {"laser": {"nominal_hz": 297000057000000},
                            "noisy": {"nominal_hz": 10**14, "noise": {"h": {"0": 1.0}}}},
            "combs": {"comb": {"f_rep_hz": 107000000, "f_ceo_hz": 20000000}},
            "locks": [{"id": "L", "laser": "laser", "comb": "comb", "f_lock_hz": 30e6,
                       "loop_bandwidth_hz": 1.0, "discriminator": {"cable_m": 5.0}}],
            "measurements": [{"id": "r", "kind": "adev_ratio_max", "signal": "freerun:noisy",
                              "baseline": "locked:L"}],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(path), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr == "Error: measurement r: baseline ADEV is zero at every tau\n"
        assert result.stdout == "" and list(out.iterdir()) == []

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

    def test_out_dir_env_var(self, runner, tmp_path):
        doc = json.loads((resources.files("offsetlock") / "scenarios"
                          / "fig4_lock_1010_timedomain.json").read_text())
        doc["duration_s"] = 2.0
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["lock", str(path), "--lock-id", "lock1010"],
                               env={"OLS_OUT_DIR": str(tmp_path / "envroot")})
        assert result.exit_code == 0, result.output
        out = tmp_path / "envroot" / "fig4_lock_1010_timedomain_lock1010"
        assert sorted(p.name for p in out.iterdir()) == sorted(LOCKRUN_FILES)

    def test_lock_draws_the_run_realization(self, runner, tmp_path):
        # lock and run each build simulate_lock's arguments and its "lock:<id>" seed label
        doc = json.loads((resources.files("offsetlock") / "scenarios"
                          / "fig4_lock_1010_timedomain.json").read_text())
        doc["duration_s"] = 2.0
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["lock", str(path), "--lock-id", "lock1010",
                                      "-o", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        cfg = load_config(str(path))
        locked, inloop, _ = execute_lock(cfg, cfg.locks["lock1010"])
        for name, trace in [("laser_offset.npy", locked), ("inloop_beat.npy", inloop)]:
            assert np.load(tmp_path / "run" / name).tobytes() == trace.samples.tobytes()

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

    def test_report_with_wall_time_still_compares(self, runner, tmp_path):
        """A report written while runs still recorded ``wall_time_s`` compares as before."""
        run = runner.invoke(main, ["run", golden_path("chain_afc_606.json"),
                                   "-o", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "wall_time_s" not in report
        old = tmp_path / "old_report.json"
        old.write_text(json.dumps(dict(report, wall_time_s=0.0123)))
        result = runner.invoke(main, ["compare", str(old)])
        assert (result.exit_code, result.stdout, result.stderr) == (0, run.stdout, "")

    @pytest.mark.parametrize("envelope, code", [([0.0, 1e9], 0), ([0.0, 1.0], 1)])
    def test_report_without_series_key_still_compares(self, runner, tmp_path, envelope, code):
        """A report written before runs named the series each statistic read compares as
        before, with the same verdict and exit code."""
        doc = json.loads((resources.files("offsetlock") / "scenarios"
                          / "fig4_lock_1010_timedomain.json").read_text())
        doc["duration_s"], doc["expectations"]["inloop_adev"] = 4.0, envelope
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        run = runner.invoke(main, ["run", str(config), "-o", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["series"] == {"inloop_adev": ["inloop_adev_series.csv"]}
        del report["series"]
        old = tmp_path / "old_report.json"
        old.write_text(json.dumps(report))
        result = runner.invoke(main, ["compare", str(old)])
        assert (result.exit_code, result.stdout, result.stderr) == (code, run.stdout, "")
        assert run.exit_code == code


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
    pytest.param("synth", '{"h": {"0": 2.0}, "drift_random_walk": 1.0}',
                 ["--duration", "8", "--dt", "0.5"], id="synth-random-walk-spec-key"),
    pytest.param("adev", SERIES_CSV, ["--taus", "1,abc"], id="adev-malformed-taus"),
    pytest.param("adev", SERIES_CSV.splitlines(keepends=True)[0], [], id="adev-header-only"),
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


def test_header_only_series_is_one_error_line(tmp_path):
    """A series CSV with no readings is rejected before numpy's loadtxt could warn of it."""
    path = tmp_path / "series.csv"
    path.write_text("# nominal_hz=30000000 gate_s=1\n")
    proc = run_python("-m", "offsetlock.cli", "adev", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("Error:"), proc.stderr


@pytest.mark.parametrize("gate", ["inf", "1e308"])  # 8 readings of 1e308 s span inf
def test_nonfinite_series_span_is_malformed(runner, tmp_path, gate):
    """A gate or a span beyond a float is malformed input: the octave grid used to double up
    to an OverflowError."""
    path = tmp_path / "series.csv"
    path.write_text(SERIES_CSV.replace("gate_s=1", f"gate_s={gate}"))
    result = runner.invoke(main, ["adev", str(path)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("Error: SERIES_CSV: "), result.stderr


@pytest.mark.parametrize("command, text, options", [
    pytest.param("synth", '{"h": {"0": 2.0}}', ["--duration", "8", "--dt", "0.5"], id="synth"),
    pytest.param("lock", None, ["--lock-id", "lock1010"], id="lock"),
    pytest.param("adev", SERIES_CSV, [], id="adev"),
    pytest.param("chain", _chain_text(lambda d: None), [], id="chain"),
])
def test_unwritable_output_exits_two(runner, tmp_path, command, text, options):
    """An output path that cannot be written is exit 2 with a message, as ``run`` has it."""
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    out = str(blocker / "out")
    if text is None:
        args = [command, golden_path("fig4_lock_1010_timedomain.json"), *options, "-o", out]
    else:
        path = tmp_path / "input"
        path.write_text(text)
        source = ["--spec", str(path)] if command == "synth" else [str(path)]
        args = [command, *source, *options, "-o", out]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ") and "Not a directory" in result.stderr
    assert result.stdout == ""


def test_unindexable_run_exits_two(runner, tmp_path):
    """A run too long for numpy to index is a runtime error: exit 2, not a traceback."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"h": {"0": 2.0}}')
    result = runner.invoke(main, ["synth", "--spec", str(spec), "--duration", "1e300",
                                  "--dt", "1", "-o", str(tmp_path / "out.csv")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "Error: Maximum allowed size exceeded\n"
    assert result.stdout == ""


# The CLI in a fresh process whose address space is capped at 4 GiB, so that a request for
# tens of TiB fails at once on any machine instead of being granted and filling its memory.
CAPPED_CLI = textwrap.dedent("""
    import os
    import resource
    import sys

    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # numpy's import then maps one BLAS buffer
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
    from offsetlock.cli import main

    main(sys.argv[1:], prog_name="offsetlock")
""")


def _huge_spectral_run(tmp_path):
    """fig3 over 1e13 s at dt 1 s: it validates, and its first trace would take 73 TiB."""
    doc = json.loads((resources.files("offsetlock") / "scenarios"
                      / "fig3_lock_1514.json").read_text())
    doc.update(duration_s=1e13, dt_s=1.0)
    doc["locks"][0]["loop_bandwidth_hz"] = 0.1
    for m in doc["measurements"]:
        m["gate_s"] = 2.0
    doc["measurements"][2]["pick_tau_s"] = 2.0
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return ["run", str(path)]


@pytest.mark.parametrize("args", [
    pytest.param(lambda tmp_path: ["synth", "--spec", str(tmp_path / "spec.json"),
                                   "--duration", "1e13", "--dt", "1"], id="synth"),
    pytest.param(_huge_spectral_run, id="run"),
])
def test_unallocatable_run_exits_two(tmp_path, args):
    """A run too large to allocate is a runtime error: exit 2 with one line, no artifact."""
    (tmp_path / "spec.json").write_text('{"h": {"0": 2.0}}')
    out = tmp_path / "out"
    proc = run_python("-c", CAPPED_CLI, *args(tmp_path), "-o", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("Error: Unable to allocate") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not out.exists() or not any(out.iterdir())


# A fresh process runs the CLI once, frees an 8 MiB array and prints how many of the next
# 2 MiB array's bytes glibc gave a mapping of their own (mallinfo2's hblkhd).
MAPPED_AFTER_CLI = textwrap.dedent("""
    import ctypes
    import sys

    import numpy as np
    from click.testing import CliRunner
    from offsetlock.cli import main

    class Mallinfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
            "fordblks", "keepcost")]

    libc = ctypes.CDLL(None)
    libc.mallinfo2.argtypes, libc.mallinfo2.restype = (), Mallinfo2
    assert CliRunner().invoke(main, ["adev", sys.argv[1]]).exit_code == 0
    big = np.ones(1 << 20)
    del big
    before = libc.mallinfo2().hblkhd
    small = np.ones(1 << 18)
    print(libc.mallinfo2().hblkhd - before)
""")


@pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="glibc's mallopt and mallinfo2")
def test_cli_maps_each_large_block(tmp_path):
    """Once the CLI has run, a block of 1 MiB or more gets its own mapping even after a larger
    one was freed. glibc's own rule would keep it in the heap, where freed traces stay resident
    by the heap's layout and peak RSS with them."""
    path = tmp_path / "series.csv"
    path.write_text(SERIES_CSV)
    proc = run_python("-c", MAPPED_AFTER_CLI, str(path))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 2 << 20
