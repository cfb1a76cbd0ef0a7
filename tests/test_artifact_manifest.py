"""Byte identity: every golden run writes what ``tests/artifact_manifest.json`` records.

Each case reruns one command of ``scripts/record_artifact_manifest.py`` and compares its
exit code and the SHA-256 of its stdout and of every file it wrote.  A change meant to
alter an artifact re-records the manifest with that script.
"""
import importlib.util
import json
import posixpath
from pathlib import Path

import numpy as np
import pytest

from offsetlock.scenario import load_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_artifact_manifest.py"
_spec = importlib.util.spec_from_file_location("record_artifact_manifest", SCRIPT)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)
MANIFEST = json.loads(recorder.MANIFEST.read_text())


def test_manifest_covers_every_case():
    assert sorted(MANIFEST["cases"]) == sorted(recorder.CASES)


def test_no_case_writes_two_identical_files():
    for case in MANIFEST["cases"].values():
        assert len(set(case["files"].values())) == len(case["files"])


@pytest.mark.parametrize("case", [name for name, args in recorder.CASES.items()
                                  if args[0] == "run"])
def test_one_series_file_per_signal_and_gate(case):
    cfg = load_config(recorder.GOLDENS / recorder.CASES[case][1])
    keys = {(s, m.gate_s) for m in cfg.measurements for s in (m.signal, m.baseline) if s}
    runs = {}  # run directory -> its series files; ``--seeds`` writes one per seed
    for path in MANIFEST["cases"][case]["files"]:
        run_dir, name = posixpath.split(path)
        runs.setdefault(run_dir, [])
        if name.endswith(("_series.csv", "_baseline.csv")):
            runs[run_dir].append(name)
    assert runs and all(len(names) == len(keys) for names in runs.values())


@pytest.mark.parametrize("case", list(recorder.CASES))
def test_artifacts_match_manifest(case, tmp_path):
    if MANIFEST["numpy"] != np.__version__:
        pytest.skip(f"the manifest was recorded under numpy {MANIFEST['numpy']}, and numpy "
                    f"{np.__version__} is installed: the synthesis's bytes (pocketfft's and "
                    f"the RNG's) belong to the numpy version")
    assert recorder.record_case(case, tmp_path / "out") == MANIFEST["cases"][case]
