"""Record the byte-identity manifest of the golden runs.

Run from the repository root: ``python3 scripts/record_artifact_manifest.py``.
It runs each case below through the ``offsetlock`` command line in-process and
writes ``tests/artifact_manifest.json``: per case, the exit code, the SHA-256
of its stdout (with the output directory written as ``<out>``) and the SHA-256
of every file it wrote, by path inside the output directory.  The manifest
also holds the numpy version, since the synthesis's bytes (pocketfft's and the
RNG's) belong to it.  ``tests/test_artifact_manifest.py`` reruns the cases and
compares every digest, so a change meant to alter an artifact re-records the
manifest and shows up as its diff.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "artifact_manifest.json"
GOLDENS = ROOT / "src" / "offsetlock" / "scenarios"
TIME_DOMAIN = "fig4_lock_1010_timedomain.json"
#: name -> the CLI arguments before ``-o <out>``; a config is a golden scenario's file name.
CASES = {
    **{f"run {name}": ["run", name] for name in (
        "chain_afc_606.json", "fig3_lock_1514.json", "fig4_inloop_1010.json", TIME_DOMAIN)},
    f"run {TIME_DOMAIN} --seeds 3": ["run", TIME_DOMAIN, "--seeds", "3"],
    f"lock {TIME_DOMAIN} --lock-id lock1010": ["lock", TIME_DOMAIN, "--lock-id", "lock1010"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record_case(name, out: Path) -> dict:
    """Run case ``name`` with output directory ``out``: its exit code and digests."""
    from click.testing import CliRunner
    from offsetlock.cli import main

    command, config, *extra = CASES[name]
    result = CliRunner().invoke(main, [command, str(GOLDENS / config), *extra, "-o", str(out)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise RuntimeError(f"{name}: {result.exception!r}") from result.exception
    return {"exit_code": result.exit_code,
            "stdout": sha256(result.stdout.replace(str(out), "<out>").encode()),
            "files": {p.relative_to(out).as_posix(): sha256(p.read_bytes())
                      for p in sorted(out.rglob("*")) if p.is_file()}}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        cases = {name: record_case(name, Path(work, str(i))) for i, name in enumerate(CASES)}
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1,
                                   sort_keys=True) + "\n")
    print(f"wrote {sum(len(c['files']) for c in cases.values())} file digests of "
          f"{len(cases)} cases to {MANIFEST.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
