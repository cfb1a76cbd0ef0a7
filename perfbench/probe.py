"""Set-up probe, run in a fresh interpreter: import the CLI, load and validate configs.

Usage: ``PYTHONPATH=src python3 perfbench/probe.py CONFIG.json...``.
Exits 3 if a config does not validate.
"""
import json
import sys

import offsetlock.cli  # noqa: F401  (the import is what is measured)
from offsetlock.scenario import validate_config

for path in sys.argv[1:]:
    with open(path) as fh:
        _, errors = validate_config(json.load(fh))
    if errors:
        print(f"{path}: {errors}", file=sys.stderr)
        sys.exit(3)
