"""Static checks on the package source, without a linter dependency."""
import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

from offsetlock.scenario import validate_config

from conftest import run_python

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

SRC = Path(__file__).resolve().parents[1] / "src" / "offsetlock"


def unused_imports(source):
    """Names a module imports but never reads, as ``"name (line N)"``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_finds_unused_imports():
    source = "import os\nimport os.path as osp\nfrom typing import List, Tuple\nx: List = osp\n"
    assert unused_imports(source) == ["Tuple (line 3)", "os (line 1)"]


# __init__.py imports names to re-export them, so it is not scanned.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def is_click_command(node):
    """A definition decorated by ``<group>.command(...)`` or ``click.group(...)``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unreferenced_definitions(sources, public=False):
    """Top-level definitions that no module in ``sources`` ({name: text}) reads.

    Module-private functions; or, with ``public``, public functions and classes other than
    click commands, which the command line reaches through their group.  An import is not a
    read, so a name that ``__init__.py`` only re-exports counts as unreferenced.
    """
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if public:
                wanted = (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                          and not node.name.startswith("_") and not is_click_command(node))
            else:
                wanted = (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and node.name.startswith("_") and not node.name.startswith("__"))
            if wanted:
                defined[node.name] = module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}: {name}" for name, module in defined.items() if name not in used)


def test_scanner_finds_unreferenced_private_functions():
    sources = {"a.py": "def _called():\n    pass\ndef _dead():\n    pass\ndef public():\n    pass\n",
               "b.py": "import a\na._called()\n"}
    assert unreferenced_definitions(sources) == ["a.py: _dead"]


def test_scanner_finds_unreferenced_public_functions():
    sources = {"a.py": "import click\n@click.group()\ndef main():\n    pass\n"
                       "@main.command()\ndef cmd():\n    pass\n"
                       "def called():\n    pass\ndef dead():\n    pass\n"
                       "class Read:\n    pass\nclass Dead:\n    pass\ndef _private():\n    pass\n",
               "b.py": "from a import Dead, called, dead\ncalled()\nx: Read = None\n"}
    assert unreferenced_definitions(sources, public=True) == ["a.py: Dead", "a.py: dead"]


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_definitions(sources) == []


#: Public names that only the tests read: test_lockloop checks the servo loop's
#: error voltages against ``error_signal``.
TEST_ORACLES = {"lockloop.py: error_signal"}


def test_no_unreferenced_public_functions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert set(unreferenced_definitions(sources, public=True)) - TEST_ORACLES == set()


def scipy_imports(source):
    """Lines that import scipy, at module level or inside a function."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "scipy")


def test_scanner_finds_scipy_imports():
    source = ("import scipy\nimport numpy, scipy.fft as f\nimport scipyx\nfrom . import scipy\n"
              "def fit():\n    from scipy.optimize import nnls\n    from numpy import fft\n")
    assert scipy_imports(source) == [1, 2, 6]


def test_no_scipy_imports():
    """scipy is the tests' oracle (nnls, lfilter, FFT), not a runtime dependency."""
    found = {p.name: scipy_imports(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


# No src/ module imports scipy (above); these fresh processes check that running the CLI
# loads none of it either, through a dependency.  A scipy import costs a process about 0.5 s
# and 50 MB (scipy.optimize) or 1 s and 80 MB (scipy.signal).
SCIPY_FREE_CLI = textwrap.dedent("""
    import sys

    import offsetlock
    import offsetlock.cli
    from click.testing import CliRunner

    result = CliRunner().invoke(offsetlock.cli.main, sys.argv[1:])
    assert result.exit_code == 0, result.output
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
""")


def scipy_modules_after(*cli_args):
    """The scipy modules loaded by a fresh process that imports offsetlock and runs the CLI."""
    proc = run_python("-c", SCIPY_FREE_CLI, *cli_args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_time_domain_lock_loads_no_scipy(tmp_path):
    golden = str(SRC / "scenarios" / "fig4_lock_1010_timedomain.json")
    assert scipy_modules_after("lock", golden, "--lock-id", "lock1010",
                               "-o", str(tmp_path / "lock")) == "[]"


def test_spectral_run_loads_no_scipy(tmp_path):
    golden = str(SRC / "scenarios" / "fig4_inloop_1010.json")
    assert scipy_modules_after("run", golden, "-o", str(tmp_path / "run")) == "[]"


def test_readme_scenario_sketch_validates():
    section = README.split("## Scenario format", 1)[1]
    sketch = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg, errors = validate_config(sketch)
    assert errors == [] and cfg is not None


def readme_key_table():
    """README's config key table: object -> the keys its row lists in backticks."""
    table = README.split("| Object | Keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = (line.strip("|").split(" | ", 1) for line in table.splitlines())
    return {obj.strip(): re.findall(r"`(\w+)`", keys) for obj, keys in rows}


# A golden object for each row, and the path its errors name; servo and thermal are added.
@pytest.mark.parametrize("row, golden, where, path", [
    ("oscillator", "fig4_lock_1010_timedomain.json", ("oscillators", "laser1010"),
     "oscillators.laser1010"),
    ("comb", "fig4_lock_1010_timedomain.json", ("combs", "comb_gps"), "combs.comb_gps"),
    ("lock", "fig4_lock_1010_timedomain.json", ("locks", 0), "locks[0]"),
    ("discriminator", "fig4_lock_1010_timedomain.json", ("locks", 0, "discriminator"),
     "locks[0].discriminator"),
    ("servo", "fig4_lock_1010_timedomain.json", ("locks", 0, "servo"), "locks[0].servo"),
    ("thermal", "fig4_lock_1010_timedomain.json", ("locks", 0, "thermal"), "locks[0].thermal"),
    ("measurement of kind `peak_to_peak`", "fig4_inloop_1010.json", ("measurements", 0),
     "measurements[0]"),
    ("measurement of kind `adev`", "fig4_inloop_1010.json", ("measurements", 2),
     "measurements[2]"),
    ("measurement of kind `adev_ratio_max`", "fig4_inloop_1010.json", ("measurements", 3),
     "measurements[3]"),
])
def test_readme_key_table_matches_parsers(row, golden, where, path):
    """Every key a row lists is known to the parser; a key it does not list is not."""
    keys = readme_key_table()[row]
    doc = json.loads((SRC / "scenarios" / golden).read_text())
    target = doc
    for k in where:
        target = target.setdefault(k, {}) if isinstance(target, dict) else target[k]
    for key in keys + ["no_such_key"]:
        target.setdefault(key, 1.0)
    _, errors = validate_config(doc)
    assert keys and any(e.startswith(f"{path}: ") and "unknown key 'no_such_key'" in e
                        for e in errors), errors
    assert not [e for e in errors for key in keys if f"unknown key {key!r}" in e]
