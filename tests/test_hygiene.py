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
    assert set(unreferenced_definitions(sources, public=True)) == TEST_ORACLES


def is_dataclass_node(node):
    """A class decorated by ``dataclass`` or ``dataclass(...)``."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in getattr(node, "decorator_list", ())]
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def unread_fields(sources):
    """Fields of the dataclasses in ``sources`` ({name: text}) that no module reads as an
    attribute, as ``"module: Class.field"``; a write such as ``obj.field = x`` is not a read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in filter(is_dataclass_node, tree.body):
            defined += [(module, node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return sorted(f"{module}: {cls}.{name}" for module, cls, name in defined if name not in read)


def test_scanner_finds_unread_fields():
    sources = {"a.py": "from dataclasses import dataclass\n@dataclass(frozen=True)\n"
                       "class Run:\n    trace: list\n    lock_flag: list\n    kept: int = 0\n"
                       "@dataclass\nclass Config:\n    oscillators: dict\n    written: int\n"
                       "class Plain:\n    unread: int\n",
               "b.py": "def f(run, cfg):\n    cfg.written = run.kept\n    return run.trace\n"}
    assert unread_fields(sources) == ["a.py: Config.oscillators", "a.py: Config.written",
                                      "a.py: Run.lock_flag"]


#: Dataclass fields that no src/ module reads as an attribute, each with why it stays.
UNREAD_FIELDS = {
    **{f"chain.py: BudgetReport.{name}": "asdict writes the report whole into the chain "
       "budget, whose stability_pass and offset_pass validation then reads by key"
       for name in ("afc", "node", "offset_margin_hz", "offset_pass", "stability_margin_hz",
                    "stability_pass")},
    **{f"scenario.py: RunReport.{name}": "asdict writes the report whole into report.json"
       for name in ("config_echo", "series")},
}


def test_no_unread_dataclass_fields():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert set(unread_fields(sources)) == set(UNREAD_FIELDS)


def package_imports(source, *packages):
    """Lines that import any of ``packages``, at module level or inside a function."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] in packages for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] in packages)


def test_scanner_finds_scipy_imports():
    source = ("import scipy\nimport numpy, scipy.fft as f\nimport scipyx\nfrom . import scipy\n"
              "def fit():\n    from scipy.optimize import nnls\n    from numpy import fft\n")
    assert package_imports(source, "scipy") == [1, 2, 6]


def test_no_scipy_imports():
    """scipy is the tests' oracle (nnls, lfilter, FFT), not a runtime dependency."""
    found = {p.name: package_imports(p.read_text(), "scipy") for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


#: Packages that start threads or processes.
CONCURRENCY = ("threading", "concurrent", "multiprocessing")


def test_scanner_finds_concurrency_imports():
    source = ("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "import os, multiprocessing as mp\nfrom concurrent import futures\nimport threadpoolctl\n"
              "from . import threading\ndef run():\n    import multiprocessing.pool\n")
    assert package_imports(source, *CONCURRENCY) == [1, 2, 3, 4, 8]


def test_concurrency_in_noisegen_only():
    """Synthesis shapes its amplitudes on a helper thread that allocates no more than one chunk,
    since glibc gives each thread its own malloc arena; no other module starts a thread or a
    process, so that concurrency and its memory cost stay in one audited place."""
    found = {p.name: package_imports(p.read_text(), *CONCURRENCY) for p in SRC.glob("*.py")}
    assert found.pop("noisegen.py")
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


def call_lines(source, name):
    """Lines that call ``name``, by its bare name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id == name
                       or isinstance(node.func, ast.Attribute) and node.func.attr == name))


def test_scanner_finds_calls():
    source = ("from .lockloop import resolve_lock_point\nimport offsetlock.lockloop as ll\n"
              "p = resolve_lock_point(d, 1.0)\nq = ll.resolve_lock_point(d, 2.0)\n"
              "r = resolve_lock_point\ndef f():\n    return [resolve_lock_point(d, x) for x in xs]\n")
    assert call_lines(source, "resolve_lock_point") == [3, 4, 7]


def test_lock_points_are_resolved_in_scenario_only():
    """validate_config turns each f_lock_hz into a LockPoint; every model takes that LockPoint."""
    found = {p.name: call_lines(p.read_text(), "resolve_lock_point") for p in SRC.glob("*.py")}
    assert len(found.pop("scenario.py")) == 1
    assert {name: lines for name, lines in found.items() if lines} == {}


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
    # NoiseSpec's own field names: a noise object's keys are not renamed on the way in
    ("noise (an oscillator's `noise`, a comb's `reference_noise`, `synth --spec`)",
     "fig4_lock_1010_timedomain.json", ("combs", "comb_gps", "reference_noise"),
     "combs.comb_gps.reference_noise"),
    ("top level", "fig4_lock_1010_timedomain.json", (), "$"),
    ("chain", "chain_afc_606.json", ("chain",), "chain: $"),
    ("chain source", "chain_afc_606.json", ("chain", "sources", "laser1514"),
     "chain: sources.laser1514"),
    ("`afc`", "chain_afc_606.json", ("chain", "afc"), "chain: afc"),
    # The chain operation row is not checked: which keys an operation takes depends on its op.
])
def test_readme_key_table_matches_parsers(row, golden, where, path):
    """Every key a row lists is known to the parser; a key it does not list is not."""
    keys = readme_key_table()[row]
    doc = json.loads((SRC / "scenarios" / golden).read_text())
    target = doc
    for k in where:
        if k == "reference_noise":  # a comb takes one noise form: the golden's profile goes
            del target["adev_profile"]
        target = target.setdefault(k, {}) if isinstance(target, dict) else target[k]
    for key in keys + ["no_such_key"]:
        target.setdefault(key, 1.0)
    _, errors = validate_config(doc)
    assert keys and any(e.startswith(f"{path}: ") and "unknown key 'no_such_key'" in e
                        for e in errors), errors
    assert not [e for e in errors for key in keys if f"unknown key {key!r}" in e]
