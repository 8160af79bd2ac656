"""Everything ``src/`` imports is either stdlib, ``repro`` or declared,
and everything declared is imported.

A clean runner installs what ``setup.py`` / ``requirements-ci.txt`` name
and nothing else; a module-level ``from scipy...`` that neither file
mentions turns ``import repro.viz`` into ``ModuleNotFoundError`` there
while every machine that happens to have SciPy stays green.  The
subprocess tests import every ``repro`` module for real: once with every
installed third-party package that ``setup.py`` does not name made
unimportable, and once to pin what the serving process loads.
"""

from __future__ import annotations

import ast
import functools
import importlib.metadata
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter: block the names in argv[1] (an import of one
# then raises ModuleNotFoundError), import every repro module, and report
# the failures and every module left loaded.
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None
import repro
failed = {}
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failed[info.name] = repr(exc)
loaded = sorted(name for name, mod in sys.modules.items() if mod is not None)
print(json.dumps({"failed": failed, "loaded": loaded}))
"""


def _requirement_names(lines) -> set[str]:
    """Distribution names of requirement lines, specifiers and comments cut."""
    names = (re.split(r"[\s<>=!~;\[#]", line.strip(), maxsplit=1)[0] for line in lines)
    return {name.lower() for name in names if name}


def _install_requires() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    [value] = [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call)
               for kw in node.keywords if kw.arg == "install_requires"]
    return _requirement_names(ast.literal_eval(value))


def _third_party_imports() -> dict[str, list[str]]:
    """Top-level package -> the files importing it, anywhere in the file."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_a_declared_requirement():
    imported = _third_party_imports()
    assert {"numpy"} <= set(imported)  # the walk sees something
    ci = _requirement_names((ROOT / "requirements-ci.txt").read_text().splitlines())
    for declared, where in [(_install_requires(), "setup.py install_requires"),
                            (ci, "requirements-ci.txt")]:
        missing = {top: files for top, files in imported.items()
                   if top.lower() not in declared}
        assert not missing, f"imported under src/ but not in {where}: {missing}"


def test_every_declared_requirement_is_imported():
    """The converse: a runtime dependency nothing under src/ imports is stale."""
    imported = {top.lower() for top in _third_party_imports()}
    stale = _install_requires() - imported
    assert not stale, f"setup.py install_requires names unused packages: {stale}"


@functools.lru_cache(maxsize=None)
def _import_every_module(blocked: tuple[str, ...]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL, json.dumps(blocked)],
        capture_output=True, text=True, env=env, cwd=ROOT / "src", timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _undeclared_installed_packages() -> tuple[str, ...]:
    """Importable third-party top-level names that setup.py does not name."""
    declared = _install_requires()
    return tuple(sorted(
        top for top, dists in importlib.metadata.packages_distributions().items()
        if top.isidentifier() and top != "repro" and top not in sys.stdlib_module_names
        and not any(_requirement_names([dist]) <= declared for dist in dists)
    ))


def test_every_module_imports_with_only_declared_requirements():
    blocked = _undeclared_installed_packages()
    assert {"hypothesis", "pytest"} <= set(blocked)  # what only the tests need is hidden
    report = _import_every_module(blocked)
    assert report["failed"] == {}
    assert any(name.startswith("repro.web.") for name in report["loaded"])


def test_serving_process_loads_neither_networkx_scipy_nor_multiprocessing():
    """About 50 MB of resident size: the fit, the overlay graph and the
    trilinear kernels are in-repo.  Simulations step on the shared
    executor's threads, so no module reaches for a process pool."""
    loaded = set(_import_every_module(())["loaded"])
    assert {"repro.costmodel.calibration", "repro.mapping.greedy",
            "repro.data.interp", "repro.steering.executor"} <= loaded
    assert not {name for name in loaded if name.split(".")[0]
                in ("networkx", "scipy", "multiprocessing")}
