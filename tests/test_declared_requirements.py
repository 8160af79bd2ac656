"""Everything ``src/`` imports is either stdlib, ``repro`` or declared.

A clean runner installs what ``setup.py`` / ``requirements-ci.txt`` name
and nothing else; a module-level ``from scipy...`` that neither file
mentions turns ``import repro.viz`` into ``ModuleNotFoundError`` there
while every machine that happens to have SciPy stays green.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    assert {"numpy", "scipy"} <= set(imported)  # the walk sees something
    ci = _requirement_names((ROOT / "requirements-ci.txt").read_text().splitlines())
    for declared, where in [(_install_requires(), "setup.py install_requires"),
                            (ci, "requirements-ci.txt")]:
        missing = {top: files for top, files in imported.items()
                   if top.lower() not in declared}
        assert not missing, f"imported under src/ but not in {where}: {missing}"
