"""The package imports nothing beyond what pyproject.toml declares."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _top_level_imports(path: pathlib.Path) -> set[str]:
    """Top-level names of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_stdlib_and_declared_dependencies():
    # scipy and other installed packages would pass the tests here and fail
    # on a clean install of the declared dependencies
    # read with a regex, not tomllib, so the test also runs on Python 3.10
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    declared = {re.match(r"\s*[\"']([A-Za-z0-9_.-]+)", dep).group(1).lower() for dep in listed.group(1).split(",")
                if dep.strip()}
    assert declared
    modules = sorted((ROOT / "src" / "pcftube").glob("*.py"))
    assert modules
    for path in modules:
        stray = _top_level_imports(path) - set(sys.stdlib_module_names) - declared - {"pcftube"}
        assert not stray, f"{path.name} imports {sorted(stray)}"
