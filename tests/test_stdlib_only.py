"""The runtime imports the standard library only: no module of the package
may depend on anything that has to be installed."""

import ast
import sys

from conftest import REPO_ROOT

PACKAGE_DIR = REPO_ROOT / "src" / "veriledger"


def _absolute_imports(path):
    """Each absolute import of the module at ``path``: (line, top-level name)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name != "__future__" and name not in sys.stdlib_module_names
    ]
    assert outside == []
