"""Package layout: no module reaches into another module's private names."""

import ast
from pathlib import Path

import stockloan

PACKAGE = Path(stockloan.__file__).resolve().parent


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
