"""Package layout: private names stay private and the CLI imports stay light."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_heavy_scipy_out():
    # scipy.stats alone used to add about 1.2 s to every CLI start
    probe = ("import sys, stockloan.cli; "
             "print(sorted({'scipy.stats', 'scipy.sparse'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"
