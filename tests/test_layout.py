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
    # scipy serves only the finite-difference step; importing it cost every
    # CLI start about 0.2-0.35 s (scipy.stats alone once added about 1.2 s)
    probe = """
import contextlib, io, sys
import stockloan.cli as cli

def scipy_modules():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))

loaded = {"import": scipy_modules()}
for argv in (["perpetual", "--regime", "1"],
             ["price", "--solver", "lattice", "--regime", "1", "--steps", "50"],
             ["price", "--solver", "fsg", "--regime", "4", "--maturity", "1", "--spot", "0.8"],
             ["boundary", "--solver", "fsg", "--regime", "4", "--maturity", "1", "--spot", "0.8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded[argv[0] + " " + argv[2]] = scipy_modules()
print(loaded)
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == str({"import": [], "perpetual 1": [], "price lattice": [],
                                         "price fsg": [], "boundary fsg": []})
