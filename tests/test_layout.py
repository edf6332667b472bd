"""Package layout: private names stay private and the CLI imports stay light."""

import ast
import os
import subprocess
import sys
import types
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


def run_probe(probe):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    return result.stdout.strip()


def test_cli_import_leaves_heavy_scipy_out():
    # scipy serves only the finite-difference step, which loads its one compiled
    # LAPACK module alone; importing scipy.linalg cost every FD start about 0.26 s
    # and 28 MB (scipy.stats alone once added about 1.2 s)
    probe = """
import contextlib, io, sys
import stockloan.cli as cli

def scipy_modules():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))

def stdout(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    return out.getvalue()

fd = ["--solver", "fd", "--space-nodes", "64", "--time-steps", "8"]
loaded = {"import": scipy_modules()}
for argv in (["perpetual", "--regime", "1"],
             ["price", "--solver", "lattice", "--regime", "1", "--steps", "50"],
             ["price", "--solver", "fsg", "--regime", "4", "--maturity", "1", "--spot", "0.8"],
             ["boundary", "--solver", "fsg", "--regime", "4", "--maturity", "1", "--spot", "0.8"],
             ["price"] + fd, ["boundary"] + fd):
    stdout(argv)
    loaded[argv[0] + " " + argv[2]] = scipy_modules()
# the extension then lives under two names in one process; the price must not change
before = stdout(["price"] + fd)
import scipy.linalg.lapack
loaded["price fd beside scipy.linalg"] = stdout(["price"] + fd) == before
print(loaded)
"""
    assert run_probe(probe) == str({"import": [], "perpetual 1": [], "price lattice": [],
                                    "price fsg": [], "boundary fsg": [], "price fd": [],
                                    "boundary fd": [], "price fd beside scipy.linalg": True})


def test_fd_without_scipy_is_a_solver_error():
    probe = """
import contextlib, io, sys
sys.modules["scipy"] = None  # as if scipy were not installed
import stockloan.cli as cli

with contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(["price", "--solver", "fd", "--space-nodes", "64", "--time-steps", "8"])
print((code, err.getvalue()))
"""
    assert run_probe(probe) == str((3, "solver error: the finite-difference step needs scipy's "
                                       "compiled LAPACK module scipy.linalg._flapack, which was "
                                       "not found\n"))


def test_closed_forms_and_refusals_leave_numpy_out():
    # the perpetual closed forms and every refusal made before a solve need only math;
    # numpy alone once cost a cold start about 0.12 s of 0.17 s
    probe = """
import contextlib, io, sys
import stockloan.cli as cli

loaded = {"import": "numpy" in sys.modules}
for argv in (["perpetual", "--regime", "1"], ["perpetual", "--regime", "2"],
             ["perpetual", "--regime", "3"], ["--help"], ["price", "--sigma", "nan"],
             ["price", "--solver", "fsg", "--regime", "1"], ["perpetual", "--sigma", "1e-200"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded[" ".join(argv)] = (code, "numpy" in sys.modules)
print(loaded)
"""
    assert run_probe(probe) == str({
        "import": False, "perpetual --regime 1": (0, False), "perpetual --regime 2": (0, False),
        "perpetual --regime 3": (0, False), "--help": (0, False),
        "price --sigma nan": (2, False), "price --solver fsg --regime 1": (2, False),
        "perpetual --sigma 1e-200": (2, False)})


def test_first_solve_loads_every_solver_module():
    # a tracer that wraps every backend looks each module up in sys.modules, so one
    # lattice price must load the grid backends and the oracle as well
    probe = """
import contextlib, io, sys
import stockloan.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["price", "--solver", "lattice", "--steps", "50"]) == 0
print(sorted(n for n in sys.modules if n.startswith("stockloan.")))
"""
    assert run_probe(probe) == str([f"stockloan.{name}" for name in (
        "cli", "closedform", "contracts", "fd1d", "fsg2d", "lattice1d", "oracle", "problems")])


def test_star_import_and_dir_serve_every_public_name():
    probe = """
import stockloan
namespace = {}
exec("from stockloan import *", namespace)
public = set(stockloan.__all__)
print(sorted(public - set(namespace)), sorted(public - set(dir(stockloan))))
"""
    assert run_probe(probe) == "[] []"


def test_every_public_attribute_is_in_all():
    # the package once imported reduce_regime2 without listing it in __all__,
    # so `from stockloan import *` dropped it
    public = {name for name in dir(stockloan) if not name.startswith("_")
              and not isinstance(getattr(stockloan, name), types.ModuleType)}
    assert sorted(public - set(stockloan.__all__)) == []
