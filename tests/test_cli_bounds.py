"""No-arbitrage bounds on the CLI's price command over a fixed grid of extreme inputs.

A regime-1 or regime-2 loan can be redeemed at once for max(S - K, 0) and is
never worth more than its collateral S, so every value priced at t = 0 lies
in [max(S - K, 0), S].  Each argv sets one market or loan flag to one value
of a fixed list, on a small lattice and a small finite-difference grid, and
runs in process.  It either prices within those bounds, or exits 2 (input
refused) or 3 (solver error) with one line on stderr and nothing on stdout.
"""

import itertools

import pytest

import stockloan.cli as cli

SPOT, PRINCIPAL = 0.7, 0.7
SOLVERS = {"lattice": ["--steps", "50"], "fd": ["--space-nodes", "60", "--time-steps", "30"]}
FLAGS = ["--r", "--delta", "--sigma", "--loan-rate"]
VALUES = ["0", "-0.0", "1e-320", "1e-300", "1e-12", "0.5", "3", "1e300", "-1", "nan", "inf"]


def price_argvs():
    for solver, regime, flag, value in itertools.product(SOLVERS, (1, 2), FLAGS, VALUES):
        yield ["price", "--solver", solver, *SOLVERS[solver], "--regime", str(regime),
               "--spot", str(SPOT), "--principal", str(PRINCIPAL), flag, value]


@pytest.mark.parametrize("argv", list(price_argvs()), ids=" ".join)
def test_price_lies_within_the_no_arbitrage_bounds_or_is_refused(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    if code != 0:
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        return
    assert captured.err == ""
    value = float(captured.out)
    assert max(SPOT - PRINCIPAL, 0.0) <= value <= SPOT
