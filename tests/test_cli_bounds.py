"""No-arbitrage bounds on the CLI's price command over a fixed grid of extreme inputs.

A regime-1 or regime-2 loan can be redeemed at once for max(S - K, 0) and is
never worth more than its collateral S, so every value priced at t = 0 lies
in [max(S - K, 0), S].  Each argv sets one market or loan flag to one value
of a fixed list, on a small lattice and a small finite-difference grid, and
runs in process.  It either prices within those bounds, or exits 2 (input
refused) or 3 (solver error) with one line on stderr and nothing on stdout.
"""

import itertools
import math

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


# The argv fuzz over every subcommand with a solver grid, each solver it
# runs (also on each loan variant the subcommand and solver take), each
# finite-difference figure and the market and contract flags, built from
# cli's own tables so a new subcommand, solver or variant is covered without
# editing this file.
FUZZ_COMMANDS = ("perpetual", "oracle-check", "sweep", "boundary", "price", "figure")
FUZZ_FLAGS = FLAGS + ["--maturity", "--principal", "--spot"]
SMALL_GRID = {"steps": 20, "space_nodes": 40, "time_steps": 10, "x_nodes": 20, "a_nodes": 6,
              "fsg_steps": 10, "oracle_steps": 6}
COMMAND_ARGS = {"sweep": ["--param", "spot", "--values", "0.6,0.8"]}
CAP = 0.35
VARIANT_ARGS = {"amortized": [], "withdrawable": ["--cap", str(CAP)]}


def command_configs():
    """(command, solver or None, regime, variant or figure number) for each subcommand, each
    solver it covers and each regime and variant of that solver; a figure runs the solver and
    regime its number fixes."""
    for name in FUZZ_COMMANDS:
        command = cli._COMMANDS[name]
        if name == "figure":
            for number, (fixed, *_) in cli._FIGURES.items():
                yield name, fixed["solver"], str(number)
            continue
        if "solver" not in command["reads"] and "grid" not in command["reads"]:
            for regime in command["regimes"][0]:
                yield name, None, regime
            continue
        solvers = command.get("solvers", (cli._SOLVERS,))[0]
        for solver in solvers:
            for regime in cli._SOLVERS[solver]["regimes"]:
                yield name, solver, regime
        for solver in solvers:
            for variant in command.get("variants", (cli._SOLVERS[solver]["variants"],))[0]:
                yield name, solver, variant


def fuzz_argvs(name, solver, kind):
    if name == "figure":
        selector = [kind]  # a figure refuses the flags of the settings it fixes
    elif isinstance(kind, str):
        selector = ["--variant", kind, *VARIANT_ARGS[kind]]
    else:
        selector = ["--regime", str(kind)]
    for flag, value in itertools.product(FUZZ_FLAGS, VALUES):
        argv = [name, *COMMAND_ARGS.get(name, []), *selector]
        if solver is not None:
            if "solver" in cli._COMMANDS[name]["reads"]:
                argv += ["--solver", solver]
            for field in cli._SOLVERS[solver]["grid"]:
                argv += [f"--{field.replace('_', '-')}", str(SMALL_GRID[field])]
        yield argv + [flag, value]


def printed_numbers(out):
    """Every number of an exit-0 output, in order: name=value lines, a lone value, or CSV rows
    after the header."""
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    if len(lines) == 1 and "=" not in lines[0]:
        return {"value": float(lines[0])}
    if "=" in lines[0]:
        return {line.split("=")[0]: float(line.split("=")[1]) for line in lines}
    return {f"{row} {i}": float(cell) for row, line in enumerate(lines[1:])
            for i, cell in enumerate(line.split(","))}


def priced(name, argv, numbers):
    """(spot, value) for each value a price or spot sweep printed."""
    if name == "price":
        return [(float(argv[-1]) if argv[-2] == "--spot" else SPOT, numbers["value"])]
    if name == "sweep":
        return list(zip(*[iter(numbers.values())] * 2))
    return []


@pytest.mark.parametrize("name, solver, kind", list(command_configs()),
                         ids=lambda v: str(v))
def test_every_command_exits_cleanly_on_extreme_inputs(name, solver, kind, capsys):
    """Each argv exits 0, 2 or 3; a refusal prints one stderr line and no stdout; an
    answer prints no NaN.  A regime-1 or regime-2 lattice or path-tree price or
    sweep value lies in [max(S - K, 0), S], a withdrawable value in [0, cap] and
    an amortized one in [S - K, S] on either grid solver, and a bounded
    perpetual boundary lies above the principal.  The rest get the exit, refusal
    and NaN checks only.  FD values of the regimes are not bounded: these
    coarse grids are too coarse for the margin a regime-2 value keeps below S
    (ROADMAP known defect 1).  Regime-3 and regime-4 values are not bounded:
    their trees price above the collateral S when K << S, since each step adds
    the delivered dividend as delta x dt after discounting (known defect 3).
    Nor are the figures, whose CSV rows are boundary levels, not values."""
    failures = []
    for argv in fuzz_argvs(name, solver, kind):
        code = cli.main(argv)
        captured = capsys.readouterr()
        if code not in (0, 2, 3):
            failures.append((argv, f"exit {code}"))
        elif code != 0:
            if captured.out or captured.err.count("\n") != 1 or not captured.err.endswith("\n"):
                failures.append((argv, f"refusal printed {captured.out!r} {captured.err!r}"))
            continue
        numbers = printed_numbers(captured.out)
        if any(math.isnan(v) for v in numbers.values()):
            failures.append((argv, f"NaN in {captured.out!r}"))
        principal = float(argv[-1]) if argv[-2] == "--principal" else PRINCIPAL
        if name == "perpetual" and math.isfinite(numbers.get("x_star_inf", math.inf)):
            if not numbers["x_star_inf"] >= principal:
                failures.append((argv, f"boundary below the principal: {captured.out!r}"))
        for s, v in priced(name, argv, numbers):
            if kind in (1, 2) and solver in ("lattice", "oracle"):
                low, high = max(s - principal, 0.0), s
            elif kind == "withdrawable":
                low, high = 0.0, CAP
            elif kind == "amortized":
                # redeeming at once pays S - K, which the solvers round by an ulp or so
                low, high = s - principal - 1e-12 * abs(s - principal), s
            else:
                continue
            if not low <= v <= high:
                failures.append((argv, f"value {v} outside [{low}, {high}] at spot {s}"))
    assert failures == []
