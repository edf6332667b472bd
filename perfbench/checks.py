"""Correctness checks on the CLI outputs a run collected.

Each output is checked against a computation made outside the command
(the benchmark's own closed forms, or a different backend called through
the library) or against a property the method must have.  Nothing is
compared with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable

from reference import bs_call, characteristic_roots, perpetual_level
from workloads import Command, make_command

SCHEMA_LINE = "# stockloan-csv-v1"
CONFIG_PREFIX = "# config: "
PRICE_TOL = 1e-3  # times K, for comparisons between different methods
EXACT_TOL = 1e-12
DOMAIN_SIGMAS = 6.0  # default half-width of the solvers' log grids, in sigma sqrt(T)


class CheckFailure(Exception):
    """An output that breaks a check."""


def parse_csv(text: str) -> tuple[dict, list[str], list[list[float]]]:
    """Split CLI CSV output into (config, header columns, numeric rows)."""
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != SCHEMA_LINE or not lines[1].startswith(CONFIG_PREFIX):
        raise CheckFailure("output is not stockloan CSV")
    config = json.loads(lines[1][len(CONFIG_PREFIX):])
    header = lines[2].split(",")
    rows = []
    for line in lines[3:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise CheckFailure(f"row {line!r} does not match header {header}")
        rows.append([float(v) for v in fields])
    if not rows:
        raise CheckFailure("CSV output has no rows")
    return config, header, rows


def parse_keyvals(text: str) -> dict[str, float]:
    """Parse `name=value` lines, as printed by perpetual and oracle-check."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckFailure(f"line {line!r} is not name=value")
        out[key] = float(value)
    return out


def parse_price(text: str) -> float:
    value = float(text.strip())
    if not math.isfinite(value):
        raise CheckFailure(f"price {value} is not finite")
    return value


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _close(a: float, b: float, tol: float, what: str) -> None:
    _require(abs(a - b) <= tol, f"{what}: {a!r} vs {b!r} differ by {abs(a - b):.3g} > {tol:.3g}")


def _rel_close(a: float, b: float, what: str) -> None:
    if math.isinf(a) or math.isinf(b):
        _require(a == b, f"{what}: {a!r} vs {b!r}")
        return
    _require(abs(a - b) <= EXACT_TOL * abs(b),
             f"{what}: {a!r} vs {b!r} beyond relative {EXACT_TOL}")


def log_grid(principal: float, sigma: float, maturity: float, nodes: int) -> tuple[float, float]:
    """Lowest node and log spacing of a default grid centred on log K."""
    span = DOMAIN_SIGMAS * sigma * math.sqrt(maturity)
    return principal * math.exp(-span), 2.0 * span / (nodes - 1)


def _within_one_node(x: float, target: float, x_min: float, dy: float, what: str) -> None:
    target = max(target, x_min)
    _require(
        math.isfinite(x) and abs(math.log(x) - math.log(target)) <= dy * (1.0 + 1e-9),
        f"{what}: {x!r} is more than one node (log step {dy:.4g}) from {target!r}",
    )


# --- fd_boundary -------------------------------------------------------------


def _fd_terminal_level(p: dict) -> float:
    """Redeeming level at maturity: where the payoff first meets the obstacle."""
    if p.get("variant") == "amortized":
        return 0.0  # nothing is outstanding at maturity: redeeming is optimal everywhere
    if p.get("variant") == "withdrawable":
        return p["principal"] * math.exp(p["loan_rate"] * p["maturity"])
    return p["principal"]


def _check_fd_curve(taus: list[float], stars: list[float], p: dict, sigma: float, nodes: int,
                    terminal: float, what: str) -> None:
    x_min, dy = log_grid(p["principal"], sigma, p["maturity"], nodes)
    _require(taus[0] == 0.0 and abs(taus[-1] - p["maturity"]) <= 1e-12, f"{what}: tau range")
    _within_one_node(stars[0], terminal, x_min, dy, f"{what} x*(0)")
    finite = [x for x in stars if math.isfinite(x)]
    for left, right in zip(finite, finite[1:]):
        _require(right >= left * math.exp(-dy) * (1.0 - 1e-12),
                 f"{what}: boundary falls from {left!r} to {right!r}, more than one node")
    if p.get("variant") is None:
        # Below K the obstacle x - K is negative while the value is not.
        _require(all(x >= p["principal"] * (1.0 - 1e-6) for x in finite),
                 f"{what}: boundary below K")


def check_fd_boundary(cmd: Command, text: str, ctx: "CheckContext") -> None:
    config, header, rows = parse_csv(text)
    _require(header == ["tau", "x_star"], f"header {header}")
    _require(len(rows) == config["time_steps"] + 1, "row count")
    p = cmd.params
    _check_fd_curve([r[0] for r in rows], [r[1] for r in rows], p, p["sigma"],
                    config["space_nodes"], _fd_terminal_level(p), cmd.name)


def check_figure_12(cmd: Command, text: str, ctx: "CheckContext") -> None:
    config, header, rows = parse_csv(text)
    _require(header == ["tau", "x1_star", "x2_star", "x3_star"], f"header {header}")
    p = dict(cmd.params, sigma=config["sigma"])
    for k in (1, 2, 3):
        _check_fd_curve([r[0] for r in rows], [r[k] for r in rows], p, config["sigma"],
                        config["space_nodes"], p["principal"], f"{cmd.name} x{k}")
    for row in rows:
        _require(row[1] <= row[2] <= row[3], f"tau={row[0]!r}: x1* <= x2* <= x3* fails: {row[1:]}")


def check_fd_sweep(cmd: Command, text: str, ctx: "CheckContext") -> None:
    _, header, rows = parse_csv(text)
    _require(header == ["spot", "value"], f"header {header}")
    _require([r[0] for r in rows] == list(cmd.params["values"]), "sweep points")
    for spot, value in rows:
        ref = ctx.lattice_price(dict(cmd.params, spot=spot), steps=2000)
        _close(value, ref, PRICE_TOL * cmd.params["principal"],
               f"{cmd.name} spot={spot!r} vs lattice")


# --- fsg_surface -------------------------------------------------------------


def _check_fsg_floor(a: float, x: float, principal: float, what: str) -> None:
    # Redeeming needs x + A - K to reach a value that is never negative.
    _require(x >= principal - a - 1e-6 * principal, f"{what}: x*={x!r} below K - A at A={a!r}")


def check_fsg_boundary(cmd: Command, text: str, ctx: "CheckContext") -> None:
    config, header, rows = parse_csv(text)
    _require(header == ["tau", "a", "x_star"], f"header {header}")
    p = cmd.params
    x_min, dy = log_grid(p["principal"], p["sigma"], p["maturity"], config["x_nodes"])
    terminal = [r for r in rows if r[0] == 0.0]
    _require(len(terminal) > 0, "no terminal row")
    for _, a, x in terminal:
        _within_one_node(x, p["principal"] - a, x_min, dy, f"{cmd.name} x*(0, A={a!r})")
    for tau, a, x in rows:
        _check_fsg_floor(a, x, p["principal"], f"{cmd.name} tau={tau!r}")


def check_figure_34(cmd: Command, text: str, ctx: "CheckContext") -> None:
    _, header, rows = parse_csv(text)
    _require(header == ["a", "x_star"], f"header {header}")
    for a, x in rows:
        _check_fsg_floor(a, x, cmd.params["principal"], cmd.name)


def check_fsg_price(cmd: Command, text: str, ctx: "CheckContext") -> None:
    p = cmd.params
    value = parse_price(text)
    intrinsic = max(p["spot"] + p["accrued"] - p["principal"], 0.0)
    _require(value >= intrinsic - EXACT_TOL, f"price {value!r} below intrinsic {intrinsic!r}")
    if p["delta"] == 0.0 and p["accrued"] == 0.0:
        ref = ctx.lattice_price(dict(p, regime=1), steps=2000)
        _close(value, ref, PRICE_TOL * p["principal"], f"{cmd.name} vs regime-1 lattice")


# --- quote_mix ---------------------------------------------------------------


def check_lattice_price(cmd: Command, text: str, ctx: "CheckContext") -> None:
    p = cmd.params
    value = parse_price(text)
    spot, principal = p["spot"], p["principal"]
    variant = p.get("variant")
    if variant == "withdrawable":
        _require(0.0 <= value <= p["cap"], f"withdrawable price {value!r} outside [0, cap]")
    elif variant == "amortized":
        _require(spot - principal - EXACT_TOL <= value <= spot,
                 f"amortized price {value!r} outside [S - K, S]")
    else:
        _require(max(spot - principal, 0.0) - EXACT_TOL <= value <= spot,
                 f"price {value!r} outside [(S - K)+, S]")
    no_drag = p["delta"] == 0.0 or p.get("regime") == 2
    if variant is None and p["r"] >= p["loan_rate"] and no_drag:
        # Waiting is optimal: the loan is a call struck at the maturity balance.
        strike = principal * math.exp(p["loan_rate"] * p["maturity"])
        ref = bs_call(spot, strike, p["r"], p["sigma"], p["maturity"])
        _close(value, ref, PRICE_TOL * principal, f"{cmd.name} vs Black-Scholes")


def check_lattice_sweep(cmd: Command, text: str, ctx: "CheckContext") -> None:
    _, header, rows = parse_csv(text)
    _require(header == ["spot", "value"], f"header {header}")
    _require([r[0] for r in rows] == list(cmd.params["values"]), "sweep points")
    raw_values = [line.split(",")[1] for line in text.splitlines()[3:]]
    for spot, raw in zip(cmd.params["values"], raw_values):
        single = ctx.cli_price(dict(cmd.params, spot=spot))
        _require(single.strip() == raw,
                 f"sweep point {spot!r}: {raw} but price gives {single.strip()}")


def check_oracle(cmd: Command, text: str, ctx: "CheckContext") -> None:
    kv = parse_keyvals(text)
    _require(set(kv) == {"solver_value", "oracle_value", "abs_diff"}, f"keys {sorted(kv)}")
    _require(kv["abs_diff"] <= EXACT_TOL, f"abs_diff={kv['abs_diff']!r}")
    _close(kv["solver_value"], kv["oracle_value"], EXACT_TOL, "solver vs oracle")


def check_perpetual(cmd: Command, text: str, ctx: "CheckContext") -> None:
    p = cmd.params
    kv = parse_keyvals(text)
    delta = 0.0 if p["regime"] == 2 else p["delta"]  # regime 2 reduces to a dividend-free stock
    alpha_plus, alpha_minus = characteristic_roots(p["r"] - p["loan_rate"], delta, p["sigma"])
    _rel_close(kv["alpha_plus"], alpha_plus, "alpha_plus")
    _rel_close(kv["alpha_minus"], alpha_minus, "alpha_minus")
    _rel_close(kv["x_star_inf"], perpetual_level(p["principal"], alpha_plus), "x_star_inf")


def _check_for(cmd: Command) -> Callable[[Command, str, "CheckContext"], None]:
    sub, p = cmd.subcommand, cmd.params
    if sub == "figure":
        return check_figure_12 if cmd.argv[1] in ("1", "2") else check_figure_34
    if sub == "perpetual":
        return check_perpetual
    if sub == "oracle-check":
        return check_oracle
    table = {
        ("boundary", "fd"): check_fd_boundary,
        ("sweep", "fd"): check_fd_sweep,
        ("boundary", "fsg"): check_fsg_boundary,
        ("price", "fsg"): check_fsg_price,
        ("price", "lattice"): check_lattice_price,
        ("sweep", "lattice"): check_lattice_sweep,
    }
    return table[(sub, p["solver"])]


class CheckContext:
    """Reference computations the checks need, each made once per run."""

    def __init__(self, invoke: Callable[[list[str]], tuple[int, str, str]]):
        self._invoke = invoke
        self._cache: dict = {}

    def lattice_price(self, p: dict, steps: int) -> float:
        """Price the 1-D contract of p directly on the library's CRR lattice."""
        from stockloan import lattice1d
        from stockloan.contracts import DividendRegime, LoanContract, MarketParams

        key = (p["regime"], p["spot"], p["r"], p["delta"], p["sigma"], p["maturity"], steps)
        if key not in self._cache:
            market = MarketParams(r=p["r"], delta=p["delta"], sigma=p["sigma"])
            contract = LoanContract(p["principal"], p["loan_rate"], p["maturity"],
                                    DividendRegime(p["regime"]))
            pricer = {1: lattice1d.price_regime1, 2: lattice1d.price_regime2,
                      3: lattice1d.price_regime3}[p["regime"]]
            value, _ = pricer(p["spot"], market, contract, lattice1d.LatticeConfig(steps=steps))
            self._cache[key] = value
        return self._cache[key]

    def cli_price(self, p: dict) -> str:
        """Run the CLI's price subcommand on the same parameters."""
        fields = {k: v for k, v in p.items() if k not in ("param", "values")}
        argv = list(make_command("price", "price", **fields).argv)
        rc, out, err = self._invoke(argv)
        _require(rc == 0, f"price {argv} exited {rc}: {err.strip()}")
        return out


def check_outputs(
    commands: list[Command], outputs: dict[int, str], ctx: CheckContext
) -> dict[int, str]:
    """Check the first output of each command; returns {command index: problem}."""
    problems = {}
    for index, text in outputs.items():
        cmd = commands[index]
        try:
            _check_for(cmd)(cmd, text, ctx)
        except (CheckFailure, ValueError, KeyError) as exc:
            problems[index] = f"{cmd.name}: {exc}"
    return problems
