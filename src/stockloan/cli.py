"""Command-line interface for pricing and boundary extraction.

Subcommands: price, boundary, perpetual, sweep, figure, oracle-check.
Parameters come from an optional JSON configuration file plus command-line
overrides; every run embeds its full configuration in the output header,
floats print with 17 significant digits, and unbounded levels print as the
literal inf, so repeated runs are byte-identical and self-describing.

Exit codes: 0 on success, 2 for configuration or parameter errors, 3 for
solver failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import closedform, fd1d, fsg2d, lattice1d, oracle
from .contracts import DividendRegime, LoanContract, MarketParams
from .problems import VIProblem

SCHEMA_VERSION = "stockloan-csv-v1"

# Which dividend regimes and contract variants each solver can price.
SOLVER_CAPABILITIES: dict[str, dict[str, tuple]] = {
    "lattice": {"regimes": (1, 2, 3), "variants": ("amortized", "withdrawable")},
    "fd": {"regimes": (1, 2, 3), "variants": ("amortized", "withdrawable")},
    "fsg": {"regimes": (4,), "variants": ()},
    "oracle": {"regimes": (1, 2, 3, 4), "variants": ()},
}

# The grid fields each solver reads.
_GRID_FIELDS = {
    "lattice": ("steps",),
    "fd": ("space_nodes", "time_steps"),
    "fsg": ("x_nodes", "a_nodes", "fsg_steps"),
    "oracle": ("oracle_steps",),
}
_ALL_GRID_FIELDS = tuple(name for fields in _GRID_FIELDS.values() for name in fields)

_FLOAT_FIELDS = (
    "r", "delta", "sigma", "principal", "loan_rate", "maturity", "spot", "accrued", "cap", "tol",
)
_INT_FIELDS = ("regime",) + _ALL_GRID_FIELDS
_STR_FIELDS = ("solver", "variant")
# The solver and regime each figure runs.
_FIGURE_RUN = {1: ("fd", 1), 2: ("fd", 1), 3: ("fsg", 4), 4: ("fsg", 4)}


@dataclass(frozen=True)
class RunConfig:
    """Flat, JSON-serializable description of one pricing run."""

    r: float = 0.06
    delta: float = 0.03
    sigma: float = 0.4
    principal: float = 0.7
    loan_rate: float = 0.1
    maturity: float = 5.0
    regime: int = 1
    spot: float = 0.7
    accrued: float = 0.0
    cap: float | None = None
    variant: str | None = None
    solver: str = "lattice"
    steps: int = 2000
    space_nodes: int = 400
    time_steps: int = 400
    x_nodes: int = 200
    a_nodes: int = 50
    fsg_steps: int = 200
    oracle_steps: int = 10
    tol: float = 1e-7

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tol < 0.0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tol}")
        if self.accrued < 0.0:
            raise ValueError(f"accrued account must be nonnegative, got {self.accrued}")
        if self.accrued != 0.0 and (self.variant is not None or self.regime in (1, 2)):
            raise ValueError("only regimes 3 and 4 carry an accrued dividend account")
        if (self.cap is None) == (self.variant == "withdrawable"):
            raise ValueError("the withdrawable variant, and only that variant, takes a cap")
        if self.solver not in SOLVER_CAPABILITIES:
            raise ValueError(
                f"unknown solver {self.solver!r}; choose from {sorted(SOLVER_CAPABILITIES)}"
            )
        if self.variant is not None and self.variant not in ("amortized", "withdrawable"):
            raise ValueError(f"unknown variant {self.variant!r}")
        caps = SOLVER_CAPABILITIES[self.solver]
        if self.variant is not None:
            if self.variant not in caps["variants"]:
                raise ValueError(f"solver {self.solver!r} does not price the {self.variant} variant")
        elif self.regime not in caps["regimes"]:
            raise ValueError(f"solver {self.solver!r} does not price regime {self.regime}")

    def market(self) -> MarketParams:
        return MarketParams(r=self.r, delta=self.delta, sigma=self.sigma)

    def contract(self) -> LoanContract:
        return LoanContract(
            principal=self.principal,
            loan_rate=self.loan_rate,
            maturity=self.maturity,
            regime=DividendRegime(self.regime),
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("configuration JSON must be an object")
        unknown = set(data) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        return RunConfig(**data)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                cfg = RunConfig.from_json(handle.read())
        except OSError as exc:
            raise ValueError(f"cannot read configuration file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"configuration file is not valid JSON: {exc}") from exc
    else:
        cfg = RunConfig()
    overrides = _flags_given(args)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _flags_given(args: argparse.Namespace) -> dict:
    """The configuration fields set on the command line, with their values."""
    names = _FLOAT_FIELDS + _INT_FIELDS + _STR_FIELDS
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _refuse_ignored_flags(args: argparse.Namespace, cfg: RunConfig) -> None:
    """Refuse a flag that the command, with its solver, would not read.

    Market, contract and spot flags always count as read; figure sets its
    own solver and regime.  Only flags are checked: a configuration file may
    set every field, so the header of any run can be fed back as its config.
    """
    optional = {*_ALL_GRID_FIELDS, "tol", "solver"}
    solver, read = None, set()
    if args.command == "figure":
        optional |= {"regime", "accrued"}
        solver = _FIGURE_RUN[args.number][0]
        read = {*_GRID_FIELDS[solver], "tol"}
    elif args.command != "perpetual":
        solver = cfg.solver
        read = {*_GRID_FIELDS[solver], "solver"}
        if args.command == "boundary":
            read.add("tol")
        elif args.command == "oracle-check":
            read.add("oracle_steps")
    ignored = sorted((_flags_given(args).keys() & optional) - read)
    if ignored:
        flags = ", ".join(f"--{name.replace('_', '-')}" for name in ignored)
        on = f" on the {solver} solver" if solver else ""
        raise ValueError(f"{args.command}{on} does not read {flags}")


Surface = lattice1d.ValueSurface1D | fsg2d.ValueSurface2D | None


def _values(cfg: RunConfig, spots: list[float]) -> list[float]:
    """The configured solver's value at each spot, with no lattice tree kept.

    The finite-difference and forward-shooting grids do not depend on the
    spot, so they are solved once and read at every spot; the lattice tree
    is centred on the spot, so it is rebuilt per spot.  Regime-3 values
    from the lattice and finite differences exclude the dividends already
    delivered, so the accrued account is added here.
    """
    if cfg.solver == "oracle":
        market, contract = cfg.market(), cfg.contract()
        return [oracle.oracle_price(s, market, contract, cfg.oracle_steps, cfg.accrued)
                for s in spots]
    if cfg.solver == "lattice":
        problem, config = _problem(cfg), lattice1d.LatticeConfig(steps=cfg.steps)
        values = [lattice1d.lattice_value(s, problem, config) for s in spots]
    else:
        values, _ = _grid_solve(cfg, spots)
    if cfg.variant is None and cfg.regime == 3:
        values = [v + cfg.accrued for v in values]
    return values


def _surface(cfg: RunConfig) -> Surface:
    """The configured solver's surface, as its public entry point returns it.

    None for the forward-shooting grid when immediate redemption is exactly
    optimal.  The spot is refused as it would be by _values.
    """
    if cfg.solver != "lattice":
        return _grid_solve(cfg, [cfg.spot])[1]
    config = lattice1d.LatticeConfig(steps=cfg.steps)
    return lattice1d.lattice_surface(cfg.spot, _problem(cfg), config)[1]


def _grid_solve(cfg: RunConfig, spots: list[float]) -> tuple[list[float], Surface]:
    """Solve the finite-difference or forward-shooting grid once; read it at each spot.

    The surface refuses a spot outside the solved grid with ValueError.
    """
    market, contract = cfg.market(), cfg.contract()
    if cfg.solver == "fsg":
        fsg_cfg = fsg2d.FSG2DConfig(x_nodes=cfg.x_nodes, a_nodes=cfg.a_nodes,
                                    time_steps=cfg.fsg_steps)
        _, surface = fsg2d.price_regime4(spots[0], cfg.accrued, market, contract, fsg_cfg)
        if surface is None:  # immediate redemption: exact values, no grid to share
            return [fsg2d.price_regime4(s, cfg.accrued, market, contract, fsg_cfg)[0]
                    for s in spots], None
        coords = (cfg.accrued, cfg.maturity)
    else:
        fd_cfg = fd1d.FDConfig(space_nodes=cfg.space_nodes, time_steps=cfg.time_steps)
        surface, _ = fd1d.solve_vi(_problem(cfg), fd_cfg)
        coords = (cfg.maturity,)
    return [surface.value_at(s, *coords) for s in spots], surface


def _problem(cfg: RunConfig) -> VIProblem:
    return VIProblem(cfg.variant or f"regime{cfg.regime}", cfg.market(), cfg.contract(), cfg.cap)


def _csv(cfg: RunConfig, header: str, rows: list[str]) -> str:
    lines = [f"# {SCHEMA_VERSION}", f"# config: {cfg.to_json()}", header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def cmd_price(cfg: RunConfig) -> str:
    return _fmt(_values(cfg, [cfg.spot])[0]) + "\n"


def cmd_boundary(cfg: RunConfig) -> str:
    if cfg.solver == "oracle":
        raise ValueError(f"solver {cfg.solver!r} does not produce boundary output")
    surface = _surface(cfg)
    if cfg.solver == "fsg":
        if surface is None:
            raise ValueError(
                "immediate redemption is exactly optimal for this state; "
                "no boundary surface is produced"
            )
        bsurf = fsg2d.extract_boundary_surface(surface, cfg.tol)
        rows = []
        for m, tau in enumerate(bsurf.tau_grid):
            for j, a in enumerate(bsurf.a_grid):
                rows.append(f"{_fmt(tau)},{_fmt(a)},{_fmt(bsurf.x_star[m, j])}")
        return _csv(cfg, "tau,a,x_star", rows)
    curve = lattice1d.extract_boundary(surface, cfg.tol)
    rows = [f"{_fmt(tau)},{_fmt(star)}" for tau, star in zip(curve.tau_grid, curve.x_star)]
    return _csv(cfg, "tau,x_star", rows)


def cmd_perpetual(cfg: RunConfig) -> str:
    if cfg.variant is not None:
        raise ValueError("the perpetual closed forms cover the regimes, not variants")
    market, contract = cfg.market(), cfg.contract()
    if cfg.regime == 1:
        res = closedform.perpetual_regime1(market, contract)
    elif cfg.regime == 2:
        res = closedform.perpetual_regime2(market, contract)
    elif cfg.regime == 3:
        res3 = closedform.perpetual_regime3(market, contract)
        return f"x_star_inf={_fmt(float(res3.boundary))}\n"
    else:
        raise ValueError("no perpetual closed form exists for regime 4")
    lines = [
        f"alpha_plus={_fmt(res.alpha_plus)}",
        f"alpha_minus={_fmt(res.alpha_minus)}",
        f"x_star_inf={_fmt(float(res.x_star_inf))}",
    ]
    if res.c1 is not None:
        lines.append(f"c1={_fmt(res.c1)}")
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: RunConfig, param: str, values: list[float]) -> str:
    allowed = set(_FLOAT_FIELDS) - {"tol"}  # no swept command reads tol
    if param not in allowed:
        raise ValueError(f"sweep parameter must be one of {sorted(allowed)}, got {param!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = [dataclasses.replace(cfg, **{param: v}) for v in values]
    if param == "spot":
        prices = _values(cfg, [c.spot for c in configs])
    else:
        prices = [_values(c, [c.spot])[0] for c in configs]
    rows = [f"{_fmt(v)},{_fmt(p)}" for v, p in zip(values, prices)]
    return _csv(cfg, f"{param},value", rows)


_FIGURE_SIGMA = {1: 0.4, 2: 0.15}
_FIGURE_SNAPSHOT_TAU = {3: 1.0, 4: 3.0}


def cmd_figure(which: int, cfg: RunConfig) -> str:
    """Reproduce a standard boundary plot as CSV.

    Figures 1 and 2 are the three one-dimensional redeeming boundaries over
    a five-year horizon at high and moderate volatility; figures 3 and 4
    are account-level snapshots of the cash-dividend boundary surface at
    one and three years to go on a three-year contract.
    """
    if cfg.variant is not None:
        raise ValueError("figures cover the dividend regimes, not variants")
    if which in (1, 2):
        curves = []
        for regime in (1, 2, 3):
            surface = _surface(dataclasses.replace(cfg, regime=regime))
            curves.append(lattice1d.extract_boundary(surface, cfg.tol))
        rows = []
        for m, tau in enumerate(curves[0].tau_grid):
            stars = ",".join(_fmt(c.x_star[m]) for c in curves)
            rows.append(f"{_fmt(tau)},{stars}")
        return _csv(cfg, "tau,x1_star,x2_star,x3_star", rows)
    target = _FIGURE_SNAPSHOT_TAU[which]
    if target > cfg.maturity:
        raise ValueError(f"snapshot at tau={target} needs maturity >= {target}")
    surface = _surface(dataclasses.replace(cfg, accrued=0.0))
    bsurf = fsg2d.extract_boundary_surface(surface, cfg.tol)
    layer = int(np.argmin(np.abs(bsurf.tau_grid - target)))
    rows = [f"{_fmt(a)},{_fmt(bsurf.x_star[layer, j])}" for j, a in enumerate(bsurf.a_grid)]
    return _csv(cfg, "a,x_star", rows)


def cmd_oracle_check(cfg: RunConfig) -> str:
    market, contract = cfg.market(), cfg.contract()
    if cfg.variant is not None:
        raise ValueError("the path-tree check covers the four regimes, not variants")
    solver_value = _values(cfg, [cfg.spot])[0]
    oracle_value = oracle.oracle_price(cfg.spot, market, contract, cfg.oracle_steps, cfg.accrued)
    return (
        f"solver_value={_fmt(solver_value)}\n"
        f"oracle_value={_fmt(oracle_value)}\n"
        f"abs_diff={_fmt(abs(solver_value - oracle_value))}\n"
    )


def _add_override_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--output", help="write output to this file instead of stdout")
    for name in _FLOAT_FIELDS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, default=None, dest=name)
    for name in _INT_FIELDS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=None, dest=name)
    parser.add_argument("--solver", choices=sorted(SOLVER_CAPABILITIES), default=None)
    parser.add_argument("--variant", choices=("amortized", "withdrawable"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockloan",
        description="Price finite-maturity stock loans and extract redeeming boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("price", "print the contract value at the configured state"),
        ("boundary", "write the redeeming boundary as CSV"),
        ("perpetual", "print the infinite-maturity closed form"),
        ("oracle-check", "compare the configured solver against the path tree"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_override_arguments(p)

    p = sub.add_parser("sweep", help="price across a list of parameter values")
    _add_override_arguments(p)
    p.add_argument("--param", required=True, help="configuration field to sweep")
    p.add_argument("--values", required=True, help="comma-separated list of values")

    p = sub.add_parser("figure", help="reproduce a standard boundary figure as CSV")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))
    _add_override_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        _refuse_ignored_flags(args, cfg)
        if args.command == "price":
            text = cmd_price(cfg)
        elif args.command == "boundary":
            text = cmd_boundary(cfg)
        elif args.command == "perpetual":
            text = cmd_perpetual(cfg)
        elif args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            text = cmd_sweep(cfg, args.param, values)
        elif args.command == "figure":
            solver, regime = _FIGURE_RUN[args.number]
            base = dataclasses.replace(cfg, solver=solver, regime=regime)
            if args.number in _FIGURE_SIGMA and args.sigma is None:
                base = dataclasses.replace(base, sigma=_FIGURE_SIGMA[args.number])
            if args.number in _FIGURE_SNAPSHOT_TAU and args.maturity is None:
                base = dataclasses.replace(base, maturity=3.0)
            text = cmd_figure(args.number, base)
        else:
            text = cmd_oracle_check(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
