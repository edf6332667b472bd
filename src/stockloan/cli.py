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
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import closedform, fd1d, fsg2d, lattice1d, oracle
from .contracts import DividendRegime, LoanContract, MarketParams
from .problems import BoundaryCurve, LayerStream, VIProblem, fold_boundary, fold_values

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
# The JSON type each field takes (a bool is neither a number nor an integer).
_FIELD_TYPES = (
    (_FLOAT_FIELDS, (int, float), "a number"), (_INT_FIELDS, int, "an integer"),
    (_STR_FIELDS, str, "a string"),
)
# Per figure: the settings it always runs with, the defaults a command-line
# flag overrides, and the tau of its account-level snapshot (figures 3 and 4).
_FIGURES = {
    1: ({"solver": "fd", "regime": 1, "accrued": 0.0}, {"sigma": 0.4}, None),
    2: ({"solver": "fd", "regime": 1, "accrued": 0.0}, {"sigma": 0.15}, None),
    3: ({"solver": "fsg", "regime": 4, "accrued": 0.0}, {"maturity": 3.0}, 1.0),
    4: ({"solver": "fsg", "regime": 4, "accrued": 0.0}, {"maturity": 3.0}, 3.0),
}


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
        for names, types, kind in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if value is None and name in ("cap", "variant"):
                    continue
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ValueError(f"{name} must be {kind}, got {value!r}")
                if names is _FLOAT_FIELDS:
                    # a JSON integer is stored as the float a flag would give
                    try:
                        as_float = float(value)
                    except OverflowError:
                        as_float = math.inf
                    if not math.isfinite(as_float):
                        raise ValueError(f"{name} must be finite, got {value}")
                    object.__setattr__(self, name, as_float)
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
    if cfg.variant is not None:
        optional.add("regime")  # the loan variants have no dividend regime
    solver, read = None, set()
    if args.command == "figure":
        optional |= {"regime", "accrued"}
        solver = _FIGURES[args.number][0]["solver"]
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
        if cfg.variant is not None:
            on += f" for the {cfg.variant} variant"
        raise ValueError(f"{args.command}{on} does not read {flags}")


def _stream(cfg: RunConfig, spots: list[float]) -> LayerStream | None:
    """The configured grid solver's march, with every spot checked before its first layer.

    The finite-difference and forward-shooting grids do not depend on the
    spot, so one march serves every spot; the lattice tree is centred on
    its one spot.  None when the forward-shooting state redeems at once.
    """
    if cfg.solver == "fsg":
        config = fsg2d.FSG2DConfig(x_nodes=cfg.x_nodes, a_nodes=cfg.a_nodes,
                                   time_steps=cfg.fsg_steps)
        return fsg2d.fsg_stream(spots, cfg.accrued, cfg.market(), cfg.contract(), config)
    if cfg.solver == "lattice":
        (spot,) = spots
        return lattice1d.lattice_stream(spot, _problem(cfg), lattice1d.LatticeConfig(cfg.steps))
    config = fd1d.FDConfig(space_nodes=cfg.space_nodes, time_steps=cfg.time_steps)
    return fd1d.fd_stream(_problem(cfg), config, spots)


def _values(cfg: RunConfig, spots: list[float]) -> list[float]:
    """The configured solver's value at each spot, keeping no more than two layers.

    Regime-3 values from the lattice and finite differences exclude the
    dividends already delivered, so the accrued account is added here.
    """
    if cfg.solver == "oracle":
        market, contract = cfg.market(), cfg.contract()
        return [oracle.oracle_price(s, market, contract, cfg.oracle_steps, cfg.accrued)
                for s in spots]
    if cfg.solver == "lattice":
        values = [fold_values(_stream(cfg, [s]), [s])[0] for s in spots]
    else:
        stream = _stream(cfg, spots)
        if stream is None:
            return [s + cfg.accrued - cfg.principal for s in spots]
        values = fold_values(stream, spots, cfg.accrued)
    if cfg.variant is None and cfg.regime == 3:
        values = [v + cfg.accrued for v in values]
    return values


def _boundary(cfg: RunConfig) -> BoundaryCurve:
    """The configured solver's redemption boundary, read at cfg.tol.

    The spot is refused as it would be by _values.
    """
    stream = _stream(cfg, [cfg.spot])
    if stream is None:
        raise ValueError(
            "immediate redemption is exactly optimal for this state; "
            "no boundary surface is produced"
        )
    return fold_boundary(stream, cfg.tol)


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
    curve = _boundary(cfg)
    taus = [_fmt(tau) for tau in curve.tau_grid]
    # Boundary levels are grid nodes or inf, so each distinct one is formatted once.
    fmt = functools.lru_cache(maxsize=None)(_fmt)
    if curve.a_grid is None:
        rows = [f"{tau},{fmt(star)}" for tau, star in zip(taus, curve.x_star.tolist())]
        return _csv(cfg, "tau,x_star", rows)
    accounts = [_fmt(a) for a in curve.a_grid]
    rows = [f"{tau},{a},{fmt(star)}"
            for tau, stars in zip(taus, curve.x_star.tolist())
            for a, star in zip(accounts, stars)]
    return _csv(cfg, "tau,a,x_star", rows)


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
        curves = [_boundary(dataclasses.replace(cfg, regime=regime)) for regime in (1, 2, 3)]
        rows = []
        for m, tau in enumerate(curves[0].tau_grid):
            stars = ",".join(_fmt(c.x_star[m]) for c in curves)
            rows.append(f"{_fmt(tau)},{stars}")
        return _csv(cfg, "tau,x1_star,x2_star,x3_star", rows)
    _, _, target = _FIGURES[which]
    if target > cfg.maturity:
        raise ValueError(f"snapshot at tau={target} needs maturity >= {target}")
    curve = _boundary(cfg)
    layer = int(np.argmin(np.abs(curve.tau_grid - target)))
    rows = [f"{_fmt(a)},{_fmt(star)}" for a, star in zip(curve.a_grid, curve.x_star[layer])]
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
            fixed, defaults, _ = _FIGURES[args.number]
            unset = {k: v for k, v in defaults.items() if getattr(args, k) is None}
            text = cmd_figure(args.number, dataclasses.replace(cfg, **fixed, **unset))
        else:
            text = cmd_oracle_check(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write the output file: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
