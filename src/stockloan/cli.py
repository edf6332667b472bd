"""Command-line interface for pricing and boundary extraction.

Subcommands, with what each reads and covers: _COMMANDS.
Parameters come from an optional JSON configuration file, a figure's
defaults, the command-line flags and a figure's fixed settings, each
overriding the ones before it; the rules across fields apply once, to the
merged configuration, so a file that the flags complete runs.  Every run
embeds its full configuration in the output header, floats print with 17
significant digits, and unbounded levels print as the literal inf, so
repeated runs are byte-identical and self-describing.

Exit codes: 0 on success, 2 for configuration or parameter errors and for
a grid too large for the memory, 3 for solver failures.

Parsing, validation, --help, the perpetual closed forms and every refusal
made before a solve but the grid's use math alone.  The backends hold the
grid minimums, so the solver modules, and numpy with them, load when a
command's grid is checked, just before it first solves (_solvers).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import closedform
from .contracts import DividendRegime, LoanContract, MarketParams

if TYPE_CHECKING:
    from .problems import BoundaryCurve, LayerStream, VIProblem

SCHEMA_VERSION = "stockloan-csv-v1"

_VARIANTS = ("amortized", "withdrawable")
# Per solver: the dividend regimes and contract variants it prices, and the grid fields it
# reads, each with the keyword of the backend's grid record that takes it (_grid).
_SOLVERS: dict[str, dict] = {
    "lattice": {"regimes": (1, 2, 3), "variants": _VARIANTS, "grid": {"steps": "steps"}},
    "fd": {"regimes": (1, 2, 3), "variants": _VARIANTS,
           "grid": {"space_nodes": "space_nodes", "time_steps": "time_steps"}},
    "fsg": {"regimes": (4,), "variants": (),
            "grid": {"x_nodes": "x_nodes", "a_nodes": "a_nodes", "fsg_steps": "time_steps"}},
    "oracle": {"regimes": (1, 2, 3, 4), "variants": (), "grid": {"oracle_steps": "steps"}},
}
_ALL_GRID_FIELDS = tuple(name for solver in _SOLVERS.values() for name in solver["grid"])

_FLOAT_FIELDS = (
    "r", "delta", "sigma", "principal", "loan_rate", "maturity", "spot", "accrued", "cap", "tol",
)
_INT_FIELDS = ("regime",) + _ALL_GRID_FIELDS
_STR_FIELDS = ("solver", "variant")
# The JSON type each field takes (a bool is neither a number nor an integer).
_FIELD_TYPES = {
    **{name: ((int, float), "a number") for name in _FLOAT_FIELDS},
    **{name: (int, "an integer") for name in _INT_FIELDS},
    **{name: (str, "a string") for name in _STR_FIELDS},
}
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
    space_nodes: int = 900
    time_steps: int = 100
    x_nodes: int = 200
    a_nodes: int = 50
    fsg_steps: int = 200
    oracle_steps: int = 10
    tol: float = 1e-7

    def __post_init__(self) -> None:
        for name in _FIELD_TYPES:
            object.__setattr__(self, name, _checked(name, getattr(self, name)))
        if self.accrued != 0.0 and (self.variant is not None or self.regime in (1, 2)):
            raise ValueError("only regimes 3 and 4 carry an accrued dividend account")
        if (self.cap is None) == (self.variant == "withdrawable"):
            raise ValueError("the withdrawable variant, and only that variant, takes a cap")

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

    def problem(self) -> VIProblem:
        *_, problems = _solvers()
        return problems.VIProblem(self.market(), self.contract(), self.variant, self.cap)


def _checked(name: str, value):
    """value as the field name stores it, or a ValueError naming the field's fault.

    Refused are a value of the wrong type, an unknown solver or variant, a
    float that is not finite and a negative tolerance or accrued account.  A
    JSON integer in a float field becomes the float a flag would give.
    """
    if value is None and name in ("cap", "variant"):
        return value
    types, kind = _FIELD_TYPES[name]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if name == "solver" and value not in _SOLVERS:
        raise ValueError(f"unknown solver {value!r}; choose from {sorted(_SOLVERS)}")
    if name == "variant" and value not in _VARIANTS:
        raise ValueError(f"unknown variant {value!r}")
    if name not in _FLOAT_FIELDS:
        return value
    try:
        as_float = float(value)
    except OverflowError:
        as_float = math.inf
    if not math.isfinite(as_float):
        raise ValueError(f"{name} must be finite, got {value}")
    if as_float < 0.0 and name in ("accrued", "tol"):
        what = "accrued account" if name == "accrued" else "tolerance"
        raise ValueError(f"{what} must be nonnegative, got {as_float}")
    return as_float


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The file's fields, a figure's defaults, the flags and a figure's settings, in one record.

    Each source overrides the ones before it.  Every refusal made before a
    solve is made here, in this order: each file value as it is read, even
    one a flag overrides; a flag the command would not read; the merged
    values and the rules across them, so a file that the flags complete
    runs; what the command does not cover; the sweep's points, which are
    left checked on args.points, and a figure's snapshot time; and last the
    grid fields the command reads.
    """
    fields = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                fields = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read configuration file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"configuration file is not valid JSON: {exc}") from exc
        if not isinstance(fields, dict):
            raise ValueError("configuration JSON must be an object")
        unknown = fields.keys() - _FIELD_TYPES.keys()
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        fields = {name: _checked(name, value) for name, value in fields.items()}
    fixed, defaults, snapshot = _FIGURES.get(getattr(args, "number", None), ({}, {}, None))
    merged = {**fields, **defaults, **_flags_given(args), **fixed}
    _refuse_ignored_flags(args, merged, fixed)
    cfg = RunConfig(**merged)
    command = _COMMANDS[args.command]
    _refuse_uncovered(command, cfg)
    if args.command == "sweep":
        args.points = _sweep_points(cfg, args.param, args.values)
    if snapshot is not None and snapshot > cfg.maturity:
        raise ValueError(f"snapshot at tau={snapshot} needs maturity >= {snapshot}")
    if "grid" in command["reads"]:
        _grid(cfg, cfg.solver)
    if "oracle_steps" in command["reads"]:
        _grid(cfg, "oracle")
    return cfg


def _flags_given(args: argparse.Namespace) -> dict:
    """The configuration fields set on the command line, with their values."""
    return {name: getattr(args, name) for name in _FIELD_TYPES
            if getattr(args, name, None) is not None}


def _refuse_ignored_flags(args: argparse.Namespace, merged: dict, fixed: dict) -> None:
    """Refuse a flag that the command, with its solver and variant, would not read.

    Market, contract and spot flags always count as read, the other fields
    only where the command's _COMMANDS entry reads them, and a figure's own
    settings override their flags.  Only flags are checked: a configuration
    file may set every field, so any run's header can be fed back as its config.
    """
    command, variant = _COMMANDS[args.command], merged.get("variant")
    solver = merged.get("solver", RunConfig.solver) if "grid" in command["reads"] else None
    optional = {*_ALL_GRID_FIELDS, "tol", "solver", *fixed}
    if variant is not None:
        optional.add("regime")  # the loan variants have no dividend regime
    read = {*command["reads"], *(_SOLVERS[solver]["grid"] if solver else ())}
    ignored = sorted((_flags_given(args).keys() & optional) - read)
    if ignored:
        flags = ", ".join(f"--{name.replace('_', '-')}" for name in ignored)
        on = (f" on the {solver} solver" if solver else "") + (
            f" for the {variant} variant" if variant else "")
        raise ValueError(f"{args.command}{on} does not read {flags}")


def _refuse_uncovered(command: dict, cfg: RunConfig) -> None:
    """Refuse a solver, variant or regime outside the command's cover, then outside its solver's.

    A loan variant has no dividend regime, so only its variant is checked.
    """
    key, value = ("regimes", cfg.regime) if cfg.variant is None else ("variants", cfg.variant)
    for cover, tested in ((command.get("solvers"), cfg.solver), (command.get(key), value)):
        if cover and tested not in cover[0]:
            raise ValueError(cover[1].format(solver=cfg.solver, regime=cfg.regime))
    if "grid" in command["reads"] and value not in _SOLVERS[cfg.solver][key]:
        priced = f"regime {value}" if cfg.variant is None else f"the {value} variant"
        raise ValueError(f"solver {cfg.solver!r} does not price {priced}")


def _sweep_points(cfg: RunConfig, param: str, values: str) -> list[RunConfig]:
    """One record per comma-separated value of param, each checked as its own run would be."""
    allowed = set(_FLOAT_FIELDS) - {"tol"}  # no swept command reads tol
    if param not in allowed:
        raise ValueError(f"sweep parameter must be one of {sorted(allowed)}, got {param!r}")
    numbers = []
    for token in filter(str.strip, values.split(",")):
        try:
            numbers.append(float(token))
        except ValueError:
            raise ValueError(f"--values takes comma-separated numbers, got {token!r}") from None
    if not numbers:
        raise ValueError("sweep needs at least one value")
    return [dataclasses.replace(cfg, **{param: v}) for v in numbers]


def _solvers():
    """The modules fd1d, fsg2d, lattice1d, oracle and problems, imported together.

    They load, and numpy with them, when a command's grid is checked, just
    before it first solves.  All of them load at once, whichever solver the
    command uses, so that code wrapping every backend's functions finds each
    module imported.
    """
    from . import fd1d, fsg2d, lattice1d, oracle, problems

    return fd1d, fsg2d, lattice1d, oracle, problems


def _grid(cfg: RunConfig, solver: str):
    """The grid record of solver built from cfg (the oracle's is its step count).

    The records hold the bounds.  Each field is first taken alone, the
    record's other fields at their defaults, so that a refusal names the
    flag at fault.
    """
    fd1d, fsg2d, lattice1d, oracle, _ = _solvers()
    record = {"lattice": lattice1d.LatticeConfig, "fd": fd1d.FDConfig,
              "fsg": fsg2d.FSG2DConfig, "oracle": oracle.tree_steps}[solver]
    fields = {}
    for name, keyword in _SOLVERS[solver]["grid"].items():
        fields[keyword] = getattr(cfg, name)
        try:
            record(**{keyword: fields[keyword]})
        except ValueError as exc:
            raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    return record(**fields)


def _stream(cfg: RunConfig, spots: list[float]) -> LayerStream | None:
    """The configured grid solver's march, with every spot checked before its first layer.

    The finite-difference and forward-shooting grids do not depend on the
    spot, so one march serves every spot; the lattice tree is centred on
    its one spot.  None when the forward-shooting state redeems at once.
    """
    fd1d, fsg2d, lattice1d, _, _ = _solvers()
    config = _grid(cfg, cfg.solver)
    if cfg.solver == "fsg":
        return fsg2d.fsg_stream(cfg.problem(), config, spots, cfg.accrued)
    if cfg.solver == "fd":
        return fd1d.fd_stream(cfg.problem(), config, spots)
    (spot,) = spots
    return lattice1d.lattice_stream(cfg.problem(), config, spot)


def _values(cfg: RunConfig, spots: list[float]) -> list[float]:
    """The configured solver's value at each spot, keeping no more than two layers.

    Only the forward-shooting grid reads the accrued account off its layers.
    Regime-3 values from the lattice and finite differences exclude the
    dividends already delivered, so the accrued account is added here.
    """
    *_, oracle, problems = _solvers()
    if cfg.solver == "oracle":
        market, contract = cfg.market(), cfg.contract()
        return [oracle.oracle_price(s, market, contract, cfg.oracle_steps, cfg.accrued)
                for s in spots]
    if cfg.solver == "lattice":
        values = [problems.fold_values(_stream(cfg, [s]), [s])[0] for s in spots]
    else:
        stream = _stream(cfg, spots)
        if stream is None:
            return [s + cfg.accrued - cfg.principal for s in spots]
        values = problems.fold_values(stream, spots, cfg.accrued if cfg.solver == "fsg" else None)
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
    *_, problems = _solvers()
    return problems.fold_boundary(stream, cfg.tol)


def _csv(cfg: RunConfig, header: str, rows: list[str]) -> str:
    lines = [f"# {SCHEMA_VERSION}", f"# config: {cfg.to_json()}", header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def cmd_price(cfg: RunConfig, args: argparse.Namespace) -> str:
    return _fmt(_values(cfg, [cfg.spot])[0]) + "\n"


def cmd_boundary(cfg: RunConfig, args: argparse.Namespace) -> str:
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


def cmd_perpetual(cfg: RunConfig, args: argparse.Namespace) -> str:
    market, contract = cfg.market(), cfg.contract()
    if cfg.regime == 3:
        boundary = closedform.perpetual_regime3(market, contract).boundary
        return f"x_star_inf={_fmt(boundary)}\n"
    perpetual = closedform.perpetual_regime1 if cfg.regime == 1 else closedform.perpetual_regime2
    res = perpetual(market, contract)
    lines = [f"alpha_plus={_fmt(res.alpha_plus)}", f"alpha_minus={_fmt(res.alpha_minus)}",
             f"x_star_inf={_fmt(res.x_star_inf)}"]
    if res.c1 is not None:
        lines.append(f"c1={_fmt(res.c1)}")
    return "\n".join(lines) + "\n"


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> str:
    if args.param == "spot":
        prices = _values(cfg, [point.spot for point in args.points])
    else:
        prices = [_values(point, [point.spot])[0] for point in args.points]
    rows = [f"{_fmt(getattr(point, args.param))},{_fmt(price)}"
            for point, price in zip(args.points, prices)]
    return _csv(cfg, f"{args.param},value", rows)


def cmd_figure(cfg: RunConfig, args: argparse.Namespace) -> str:
    """Reproduce a standard boundary plot as CSV.

    Figures 1 and 2 are the three one-dimensional redeeming boundaries over
    a five-year horizon at high and moderate volatility; figures 3 and 4
    are account-level snapshots of the cash-dividend boundary surface at
    one and three years to go on a three-year contract.
    """
    _, _, target = _FIGURES[args.number]
    if target is None:
        curves = [_boundary(dataclasses.replace(cfg, regime=regime)) for regime in (1, 2, 3)]
        rows = []
        for m, tau in enumerate(curves[0].tau_grid):
            stars = ",".join(_fmt(c.x_star[m]) for c in curves)
            rows.append(f"{_fmt(tau)},{stars}")
        return _csv(cfg, "tau,x1_star,x2_star,x3_star", rows)
    curve = _boundary(cfg)
    taus = curve.tau_grid.tolist()
    layer = min(range(len(taus)), key=lambda m: abs(taus[m] - target))  # the first nearest
    rows = [f"{_fmt(a)},{_fmt(star)}" for a, star in zip(curve.a_grid, curve.x_star[layer])]
    return _csv(cfg, "a,x_star", rows)


def cmd_oracle_check(cfg: RunConfig, args: argparse.Namespace) -> str:
    solver_value = _values(cfg, [cfg.spot])[0]
    *_, oracle, _ = _solvers()
    oracle_value = oracle.oracle_price(cfg.spot, cfg.market(), cfg.contract(), cfg.oracle_steps,
                                       cfg.accrued)
    return (f"solver_value={_fmt(solver_value)}\noracle_value={_fmt(oracle_value)}\n"
            f"abs_diff={_fmt(abs(solver_value - oracle_value))}\n")


# Per subcommand: its help, its handler, the optional fields it reads ("grid": its solver's
# grid fields; a command without them has no solver) and, where narrower than its solver's,
# the solvers, regimes and variants it covers, each with the refusal of one outside them.
_GRID_SOLVERS = (("lattice", "fd", "fsg"), "solver {solver!r} does not produce boundary output")
_COMMANDS: dict[str, dict] = {
    "price": dict(help="print the contract value at the configured state", run=cmd_price,
                  reads=("solver", "grid")),
    "boundary": dict(help="write the redeeming boundary as CSV", run=cmd_boundary,
                     reads=("solver", "grid", "tol"), solvers=_GRID_SOLVERS),
    "perpetual": dict(help="print the infinite-maturity closed form", run=cmd_perpetual, reads=(),
                      regimes=((1, 2, 3), "no perpetual closed form exists for regime {regime}"),
                      variants=((), "the perpetual closed forms cover the regimes, not variants")),
    "oracle-check": dict(
        help="compare the configured solver against the path tree", run=cmd_oracle_check,
        reads=("solver", "grid", "oracle_steps"),
        variants=((), "the path-tree check covers the four regimes, not variants")),
    "sweep": dict(help="price across a list of parameter values", run=cmd_sweep,
                  reads=("solver", "grid")),
    "figure": dict(help="reproduce a standard boundary figure as CSV", run=cmd_figure,
                   reads=("grid", "tol"), solvers=_GRID_SOLVERS,
                   variants=((), "figures cover the dividend regimes, not variants")),
}


def _add_override_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--output", help="write output to this file instead of stdout")
    for name in _FLOAT_FIELDS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, default=None, dest=name)
    for name in _INT_FIELDS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=int, default=None, dest=name)
    parser.add_argument("--solver", choices=sorted(_SOLVERS), default=None)
    parser.add_argument("--variant", choices=_VARIANTS, default=None)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand's arguments or only those argv needs.

    Given argv whose first word names a subcommand, only that subcommand
    gets its arguments, which is most of a cheap command's start-up; the
    parse, every help text and every usage error are those of the full
    parser.
    """
    parser = argparse.ArgumentParser(
        prog="stockloan",
        description="Price finite-maturity stock loans and extract redeeming boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command["help"])
        if named not in (None, name):
            continue
        if name == "figure":
            p.add_argument("number", type=int, choices=(1, 2, 3, 4))
        _add_override_arguments(p)
        if name == "sweep":
            p.add_argument("--param", required=True, help="configuration field to sweep")
            p.add_argument("--values", required=True, help="comma-separated list of values")
    return parser


@functools.cache
def _parser(named: str | None) -> argparse.ArgumentParser:
    """build_parser's parser for an argv whose first word is the subcommand named, or names
    none; built once per process, since parse_args keeps no state from one call to the next."""
    return build_parser([named] if named else None)


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with a token such as -1e-3 or -0.01,0.02 joined to the flag before it by "=".

    argparse reads a token that starts with "-" as a value only in the forms
    -1 and -1.5.  No option starts with "-" and a digit or point, and every
    flag but --help takes a value.
    """
    joined: list[str] = []
    for token in argv:
        prev = joined[-1] if joined else ""
        takes_value = prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
        if takes_value and re.match(r"-[\d.]", token):
            joined[-1] = f"{prev}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(argv)
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    cfg = None
    try:
        cfg = _load_config(args)
        text = _COMMANDS[args.command]["run"](cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value overflows a float: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        if cfg is None:
            print("error: not enough memory to read the configuration", file=sys.stderr)
            return 2
        grid = ", ".join(f"{name}={getattr(cfg, name)}" for name in _SOLVERS[cfg.solver]["grid"])
        print(f"error: not enough memory for the {cfg.solver} grid ({grid})", file=sys.stderr)
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
