"""The benchmark's workloads: one round of CLI commands each, drawn from a seed.

A round is a fixed list of command classes.  The seed draws the state
variables (spot, accrued account, sweep points) and jitters sigma and r by
a few percent, never across r = gamma, so every seed exercises the same
code paths at nearly the same cost.  Every class keeps its default grid.
The principal K and loan rate gamma are fixed at 0.7 and 0.1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PRINCIPAL = 0.7
LOAN_RATE = 0.1

# Fields printed as CLI flags, in this order; `values` and `param` are sweep-only.
_FLAG_ORDER = (
    "regime", "variant", "solver", "spot", "accrued", "cap", "r", "delta", "sigma",
    "principal", "loan_rate", "maturity", "steps", "oracle_steps", "param", "values",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its class name, argv, and the parameters it was built from."""

    name: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def make_command(name: str, subcommand: str, positional: tuple[str, ...] = (), **params) -> Command:
    params.setdefault("principal", PRINCIPAL)
    params.setdefault("loan_rate", LOAN_RATE)
    argv = [subcommand, *positional]
    for key in _FLAG_ORDER:
        if params.get(key) is not None:
            argv += [f"--{key.replace('_', '-')}", _fmt(params[key])]
    return Command(name, tuple(argv), params)


class _Draw:
    """Seeded draws rounded to short decimals, so argv stays readable."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def jitter(self, centre: float, rel: float = 0.03) -> float:
        return round(centre * (1.0 + self.rng.uniform(-rel, rel)), 4)

    def uniform(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 4)

    def spots(self, n: int, lo: float, hi: float) -> list[float]:
        return sorted(self.uniform(lo, hi) for _ in range(n))


def fd_boundary(seed: int) -> list[Command]:
    """Crank-Nicolson boundaries, figures 1-2 and spot sweeps; PSOR dominates."""
    d = _Draw(seed)
    fd = {"solver": "fd"}
    return [
        make_command("boundary-fd-r1-T1", "boundary", regime=1, r=d.jitter(0.05), delta=0.03,
                     sigma=d.jitter(0.4), maturity=1.0, **fd),
        make_command("boundary-fd-r2-T2", "boundary", regime=2, r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.3), maturity=2.0, **fd),
        make_command("boundary-fd-r3-T3", "boundary", regime=3, r=d.jitter(0.04), delta=0.04,
                     sigma=d.jitter(0.35), maturity=3.0, **fd),
        make_command("boundary-fd-r1-T5", "boundary", regime=1, r=d.jitter(0.06), delta=0.02,
                     sigma=d.jitter(0.25), maturity=5.0, **fd),
        make_command("boundary-fd-amortized", "boundary", variant="amortized", r=d.jitter(0.06),
                     delta=0.03, sigma=d.jitter(0.4), maturity=2.0, **fd),
        make_command("boundary-fd-withdrawable", "boundary", variant="withdrawable", cap=0.5,
                     r=d.jitter(0.06), delta=0.03, sigma=d.jitter(0.4), maturity=1.0, **fd),
        make_command("figure-1", "figure", ("1",), r=d.jitter(0.06), delta=0.03, maturity=5.0),
        make_command("figure-2", "figure", ("2",), r=d.jitter(0.06), delta=0.03, maturity=5.0),
        make_command("sweep-fd-r1", "sweep", regime=1, r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.4), maturity=1.0, param="spot",
                     values=d.spots(3, 0.45, 1.3), **fd),
        make_command("sweep-fd-r3", "sweep", regime=3, r=d.jitter(0.05), delta=0.03,
                     sigma=d.jitter(0.3), maturity=2.0, param="spot",
                     values=d.spots(3, 0.45, 1.3), **fd),
        # r >= gamma: the unconstrained banded march, no PSOR.
        make_command("sweep-fd-r2-unconstrained", "sweep", regime=2, r=d.jitter(0.13),
                     delta=0.03, sigma=d.jitter(0.3), maturity=4.0, param="spot",
                     values=d.spots(4, 0.45, 1.3), **fd),
    ]


def fsg_surface(seed: int) -> list[Command]:
    """Forward-shooting-grid boundaries, figures 3-4 and prices; PSOR never runs."""
    d = _Draw(seed)
    fsg = {"solver": "fsg", "regime": 4}
    return [
        make_command("boundary-fsg-T1", "boundary", r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.4), maturity=1.0, **fsg),
        make_command("boundary-fsg-T3", "boundary", r=d.jitter(0.05), delta=0.04,
                     sigma=d.jitter(0.3), maturity=3.0, **fsg),
        # r >= gamma: the unconstrained march over a wider account grid.
        make_command("boundary-fsg-unconstrained", "boundary", r=d.jitter(0.13), delta=0.03,
                     sigma=d.jitter(0.4), maturity=2.0, **fsg),
        make_command("figure-3", "figure", ("3",), r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.4)),
        make_command("figure-4", "figure", ("4",), r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.3)),
        make_command("price-fsg-T1", "price", spot=d.uniform(0.5, 1.2),
                     accrued=d.uniform(0.0, 0.25), r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.4), maturity=1.0, **fsg),
        make_command("price-fsg-T3", "price", spot=d.uniform(0.5, 1.2),
                     accrued=d.uniform(0.0, 0.25), r=d.jitter(0.05), delta=0.04,
                     sigma=d.jitter(0.3), maturity=3.0, **fsg),
        # delta = 0 with an empty account: the same contract as regime 1.
        make_command("price-fsg-nodiv-T2", "price", spot=d.uniform(0.5, 1.2), accrued=0.0,
                     r=d.jitter(0.06), delta=0.0, sigma=d.jitter(0.4), maturity=2.0, **fsg),
        make_command("price-fsg-nodiv-T1", "price", spot=d.uniform(0.5, 1.2), accrued=0.0,
                     r=d.jitter(0.05), delta=0.0, sigma=d.jitter(0.3), maturity=1.0, **fsg),
        make_command("price-fsg-unconstrained", "price", spot=d.uniform(0.5, 1.2),
                     accrued=d.uniform(0.0, 0.25), r=d.jitter(0.13), delta=0.03,
                     sigma=d.jitter(0.4), maturity=2.0, **fsg),
    ]


def quote_mix(seed: int) -> list[Command]:
    """Cheap quotes: lattice prices, a lattice sweep, oracle checks and closed forms."""
    d = _Draw(seed)
    lat = {"solver": "lattice"}
    return [
        make_command("price-lattice-r1-2000", "price", regime=1, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.06), delta=0.03, sigma=d.jitter(0.4), maturity=1.0,
                     steps=2000, **lat),
        make_command("price-lattice-r2-4000", "price", regime=2, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.06), delta=0.03, sigma=d.jitter(0.3), maturity=2.0,
                     steps=4000, **lat),
        make_command("price-lattice-r3-8000", "price", regime=3, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.05), delta=0.03, sigma=d.jitter(0.4), maturity=1.0,
                     steps=8000, **lat),
        make_command("price-lattice-amortized", "price", variant="amortized",
                     spot=d.uniform(0.5, 1.2), r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.4), maturity=2.0, steps=2000, **lat),
        make_command("price-lattice-withdrawable", "price", variant="withdrawable", cap=0.5,
                     spot=d.uniform(0.5, 1.2), r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.4), maturity=1.0, steps=3000, **lat),
        # r >= gamma with no dividend drag: a European call, checked in closed form.
        make_command("price-lattice-r1-call", "price", regime=1, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.13), delta=0.0, sigma=d.jitter(0.3), maturity=3.0,
                     steps=4000, **lat),
        make_command("price-lattice-r2-call", "price", regime=2, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.12), delta=0.03, sigma=d.jitter(0.4), maturity=2.0,
                     steps=2000, **lat),
        make_command("sweep-lattice-r1", "sweep", regime=1, r=d.jitter(0.06), delta=0.03,
                     sigma=d.jitter(0.4), maturity=1.0, steps=2000, param="spot",
                     values=d.spots(4, 0.45, 1.3), **lat),
        make_command("oracle-check-r1", "oracle-check", regime=1, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.06), delta=0.03, sigma=d.jitter(0.4), maturity=1.0,
                     steps=12, oracle_steps=12, **lat),
        make_command("oracle-check-r2", "oracle-check", regime=2, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.06), delta=0.03, sigma=d.jitter(0.3), maturity=2.0,
                     steps=14, oracle_steps=14, **lat),
        make_command("oracle-check-r3", "oracle-check", regime=3, spot=d.uniform(0.5, 1.2),
                     r=d.jitter(0.05), delta=0.03, sigma=d.jitter(0.4), maturity=1.0,
                     steps=10, oracle_steps=10, **lat),
        make_command("perpetual-r1", "perpetual", regime=1, r=d.jitter(0.06),
                     delta=d.jitter(0.03), sigma=d.jitter(0.4), maturity=1.0),
        # sigma^2/2 stays below gamma - r, so the reinvested boundary is finite.
        make_command("perpetual-r2", "perpetual", regime=2, r=d.jitter(0.05), delta=0.03,
                     sigma=d.uniform(0.15, 0.25), maturity=1.0),
    ]


WORKLOADS = {
    "fd_boundary": fd_boundary,
    "fsg_surface": fsg_surface,
    "quote_mix": quote_mix,
}


def build(workload: str, seed: int) -> list[Command]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed)
