"""Binomial-lattice pricing for the one-dimensional stock-loan problems.

Every problem is marched on a recombining CRR tree built from the spec
that problems.problem_spec writes out for it: the per-step growth factor is
exp(drift * dt), each expectation is discounted at the spec's rate, and a
running source is added explicitly after discounting, before the value is
floored at the obstacle and clamped at the cap.

One march builds the tree layer by layer, terminal layer first and root
last.  lattice_surface, and the price_* functions that wrap it, keep every
layer in a surface, so redemption boundaries can be read off afterwards
(immutable once returned); lattice_value keeps only the layer being built
and the one before it, for callers that need the root value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .contracts import LoanContract, MarketParams
from .problems import (
    BoundaryCurve,
    ProblemSpec,
    ValueSurface1D,
    VIProblem,
    frozen,
    max_decrease,
    problem_spec,
    tau_grid,
)

# Boundary extraction searches nodes up to this many principals before
# declaring the boundary unbounded at a layer.
_X_MAX_MULT = 8.0


@dataclass(frozen=True)
class LatticeConfig:
    """Tree resolution: steps is the number of time steps."""

    steps: int = 2000

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")


def crr_step_params(
    sigma: float, drift: float, rate: float, dt: float
) -> tuple[float, float, float, float]:
    """CRR step: up/down factors, up probability and one-step discount.

    drift is the risk-neutral growth rate of the lattice state and rate the
    discount rate, both per unit time.  The martingale probability must lie
    strictly inside (0, 1) or the step size is too coarse for the drift.
    """
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    p = (math.exp(drift * dt) - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise ValueError(
            f"risk-neutral step probability {p:.6g} falls outside (0, 1); "
            f"increase the step count so that |drift|*sqrt(dt) stays well below sigma "
            f"(drift={drift:.6g}, sigma={sigma:.6g}, dt={dt:.6g})"
        )
    return u, d, p, math.exp(-rate * dt)


def _march(
    spot: float, problem: VIProblem, config: LatticeConfig
) -> tuple[ProblemSpec, np.ndarray, dict, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Set up the tree for problem; returns (spec, tau grid, solver_meta, layers).

    layers yields (nodes, values, obstacle) for every layer, terminal layer
    first and root last; it keeps only the layer it is building and the one
    before it.  Arguments are checked here, before the first layer is built.
    """
    if spot <= 0.0:
        raise ValueError(f"spot must be positive, got {spot}")
    spec = problem_spec(problem)
    steps = config.steps
    dt = problem.contract.maturity / steps
    taus = tau_grid(problem.contract.maturity, steps)
    u, d, p, disc = crr_step_params(spec.sigma, spec.drift, spec.rate, dt)
    log_u = math.log(u)
    q = 1.0 - p
    cap, source = spec.cap, spec.source
    meta = {"solver": "lattice", "steps": steps, "dt": dt, "up_factor": u, "up_probability": p}

    def layer_nodes(level: int) -> np.ndarray:
        return spot * np.exp(log_u * (2.0 * np.arange(level + 1) - level))

    def layers() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        x = layer_nodes(steps)
        v = np.asarray(spec.terminal(x), dtype=float)
        obs = np.asarray(spec.obstacle(x, 0.0), dtype=float)
        if cap is not None:
            v = np.minimum(v, cap)
        for j in range(1, steps + 1):
            yield x, v, obs
            x = layer_nodes(steps - j)
            cont = disc * (p * v[1:] + q * v[:-1])
            if source is not None:
                cont = cont + source(x) * dt
            obs = np.asarray(spec.obstacle(x, float(taus[j])), dtype=float)
            v = np.maximum(cont, obs)
            if cap is not None:
                v = np.minimum(v, cap)
        # The root depends on every node of every layer (0 < p < 1), and the
        # expectation, np.maximum and np.minimum all carry a NaN forward, so
        # a NaN anywhere in the tree shows up here.
        if np.isnan(v[0]):
            raise RuntimeError(f"lattice produced NaN values for problem {spec.label!r}")
        yield x, v, obs

    return spec, taus, meta, layers()


def lattice_value(spot: float, problem: VIProblem, config: LatticeConfig) -> float:
    """Value of problem at spot, read off the root without keeping the tree.

    Memory grows with the step count, not its square.  The value is the
    root of the surface lattice_surface returns, bit for bit.
    """
    *_, layers = _march(spot, problem, config)
    for _, v, _ in layers:
        pass
    return float(v[0])


def lattice_surface(
    spot: float, problem: VIProblem, config: LatticeConfig
) -> tuple[float, ValueSurface1D]:
    """Value of problem at spot and the whole tree it was read off; returns (value, surface).

    Memory grows with the square of the step count.
    """
    spec, taus, meta, layers = _march(spot, problem, config)
    xs, vals, obss = zip(*[tuple(map(frozen, layer)) for layer in layers])
    surface = ValueSurface1D(
        tau_grid=taus,
        x_nodes=xs,
        values=vals,
        obstacles=obss,
        principal=problem.contract.principal,
        spatial_cap=_X_MAX_MULT * problem.contract.principal,
        label=spec.label,
        solver_meta=meta,
    )
    return float(vals[-1][0]), surface


def price_regime1(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface1D]:
    """Price a lender-keeps-dividends loan; returns (value, surface).

    The surface lives in similarity coordinates; at t = 0 those coincide
    with cash coordinates, so the returned value is the loan value at spot.
    """
    return lattice_surface(spot, VIProblem("regime1", market, contract), config)


def price_regime2(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface1D]:
    """Price a reinvested-dividend loan via its dividend-free reduction.

    The surface is indexed by the scaled reinvested position; at t = 0 the
    position equals the stock, so the value is again read off at spot.
    """
    return lattice_surface(spot, VIProblem("regime2", market, contract), config)


def price_regime3(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface1D]:
    """Price a delivered-dividend loan net of already-delivered dividends.

    The value solves the obstacle problem with dividend inflow delta * x as
    an explicit source added after discounting each expectation.  The full
    loan price is this value plus the dividends already delivered, which the
    caller adds at the API boundary.
    """
    return lattice_surface(spot, VIProblem("regime3", market, contract), config)


def price_amortized(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface1D]:
    """Price the amortizing variant, where the loan is repaid continuously.

    The borrower pays at the constant rate c = amortized_payment_rate and
    may stop at any time by handing the remaining balance back, keeping the
    stock.  Payments act as a sink -c; the obstacle is the stock minus the
    outstanding balance and at maturity the stock is owned outright.  Cash
    coordinates throughout; values may go negative near S = 0, where the
    remaining payment stream dominates.
    """
    return lattice_surface(spot, VIProblem("amortized", market, contract), config)


def price_withdrawable(
    spot: float,
    market: MarketParams,
    contract: LoanContract,
    config: LatticeConfig,
    cap: float,
) -> tuple[float, ValueSurface1D]:
    """Price the variant where the lender may cash the borrower out at cap.

    The borrower redeems as usual against the accreted balance, but the
    position value is clamped at the withdrawal cap L from above: whenever
    intrinsic value exceeds L the lender settles at L, so the upper clamp
    wins over the redemption obstacle.  Cash coordinates.
    """
    return lattice_surface(spot, VIProblem("withdrawable", market, contract, cap), config)


def extract_boundary(surface: ValueSurface1D, tol: float = 1e-7) -> BoundaryCurve:
    """Read the redemption boundary off a value surface.

    Per tau layer, the boundary is the smallest node whose value sits within
    tol * principal of the obstacle (ties count as redemption).  Layers with
    no qualifying node below the spatial cap report inf.  The curve is never
    monotonized; the largest decrease between consecutive layers is recorded
    so callers can assert on it.
    """
    if tol < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    slack_tol = tol * surface.principal
    stars = np.empty(surface.layer_count())
    for j in range(surface.layer_count()):
        x = surface.x_nodes[j]
        slack = surface.values[j] - surface.obstacles[j]
        hit = np.flatnonzero((slack <= slack_tol) & (x <= surface.spatial_cap))
        stars[j] = x[hit[0]] if hit.size else math.inf
    return BoundaryCurve(
        tau_grid=surface.tau_grid, x_star=frozen(stars), max_decrease=max_decrease(stars)
    )
