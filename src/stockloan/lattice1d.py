"""Binomial-lattice pricing for the one-dimensional stock-loan problems.

Every problem is marched on a recombining CRR tree built from the spec
that problems.problem_spec writes out for it: the per-step growth factor is
exp(drift * dt), the one-step discount at the spec's rate is folded into the
two branch weights that the path-tree oracle shares, and a running source is
added to the expectation before the value is floored at the obstacle and
clamped at the cap.

lattice_stream builds the tree layer by layer, terminal layer first and
root last; the folds of problems.py read it.  Every layer's nodes are a
contiguous slice of one parity of the ladder spot * exp(k log u),
k = -steps..steps, built before the first layer, as are its source and an
obstacle that does not depend on tau (problems.ProblemSpec.strike); a
strike that does is evaluated for every layer before the march, and its
obstacle written into a reused buffer.  Values alternate between two
buffers of steps + 1 floats.  So a layer calls no exp, helper or strike,
allocates nothing, and with no source and no cap is four numpy calls.
fold_values(lattice_stream(problem, config, spot), [spot]) reads the root
off it, keeping two layers; the price_* functions keep every layer in a
surface, so redemption boundaries can be read off afterwards (immutable
once returned).  Each takes its market and contract and refuses a contract
of another kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .contracts import LoanContract, MarketParams
from .problems import (
    LOG_FLOAT_MAX,
    BoundaryCurve,
    Layer,
    LayerStream,
    ValueSurface,
    VIProblem,
    check_state,
    fold_boundary,
    fold_surface,
    problem_spec,
    tau_grid,
)


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
    """CRR step: up factor, up probability p and the weights disc * p, disc * (1 - p).

    disc = exp(-rate * dt) is the one-step discount.  drift is the risk-neutral
    growth rate of the lattice state and rate the discount rate, both per
    unit time.  The martingale probability must lie strictly inside (0, 1)
    or the step size is too coarse for the drift; a volatility so small that
    the up and down factors round to one float is refused too.
    """
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    if u == d:
        raise ValueError(
            f"volatility sigma={sigma:.6g} is too small for a step of dt={dt:.6g}: "
            f"the up and down factors round to the same float"
        )
    p = (math.exp(drift * dt) - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise ValueError(
            f"risk-neutral step probability {p:.6g} falls outside (0, 1); "
            f"increase the step count so that |drift|*sqrt(dt) stays well below sigma "
            f"(drift={drift:.6g}, sigma={sigma:.6g}, dt={dt:.6g})"
        )
    disc = math.exp(-rate * dt)
    return u, p, disc * p, disc * (1.0 - p)


def lattice_stream(problem: VIProblem, config: LatticeConfig, spot: float) -> LayerStream:
    """The tree for problem centred on spot, as a stream of (nodes, values, obstacle) layers.

    Arguments are checked here (the spot by check_state, a regime-4 problem
    by problem_spec), before the first layer is built, down to a top node
    that would overflow a float.  A NaN anywhere in the tree is refused with
    RuntimeError when the root is drawn.  A layer's nodes are a view of the
    ladder, and its values a view of a buffer the march overwrites as soon
    as the next layer is drawn.  Memory grows with the step count, not its
    square: the node ladder, the source and the obstacle on it (or one
    obstacle buffer and each layer's strike) and two value buffers, each a
    few times steps floats.
    """
    check_state(spot)
    spec = problem_spec(problem)
    steps, maturity = config.steps, problem.contract.maturity
    dt = maturity / steps
    taus = tau_grid(maturity, steps)
    u, p, up, down = crr_step_params(spec.sigma, spec.drift, spec.rate, dt)
    log_u = math.log(u)
    if max(math.log(spot), 0.0) + steps * log_u >= LOG_FLOAT_MAX:
        raise ValueError(
            f"the tree's top node spot*exp(sigma*sqrt(T*steps)) overflows a float "
            f"(spot={spot}, sigma={spec.sigma}, T={maturity}, steps={steps})"
        )
    source, strike = spec.source, spec.strike
    # 0-d operands: a Python float costs each numpy call more, for the same bits
    up, down = np.asarray(up), np.asarray(down)
    cap = None if spec.cap is None else np.asarray(spec.cap)
    meta = {"solver": "lattice", "steps": steps, "dt": dt, "up_factor": u, "up_probability": p}

    def layers() -> Iterator[Layer]:
        # 2 i - level is an exact integer in a float, so every node equals
        # spot * exp(log_u * (2 i - level)) bit for bit.  Layer j's nodes are
        # ladder[j : 2 steps + 1 - j : 2], of parity j % 2: with each parity
        # stored contiguously, its indices j // 2 .. j // 2 + steps - j.
        ladder = spot * np.exp(log_u * np.arange(-steps, steps + 1, dtype=float))
        nodes = (ladder[0::2].copy(), ladder[1::2].copy())
        sources = None if source is None else tuple(source(n) * dt for n in nodes)
        buffers = (np.empty(steps + 1), np.empty(steps + 1))
        if callable(strike):
            # a strike that moves with tau is evaluated for every layer up
            # front; its obstacle is written into one reused buffer
            obstacles, strikes = None, [strike(tau) for tau in taus.tolist()]
            obs_buffer = np.empty(steps + 1)
            obs = np.subtract(nodes[0], strikes[0], out=obs_buffer)
        else:
            obstacles = (nodes[0] - strike, nodes[1] - strike)
            obs = obstacles[0]
        multiply, add, subtract = np.multiply, np.add, np.subtract
        maximum, minimum = np.maximum, np.minimum
        x, v = nodes[0], buffers[0]
        v[:] = spec.terminal(x)
        for j in range(1, steps + 1):
            yield x, v, obs
            par, off, size = j % 2, j // 2, steps + 1 - j
            end = off + size
            x = nodes[par][off:end]
            # up * v[1:] + down * v[:-1], computed in the other buffer; the
            # layer just drawn is no longer held, so down * v overwrites it
            low = v[:-1]
            cont = multiply(up, v[1:], out=buffers[par][:size])
            add(cont, multiply(down, low, out=low), out=cont)
            if sources is not None:
                add(cont, sources[par][off:end], out=cont)
            if obstacles is None:
                obs = subtract(x, strikes[j], out=obs_buffer[:size])
            else:
                obs = obstacles[par][off:end]
            v = maximum(cont, obs, out=cont)
            if cap is not None:
                minimum(v, cap, out=v)
        # The root depends on every node of every layer (0 < p < 1), and the
        # expectation, np.maximum and np.minimum all carry a NaN forward, so
        # a NaN anywhere in the tree shows up here.
        if np.isnan(v[0]):
            raise RuntimeError(f"lattice produced NaN values for problem {problem.kind!r}")
        yield x, v, obs

    # every node is a solved one, so each may be a boundary point
    return LayerStream(taus, None, problem.contract.principal, math.inf, spec.constrained, meta,
                       layers())


def _surface(kind: str, problem: VIProblem, config: LatticeConfig,
             spot: float) -> tuple[float, ValueSurface]:
    """Value of problem at spot and the whole tree it was read off; returns (value, surface).

    A problem not of the wrapper's kind is refused first.  Memory grows with
    the square of the step count.
    """
    if problem.kind != kind:
        raise ValueError(f"price_{kind} prices a {kind} loan, got {problem.kind}")
    surface = fold_surface(lattice_stream(problem, config, spot))
    return float(surface.values[-1][0]), surface


def price_regime1(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface]:
    """Price a lender-keeps-dividends loan; returns (value, surface).

    The surface lives in similarity coordinates; at t = 0 those coincide
    with cash coordinates, so the returned value is the loan value at spot.
    """
    return _surface("regime1", VIProblem(market, contract), config, spot)


def price_regime2(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface]:
    """Price a reinvested-dividend loan via its dividend-free reduction.

    The surface is indexed by the scaled reinvested position; at t = 0 the
    position equals the stock, so the value is again read off at spot.
    """
    return _surface("regime2", VIProblem(market, contract), config, spot)


def price_regime3(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface]:
    """Price a delivered-dividend loan net of already-delivered dividends.

    The value solves the obstacle problem with dividend inflow delta * x as
    an explicit source added after discounting each expectation.  The full
    loan price is this value plus the dividends already delivered, which the
    caller adds at the API boundary.
    """
    return _surface("regime3", VIProblem(market, contract), config, spot)


def price_amortized(
    spot: float, market: MarketParams, contract: LoanContract, config: LatticeConfig
) -> tuple[float, ValueSurface]:
    """Price the amortizing variant, where the loan is repaid continuously.

    The borrower pays at the constant rate c = amortized_payment_rate and
    may stop at any time by handing the remaining balance back, keeping the
    stock.  Payments act as a sink -c; the obstacle is the stock minus the
    outstanding balance and at maturity the stock is owned outright.  Cash
    coordinates throughout; values may go negative near S = 0, where the
    remaining payment stream dominates.
    """
    return _surface("amortized", VIProblem(market, contract, "amortized"), config, spot)


def price_withdrawable(
    spot: float,
    market: MarketParams,
    contract: LoanContract,
    config: LatticeConfig,
    cap: float,
) -> tuple[float, ValueSurface]:
    """Price the variant where the lender may cash the borrower out at cap.

    The borrower redeems as usual against the accreted balance, but the
    position value is clamped at the withdrawal cap L from above: whenever
    intrinsic value exceeds L the lender settles at L, so the upper clamp
    wins over the redemption obstacle.  Cash coordinates.
    """
    return _surface("withdrawable", VIProblem(market, contract, "withdrawable", cap), config, spot)


def extract_boundary(surface: ValueSurface, tol: float = 1e-7) -> BoundaryCurve:
    """fold_boundary over the layers of a stored one-dimensional surface.

    Kept under this name for the tests and for the benchmark's tracer,
    which wraps it; the CLI folds the stream itself.
    """
    return fold_boundary(surface, tol)
