"""The one-dimensional stock-loan obstacle problems, defined once.

Every one-dimensional contract is the same optimal-redemption problem: a
value that dominates a redemption obstacle, grows under a lognormal state
with a given drift and discount rate, collects an optional running source
and starts from a terminal payoff.  The dividend regimes and the two loan
variants differ only in those ingredients, in an optional cap from above
and in the values the problem takes at the ends of a truncated grid.
problem_spec writes them out per problem kind; the lattice and the
finite-difference backends both march the spec they get from it.

Regimes 1 to 3 live in similarity coordinates, where the obstacle x - K is
time independent, the drift is r - gamma - delta and the discount rate is
r - gamma; regime 2 is first rebooked as its dividend-free regime-1
equivalent.  The amortizing and withdrawable variants keep calendar cash
coordinates because their obstacles do not scale with exp(gamma * t).

The grids the backends step on are built here too (the layer times of
all three, the log-spaced stock grid and its stencil), as are the value
surface, which refuses any query off its layers, and the boundary types
with the monotonicity scan every boundary reader shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .contracts import (
    DividendRegime,
    LoanContract,
    MarketParams,
    RegionKind,
    classify,
    reduce_regime2,
)

ProblemKind = Literal["regime1", "regime2", "regime3", "amortized", "withdrawable"]

_REGIME_KINDS: dict[DividendRegime, ProblemKind] = {
    DividendRegime.LENDER_KEEPS: "regime1",
    DividendRegime.REINVESTED_RETURNED_ON_REDEMPTION: "regime2",
    DividendRegime.DELIVERED_IMMEDIATELY: "regime3",
}


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark arr read-only and return it."""
    arr.flags.writeable = False
    return arr


def tau_grid(maturity: float, steps: int) -> np.ndarray:
    """Times to maturity of the steps + 1 layers: j * (maturity / steps), last exactly maturity.

    steps * (maturity / steps) itself can fall one ulp short of the maturity.
    """
    return frozen(np.linspace(0.0, maturity, steps + 1))


def log_x_grid(
    principal: float, sigma: float, maturity: float, nodes: int,
    log_x_min: float | None = None, log_x_max: float | None = None,
) -> tuple[np.ndarray, float]:
    """Stock nodes evenly spaced in log(x), read-only, and their log spacing; returns (x, dy).

    The log domain is log(K) +- 6 sigma sqrt(T) unless log_x_min or
    log_x_max sets an end.
    """
    sig_span = 6.0 * sigma * math.sqrt(maturity)
    y_min = math.log(principal) - sig_span if log_x_min is None else log_x_min
    y_max = math.log(principal) + sig_span if log_x_max is None else log_x_max
    y = np.linspace(y_min, y_max, nodes)
    return frozen(np.exp(y)), float(y[1] - y[0])


def log_stencil(
    sigma: float, drift: float, rate: float, dy: float
) -> tuple[float, float, float]:
    """Constant stencil (lo, mid, up) of the pricing operator in log space.

    Central differencing for the convection term nu = drift - sigma^2 / 2,
    switching to one-sided differencing when central weights would turn
    negative, so lo and up stay nonnegative.  Shared by the one-dimensional
    solver and the stock direction of the forward-shooting-grid solver.
    """
    s2 = sigma * sigma
    nu = drift - 0.5 * s2
    diff = 0.5 * s2 / (dy * dy)
    if abs(nu) * dy <= s2:
        lo = diff - nu / (2.0 * dy)
        up = diff + nu / (2.0 * dy)
        mid = -s2 / (dy * dy) - rate
    elif nu > 0.0:
        lo = diff
        up = diff + nu / dy
        mid = -s2 / (dy * dy) - nu / dy - rate
    else:
        lo = diff - nu / dy
        up = diff
        mid = -s2 / (dy * dy) + nu / dy - rate
    return lo, mid, up


@dataclass(frozen=True)
class ValueSurface1D:
    """Value surface on a one-dimensional grid, one layer per time to maturity.

    tau_grid ascends from 0 (the terminal layer) to the maturity.  Layer j
    holds node coordinates x_nodes[j], values and the redemption obstacle.
    principal scales tolerances; spatial_cap bounds boundary extraction;
    label names the problem and solver_meta carries diagnostics.
    """

    tau_grid: np.ndarray
    x_nodes: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    obstacles: tuple[np.ndarray, ...]
    principal: float
    spatial_cap: float
    label: str
    solver_meta: dict

    def layer_count(self) -> int:
        return len(self.tau_grid)

    def value_at(self, x: float, tau: float) -> float:
        """Bilinear lookup: linear in x within layers, linear across tau.

        A tau off the surface, or an x outside the nodes of a layer the
        lookup reads, is refused with ValueError.
        """
        taus = self.tau_grid
        if not taus[0] <= tau <= taus[-1]:
            raise ValueError(f"tau={tau} outside surface range [{taus[0]}, {taus[-1]}]")
        j_hi = int(np.searchsorted(taus, tau))
        if j_hi == 0 or taus[j_hi] == tau:
            return self._layer_value(j_hi, x, tau)
        j_lo = j_hi - 1
        v_lo = self._layer_value(j_lo, x, tau)
        v_hi = self._layer_value(j_hi, x, tau)
        w = (tau - taus[j_lo]) / (taus[j_hi] - taus[j_lo])
        return (1.0 - w) * v_lo + w * v_hi

    def _layer_value(self, j: int, x: float, tau: float) -> float:
        nodes = self.x_nodes[j]
        if not nodes[0] <= x <= nodes[-1]:
            raise ValueError(
                f"x={x} outside the surface nodes [{nodes[0]}, {nodes[-1]}] at tau={tau}"
            )
        return float(np.interp(x, nodes, self.values[j]))


@dataclass(frozen=True)
class BoundaryCurve:
    """Redemption boundary per tau layer, with monotonicity metadata.

    x_star holds the smallest node in the redemption region of each layer,
    or inf where no node within the spatial cap qualifies.  max_decrease
    records the largest observed drop between consecutive finite entries;
    construction never repairs violations, tests assert on them.
    """

    tau_grid: np.ndarray
    x_star: np.ndarray
    max_decrease: float

    def is_monotone(self, tolerance: float = 0.0) -> bool:
        return self.max_decrease <= tolerance


def max_decrease(stars: np.ndarray) -> float:
    """Largest drop between consecutive tau layers (axis 0) of boundary levels.

    Pairs where both levels are infinite are skipped; a finite level after
    an infinite one counts as an infinite drop.  Never negative.
    """
    left, right = stars[:-1], stars[1:]
    both_inf = np.isinf(left) & np.isinf(right)
    with np.errstate(invalid="ignore"):
        drops = (left - right)[~both_inf]
    return max(0.0, float(drops.max())) if drops.size else 0.0


@dataclass(frozen=True)
class VIProblem:
    """A one-dimensional variational-inequality pricing problem.

    kind selects among the three similarity regimes and the two cash-basis
    loan variants.  cap is the withdrawal cap L and is required exactly for
    the withdrawable kind.
    """

    kind: ProblemKind
    market: MarketParams
    contract: LoanContract
    cap: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("regime1", "regime2", "regime3", "amortized", "withdrawable"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "withdrawable":
            if self.cap is None or not 0.0 < self.cap < self.contract.principal:
                raise ValueError(
                    f"withdrawable problems need a cap in (0, principal), got {self.cap}"
                )
        elif self.cap is not None:
            raise ValueError(f"cap only applies to withdrawable problems, got kind {self.kind!r}")
        if self.kind in _REGIME_KINDS.values():
            expected = {v: k for k, v in _REGIME_KINDS.items()}[self.kind]
            if self.contract.regime is not expected:
                raise ValueError(
                    f"problem kind {self.kind!r} requires contract regime {expected!r}, "
                    f"got {self.contract.regime!r}"
                )

    @staticmethod
    def from_regime(
        market: MarketParams, contract: LoanContract, cap: float | None = None
    ) -> "VIProblem":
        if contract.regime not in _REGIME_KINDS:
            raise ValueError(f"no one-dimensional problem for regime {contract.regime!r}")
        return VIProblem(_REGIME_KINDS[contract.regime], market, contract, cap)


@dataclass(frozen=True)
class ProblemSpec:
    """Everything a backend needs to march one problem kind.

    The state follows a lognormal law with volatility sigma and growth rate
    drift; values discount at rate.  terminal(x) is the payoff at tau = 0,
    obstacle(x, tau) the redemption value, source(x) a running inflow per
    unit time (None when absent) and cap an upper clamp on the value (None
    when absent).  near_field(tau, x) and far_field(tau, x) are the values
    at the bottom and top of a truncated grid.  constrained is False when
    early redemption is never optimal, so the obstacle never binds.
    """

    sigma: float
    drift: float
    rate: float
    terminal: Callable[[np.ndarray], np.ndarray]
    obstacle: Callable[[np.ndarray, float], np.ndarray]
    source: Callable[[np.ndarray], np.ndarray] | None
    cap: float | None
    near_field: Callable[[float, float], float]
    far_field: Callable[[float, float], float]
    constrained: bool
    label: str


def amortized_payment_rate(contract: LoanContract) -> float:
    """Continuous payment rate that fully amortizes the principal by maturity.

    Solves K = integral_0^T c * exp(-gamma * t) dt for c, giving
    c = gamma * K / (1 - exp(-gamma * T)) with the gamma -> 0 limit K / T.
    """
    gamma, principal, maturity = contract.loan_rate, contract.principal, contract.maturity
    if gamma == 0.0:
        return principal / maturity
    return gamma * principal / -math.expm1(-gamma * maturity)


def problem_spec(problem: VIProblem) -> ProblemSpec:
    """Write out the terminal payoff, obstacle, source and grid-edge values of problem.

    The far field takes the larger of the obstacle and the discounted-forward
    European asymptote, which reproduces the obstacle in redeeming regimes
    and the asymptote in empty ones.  The near field is the value at x = 0:
    zero for regimes 1 and 2 and the withdrawable variant, the accumulated
    dividend stream for regime 3, the annuity of remaining payments for the
    amortizing variant.
    """
    market, contract = problem.market, problem.contract
    principal = contract.principal
    kind = problem.kind

    if kind in ("regime1", "regime2", "regime3"):
        if kind == "regime2":
            market, contract = reduce_regime2(market, contract)
        r_bar = market.r - contract.loan_rate
        delta = market.delta
        constrained = classify(market, contract).redemption_region_kind is not RegionKind.EMPTY
        if kind == "regime3" and delta > 0.0:
            source = lambda x: delta * x  # noqa: E731
            near = lambda tau, x: x * -math.expm1(-delta * tau)  # noqa: E731
            # the delivered stream offsets the yield drag, so the far-field
            # forward carries the full spot rather than x exp(-delta tau)
            forward = lambda tau, x: x  # noqa: E731
        else:
            source = None
            near = lambda tau, x: 0.0  # noqa: E731
            forward = lambda tau, x: x * math.exp(-delta * tau)  # noqa: E731

        def far(tau: float, x: float) -> float:
            return max(x - principal, forward(tau, x) - principal * math.exp(-r_bar * tau))

        return ProblemSpec(
            sigma=market.sigma,
            drift=r_bar - delta,
            rate=r_bar,
            terminal=lambda x: np.maximum(x - principal, 0.0),
            obstacle=lambda x, tau: x - principal,
            source=source,
            cap=None,
            near_field=near,
            far_field=far,
            constrained=constrained,
            label=kind,
        )

    r, delta = market.r, market.delta
    gamma = contract.loan_rate

    if kind == "amortized":
        rate_c = amortized_payment_rate(contract)

        def outstanding(tau: float) -> float:
            # Present balance of the remaining payments: (c/gamma)(1 - exp(-gamma*tau)).
            if gamma == 0.0:
                return rate_c * tau
            return rate_c / gamma * -math.expm1(-gamma * tau)

        def annuity(tau: float) -> float:
            return rate_c / r * -math.expm1(-r * tau)

        return ProblemSpec(
            sigma=market.sigma,
            drift=r - delta,
            rate=r,
            terminal=lambda z: z.copy(),
            obstacle=lambda z, tau: z - outstanding(tau),
            source=lambda z: np.full_like(z, -rate_c),
            cap=None,
            near_field=lambda tau, x: -annuity(tau),
            far_field=lambda tau, x: max(
                x - outstanding(tau), x * math.exp(-delta * tau) - annuity(tau)
            ),
            constrained=True,
            label=kind,
        )

    cap = problem.cap
    maturity = contract.maturity
    terminal_balance = principal * math.exp(gamma * maturity)

    def balance_obstacle(z, tau: float):
        return z - principal * math.exp(gamma * (maturity - tau))

    return ProblemSpec(
        sigma=market.sigma,
        drift=r - delta,
        rate=r,
        terminal=lambda z: np.minimum(np.maximum(z - terminal_balance, 0.0), cap),
        obstacle=balance_obstacle,
        source=None,
        cap=cap,
        near_field=lambda tau, x: 0.0,
        far_field=lambda tau, x: min(
            cap,
            max(
                balance_obstacle(x, tau),
                x * math.exp(-delta * tau) - terminal_balance * math.exp(-r * tau),
            ),
        ),
        constrained=True,
        label=kind,
    )
