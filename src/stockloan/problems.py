"""The one-dimensional stock-loan obstacle problems, defined once, and the folds over a march.

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
all three, the log-spaced stock grid and its stencil).  Grids whose top
node would overflow a float, or too coarse to price on, are refused.

Every grid backend hands its march over as one LayerStream, terminal layer
first, and three folds read it: fold_values keeps the last layer and reads
the values off it, fold_boundary scans each layer for the smallest node
tying with the obstacle, and fold_surface keeps every layer in a value
surface, which refuses any query off its layers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Literal

import numpy as np

from .contracts import (
    DividendRegime,
    LoanContract,
    MarketParams,
    classify,
    reduce_regime2,
)

ProblemKind = Literal["regime1", "regime2", "regime3", "amortized", "withdrawable"]

# exp() of anything above this overflows a float.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Widest log spacing of an accepted stock grid.  At 0.3 the regime-1 FD price
# on 400 time steps is already off by about 3 %, and the error grows as the
# square of the spacing (the measured table is in CHANGES.md).
MAX_LOG_SPACING = 0.3

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
    principal: float, sigma: float, maturity: float, nodes: int
) -> tuple[np.ndarray, float]:
    """Stock nodes evenly spaced in log(x), read-only, and their log spacing; returns (x, dy).

    The log domain is log(K) +- 6 sigma sqrt(T).  A top node that would
    overflow a float, or a spacing wider than MAX_LOG_SPACING, is refused
    with ValueError.
    """
    sig_span = 6.0 * sigma * math.sqrt(maturity)
    y_min = math.log(principal) - sig_span
    y_max = math.log(principal) + sig_span
    if y_max >= LOG_FLOAT_MAX:
        raise ValueError(
            f"the stock grid's top node exp({y_max:.6g}) overflows a float "
            f"(principal={principal}, sigma={sigma}, maturity={maturity})"
        )
    spacing = 2.0 * sig_span / (nodes - 1)
    if spacing > MAX_LOG_SPACING:
        raise ValueError(
            f"the stock grid's log spacing {spacing:.3g} exceeds "
            f"{MAX_LOG_SPACING} (sigma={sigma}, maturity={maturity}, nodes={nodes}); "
            f"use at least {math.floor(2.0 * sig_span / MAX_LOG_SPACING) + 2} stock nodes"
        )
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


Layer = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LayerStream:
    """A grid backend's march: its grids and its layers, terminal layer first.

    Each layer is (x, values, obstacle): the stock nodes, and the values and
    the redemption obstacle on them, with one column per level of a_grid when
    it is set (None in one dimension).  A layer may be a view of a buffer
    the march reuses, so it holds until the next one is drawn; only
    fold_surface copies.  principal scales the tie tolerance, ties above
    spatial_cap are not boundary points, label names the problem and
    solver_meta carries diagnostics, some of them filled in as the layers
    are drawn.  The builder of a stream checks its arguments before the
    first layer.
    """

    tau_grid: np.ndarray
    a_grid: np.ndarray | None
    principal: float
    spatial_cap: float
    label: str
    solver_meta: dict
    layers: Iterator[Layer]


def check_nodes(nodes: np.ndarray, x: float, tau: float) -> None:
    """Refuse an x outside the ascending nodes of the layer at tau with ValueError."""
    if not nodes[0] <= x <= nodes[-1]:
        raise ValueError(f"x={x} outside the surface nodes [{nodes[0]}, {nodes[-1]}] at tau={tau}")


def check_state(x_grid: np.ndarray, a_grid: np.ndarray, x: float, a: float) -> None:
    """Refuse a stock or account level off the grids with ValueError."""
    if not x_grid[0] <= x <= x_grid[-1]:
        raise ValueError(f"stock level {x} outside grid [{x_grid[0]}, {x_grid[-1]}]")
    if not a_grid[0] <= a <= a_grid[-1]:
        raise ValueError(f"account level {a} outside grid [0, {a_grid[-1]}]")


def bilinear(
    x_grid: np.ndarray, a_grid: np.ndarray, layer: np.ndarray, x: float, a: float
) -> float:
    """The two-dimensional layer at (x, a), linear in each of x and a."""
    i = int(np.clip(np.searchsorted(x_grid, x), 1, x_grid.size - 1))
    j = int(np.clip(np.searchsorted(a_grid, a), 1, a_grid.size - 1))
    wx = (x - x_grid[i - 1]) / (x_grid[i] - x_grid[i - 1])
    wa = (a - a_grid[j - 1]) / (a_grid[j] - a_grid[j - 1])
    return float(
        (1.0 - wx) * ((1.0 - wa) * layer[i - 1, j - 1] + wa * layer[i - 1, j])
        + wx * ((1.0 - wa) * layer[i, j - 1] + wa * layer[i, j])
    )


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

    def stream(self) -> LayerStream:
        """The stored layers as a stream again, for the folds."""
        return LayerStream(self.tau_grid, None, self.principal, self.spatial_cap, self.label,
                           self.solver_meta, zip(self.x_nodes, self.values, self.obstacles))

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
        check_nodes(self.x_nodes[j], x, tau)
        return float(np.interp(x, self.x_nodes[j], self.values[j]))


@dataclass(frozen=True)
class ValueSurface2D:
    """Stored layers of a two-dimensional solve, newest (largest tau) last.

    values[m] is an (x_nodes, a_nodes) array on the fixed grids; the
    redemption obstacle x + A - K does not depend on tau, so a single
    matrix serves every layer.  value_at refuses a state off the grids.
    """

    tau_grid: np.ndarray
    x_grid: np.ndarray
    a_grid: np.ndarray
    values: tuple[np.ndarray, ...]
    obstacle: np.ndarray
    principal: float
    label: str
    solver_meta: dict

    def layer_count(self) -> int:
        return len(self.values)

    def stream(self) -> LayerStream:
        """The stored layers as a stream again, for the folds."""
        layers = ((self.x_grid, v, self.obstacle) for v in self.values)
        return LayerStream(self.tau_grid, self.a_grid, self.principal, float(self.x_grid[-1]),
                           self.label, self.solver_meta, layers)

    def value_at(self, x: float, a: float, tau: float) -> float:
        """Interpolate the surface: bilinear in (x, A), linear in tau."""
        check_state(self.x_grid, self.a_grid, x, a)
        if not self.tau_grid[0] <= tau <= self.tau_grid[-1]:
            raise ValueError(f"tau {tau} outside [0, {self.tau_grid[-1]}]")
        m = int(np.clip(np.searchsorted(self.tau_grid, tau), 1, self.tau_grid.size - 1))
        w = (tau - self.tau_grid[m - 1]) / (self.tau_grid[m] - self.tau_grid[m - 1])
        lower = bilinear(self.x_grid, self.a_grid, self.values[m - 1], x, a)
        if w <= 0.0:
            return lower
        upper = bilinear(self.x_grid, self.a_grid, self.values[m], x, a)
        return (1.0 - w) * lower + w * upper


@dataclass(frozen=True)
class BoundaryCurve:
    """Redemption boundary per tau layer, and per account level when a_grid is set.

    x_star[m] is the smallest stock node in the redemption region of the
    layer at tau_grid[m]; for a two-dimensional surface a_grid holds the
    account levels scanned and x_star[m, j] the level at a_grid[j].  inf
    marks a layer (or column) where no node qualifies.  Drops in tau are
    never repaired; max_decrease records the largest, tests assert on it.
    """

    tau_grid: np.ndarray
    x_star: np.ndarray
    a_grid: np.ndarray | None = None

    @property
    def max_decrease(self) -> float:
        return max_decrease(self.x_star)

    def is_monotone(self, tolerance: float = 0.0) -> bool:
        return self.max_decrease <= tolerance


def slack_tolerance(tol: float, principal: float) -> float:
    """Slack below which a value ties with the obstacle: tol * principal, tol >= 0."""
    if tol < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return tol * principal


def first_tie(x: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Smallest node of the ascending x where ties holds, along axis 0; inf where none does."""
    return np.where(ties.any(axis=0), x[ties.argmax(axis=0)], math.inf)


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


def fold_values(stream: LayerStream, spots: list[float], accrued: float = 0.0) -> list[float]:
    """The values at spots (and, in two dimensions, the account accrued) at the maturity.

    Keeps one layer and reads the last, linearly in x (and in the account).
    The spots are the ones the stream's builder checked.
    """
    for x, v, _ in stream.layers:
        pass
    if stream.a_grid is None:
        return [float(np.interp(s, x, v)) for s in spots]
    return [bilinear(x, stream.a_grid, v, s, accrued) for s in spots]


def fold_boundary(stream: LayerStream, tol: float = 1e-7) -> BoundaryCurve:
    """The redemption boundary, read off each layer as it is drawn.

    Per layer, the boundary is the smallest node at or below spatial_cap
    whose value sits within tol * principal of the obstacle (ties count as
    redemption), inf where none does.  In two dimensions only the account
    columns strictly below the principal are scanned: at and above it every
    state redeems and there is no boundary to locate.  The curve is never
    monotonized.  A negative tol is refused before the first layer.
    """
    slack_tol = slack_tolerance(tol, stream.principal)
    a_cols, cols = stream.a_grid, slice(None)
    if a_cols is not None:
        # the account grid ascends from 0, so the columns below the principal come first
        a_cols = frozen(a_cols[a_cols < stream.principal * (1.0 - 1e-12)])
        cols = slice(a_cols.size)
    stars = np.array([first_tie(x, (v - obs <= slack_tol)[..., cols])
                      for x, v, obs in stream.layers])
    # x ascends, so a tie at or below spatial_cap exists only if the first tie is one
    stars[stars > stream.spatial_cap] = math.inf
    return BoundaryCurve(stream.tau_grid, frozen(stars), a_cols)


def fold_surface(stream: LayerStream) -> ValueSurface1D | ValueSurface2D:
    """Every layer, copied and read-only, in a value surface.

    Stock nodes and obstacles that equal the previous layer's are stored
    once.
    """
    xs: list[np.ndarray] = []
    values = []
    obstacles: list[np.ndarray] = []
    for x, v, obs in stream.layers:
        for kept, arr in ((xs, x), (obstacles, obs)):
            kept.append(kept[-1] if kept and np.array_equal(arr, kept[-1]) else frozen(arr.copy()))
        values.append(frozen(v.copy()))
    if stream.a_grid is None:
        return ValueSurface1D(stream.tau_grid, tuple(xs), tuple(values), tuple(obstacles),
                              stream.principal, stream.spatial_cap, stream.label,
                              stream.solver_meta)
    return ValueSurface2D(stream.tau_grid, xs[0], stream.a_grid, tuple(values), obstacles[0],
                          stream.principal, stream.label, stream.solver_meta)


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
        constrained = classify(market, contract).has_boundary
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
