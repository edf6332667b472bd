"""The record of a loan to price, its one-dimensional obstacle problem, and the folds over a march.

Every one-dimensional contract is the same optimal-redemption problem: a
value that dominates a redemption obstacle, grows under a lognormal state
with a given drift and discount rate, collects an optional running source
and starts from a terminal payoff.  The dividend regimes and the two loan
variants differ only in those ingredients, in an optional cap from above
and in the values the problem takes at the ends of a truncated grid.
VIProblem is the one record of a loan to price, for every backend: the
market, the contract and, for the loan variants, which one; its kind is
derived from them.  problem_spec writes the ingredients out per kind; the
lattice and the finite-difference backends both march the spec they get
from it, and the forward-shooting grid takes the regime-4 loan, which has
no one-dimensional problem.

Regimes 1 to 3 live in similarity coordinates, where the obstacle x - K is
time independent, the drift is r - gamma - delta and the discount rate is
r - gamma; regime 2 is first rebooked as its dividend-free regime-1
equivalent.  The amortizing and withdrawable variants keep calendar cash
coordinates because their obstacles do not scale with exp(gamma * t).

The grids the backends step on are built here too: the layer times of
all three, and the log-spaced stock grid with its stencil, one decision
in log_grid.  A stock grid whose top node would overflow a float, too
coarse to price on, too fine for the floats, or so coarse that the drift
outruns the diffusion across a cell is refused there, before any march.

Every grid backend hands its march over as one LayerStream, terminal layer
first, and three folds read it: fold_values keeps the last layer and reads
the values off it, fold_boundary scans each layer for the smallest node
tying with the obstacle, and fold_surface keeps every layer in a value
surface: a stream whose layers are kept, so it folds again, and which
refuses any query off its layers.  All three carry the cash
account as an a_grid, None in one dimension, and read layers by read_layer,
which takes an account exactly when there is an a_grid.  check_state, the
one rule for a loan's state (S > 0, A >= 0, on the grid read), is applied by
the stream builders, the path-tree oracle and read_layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

import numpy as np

from .contracts import LoanContract, MarketParams, classify, reduce_regime2

ProblemKind = Literal["regime1", "regime2", "regime3", "regime4", "amortized", "withdrawable"]

# exp() of anything above this overflows a float.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Widest log spacing of an accepted stock grid.  At 0.3 the regime-1 FD price
# on 400 time steps is already off by about 3 %, and the error grows as the
# square of the spacing (the measured table is in CHANGES.md).
MAX_LOG_SPACING = 0.3
MIN_LOG_SPACING_ULPS = 4  # narrowest, in ulps of max(1, |log x|); table in CHANGES.md


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark arr read-only and return it."""
    arr.flags.writeable = False
    return arr


def tau_grid(maturity: float, steps: int) -> np.ndarray:
    """Times to maturity of the steps + 1 layers: j * (maturity / steps), last exactly maturity.

    steps * (maturity / steps) itself can fall one ulp short of the maturity.
    """
    return frozen(np.linspace(0.0, maturity, steps + 1))


def log_grid(
    principal: float, sigma: float, drift: float, rate: float, maturity: float, nodes: int
) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Stock nodes evenly spaced in log(x), read-only, and the pricing operator's stencil on them.

    Returns (x, (lo, mid, up)).  The log domain is log(K) +- 6 sigma sqrt(T).
    The stencil differences the convection term nu = drift - sigma^2 / 2
    centrally, so lo and up stay nonnegative, and every step matrix built
    on them an M-matrix, exactly while the cell Peclet number
    |nu| dy / sigma^2 is at most 1.  Refused with ValueError, in this
    order: a top node that would overflow a float, a spacing wider than
    MAX_LOG_SPACING, one too small for the floats (its square underflows to
    0, or it spans fewer than MIN_LOG_SPACING_ULPS ulps of the nodes), and
    a cell Peclet number above 1.  Shared by the one-dimensional solver and
    the stock direction of the forward-shooting-grid solver.
    """
    sig_span = 6.0 * sigma * math.sqrt(maturity)
    y_min = math.log(principal) - sig_span
    y_max = math.log(principal) + sig_span
    params = f"principal={principal}, sigma={sigma}, maturity={maturity}, nodes={nodes}"
    if y_max >= LOG_FLOAT_MAX:
        raise ValueError(f"the stock grid's top node exp({y_max:.6g}) overflows a float "
                         f"({params})")
    spacing = 2.0 * sig_span / (nodes - 1)
    if spacing > MAX_LOG_SPACING:
        raise ValueError(
            f"the stock grid's log spacing {spacing:.3g} exceeds {MAX_LOG_SPACING} ({params}); "
            f"use at least {math.floor(2.0 * sig_span / MAX_LOG_SPACING) + 2} stock nodes")
    y = np.linspace(y_min, y_max, nodes)
    dy = float(y[1] - y[0])
    if dy * dy == 0.0:
        raise ValueError(f"the stock grid's log spacing {dy:.3g} is too small for a float "
                         f"stencil, which divides by its square ({params})")
    # the floats resolve y to ulp(|y|), and exp(y) to ulp(1) relative to it
    if dy < MIN_LOG_SPACING_ULPS * math.ulp(max(1.0, abs(y_min), abs(y_max))):
        raise ValueError(f"the stock grid's log spacing {dy:.3g} spans fewer than "
                         f"{MIN_LOG_SPACING_ULPS} ulps of its nodes ({params})")
    s2 = sigma * sigma
    nu = drift - 0.5 * s2
    if not abs(nu) * dy <= s2:
        # a count past 2**53 is printed rounded, an infinite one as inf
        needed = np.floor(2.0 * sig_span * abs(nu) / s2) + 2.0
        raise ValueError(
            f"the stock grid's cell Peclet number {abs(nu) * dy / s2:.3g} exceeds 1: the drift "
            f"{drift:.6g} outruns the diffusion across each cell ({params}); "
            f"use at least {needed:.15g} stock nodes")
    diff = 0.5 * s2 / (dy * dy)
    stencil = (diff - nu / (2.0 * dy), -s2 / (dy * dy) - rate, diff + nu / (2.0 * dy))
    return frozen(np.exp(y)), stencil


Layer = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LayerStream:
    """A grid backend's march: its grids and its layers, terminal layer first.

    Each layer is (x, values, obstacle): the stock nodes, and the values and
    the redemption obstacle on them, with one column per level of a_grid when
    it is set (None in one dimension).  A layer may be a view of a buffer
    the march reuses, so it holds until the next one is drawn; only
    fold_surface copies.  principal scales the tie tolerance, ties above
    spatial_cap are not boundary points, constrained is False when the
    problem has no redemption region and solver_meta carries diagnostics,
    some of them filled in as the layers are drawn.  The builder of a
    stream checks its arguments before the first layer.
    """

    tau_grid: np.ndarray
    a_grid: np.ndarray | None
    principal: float
    spatial_cap: float
    constrained: bool
    solver_meta: dict
    layers: Iterable[Layer]


def check_state(spot: float, accrued: float | None = None, x: np.ndarray | None = None,
                a_grid: np.ndarray | None = None, tau: float | None = None) -> None:
    """Refuse with ValueError a spot not positive and finite, or an account not >= 0 and finite.

    A spot off x (the ascending stock nodes of the layer at tau) and an
    account off a_grid are refused too, when given.  Sign precedes finiteness.
    """
    if spot <= 0.0:
        raise ValueError(f"spot must be positive, got {spot}")
    if not math.isfinite(spot):
        raise ValueError(f"spot must be finite, got {spot}")
    if x is not None and not x[0] <= spot <= x[-1]:
        raise ValueError(f"x={spot} outside the surface nodes [{x[0]}, {x[-1]}] at tau={tau}")
    if accrued is not None:
        if accrued < 0.0:
            raise ValueError(f"accrued account must be nonnegative, got {accrued}")
        if not math.isfinite(accrued):
            raise ValueError(f"accrued account must be finite, got {accrued}")
        if a_grid is not None and not a_grid[0] <= accrued <= a_grid[-1]:
            raise ValueError(f"account level {accrued} outside grid [0, {a_grid[-1]}]")


def read_layer(x: np.ndarray, a_grid: np.ndarray | None, layer: np.ndarray, s: float,
               a: float | None, tau: float) -> float:
    """The layer at tau at stock level s (and account a): linear in each, refused off the grids."""
    if (a is None) != (a_grid is None):
        raise ValueError(f"a={a}: the account is given exactly when there is an a_grid")
    check_state(s, a, x, a_grid, tau)
    if a_grid is None:
        return float(np.interp(s, x, layer))
    i = int(np.clip(np.searchsorted(x, s), 1, x.size - 1))
    j = int(np.clip(np.searchsorted(a_grid, a), 1, a_grid.size - 1))
    wx = (s - x[i - 1]) / (x[i] - x[i - 1])
    wa = (a - a_grid[j - 1]) / (a_grid[j] - a_grid[j - 1])
    return float(
        (1.0 - wx) * ((1.0 - wa) * layer[i - 1, j - 1] + wa * layer[i - 1, j])
        + wx * ((1.0 - wa) * layer[i, j - 1] + wa * layer[i, j])
    )


@dataclass(frozen=True)
class ValueSurface(LayerStream):
    """A LayerStream whose layers are kept, copied and read-only, so it folds any number of times.

    x_nodes, values and obstacles are the layers' three parts, in tau_grid order.
    """

    layers: tuple[Layer, ...]

    @property
    def x_nodes(self) -> tuple[np.ndarray, ...]:
        return tuple(x for x, _, _ in self.layers)

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        return tuple(v for _, v, _ in self.layers)

    @property
    def obstacles(self) -> tuple[np.ndarray, ...]:
        return tuple(obs for _, _, obs in self.layers)

    def value_at(self, x: float, tau: float, *, a: float | None = None) -> float:
        """Linear in x (and in the account a) within layers, linear across tau.

        A tau off the surface, an a on a surface without an account grid or a
        missing one on a surface with it, or a state off a layer read is refused.
        """
        taus = self.tau_grid
        if not taus[0] <= tau <= taus[-1]:
            raise ValueError(f"tau={tau} outside surface range [{taus[0]}, {taus[-1]}]")

        def read(j: int) -> float:
            return read_layer(self.layers[j][0], self.a_grid, self.layers[j][1], x, a, tau)
        j = int(np.searchsorted(taus, tau))
        if j == 0 or taus[j] == tau:
            return read(j)
        w = (tau - taus[j - 1]) / (taus[j] - taus[j - 1])
        return (1.0 - w) * read(j - 1) + w * read(j)


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


def slack_tolerance(tol: float, principal: float) -> float:
    """Slack below which a value ties with the obstacle: tol * principal, tol finite and >= 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be nonnegative and finite, got {tol}")
    return tol * principal


def first_tie(x: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Smallest node of the ascending x where ties holds, along axis 0; inf where none does."""
    first = ties.argmax(axis=0)
    if ties.ndim == 1:
        return x[first] if ties[first] else math.inf
    return np.where(ties.any(axis=0), x[first], math.inf)


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


def fold_values(stream: LayerStream, spots: list[float],
                accrued: float | None = None) -> list[float]:
    """The values at spots (and, in two dimensions, the account accrued) at the maturity.

    Keeps one layer and reads the last, linearly in x (and in the account).
    read_layer refuses a state off that layer (one its builder did not check),
    and an account given to a stream without an a_grid or left out with one.
    """
    for x, v, _ in stream.layers:
        pass
    return [read_layer(x, stream.a_grid, v, s, accrued, stream.tau_grid[-1]) for s in spots]


def fold_boundary(stream: LayerStream, tol: float = 1e-7) -> BoundaryCurve:
    """The redemption boundary, read off each layer as it is drawn.

    Per layer, the boundary is the smallest node at or below spatial_cap
    whose value sits within tol * principal of the obstacle (ties count as
    redemption), inf where none does.  A problem that is not constrained has
    no redemption region, so its boundary is inf on every layer after the
    terminal one, whatever ties the march rounds to.  In two dimensions only
    the account columns strictly below the principal are scanned: at and
    above it every state redeems and there is no boundary to locate.  The
    curve is never monotonized.  A negative or non-finite tol is refused
    before the first layer.
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
    if not stream.constrained:
        stars[1:] = math.inf
    return BoundaryCurve(stream.tau_grid, frozen(stars), a_cols)


def fold_surface(stream: LayerStream) -> ValueSurface:
    """Every layer, copied and read-only, in a value surface.

    Stock nodes and obstacles that equal the previous layer's are stored
    once.
    """
    layers: list[Layer] = []
    kept_x = kept_obs = None
    for x, v, obs in stream.layers:
        kept_x, kept_obs = (
            kept if kept is not None and np.array_equal(arr, kept) else frozen(arr.copy())
            for arr, kept in ((x, kept_x), (obs, kept_obs)))
        layers.append((kept_x, frozen(v.copy()), kept_obs))
    return ValueSurface(stream.tau_grid, stream.a_grid, stream.principal, stream.spatial_cap,
                        stream.constrained, stream.solver_meta, tuple(layers))


@dataclass(frozen=True)
class VIProblem:
    """A loan to price: the market, the contract and, for the loan variants, which one.

    variant is None for a dividend regime (the contract's) or names one of
    the two cash-basis loan variants, which have no dividend regime.  cap
    is the withdrawal cap L and is required exactly for the withdrawable
    variant.  Every backend takes this one record; kind says which problem
    it is.
    """

    market: MarketParams
    contract: LoanContract
    variant: Literal["amortized", "withdrawable"] | None = None
    cap: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in (None, "amortized", "withdrawable"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "withdrawable":
            if self.cap is None or not 0.0 < self.cap < self.contract.principal:
                raise ValueError(
                    f"withdrawable problems need a cap in (0, principal), got {self.cap}"
                )
        elif self.cap is not None:
            raise ValueError(f"cap only applies to withdrawable problems, got kind {self.kind!r}")

    @property
    def kind(self) -> ProblemKind:
        """The variant if there is one, else regime<n> for the contract's dividend regime n."""
        return self.variant or f"regime{self.contract.regime.value}"


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

    Every obstacle is x - strike: strike is a number when the obstacle does
    not depend on tau (regimes 1 to 3, where it is the principal), so a
    backend evaluates that obstacle once per march, and a function of tau
    otherwise (the balances of the two loan variants).
    """

    sigma: float
    drift: float
    rate: float
    terminal: Callable[[np.ndarray], np.ndarray]
    strike: float | Callable[[float], float]
    source: Callable[[np.ndarray], np.ndarray] | None
    cap: float | None
    near_field: Callable[[float, float], float]
    far_field: Callable[[float, float], float]
    constrained: bool

    def obstacle(self, x: np.ndarray, tau: float) -> np.ndarray:
        """The redemption value x - strike at tau."""
        return x - (self.strike(tau) if callable(self.strike) else self.strike)


def amortized_payment_rate(contract: LoanContract) -> float:
    """Continuous payment rate that fully amortizes the principal by maturity.

    Solves K = integral_0^T c * exp(-gamma * t) dt for c, giving
    c = gamma * K / (1 - exp(-gamma * T)) with the gamma -> 0 limit K / T, taken
    where gamma or gamma T is not a normal float: there the formula loses digits.
    """
    gamma, principal, maturity = contract.loan_rate, contract.principal, contract.maturity
    if min(abs(gamma), abs(gamma * maturity)) < sys.float_info.min:
        return principal / maturity
    return gamma * principal / -math.expm1(-gamma * maturity)


def problem_spec(problem: VIProblem) -> ProblemSpec:
    """Write out the terminal payoff, obstacle, source and grid-edge values of problem.

    The far field takes the larger of the obstacle and the discounted-forward
    European asymptote, which reproduces the obstacle in redeeming regimes
    and the asymptote in empty ones.  The near field is the value at x = 0:
    zero for regimes 1 and 2 and the withdrawable variant, the accumulated
    dividend stream for regime 3, the annuity of remaining payments for the
    amortizing variant.  A regime-4 problem, which has no one-dimensional
    form, is refused with ValueError.
    """
    market, contract = problem.market, problem.contract
    principal = contract.principal
    kind = problem.kind
    if kind == "regime4":
        raise ValueError("no one-dimensional problem for regime 4")

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
            strike=principal,
            source=source,
            cap=None,
            near_field=near,
            far_field=far,
            constrained=constrained,
        )

    r, delta = market.r, market.delta
    gamma = contract.loan_rate

    if kind == "amortized":
        rate_c = amortized_payment_rate(contract)
        # c / gamma overflows, or gamma is subnormal, only where the limit c tau is exact
        scale = rate_c / gamma if abs(gamma) >= sys.float_info.min else math.inf

        def outstanding(tau: float) -> float:
            # Present balance of the remaining payments: (c/gamma)(1 - exp(-gamma*tau)).
            if math.isinf(scale):
                return rate_c * tau
            return scale * -math.expm1(-gamma * tau)

        def annuity(tau: float) -> float:
            return rate_c / r * -math.expm1(-r * tau)

        return ProblemSpec(
            sigma=market.sigma,
            drift=r - delta,
            rate=r,
            terminal=lambda z: z.copy(),
            strike=outstanding,
            source=lambda z: np.full_like(z, -rate_c),
            cap=None,
            near_field=lambda tau, x: -annuity(tau),
            far_field=lambda tau, x: max(
                x - outstanding(tau), x * math.exp(-delta * tau) - annuity(tau)
            ),
            constrained=True,
        )

    cap = problem.cap
    maturity = contract.maturity
    terminal_balance = principal * math.exp(gamma * maturity)

    def balance(tau: float) -> float:
        return principal * math.exp(gamma * (maturity - tau))

    return ProblemSpec(
        sigma=market.sigma,
        drift=r - delta,
        rate=r,
        terminal=lambda z: np.minimum(np.maximum(z - terminal_balance, 0.0), cap),
        strike=balance,
        source=None,
        cap=cap,
        near_field=lambda tau, x: 0.0,
        far_field=lambda tau, x: min(
            cap,
            max(
                x - balance(tau),
                x * math.exp(-delta * tau) - terminal_balance * math.exp(-r * tau),
            ),
        ),
        constrained=True,
    )
