"""Forward-shooting-grid solver for the cash-dividend regime.

The state is (x, A): the balance-scaled stock level and the balance-scaled
cash account holding dividends collected so far, which the borrower
receives back on redemption.  Over a time step the account moves
deterministically given the stock level, A' = (A + delta x dt) e^{r_bar dt},
so each step queries the previous layer at shifted account positions
(linear interpolation in A) and applies an explicit step of the
one-dimensional log-space stencil in x.  Explicit stability caps the step
size, so each requested layer is subdivided as needed and only the
requested layers are yielded.  The shift and the stencil are fixed by the
grids, so every substep applies one map built before the march: fixed
gathers, fixed weights and a fixed closure term.

price_regime4 keeps every yielded layer in a surface; regime4_values and
regime4_boundary read the values at the maturity, or the boundary layer by
layer, keeping one.

When redeeming early is never strictly better (r >= gamma) the account
grid extends well past the principal, where the value is close to affine
in the account with slope near one, so one-sided linear extrapolation from
the last two nodes handles the small per-step overshoot.  When r < gamma
the region A >= K redeems immediately with value exactly x + A - K, which
closes queries above an account grid that stops at K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .contracts import DividendRegime, LoanContract, MarketParams, accrue_dividends, classify
from .problems import (
    BoundaryCurve,
    first_tie,
    frozen,
    log_stencil,
    log_x_grid,
    slack_tolerance,
    tau_grid,
)

# Fraction of the explicit stability bound each substep may use.
_CFL_SAFETY = 0.95


@dataclass(frozen=True)
class FSG2DConfig:
    """Grid resolution and account domain.

    The stock domain is log(K) +- 6 sigma sqrt(T) (problems.log_x_grid);
    the account domain defaults to [0, K] when a redeeming surface exists
    (r < gamma) and to [0, 2 K e^{(r - gamma) T}] otherwise.  The substep
    count follows from the explicit stability bound.
    """

    x_nodes: int = 200
    a_nodes: int = 50
    time_steps: int = 200
    a_max: float | None = None

    def __post_init__(self) -> None:
        if self.x_nodes < 16:
            raise ValueError(f"need at least 16 stock nodes, got {self.x_nodes}")
        if self.a_nodes < 4:
            raise ValueError(f"need at least 4 account nodes, got {self.a_nodes}")
        if self.time_steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.time_steps}")
        if self.a_max is not None and self.a_max <= 0.0:
            raise ValueError(f"a_max must be positive, got {self.a_max}")


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
    solver_meta: dict[str, Any] = field(default_factory=dict)

    def layer_count(self) -> int:
        return len(self.values)

    def value_at(self, x: float, a: float, tau: float) -> float:
        """Interpolate the surface: bilinear in (x, A), linear in tau."""
        _check_state(self.x_grid, self.a_grid, x, a)
        if not self.tau_grid[0] <= tau <= self.tau_grid[-1]:
            raise ValueError(f"tau {tau} outside [0, {self.tau_grid[-1]}]")
        m = int(np.clip(np.searchsorted(self.tau_grid, tau), 1, self.tau_grid.size - 1))
        w = (tau - self.tau_grid[m - 1]) / (self.tau_grid[m] - self.tau_grid[m - 1])
        lower = _interp2(self.x_grid, self.a_grid, self.values[m - 1], x, a)
        if w <= 0.0:
            return lower
        upper = _interp2(self.x_grid, self.a_grid, self.values[m], x, a)
        return (1.0 - w) * lower + w * upper


def _check_state(x_grid: np.ndarray, a_grid: np.ndarray, x: float, a: float) -> None:
    """Refuse a stock or account level off the grids with ValueError."""
    if not x_grid[0] <= x <= x_grid[-1]:
        raise ValueError(f"stock level {x} outside grid [{x_grid[0]}, {x_grid[-1]}]")
    if not a_grid[0] <= a <= a_grid[-1]:
        raise ValueError(f"account level {a} outside grid [0, {a_grid[-1]}]")


def _interp2(
    x_grid: np.ndarray, a_grid: np.ndarray, layer: np.ndarray, x: float, a: float
) -> float:
    i = int(np.clip(np.searchsorted(x_grid, x), 1, x_grid.size - 1))
    j = int(np.clip(np.searchsorted(a_grid, a), 1, a_grid.size - 1))
    wx = (x - x_grid[i - 1]) / (x_grid[i] - x_grid[i - 1])
    wa = (a - a_grid[j - 1]) / (a_grid[j] - a_grid[j - 1])
    return float(
        (1.0 - wx) * ((1.0 - wa) * layer[i - 1, j - 1] + wa * layer[i - 1, j])
        + wx * ((1.0 - wa) * layer[i, j - 1] + wa * layer[i, j])
    )


class _March(NamedTuple):
    """A set-up forward-shooting-grid march; see _march4."""

    tau_grid: np.ndarray
    x_grid: np.ndarray
    a_grid: np.ndarray
    obstacle: np.ndarray
    solver_meta: dict[str, Any]
    layers: Iterator[np.ndarray]


def _march4(
    market: MarketParams, contract: LoanContract, config: FSG2DConfig, constrained: bool
) -> _March:
    """Set up the grids and the substep map; returns the march.

    Its layers yield every stored layer, terminal layer first and the layer
    at the maturity last.  Each is a read-only view of the one buffer the
    march writes in place, so it holds until the next layer is requested;
    callers copy what they keep.  Arguments are checked here, before the
    first layer.

    Every substep applies one linear map, built here: each of the three
    stencil rows of a parent row is interpolated in the account at the
    position the parent's dividends move it to, by two gathers at fixed
    flat indices, and the three are summed with the stencil weights.  The
    account positions depend only on the parent row, so interpolating once
    after the stencil would be the same map, but rounded differently.
    """
    r_bar = market.r - contract.loan_rate
    delta = market.delta
    principal = contract.principal
    maturity = contract.maturity

    x, dy = log_x_grid(principal, market.sigma, maturity, config.x_nodes)
    if config.a_max is not None:
        a_max = config.a_max
    elif constrained:
        a_max = principal
    else:
        a_max = 2.0 * principal * math.exp(r_bar * maturity)
    a = frozen(np.linspace(0.0, a_max, config.a_nodes))
    da = a[1] - a[0]

    lo, mid, up = log_stencil(market.sigma, r_bar - delta, r_bar, dy)
    dtau_layer = maturity / config.time_steps
    n_sub = max(1, math.ceil(dtau_layer * max(-mid, 0.0) / _CFL_SAFETY))
    dt = dtau_layer / n_sub
    # Stencil weights of the parent row and of the rows below and above it.
    shifts = (0, -1, 1)
    weights = np.array([1.0 + dt * mid, dt * lo, dt * up])[:, None, None]

    # Account position queried in the previous layer, per parent stock row.
    a_query = accrue_dividends(a[None, :], x[:, None], r_bar, delta, dt)
    if not constrained and float(a_query.max()) > 1.25 * a_max:
        raise ValueError(
            "the dividend flow at the top stock level outruns the account grid "
            f"(r={market.r}, delta={delta}, sigma={market.sigma}, "
            f"loan_rate={contract.loan_rate}, maturity={maturity})"
        )
    # Clipped above every query that is read: unconstrained ones stop at
    # 1.25 a_max, constrained ones past a_max take the exact closure.
    a_query = a_query[1:-1]  # the boundary rows are set, not queried
    pos = np.minimum(a_query / da, 2.0 * (a.size - 1))
    k = np.clip(np.floor(pos).astype(np.intp), 0, a.size - 2)
    w_hi = pos - k  # w > 1 extrapolates linearly past the last account node
    w_lo = 1.0 - w_hi
    parent = np.arange(1, x.size - 1)[:, None] * a.size + k
    idx_lo = np.stack([parent + shift * a.size for shift in shifts])
    idx_hi = idx_lo + 1
    if constrained:
        # Queries above A = K sit in the all-redeem region: exact value x + A - K.
        over = np.flatnonzero(pos > (a.size - 1) + 1e-9)
        row, a_over = over // a.size + 1, a_query.reshape(-1)[over]
        over = np.concatenate([over + i * pos.size for i in range(len(shifts))])
        closure = np.concatenate([x[row + shift] + a_over - principal for shift in shifts])
        bottom = np.maximum(a - principal, 0.0)
        top = x[-1] + a - principal
        right = x + a_max - principal if a_max >= principal else None

    obstacle = frozen(x[:, None] + a[None, :] - principal)
    f = np.maximum(obstacle, 0.0)
    f_flat = f.reshape(-1)
    interior = f[1:-1]
    shifted = np.empty(idx_lo.shape)
    shifted_flat = shifted.reshape(-1)
    scratch = np.empty(idx_lo.shape)
    layer = frozen(f.view())

    def layers() -> Iterator[np.ndarray]:
        yield layer
        for step in range(1, config.time_steps * n_sub + 1):
            # Every index is in range; mode="clip" only skips the range check.
            np.take(f_flat, idx_lo, out=shifted, mode="clip")
            np.multiply(shifted, w_lo, out=shifted)
            np.take(f_flat, idx_hi, out=scratch, mode="clip")
            np.multiply(scratch, w_hi, out=scratch)
            np.add(shifted, scratch, out=shifted)
            if constrained:
                shifted_flat[over] = closure
            np.multiply(shifted, weights, out=shifted)
            np.add(shifted[0], shifted[1], out=interior)
            np.add(interior, shifted[2], out=interior)
            if constrained:
                f[0] = bottom
                f[-1] = top
                np.maximum(f, obstacle, out=f)
                if right is not None:
                    f[:, -1] = right
            else:
                disc = principal * math.exp(-r_bar * (step * dt))
                f[0] = np.maximum(a - disc, 0.0)
                f[-1] = x[-1] + a - disc
            if step % n_sub == 0:
                if np.isnan(f).any():
                    raise RuntimeError("forward-shooting-grid solve produced NaN")
                yield layer

    meta = {"solver": "fsg", "config": config, "n_sub": n_sub, "dt": dt,
            "constrained": constrained}
    return _March(tau_grid(maturity, config.time_steps), x, a, obstacle, meta, layers())


def _start(
    spot: float,
    accrued: float,
    market: MarketParams,
    contract: LoanContract,
    config: FSG2DConfig | None,
) -> _March | None:
    """Check the state and set up its march; None when redeeming at once is exactly optimal."""
    if contract.regime is not DividendRegime.CASH_RETURNED_ON_REDEMPTION:
        raise ValueError(f"forward-shooting grid prices regime 4 only, got {contract.regime!r}")
    if spot <= 0.0 or accrued < 0.0:
        raise ValueError(f"need spot > 0 and accrued >= 0, got {spot}, {accrued}")
    constrained = classify(market, contract).has_boundary
    if constrained and accrued >= contract.principal:
        return None
    return _march4(market, contract, config or FSG2DConfig(), constrained)


def price_regime4(
    spot: float,
    accrued: float,
    market: MarketParams,
    contract: LoanContract,
    config: FSG2DConfig | None = None,
) -> tuple[float, ValueSurface2D | None]:
    """Value at inception of a cash-dividend loan; returns (value, surface).

    spot and accrued are the time-zero stock level and collected-dividend
    account.  When r < gamma and the account already covers the principal,
    immediate redemption is optimal and the exact value spot + accrued - K
    is returned without a solve (surface None).  When no redemption is
    strictly optimal (r >= gamma), the obstacle never binds and the plain
    pricing equation is marched over a wider account grid, with
    solver_meta["constrained"] False.  A state outside the solved grid is
    refused by the surface lookup with ValueError.
    """
    march = _start(spot, accrued, market, contract, config)
    if march is None:
        return spot + accrued - contract.principal, None
    constrained = march.solver_meta["constrained"]
    surface = ValueSurface2D(
        tau_grid=march.tau_grid,
        x_grid=march.x_grid,
        a_grid=march.a_grid,
        values=tuple(frozen(layer.copy()) for layer in march.layers),
        obstacle=march.obstacle,
        principal=contract.principal,
        label="fsg-regime4" if constrained else "fsg-regime4-linear",
        solver_meta=march.solver_meta,
    )
    return surface.value_at(spot, accrued, contract.maturity), surface


def regime4_values(
    spots: list[float],
    accrued: float,
    market: MarketParams,
    contract: LoanContract,
    config: FSG2DConfig | None = None,
) -> list[float]:
    """price_regime4's value at each spot, bit for bit, from one march that keeps one layer.

    The grids do not depend on the spot, so every spot is read off the
    layer at the maturity; each is checked before the march, and refused
    as the surface lookup would refuse it.
    """
    march = _start(spots[0], accrued, market, contract, config)
    if march is None:
        return [price_regime4(s, accrued, market, contract, config)[0] for s in spots]
    for s in spots:
        _check_state(march.x_grid, march.a_grid, s, accrued)
    for layer in march.layers:
        pass
    # At tau = T the surface lookup's weight on this layer is exactly one.
    return [_interp2(march.x_grid, march.a_grid, layer, s, accrued) for s in spots]


def regime4_boundary(
    spot: float,
    accrued: float,
    market: MarketParams,
    contract: LoanContract,
    config: FSG2DConfig | None = None,
    tol: float = 1e-7,
) -> BoundaryCurve:
    """extract_boundary_surface of price_regime4's surface, read off each layer as it is marched.

    Keeps one layer instead of the surface.  The state (spot, accrued) is
    checked as price_regime4 checks it, off-grid states included; a state
    where immediate redemption is exactly optimal produces no surface and
    is refused with ValueError.
    """
    march = _start(spot, accrued, market, contract, config)
    if march is None:
        raise ValueError(
            "immediate redemption is exactly optimal for this state; "
            "no boundary surface is produced"
        )
    _check_state(march.x_grid, march.a_grid, spot, accrued)
    a_cols, stars_of = _tie_scan(march.x_grid, march.a_grid, march.obstacle,
                                 contract.principal, tol)
    stars = np.array([stars_of(layer) for layer in march.layers])
    return BoundaryCurve(march.tau_grid, frozen(stars), a_cols)


def _tie_scan(
    x_grid: np.ndarray, a_grid: np.ndarray, obstacle: np.ndarray, principal: float, tol: float
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The account levels scanned and the per-layer scan of extract_boundary_surface."""
    slack_tol = slack_tolerance(tol, principal)
    cols = a_grid < principal * (1.0 - 1e-12)
    obstacle = obstacle[:, cols]

    def stars_of(layer: np.ndarray) -> np.ndarray:
        return first_tie(x_grid, layer[:, cols] - obstacle <= slack_tol)

    return frozen(a_grid[cols]), stars_of


def extract_boundary_surface(surface: ValueSurface2D, tol: float = 1e-7) -> BoundaryCurve:
    """Smallest stock level tying with the obstacle, per layer and account.

    Only account columns strictly below the principal are scanned; at and
    above the principal the r < gamma problem redeems everywhere and there
    is no boundary to locate.  A column with no tying node reports inf; a
    negative tol is refused.  The surface is never repaired; the worst
    decrease in tau is recorded.
    """
    a_cols, stars_of = _tie_scan(surface.x_grid, surface.a_grid, surface.obstacle,
                                 surface.principal, tol)
    stars = np.array([stars_of(layer) for layer in surface.values])
    return BoundaryCurve(surface.tau_grid, frozen(stars), a_cols)
