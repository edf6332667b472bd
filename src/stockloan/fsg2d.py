"""Forward-shooting-grid solver for the cash-dividend regime.

The state is (x, A): the balance-scaled stock level and the balance-scaled
cash account holding dividends collected so far, which the borrower
receives back on redemption.  Over a time step the account moves
deterministically given the stock level, A' = (A + delta x dt) e^{r_bar dt},
so each step queries the previous layer at shifted account positions
(linear interpolation in A) and applies an explicit step of the
one-dimensional log-space stencil in x.  Explicit stability caps the step
size, so each requested layer is subdivided as needed and only the
requested layers are stored.

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
from typing import Any

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
        if not self.x_grid[0] <= x <= self.x_grid[-1]:
            raise ValueError(f"stock level {x} outside grid [{self.x_grid[0]}, {self.x_grid[-1]}]")
        if not self.a_grid[0] <= a <= self.a_grid[-1]:
            raise ValueError(f"account level {a} outside grid [0, {self.a_grid[-1]}]")
        if not self.tau_grid[0] <= tau <= self.tau_grid[-1]:
            raise ValueError(f"tau {tau} outside [0, {self.tau_grid[-1]}]")
        m = int(np.clip(np.searchsorted(self.tau_grid, tau), 1, self.tau_grid.size - 1))
        w = (tau - self.tau_grid[m - 1]) / (self.tau_grid[m] - self.tau_grid[m - 1])
        lower = _interp2(self.x_grid, self.a_grid, self.values[m - 1], x, a)
        if w <= 0.0:
            return lower
        upper = _interp2(self.x_grid, self.a_grid, self.values[m], x, a)
        return (1.0 - w) * lower + w * upper


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


def _march4(
    market: MarketParams, contract: LoanContract, config: FSG2DConfig, constrained: bool
) -> ValueSurface2D:
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
    a = np.linspace(0.0, a_max, config.a_nodes)
    da = a[1] - a[0]

    lo, mid, up = log_stencil(market.sigma, r_bar - delta, r_bar, dy)
    dtau_layer = maturity / config.time_steps
    n_sub = max(1, math.ceil(dtau_layer * max(-mid, 0.0) / _CFL_SAFETY))
    dt = dtau_layer / n_sub
    coef_lo = dt * lo
    coef_mid = 1.0 + dt * mid
    coef_up = dt * up

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
    pos = np.minimum(a_query / da, 2.0 * (a.size - 1))
    k = np.clip(np.floor(pos).astype(np.intp), 0, a.size - 2)
    w = pos - k  # w > 1 extrapolates linearly past the last account node
    interior = slice(1, x.size - 1)
    ki, wi = k[interior], w[interior]
    aq_int = a_query[interior]
    over = pos[interior] > (a.size - 1) + 1e-9 if constrained else None
    row_idx = np.arange(x.size)[interior]

    obstacle = x[:, None] + a[None, :] - principal
    f = np.maximum(obstacle, 0.0)
    layers = [f.copy()]

    def shifted(offset: int) -> np.ndarray:
        rows = (row_idx + offset)[:, None]
        vals = f[rows, ki] * (1.0 - wi) + f[rows, ki + 1] * wi
        if over is not None and over.any():
            # Queries above A = K sit in the all-redeem region: exact value.
            closure = x[rows] + aq_int - principal
            vals = np.where(over, closure, vals)
        return vals

    total_steps = config.time_steps * n_sub
    for step in range(1, total_steps + 1):
        tau_new = step * dt
        new = np.empty_like(f)
        new[interior] = coef_mid * shifted(0) + coef_lo * shifted(-1) + coef_up * shifted(1)
        if constrained:
            new[0] = np.maximum(a - principal, 0.0)
            new[-1] = x[-1] + a - principal
            np.maximum(new, obstacle, out=new)
            if a_max >= principal:
                new[:, -1] = x + a_max - principal
        else:
            disc = principal * math.exp(-r_bar * tau_new)
            new[0] = np.maximum(a - disc, 0.0)
            new[-1] = x[-1] + a - disc
        f = new
        if step % n_sub == 0:
            if np.isnan(f).any():
                raise RuntimeError("forward-shooting-grid solve produced NaN")
            layers.append(f.copy())

    return ValueSurface2D(
        tau_grid=tau_grid(maturity, config.time_steps),
        x_grid=x,
        a_grid=frozen(a),
        values=tuple(frozen(layer) for layer in layers),
        obstacle=frozen(obstacle),
        principal=principal,
        label="fsg-regime4" if constrained else "fsg-regime4-linear",
        solver_meta={
            "solver": "fsg",
            "config": config,
            "n_sub": n_sub,
            "dt": dt,
            "constrained": constrained,
        },
    )


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
    if contract.regime is not DividendRegime.CASH_RETURNED_ON_REDEMPTION:
        raise ValueError(f"forward-shooting grid prices regime 4 only, got {contract.regime!r}")
    if spot <= 0.0 or accrued < 0.0:
        raise ValueError(f"need spot > 0 and accrued >= 0, got {spot}, {accrued}")
    config = config or FSG2DConfig()
    constrained = classify(market, contract).has_boundary
    if constrained and accrued >= contract.principal:
        return spot + accrued - contract.principal, None
    surface = _march4(market, contract, config, constrained)
    return surface.value_at(spot, accrued, contract.maturity), surface


def extract_boundary_surface(surface: ValueSurface2D, tol: float = 1e-7) -> BoundaryCurve:
    """Smallest stock level tying with the obstacle, per layer and account.

    Only account columns strictly below the principal are scanned; at and
    above the principal the r < gamma problem redeems everywhere and there
    is no boundary to locate.  A column with no tying node reports inf; a
    negative tol is refused.  The surface is never repaired; the worst
    decrease in tau is recorded.
    """
    principal = surface.principal
    slack_tol = slack_tolerance(tol, principal)
    cols = surface.a_grid < principal * (1.0 - 1e-12)
    obstacle = surface.obstacle[:, cols]
    stars = np.array([first_tie(surface.x_grid, layer[:, cols] - obstacle <= slack_tol)
                      for layer in surface.values])
    return BoundaryCurve(surface.tau_grid, frozen(stars), frozen(surface.a_grid[cols]))
