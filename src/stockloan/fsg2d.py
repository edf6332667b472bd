"""Forward-shooting-grid solver for the cash-dividend regime.

The state is (x, A): the balance-scaled stock level and the balance-scaled
cash account holding dividends collected so far, which the borrower
receives back on redemption.  Over a time step the account moves
deterministically given the stock level, A' = (A + delta x dt) e^{r_bar dt},
so each step queries the previous layer at shifted account positions
(linear interpolation in A) and applies an explicit step of the
one-dimensional log-space stencil in x (problems.log_grid, central in the
drift).  Explicit stability caps the step size, so each requested layer
is subdivided as needed and only the requested layers are yielded.  The
shift and the stencil are fixed by the grids, so every substep applies
one map built before the march: fixed gathers and fixed weights.

fsg_stream hands the march of a regime-4 problems.VIProblem over one
layer at a time, for the folds of problems.py; price_regime4 keeps every
layer in a surface.

A query past the last account node extrapolates linearly from the last
two nodes.  When redeeming early is never strictly better (r >= gamma) the
account grid extends well past the principal, where the value is close to
affine in the account with slope near one, so the extrapolation handles
the small per-step overshoot.  When r < gamma the region A >= K redeems
immediately with value exactly x + A - K, and every node whose query
passes K is held at that obstacle by np.maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .contracts import LoanContract, MarketParams, accrue_dividends, classify
from .problems import (
    BoundaryCurve,
    Layer,
    LayerStream,
    ValueSurface,
    VIProblem,
    check_state,
    fold_boundary,
    fold_surface,
    frozen,
    log_grid,
    tau_grid,
)

# Fraction of the explicit stability bound each substep may use.
_CFL_SAFETY = 0.95
# Most substeps per layer: a substep on the default 200 x 50 grid took about
# 110 us on a 2-core x86 host, so its 200 layers at this bound take a minute.
_MAX_SUBSTEPS = 2_500


@dataclass(frozen=True)
class FSG2DConfig:
    """Grid resolution and account domain.

    The stock domain is log(K) +- 6 sigma sqrt(T) (problems.log_grid,
    which refuses an x_nodes too few for the drift to stay under the
    diffusion across each cell); the account domain defaults to [0, K]
    when a redeeming surface exists (r < gamma) and to
    [0, 2 K e^{(r - gamma) T}] otherwise.  The substep count follows from
    the explicit stability bound.
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


def fsg_stream(
    problem: VIProblem, config: FSG2DConfig, spots: Sequence[float], accrued: float
) -> LayerStream | None:
    """The march for problem from the state (spot, accrued) of every spot, as a stream of layers.

    A problem of any kind but regime4 is refused.  Returns None when r <
    gamma and the account already covers the principal: redeeming at once
    is then exactly optimal.  Otherwise every layer is (x grid, values,
    obstacle) with one column per account level, terminal layer first and
    the layer at the maturity last; the values are a read-only view of the
    one buffer the march writes in place, so they hold until the next layer
    is drawn.  Arguments, the grids and every state (by check_state, also
    before the immediate answer) are checked here, before the first layer.

    Every substep applies one linear map, built here: each of the three
    stencil rows of a parent row is interpolated in the account at the
    position the parent's dividends move it to, by two gathers at fixed
    flat indices, and the three are summed with the stencil weights.  The
    account positions depend only on the parent row, so interpolating once
    after the stencil would be the same map, but rounded differently.
    """
    if problem.kind != "regime4":
        raise ValueError(f"forward-shooting grid prices regime 4 only, got {problem.kind}")
    market, contract = problem.market, problem.contract
    for spot in spots:
        check_state(spot, accrued)
    constrained = classify(market, contract).has_boundary
    if constrained and accrued >= contract.principal:
        return None
    r_bar = market.r - contract.loan_rate
    delta = market.delta
    principal = contract.principal
    maturity = contract.maturity

    x, (lo, mid, up) = log_grid(principal, market.sigma, r_bar - delta, r_bar, maturity,
                                config.x_nodes)
    if config.a_max is not None:
        a_max = config.a_max
    elif constrained:
        a_max = principal
    else:
        a_max = 2.0 * principal * math.exp(r_bar * maturity)
    a = frozen(np.linspace(0.0, a_max, config.a_nodes))
    da = a[1] - a[0]

    dtau_layer = maturity / config.time_steps
    substeps = dtau_layer * max(-mid, 0.0) / _CFL_SAFETY
    if not substeps <= _MAX_SUBSTEPS:
        raise ValueError(f"explicit stability needs {substeps:.3g} substeps per layer, over "
                         f"{_MAX_SUBSTEPS} (r={market.r}, delta={delta}, sigma={market.sigma}, "
                         f"loan_rate={contract.loan_rate}, maturity={maturity})")
    n_sub = max(1, math.ceil(substeps))
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
    # 1.25 a_max, constrained ones past a_max are held at the obstacle.
    a_query = a_query[1:-1]  # the boundary rows are set, not queried
    pos = np.minimum(a_query / da, 2.0 * (a.size - 1))
    k = np.clip(np.floor(pos).astype(np.intp), 0, a.size - 2)
    w_hi = pos - k  # w > 1 extrapolates linearly past the last account node
    w_lo = 1.0 - w_hi
    parent = np.arange(1, x.size - 1)[:, None] * a.size + k
    idx_lo = np.stack([parent + shift * a.size for shift in shifts])
    idx_hi = idx_lo + 1
    # The boundary rows start at max(obstacle, 0), which np.maximum keeps when
    # constrained; a right column past the principal is pinned to its obstacle.
    # Unconstrained, they hold the stock and account less the discounted principal.
    right = x + a_max - principal if constrained and a_max >= principal else None
    bottom, top = x[0] + a, x[-1] + a

    obstacle = frozen(x[:, None] + a[None, :] - principal)
    f = np.maximum(obstacle, 0.0)
    f_flat = f.reshape(-1)
    interior = f[1:-1]
    shifted = np.empty(idx_lo.shape)
    scratch = np.empty(idx_lo.shape)
    layer = frozen(f.view())

    def layers() -> Iterator[Layer]:
        yield x, layer, obstacle
        for step in range(1, config.time_steps * n_sub + 1):
            # Every index is in range; mode="clip" only skips the range check.
            np.take(f_flat, idx_lo, out=shifted, mode="clip")
            np.multiply(shifted, w_lo, out=shifted)
            np.take(f_flat, idx_hi, out=scratch, mode="clip")
            np.multiply(scratch, w_hi, out=scratch)
            np.add(shifted, scratch, out=shifted)
            np.multiply(shifted, weights, out=shifted)
            np.add(shifted[0], shifted[1], out=interior)
            np.add(interior, shifted[2], out=interior)
            if constrained:
                np.maximum(f, obstacle, out=f)
                if right is not None:
                    f[:, -1] = right
            else:
                disc = principal * math.exp(-r_bar * (step * dt))
                f[0] = np.maximum(bottom - disc, 0.0)
                f[-1] = top - disc
            if step % n_sub == 0:
                if np.isnan(f).any():
                    raise RuntimeError("forward-shooting-grid solve produced NaN")
                yield x, layer, obstacle

    for spot in spots:
        check_state(spot, accrued, x, a, maturity)
    meta = {"solver": "fsg", "config": config, "n_sub": n_sub, "dt": dt}
    # the top row is set, not marched, so it is never a boundary point
    return LayerStream(tau_grid(maturity, config.time_steps), a, principal, float(x[-2]),
                       constrained, meta, layers())


def price_regime4(
    spot: float,
    accrued: float,
    market: MarketParams,
    contract: LoanContract,
    config: FSG2DConfig | None = None,
) -> tuple[float, ValueSurface | None]:
    """Value at inception of a cash-dividend loan; returns (value, surface).

    spot and accrued are the time-zero stock level and collected-dividend
    account.  When r < gamma and the account already covers the principal,
    immediate redemption is optimal and the exact value spot + accrued - K
    is returned without a solve (surface None).  When no redemption is
    strictly optimal (r >= gamma), the obstacle never binds and the plain
    pricing equation is marched over a wider account grid, and the
    surface's constrained is False.  check_state refuses, on either path,
    a state no loan is in, and one outside the solved grid.
    """
    stream = fsg_stream(VIProblem(market, contract), config or FSG2DConfig(), [spot], accrued)
    if stream is None:
        return spot + accrued - contract.principal, None
    surface = fold_surface(stream)
    return surface.value_at(spot, contract.maturity, a=accrued), surface


def extract_boundary_surface(surface: ValueSurface, tol: float = 1e-7) -> BoundaryCurve:
    """fold_boundary over the layers of a stored cash-account surface.

    Kept under this name for the tests and for the benchmark's tracer,
    which wraps it; the CLI folds the stream itself.
    """
    return fold_boundary(surface, tol)
