"""Exhaustive-stopping valuation on a non-recombining binomial path tree.

Every path of up and down moves is enumerated, the dividend account is
carried along each path, and redemption is optimized by backward induction
with a stopping decision at every step, time zero and maturity included.
Cost doubles with each step, so the step count is capped; the point of
this solver is the states it enumerates, not speed, and it exists to check
the production solvers against an implementation too simple to share their
failure modes.

Level k holds 2**k nodes; the children of node i sit at 2 i (up move) and
2 i + 1 (down move).  The tree runs in similarity coordinates and reuses
the recombining lattice's step parameters, the same node values (tested
bitwise), and its combination arithmetic, up * v_up + down * v_down with its
two discounted branch weights, so matched-step comparisons agree to float
precision rather than merely to discretization error.
"""

from __future__ import annotations

import math
from collections.abc import Collection

import numpy as np

from .contracts import (
    DividendRegime,
    LoanContract,
    MarketParams,
    accrue_dividends,
    reduce_regime2,
)
from .lattice1d import crr_step_params
from .problems import check_state

MAX_ORACLE_STEPS = 14


def tree_steps(steps: int) -> int:
    """steps, refused with ValueError outside [1, MAX_ORACLE_STEPS]."""
    if not 1 <= steps <= MAX_ORACLE_STEPS:
        raise ValueError(
            f"path tree steps must lie in [1, {MAX_ORACLE_STEPS}], got {steps}: "
            "the tree doubles with every step"
        )
    return steps


def _prepare(
    market: MarketParams, contract: LoanContract, accrued: float
) -> tuple[MarketParams, LoanContract]:
    if contract.regime is DividendRegime.REINVESTED_RETURNED_ON_REDEMPTION:
        if accrued != 0.0:
            raise ValueError("regimes without a cash account require accrued == 0")
        return reduce_regime2(market, contract)
    if contract.regime is DividendRegime.LENDER_KEEPS and accrued != 0.0:
        raise ValueError("regimes without a cash account require accrued == 0")
    return market, contract


def _payoff(regime: DividendRegime, principal: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    if regime is DividendRegime.CASH_RETURNED_ON_REDEMPTION:
        return np.maximum(x + a - principal, 0.0)
    pay = np.maximum(x - principal, 0.0)
    if regime is DividendRegime.DELIVERED_IMMEDIATELY:
        return pay + a
    return pay


def _solve_tree(
    spot: float,
    market: MarketParams,
    contract: LoanContract,
    steps: int,
    accrued: float,
    exercise_steps: Collection[int] | None,
) -> tuple[float, float]:
    """Backward induction over the full path tree; returns (value, payoff).

    Both numbers are for the root state; payoff is what immediate
    redemption pays there.
    """
    tree_steps(steps)
    check_state(spot, accrued)
    allowed = None if exercise_steps is None else frozenset(exercise_steps)
    if allowed is not None and not all(0 <= k <= steps for k in allowed):
        raise ValueError(f"exercise steps must lie in [0, {steps}], got {sorted(allowed)}")

    regime = contract.regime
    principal = contract.principal
    r_bar = market.r - contract.loan_rate
    delta = market.delta
    dt = contract.maturity / steps
    u, _, up, down = crr_step_params(market.sigma, r_bar - delta, r_bar, dt)
    log_u = math.log(u)
    carries_account = regime in (
        DividendRegime.DELIVERED_IMMEDIATELY,
        DividendRegime.CASH_RETURNED_ON_REDEMPTION,
    )

    ups: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    accounts: list[np.ndarray] = [np.full(1, accrued)]
    for k in range(steps):
        cur = ups[k]
        nxt = np.empty(cur.size * 2, dtype=np.int64)
        nxt[0::2] = cur + 1
        nxt[1::2] = cur
        ups.append(nxt)
        if carries_account:
            x = spot * np.exp(log_u * (2.0 * cur - k))
            acc_next = accrue_dividends(accounts[k], x, r_bar, delta, dt)
        else:
            acc_next = accounts[k]
        accounts.append(np.repeat(acc_next, 2))

    def level_payoff(k: int) -> np.ndarray:
        x = spot * np.exp(log_u * (2.0 * ups[k] - k))
        return _payoff(regime, principal, x, accounts[k])

    values = level_payoff(steps)
    root_payoff = float(level_payoff(0)[0])
    for k in range(steps - 1, -1, -1):
        cont = up * values[0::2] + down * values[1::2]
        if allowed is None or k in allowed:
            values = np.maximum(cont, level_payoff(k))
        else:
            values = cont
    return float(values[0]), root_payoff


def oracle_price(
    spot: float,
    market: MarketParams,
    contract: LoanContract,
    steps: int,
    accrued: float = 0.0,
    exercise_steps: Collection[int] | None = None,
) -> float:
    """Exhaustive-stopping value of the loan at inception.

    accrued seeds the dividend account and must be zero for regimes without
    one.  exercise_steps restricts early redemption to the listed step
    indices (maturity always pays off); None allows every step, and a
    superset of exercise opportunities never lowers the value.
    """
    market, contract = _prepare(market, contract, accrued)
    value, _ = _solve_tree(spot, market, contract, steps, accrued, exercise_steps)
    return value


def oracle_boundary(
    probes: np.ndarray,
    market: MarketParams,
    contract: LoanContract,
    steps: int,
    accrued: float = 0.0,
) -> np.ndarray:
    """Whether immediate redemption is optimal at each probe spot level.

    Solves one full tree per probe and reports value == immediate payoff;
    with all stopping steps allowed the two tie exactly (bitwise) whenever
    redeeming is optimal, so no tolerance is involved.
    """
    market, contract = _prepare(market, contract, accrued)
    flags = np.empty(len(probes), dtype=bool)
    for i, spot in enumerate(np.asarray(probes, dtype=float)):
        value, payoff = _solve_tree(float(spot), market, contract, steps, accrued, None)
        flags[i] = value == payoff
    return flags
