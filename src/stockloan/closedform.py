"""Closed-form values: European options, parity prices, perpetual limits.

The perpetual stock loan admits an explicit value C1 * x**alpha_plus below a
flat redeeming boundary x_inf = alpha_plus * K / (alpha_plus - 1), where
alpha_plus is the positive root of

    (sigma^2 / 2) a^2 + (r - gamma - delta - sigma^2 / 2) a - (r - gamma) = 0.

With delta = 0 the boundary is finite only for r < gamma - sigma^2 / 2; in
the complementary band the boundary escapes to infinity and is reported as
UNBOUNDED, the float inf, as boundary curves and the CLI write it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .contracts import (
    ClosedForm,
    DividendRegime,
    LoanContract,
    MarketParams,
    classify,
    reduce_regime2,
)


UNBOUNDED = math.inf


@dataclass(frozen=True)
class PerpetualResult:
    """Perpetual-loan characteristics for regimes 1 and 2.

    alpha_plus and alpha_minus are the roots of the characteristic quadratic
    (alpha_plus > 1 whenever the boundary is finite).  x_star_inf is the flat
    perpetual boundary in similarity coordinates, or UNBOUNDED (the float
    inf).  c1 is the value coefficient of C1 * x**alpha_plus, present only
    when bounded.  principal is the loan principal K, the strike of the
    obstacle x - K that value() returns beyond the boundary.
    """

    alpha_plus: float
    alpha_minus: float
    x_star_inf: float
    c1: float | None
    principal: float

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.x_star_inf)

    def value(self, x: float) -> float:
        """Perpetual value at similarity coordinate x >= 0 (bounded case)."""
        if not self.is_bounded:
            raise ValueError("perpetual value has no closed form when the boundary is unbounded")
        if x < 0.0:
            raise ValueError(f"similarity coordinate must be nonnegative, got x={x}")
        if x >= self.x_star_inf:
            return x - self.principal
        return self.c1 * x**self.alpha_plus


@dataclass(frozen=True)
class PerpetualRegime3Result:
    """Perpetual delivered-dividend loan: worth the stock, never redeemed."""

    boundary: float = UNBOUNDED

    def value(self, spot: float) -> float:
        return spot


def _norm_cdf(d: float) -> float:
    return 0.5 * math.erfc(-d / math.sqrt(2.0))


def _d1_d2(spot: float, tau: float, r: float, delta: float, sigma: float, strike: float):
    vol = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r - delta + 0.5 * sigma * sigma) * tau) / vol
    return d1, d1 - vol


def european_call(spot: float, tau: float, market: MarketParams, strike: float) -> float:
    """Black-Scholes call with continuous dividend yield."""
    if spot < 0.0 or strike <= 0.0 or tau < 0.0:
        raise ValueError(f"need spot >= 0, strike > 0, tau >= 0, got {spot}, {strike}, {tau}")
    if tau == 0.0 or spot == 0.0:
        return max(spot - strike, 0.0) if tau == 0.0 else 0.0
    d1, d2 = _d1_d2(spot, tau, market.r, market.delta, market.sigma, strike)
    return spot * math.exp(-market.delta * tau) * _norm_cdf(d1) - strike * math.exp(
        -market.r * tau
    ) * _norm_cdf(d2)


def european_put(spot: float, tau: float, market: MarketParams, strike: float) -> float:
    """Black-Scholes put with continuous dividend yield."""
    if spot < 0.0 or strike <= 0.0 or tau < 0.0:
        raise ValueError(f"need spot >= 0, strike > 0, tau >= 0, got {spot}, {strike}, {tau}")
    if tau == 0.0:
        return max(strike - spot, 0.0)
    if spot == 0.0:
        return strike * math.exp(-market.r * tau)
    d1, d2 = _d1_d2(spot, tau, market.r, market.delta, market.sigma, strike)
    return strike * math.exp(-market.r * tau) * _norm_cdf(-d2) - spot * math.exp(
        -market.delta * tau
    ) * _norm_cdf(-d1)


def parity_price_regime3(
    spot: float, tau: float, market: MarketParams, contract: LoanContract
) -> float:
    """Dividend-adjusted value of a delivered-dividend loan when r >= gamma.

    With r >= gamma and delta > 0 early redemption is never optimal and the
    value net of already-delivered dividends decomposes into a European call
    struck at the maturity balance plus the forthcoming dividend stream:

        H(S, t) = C(S, t; strike = K*exp(gamma*T)) + (1 - exp(-delta*(T-t))) * S.

    The full price adds the accrued account I at the API boundary.
    """
    cls = classify(market, contract)
    if contract.regime is not DividendRegime.DELIVERED_IMMEDIATELY or (
        cls.closed_form is not ClosedForm.PARITY_FORMULA
    ):
        raise ValueError(
            "parity price requires regime 3 with r >= gamma and delta > 0, "
            f"got regime={contract.regime!r}, r={market.r}, gamma={contract.loan_rate}, "
            f"delta={market.delta}"
        )
    if not 0.0 <= tau <= contract.maturity:
        raise ValueError(f"tau must lie in [0, {contract.maturity}], got {tau}")
    strike = contract.principal * math.exp(contract.loan_rate * contract.maturity)
    call = european_call(spot, tau, market, strike)
    return call + (1.0 - math.exp(-market.delta * tau)) * spot


def _alpha_roots(r_bar: float, delta: float, sigma: float) -> tuple[float, float, float]:
    # Positive root from the explicit radical; the other via the root sum,
    # which avoids cancellation in the second radical.  The third value is
    # alpha_plus - 1 = (root - b) / s2, rationalized where it cancels (b > 0).
    s2 = sigma * sigma
    if s2 == 0.0:
        raise ValueError(f"volatility sigma={sigma} is too small: its square underflows a float")
    if s2 == math.inf:
        raise ValueError(f"volatility sigma={sigma} is too large: its square overflows a float")
    b = r_bar - delta + 0.5 * s2
    root = math.sqrt(b ** 2 + 2.0 * delta * s2)
    alpha_plus = (-(r_bar - delta - 0.5 * s2) + root) / s2
    alpha_minus = 1.0 - 2.0 * (r_bar - delta) / s2 - alpha_plus
    excess = 2.0 * delta / (root + b) if b > 0.0 else (root - b) / s2
    return alpha_plus, alpha_minus, excess


def perpetual_regime1(market: MarketParams, contract: LoanContract) -> PerpetualResult:
    """Perpetual limit of the lender-keeps-dividends loan.

    Requires a nonempty redemption region: either r >= gamma with delta > 0,
    or r < gamma.  The boundary is finite when delta > 0, and with delta = 0
    exactly when r < gamma - sigma^2 / 2; in the remaining band
    gamma - sigma^2 / 2 <= r < gamma it is UNBOUNDED.  A sigma whose square
    leaves the floats, and a bounded case whose boundary or coefficient c1
    does, are refused with ValueError.
    """
    r_bar = market.r - contract.loan_rate
    delta, sigma = market.delta, market.sigma
    if r_bar >= 0.0 and delta == 0.0:
        raise ValueError(
            "perpetual boundary undefined: redemption region is empty for "
            f"r >= gamma with no dividend paid out (r={market.r}, gamma={contract.loan_rate})"
        )
    alpha_plus, alpha_minus, excess = _alpha_roots(r_bar, delta, sigma)
    principal = contract.principal
    bounded = delta > 0.0 or r_bar < -0.5 * sigma * sigma
    if not bounded:
        return PerpetualResult(alpha_plus, alpha_minus, UNBOUNDED, None, principal)
    x_star = alpha_plus * principal / excess if excess > 0.0 else math.inf
    if x_star == math.inf:
        raise ValueError(f"the perpetual boundary is past the float range (alpha_plus - 1 = "
                         f"{excess!r}, principal={principal})")
    base = excess / (alpha_plus * principal)
    try:
        c1 = (1.0 / alpha_plus) * base ** excess
    except OverflowError:
        c1 = math.inf
    if not 0.0 < c1 < math.inf:
        raise ValueError(
            f"the value coefficient c1={c1} is not a positive finite float "
            f"(alpha_plus={alpha_plus}, principal={principal})"
        )
    return PerpetualResult(alpha_plus, alpha_minus, x_star, c1, principal)


def perpetual_regime2(market: MarketParams, contract: LoanContract) -> PerpetualResult:
    """Perpetual limit of the reinvested-dividend loan (requires r < gamma).

    It is the regime-1 limit of the dividend-free reduction, which refuses
    r >= gamma.  The regime field of contract is not read.
    """
    regime2 = dataclasses.replace(contract, regime=DividendRegime.REINVESTED_RETURNED_ON_REDEMPTION)
    return perpetual_regime1(*reduce_regime2(market, regime2))


def perpetual_regime3(market: MarketParams, contract: LoanContract) -> PerpetualRegime3Result:
    """Perpetual delivered-dividend loan with delta > 0 and r < gamma.

    The dividend-adjusted value converges to the stock itself and the
    redeeming boundary escapes to infinity, so the descriptor carries the
    identity value map and an UNBOUNDED boundary.  With delta = 0 nothing is
    delivered, the loan is the regime-1 loan and its boundary can be finite,
    so that case is refused.
    """
    if market.delta == 0.0:
        raise ValueError(
            "with delta = 0 the delivered-dividend loan is the regime-1 loan; "
            "use the regime-1 perpetual closed form"
        )
    return PerpetualRegime3Result()


def terminal_limit(
    regime: DividendRegime,
    market: MarketParams,
    contract: LoanContract,
    a: float = 0.0,
) -> float:
    """Limit of the scaled redeeming boundary as tau tends to zero.

    Regimes 2 and 3 end at the principal K.  Regime 1 ends at K when
    r < gamma and at max(K, (r - gamma) * K / delta) when r >= gamma with
    delta > 0.  Regime 4 ends on the line K - a.  Parameters whose
    redemption region is empty have no boundary and raise.
    """
    regime = DividendRegime(regime)
    cls = classify(market, dataclasses.replace(contract, regime=regime))
    if not cls.has_boundary:
        raise ValueError(
            f"terminal boundary limit undefined: classification is "
            f"{cls.redemption_region_kind.value} for regime {int(regime)}"
        )
    principal = contract.principal
    r_bar = market.r - contract.loan_rate
    if regime is DividendRegime.CASH_RETURNED_ON_REDEMPTION:
        if a < 0.0:
            raise ValueError(f"accrued coordinate must be nonnegative, got a={a}")
        return principal - a
    if regime is DividendRegime.LENDER_KEEPS and r_bar >= 0.0:
        # Nonempty classification here implies delta > 0.
        return max(principal, r_bar * principal / market.delta)
    return principal
