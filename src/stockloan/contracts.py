"""Domain types, payoffs and coordinate transforms for stock-loan pricing.

A stock loan is a loan of principal K collateralized by one share of stock.
The borrower may redeem the share at any time t in [0, T] by repaying the
accreted balance K*exp(gamma*t), or walk away.  How dividends paid by the
collateral are distributed while the loan is alive changes the pricing
problem; the four supported conventions are enumerated by DividendRegime.

Every solver in this package works in similarity coordinates

    x = exp(-gamma*t) * S,    a = exp(-gamma*t) * I,    tau = T - t,

in which the redemption payoff loses its explicit time dependence and the
effective discount rate becomes r - gamma.  Calendar time appears only at
the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum


class DividendRegime(IntEnum):
    """Dividend-distribution conventions for the collateral share.

    LENDER_KEEPS
        The lender keeps all dividends paid before redemption.
    REINVESTED_RETURNED_ON_REDEMPTION
        Dividends are reinvested in the stock and the accumulated position
        exp(delta*t)*S is returned on redemption.
    DELIVERED_IMMEDIATELY
        Dividends are passed through to the borrower as they are paid.
    CASH_RETURNED_ON_REDEMPTION
        Dividends accumulate in a cash account I earning the riskless rate
        and are returned on redemption.
    """

    LENDER_KEEPS = 1
    REINVESTED_RETURNED_ON_REDEMPTION = 2
    DELIVERED_IMMEDIATELY = 3
    CASH_RETURNED_ON_REDEMPTION = 4


class RegionKind(Enum):
    """Shape of the optimal redemption region before maturity."""

    EMPTY = "empty"
    NEVER_STRICTLY_OPTIMAL = "never_strictly_optimal"
    BOUNDARY_CURVE = "boundary_curve"
    BOUNDARY_SURFACE = "boundary_surface"


class ClosedForm(Enum):
    """Closed-form characterization available when early redemption is off."""

    EUROPEAN_CALL_EQUIVALENT = "european_call_equivalent"
    PARITY_FORMULA = "parity_formula"
    LINEAR_PDE = "linear_pde"


@dataclass(frozen=True)
class MarketParams:
    """Market model parameters for the collateral GBM dynamics.

    Attributes
    ----------
    r : float
        Riskless rate, must be positive.
    delta : float
        Continuous dividend yield, must be nonnegative.
    sigma : float
        Volatility, must be positive.
    """

    r: float
    delta: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError(f"riskless rate must be positive, got r={self.r}")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"dividend yield must be nonnegative, got delta={self.delta}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"volatility must be positive, got sigma={self.sigma}")


@dataclass(frozen=True)
class LoanContract:
    """Stock-loan contract terms.

    Attributes
    ----------
    principal : float
        Loan principal K, must be positive.
    loan_rate : float
        Continuously compounded loan rate gamma; any finite sign is allowed.
    maturity : float
        Contract maturity T in years, must be positive.
    regime : DividendRegime
        Dividend-distribution convention.
    """

    principal: float
    loan_rate: float
    maturity: float
    regime: DividendRegime

    def __post_init__(self) -> None:
        if not (self.principal > 0.0 and math.isfinite(self.principal)):
            raise ValueError(f"principal must be positive, got K={self.principal}")
        if not math.isfinite(self.loan_rate):
            raise ValueError(f"loan rate must be finite, got gamma={self.loan_rate}")
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise ValueError(f"maturity must be positive, got T={self.maturity}")
        if not isinstance(self.regime, DividendRegime):
            object.__setattr__(self, "regime", DividendRegime(self.regime))

    def balance(self, t: float) -> float:
        """Accreted redemption balance K*exp(gamma*t) at calendar time t."""
        return self.principal * math.exp(self.loan_rate * t)


@dataclass(frozen=True)
class RegimeClassification:
    """Redemption-region shape plus the closed form that applies, if any.

    Closed-form tags accompany exactly the classifications with no early
    redemption to locate (EMPTY, NEVER_STRICTLY_OPTIMAL); boundary-type
    classifications never carry one.
    """

    redemption_region_kind: RegionKind
    closed_form: ClosedForm | None = None

    def __post_init__(self) -> None:
        if self.has_boundary and self.closed_form is not None:
            raise ValueError("boundary-type classifications carry no closed form")
        if not self.has_boundary and self.closed_form is None:
            raise ValueError("degenerate classifications must carry a closed-form tag")

    @property
    def has_boundary(self) -> bool:
        """True when early redemption is strictly optimal somewhere, so a boundary exists."""
        kind = self.redemption_region_kind
        return kind in (RegionKind.BOUNDARY_CURVE, RegionKind.BOUNDARY_SURFACE)


def payoff(regime: DividendRegime, s: float, i: float, t: float, contract: LoanContract) -> float:
    """Redemption payoff at calendar time t for per-path state (s, i).

    Regimes 1 and 2 pay (s - K*exp(gamma*t))+, with s interpreted as the
    reinvested position exp(delta*t)*S under regime 2.  Regime 3 pays the
    intrinsic value plus the delivered-dividend account i; regime 4 nets the
    cash account against the balance inside the positive part.
    """
    if s < 0.0 or i < 0.0:
        raise ValueError(f"stock and accrued dividend must be nonnegative, got s={s}, i={i}")
    balance = contract.balance(t)
    regime = DividendRegime(regime)
    if regime in (DividendRegime.LENDER_KEEPS, DividendRegime.REINVESTED_RETURNED_ON_REDEMPTION):
        return max(s - balance, 0.0)
    if regime is DividendRegime.DELIVERED_IMMEDIATELY:
        return max(s - balance, 0.0) + i
    return max(s + i - balance, 0.0)


def reduce_regime2(
    market: MarketParams, contract: LoanContract
) -> tuple[MarketParams, LoanContract]:
    """Reduce a reinvested-dividend loan to an equivalent dividend-free one.

    Reinvesting dividends makes the position exp(delta*t)*S a GBM with zero
    payout and unchanged volatility, so the regime-2 problem on S is the
    regime-1 problem on that position with delta = 0 and identical
    (r, sigma, K, gamma, T).  At t = 0 the positions coincide, so prices can
    be read off at the same spot.
    """
    if contract.regime is not DividendRegime.REINVESTED_RETURNED_ON_REDEMPTION:
        raise ValueError(f"reduction applies to regime 2 only, got {contract.regime!r}")
    reduced_market = MarketParams(r=market.r, delta=0.0, sigma=market.sigma)
    reduced_contract = LoanContract(
        principal=contract.principal,
        loan_rate=contract.loan_rate,
        maturity=contract.maturity,
        regime=DividendRegime.LENDER_KEEPS,
    )
    return reduced_market, reduced_contract


def classify(market: MarketParams, contract: LoanContract) -> RegimeClassification:
    """Classify the shape of the optimal redemption region.

    The split is driven by the sign of r - gamma and whether the borrower
    loses dividends by waiting.  A regime-2 contract is classified as its
    dividend-free reduction; a regime-4 contract with delta = 0 has an
    identically zero dividend account and is classified like regime 1.
    """
    r_bar = market.r - contract.loan_rate
    regime = contract.regime
    if regime is DividendRegime.REINVESTED_RETURNED_ON_REDEMPTION:
        return classify(*reduce_regime2(market, contract))
    if regime is DividendRegime.DELIVERED_IMMEDIATELY and market.delta > 0.0:
        if r_bar >= 0.0:
            return RegimeClassification(RegionKind.EMPTY, ClosedForm.PARITY_FORMULA)
        return RegimeClassification(RegionKind.BOUNDARY_CURVE)
    if regime is DividendRegime.CASH_RETURNED_ON_REDEMPTION and market.delta > 0.0:
        if r_bar > 0.0:
            return RegimeClassification(RegionKind.EMPTY, ClosedForm.LINEAR_PDE)
        if r_bar == 0.0:
            return RegimeClassification(RegionKind.NEVER_STRICTLY_OPTIMAL, ClosedForm.LINEAR_PDE)
        return RegimeClassification(RegionKind.BOUNDARY_SURFACE)
    # Regime 1, and the delta = 0 degenerations of regimes 3 and 4.
    if r_bar >= 0.0 and market.delta == 0.0:
        return RegimeClassification(RegionKind.EMPTY, ClosedForm.EUROPEAN_CALL_EQUIVALENT)
    return RegimeClassification(RegionKind.BOUNDARY_CURVE)


def accrue_dividends(
    accrued: float, stock: float, rate: float, dividend_yield: float, dt: float
) -> float:
    """One discrete step of the dividend-account accrual convention.

    The dividend collected over a step is credited at the step start and the
    whole account then grows at the riskless rate:

        next = (accrued + dividend_yield * stock * dt) * exp(rate * dt)

    This single convention is shared by every component that carries a
    dividend account through discrete time: the path-tree oracle and the
    forward-shooting-grid solver both apply it in similarity coordinates
    (rate = r - gamma); the balance factor cancels, so in cash coordinates
    the same convention holds with rate = r.  Keeping one implementation
    here is what makes the solvers agree on matched grids.
    """
    return (accrued + dividend_yield * stock * dt) * math.exp(rate * dt)
