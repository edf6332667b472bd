"""Contract domain types, payoffs, coordinate changes, and classification."""

import math

import numpy as np
import pytest

from stockloan import (
    DividendRegime,
    LoanContract,
    MarketParams,
    RegionKind,
    ClosedForm,
    accrue_dividends,
    classify,
    payoff,
    reduce_regime2,
)

K = 0.7
GAMMA = 0.1


def make(regime, r=0.06, delta=0.03, sigma=0.4, maturity=1.0):
    market = MarketParams(r=r, delta=delta, sigma=sigma)
    contract = LoanContract(
        principal=K, loan_rate=GAMMA, maturity=maturity, regime=DividendRegime(regime)
    )
    return market, contract


def test_regime_enum_values():
    assert [int(r) for r in DividendRegime] == [1, 2, 3, 4]


def test_balance_grows_at_loan_rate():
    _, contract = make(1)
    assert contract.balance(0.0) == K
    assert contract.balance(0.5) == pytest.approx(K * math.exp(GAMMA * 0.5), rel=1e-15)


def test_market_validation():
    with pytest.raises(ValueError):
        MarketParams(r=-0.01, delta=0.03, sigma=0.4)
    with pytest.raises(ValueError):
        MarketParams(r=0.06, delta=-0.01, sigma=0.4)
    with pytest.raises(ValueError):
        MarketParams(r=0.06, delta=0.03, sigma=0.0)


def test_contract_validation():
    with pytest.raises(ValueError):
        LoanContract(principal=0.0, loan_rate=GAMMA, maturity=1.0, regime=DividendRegime(1))
    with pytest.raises(ValueError):
        LoanContract(principal=K, loan_rate=GAMMA, maturity=0.0, regime=DividendRegime(1))


def test_payoff_redemption_nets_balance():
    _, contract = make(1)
    t = 0.25
    balance = K * math.exp(GAMMA * t)
    assert payoff(DividendRegime(1), 1.2, 0.0, t, contract) == pytest.approx(1.2 - balance)
    # the clamp floors redemption at zero, never negative
    assert payoff(DividendRegime(1), 0.1, 0.0, t, contract) == 0.0
    # cash account nets inside the clamp when returned on redemption
    assert payoff(DividendRegime(4), 1.2, 0.3, t, contract) == pytest.approx(1.2 + 0.3 - balance)
    assert payoff(DividendRegime(4), 0.1, 0.2, t, contract) == 0.0
    # already-delivered dividends ride on top of the clamped intrinsic part
    assert payoff(DividendRegime(3), 1.2, 0.3, t, contract) == pytest.approx(1.2 - balance + 0.3)
    assert payoff(DividendRegime(3), 0.1, 0.3, t, contract) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        payoff(DividendRegime(1), -0.5, 0.0, t, contract)


def test_similarity_obstacle_is_time_independent():
    # the redemption payoff scaled by the balance factor depends on x only
    _, contract = make(1)
    for t in (0.0, 0.3, 0.9):
        s = 1.1 * math.exp(GAMMA * t)
        scaled = math.exp(-GAMMA * t) * payoff(DividendRegime(1), s, 0.0, t, contract)
        assert scaled == pytest.approx(1.1 - K, rel=1e-13)


def test_reduce_regime2_strips_dividend_yield():
    market, contract = make(2, delta=0.03)
    reduced_market, reduced_contract = reduce_regime2(market, contract)
    assert reduced_market.delta == 0.0
    assert reduced_market.r == market.r
    assert reduced_market.sigma == market.sigma
    assert reduced_contract.regime is DividendRegime.LENDER_KEEPS
    assert reduced_contract.principal == contract.principal
    with pytest.raises(ValueError):
        reduce_regime2(market, make(1)[1])


def test_accrue_dividends_formula():
    # one step: bank the dividend flow, then grow the account at the rate
    rng = np.random.default_rng(555)
    for _ in range(50):
        a = float(rng.uniform(0.0, 1.0))
        x = float(rng.uniform(0.01, 3.0))
        rate = float(rng.uniform(-0.1, 0.1))
        dy = float(rng.uniform(0.0, 0.08))
        dt = float(rng.uniform(1e-4, 0.1))
        expected = (a + dy * x * dt) * math.exp(rate * dt)
        assert accrue_dividends(a, x, rate, dy, dt) == pytest.approx(expected, rel=1e-14)
    assert accrue_dividends(0.0, 1.0, 0.05, 0.0, 0.5) == 0.0


def test_accrue_dividends_vectorizes():
    a = np.array([0.0, 0.1, 0.5])
    out = accrue_dividends(a, 1.0, 0.02, 0.03, 0.25)
    assert out.shape == a.shape
    assert np.all(np.diff(out) > 0.0)


CLASSIFY_CASES = [
    # regime, r, delta, expected kind, expected closed form
    (1, 0.12, 0.0, RegionKind.EMPTY, ClosedForm.EUROPEAN_CALL_EQUIVALENT),
    (1, 0.10, 0.0, RegionKind.EMPTY, ClosedForm.EUROPEAN_CALL_EQUIVALENT),
    (1, 0.06, 0.0, RegionKind.BOUNDARY_CURVE, None),
    (1, 0.12, 0.03, RegionKind.BOUNDARY_CURVE, None),
    (1, 0.06, 0.03, RegionKind.BOUNDARY_CURVE, None),
    (2, 0.12, 0.03, RegionKind.EMPTY, ClosedForm.EUROPEAN_CALL_EQUIVALENT),
    (2, 0.06, 0.03, RegionKind.BOUNDARY_CURVE, None),
    (3, 0.12, 0.03, RegionKind.EMPTY, ClosedForm.PARITY_FORMULA),
    (3, 0.06, 0.03, RegionKind.BOUNDARY_CURVE, None),
    (4, 0.12, 0.03, RegionKind.EMPTY, ClosedForm.LINEAR_PDE),
    (4, 0.10, 0.03, RegionKind.NEVER_STRICTLY_OPTIMAL, ClosedForm.LINEAR_PDE),
    (4, 0.06, 0.03, RegionKind.BOUNDARY_SURFACE, None),
    # with no dividend flow the account stays empty and regime-1 rules apply
    (4, 0.12, 0.0, RegionKind.EMPTY, ClosedForm.EUROPEAN_CALL_EQUIVALENT),
    (4, 0.06, 0.0, RegionKind.BOUNDARY_CURVE, None),
]


@pytest.mark.parametrize("regime,r,delta,kind,form", CLASSIFY_CASES)
def test_classify_table(regime, r, delta, kind, form):
    market, contract = make(regime, r=r, delta=delta)
    result = classify(market, contract)
    assert result.redemption_region_kind is kind
    assert result.closed_form is form


def test_classify_constrained_means_boundary():
    for regime, r, delta, kind, _ in CLASSIFY_CASES:
        market, contract = make(regime, r=r, delta=delta)
        constrained = kind in (RegionKind.BOUNDARY_CURVE, RegionKind.BOUNDARY_SURFACE)
        assert (classify(market, contract).redemption_region_kind
                in (RegionKind.BOUNDARY_CURVE, RegionKind.BOUNDARY_SURFACE)) == constrained
