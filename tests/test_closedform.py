"""Closed forms: European prices, perpetual limits, terminal boundary limits."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from stockloan import (
    UNBOUNDED,
    DividendRegime,
    LoanContract,
    MarketParams,
    PerpetualResult,
    european_call,
    european_put,
    parity_price_regime3,
    perpetual_regime1,
    perpetual_regime2,
    perpetual_regime3,
    terminal_limit,
)

K = 0.7
GAMMA = 0.1


def contract(regime, maturity=1.0):
    return LoanContract(principal=K, loan_rate=GAMMA, maturity=maturity,
                        regime=DividendRegime(regime))


def test_european_call_textbook_value():
    market = MarketParams(r=0.05, delta=0.0, sigma=0.2)
    assert european_call(1.0, 1.0, market, 1.0) == pytest.approx(0.10450583572185565, rel=1e-12)


def test_put_call_parity():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        market = MarketParams(
            r=float(rng.uniform(0.01, 0.2)),
            delta=float(rng.uniform(0.0, 0.08)),
            sigma=float(rng.uniform(0.05, 0.6)),
        )
        spot = float(rng.uniform(0.2, 3.0))
        strike = float(rng.uniform(0.2, 3.0))
        tau = float(rng.uniform(0.05, 5.0))
        lhs = european_call(spot, tau, market, strike) - european_put(spot, tau, market, strike)
        rhs = spot * math.exp(-market.delta * tau) - strike * math.exp(-market.r * tau)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_european_zero_tau_is_intrinsic():
    market = MarketParams(r=0.05, delta=0.02, sigma=0.3)
    assert european_call(1.4, 0.0, market, 1.0) == pytest.approx(0.4)
    assert european_call(0.6, 0.0, market, 1.0) == 0.0


def test_perpetual_high_vol_anchor():
    result = perpetual_regime1(MarketParams(r=0.06, delta=0.03, sigma=0.4), contract(1))
    assert result.is_bounded
    assert result.x_star_inf == pytest.approx(1.9657000768762127, rel=1e-12)
    assert result.alpha_plus == pytest.approx(1.5530536126122563, rel=1e-12)
    assert result.c1 == pytest.approx(0.4430806394230121, rel=1e-12)


def test_perpetual_low_vol_anchors():
    low_vol = MarketParams(r=0.06, delta=0.03, sigma=0.15)
    r1 = perpetual_regime1(low_vol, contract(1))
    assert r1.x_star_inf == pytest.approx(0.8230052571728865, rel=1e-12)
    r2 = perpetual_regime2(low_vol, contract(2))
    assert r2.x_star_inf == pytest.approx(0.9739130434782608, rel=1e-12)


def test_perpetual_unbounded_when_carry_beats_volatility_drag():
    # with no yield leakage, alpha=1 is always a root; boundedness then
    # requires r - gamma < -sigma^2/2
    high_vol = MarketParams(r=0.06, delta=0.03, sigma=0.4)
    result = perpetual_regime2(high_vol, contract(2))
    assert result.x_star_inf is UNBOUNDED
    assert not result.is_bounded
    with pytest.raises(ValueError):
        result.value(1.0)


def test_an_unbounded_level_is_the_float_inf():
    # a sentinel object compared with a float raised TypeError
    high_vol = MarketParams(r=0.06, delta=0.03, sigma=0.4)
    assert UNBOUNDED == math.inf
    for level in (perpetual_regime2(high_vol, contract(2)).x_star_inf,
                  perpetual_regime3(high_vol, contract(3)).boundary):
        assert type(level) is float
        assert 1e308 < level


def test_perpetual_result_value_needs_its_principal():
    # the principal defaulted to NaN, so a result built from the public fields valued NaN
    result = perpetual_regime1(MarketParams(r=0.06, delta=0.03, sigma=0.4), contract(1))
    fields = (result.alpha_plus, result.alpha_minus, result.x_star_inf, result.c1)
    with pytest.raises(TypeError):
        PerpetualResult(*fields)
    rebuilt = PerpetualResult(*fields, K)
    assert rebuilt == result
    assert rebuilt.value(3.0) == result.value(3.0) == 3.0 - K


def test_perpetual_boundary_formula():
    rng = np.random.default_rng(31415)
    for _ in range(100):
        market = MarketParams(
            r=GAMMA + float(rng.uniform(-0.09, 0.15)),
            delta=float(rng.uniform(0.0, 0.08)),
            sigma=float(rng.uniform(0.05, 0.6)),
        )
        result = perpetual_regime1(market, contract(1))
        if not result.is_bounded:
            assert result.alpha_plus <= 1.0 + 1e-12
            continue
        alpha = result.alpha_plus
        assert alpha > 1.0
        assert result.x_star_inf == pytest.approx(alpha * K / (alpha - 1.0), rel=1e-12)


def test_perpetual_smooth_fit():
    rng = np.random.default_rng(90909)
    checked = 0
    while checked < 200:
        market = MarketParams(
            r=GAMMA + float(rng.uniform(-0.09, 0.15)),
            delta=float(rng.uniform(0.0, 0.08)),
            sigma=float(rng.uniform(0.05, 0.6)),
        )
        principal = float(rng.uniform(0.2, 2.0))
        loan = LoanContract(principal=principal, loan_rate=GAMMA, maturity=1.0,
                            regime=DividendRegime(1))
        result = perpetual_regime1(market, loan)
        if not result.is_bounded:
            continue
        checked += 1
        x_star = result.x_star_inf
        assert abs(result.value(x_star) - (x_star - principal)) < 1e-10
        slope = result.c1 * result.alpha_plus * x_star ** (result.alpha_plus - 1.0)
        assert abs(slope - 1.0) < 1e-10


def test_perpetual_value_shape():
    market = MarketParams(r=0.06, delta=0.03, sigma=0.4)
    result = perpetual_regime1(market, contract(1))
    xs = np.linspace(0.05, 3.5, 60)
    vals = np.array([result.value(float(x)) for x in xs])
    assert np.all(vals >= np.maximum(xs - K, 0.0) - 1e-14)
    assert np.all(np.diff(vals) >= 0.0)
    beyond = xs >= result.x_star_inf
    assert np.allclose(vals[beyond], xs[beyond] - K, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        result.value(-0.1)


def exact_level(market, principal):
    """alpha_plus K / (alpha_plus - 1) in 400-digit decimals, from the float inputs as given.

    Enough digits that alpha_plus - 1 keeps about 80 of them at delta 1e-300."""
    with localcontext() as context:
        context.prec = 400
        r_bar = Decimal(market.r) - Decimal(GAMMA)
        delta, s2 = Decimal(market.delta), Decimal(market.sigma) ** 2
        b = r_bar - delta + s2 / 2
        alpha = (-(r_bar - delta - s2 / 2) + (b * b + 2 * delta * s2).sqrt()) / s2
        return float(alpha * Decimal(principal) / (alpha - 1))


@pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12, 1e-17, 1e-20, 1e-300])
def test_perpetual_boundary_keeps_its_digits_as_the_yield_vanishes(delta):
    # alpha_plus - 1 tends to 0 with delta; subtracting 1 from the rounded
    # alpha_plus kept none of its digits at 1e-17 and divided by 0 below
    market = MarketParams(r=0.06, delta=delta, sigma=0.4)
    result = perpetual_regime1(market, contract(1))
    assert result.x_star_inf == pytest.approx(exact_level(market, K), rel=1e-13)
    assert 0.0 < result.c1 < math.inf


@pytest.mark.parametrize("delta", [1e-320, 5e-324])
def test_perpetual_boundary_past_the_floats_refused(delta):
    # the true boundary, about 2.8e-2 / delta, is finite but no float holds it
    with pytest.raises(ValueError, match="past the float range"):
        perpetual_regime1(MarketParams(r=0.06, delta=delta, sigma=0.4), contract(1))


@pytest.mark.parametrize("sigma, principal", [(0.01, 2.0), (0.001, K)],
                         ids=["underflow", "overflow"])
def test_perpetual_coefficient_off_the_floats_refused(sigma, principal):
    # c1 = (1 / a) ((a - 1) / (a K))^(a - 1) with alpha_plus a in the thousands:
    # the true c1 is positive and finite, but its float rounds to 0 or overflows
    loan = LoanContract(principal=principal, loan_rate=GAMMA, maturity=1.0,
                        regime=DividendRegime(1))
    with pytest.raises(ValueError, match="c1="):
        perpetual_regime1(MarketParams(r=0.06, delta=0.03, sigma=sigma), loan)


@pytest.mark.parametrize("sigma", [1e-162, 1e-200])
def test_volatility_whose_square_underflows_refused(sigma):
    # the roots divide by sigma^2, which rounds to 0
    with pytest.raises(ValueError, match=f"sigma={sigma} is too small"):
        perpetual_regime1(MarketParams(r=0.06, delta=0.03, sigma=sigma), contract(1))


@pytest.mark.parametrize("sigma", [1e155, 1e300])
def test_volatility_whose_square_overflows_refused(sigma):
    # inf / inf made both roots NaN, which the unbounded regime-2 result printed
    with pytest.raises(ValueError, match=re.escape(f"sigma={sigma} is too large")):
        perpetual_regime2(MarketParams(r=0.06, delta=0.03, sigma=sigma), contract(2))


def test_perpetual_delivered_dividend_boundary_unbounded():
    # the delivered-stream loan value approaches the stock itself, so no
    # finite perpetual redemption level exists
    market = MarketParams(r=0.06, delta=0.03, sigma=0.4)
    result = perpetual_regime3(market, contract(3))
    assert result.boundary is UNBOUNDED


def test_parity_formula_structure():
    # value decomposes into a call struck at the maturity balance plus the
    # dividends still to be delivered before maturity
    market = MarketParams(r=0.12, delta=0.03, sigma=0.3)
    loan = contract(3)
    strike = K * math.exp(GAMMA * loan.maturity)
    rng = np.random.default_rng(777)
    for _ in range(30):
        spot = float(rng.uniform(0.1, 3.0))
        tau = float(rng.uniform(0.05, loan.maturity))
        expected = european_call(spot, tau, market, strike) - math.expm1(-market.delta * tau) * spot
        assert parity_price_regime3(spot, tau, market, loan) == pytest.approx(expected, rel=1e-12)


def test_parity_zero_tau_is_intrinsic():
    market = MarketParams(r=0.12, delta=0.03, sigma=0.3)
    balance = K * math.exp(GAMMA * 1.0)
    assert parity_price_regime3(1.1, 0.0, market, contract(3)) == pytest.approx(1.1 - balance)
    assert parity_price_regime3(0.5, 0.0, market, contract(3)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        parity_price_regime3(1.1, 2.0, market, contract(3))
    with pytest.raises(ValueError):
        parity_price_regime3(1.1, 0.5, MarketParams(r=0.06, delta=0.03, sigma=0.3), contract(3))
    with pytest.raises(ValueError):
        parity_price_regime3(1.1, 0.5, MarketParams(r=0.12, delta=0.0, sigma=0.3), contract(3))


def test_terminal_limits():
    constrained = MarketParams(r=0.06, delta=0.03, sigma=0.4)
    for regime in (1, 2, 3):
        tl = terminal_limit(DividendRegime(regime), constrained, contract(regime))
        assert tl == pytest.approx(K, rel=1e-12)
    tl4 = terminal_limit(DividendRegime(4), constrained, contract(4), a=0.2)
    assert tl4 == pytest.approx(K - 0.2, rel=1e-12)
    # with r above the loan rate the boundary ends at the larger of K and
    # the carry-to-yield ratio level
    sparse_yield = MarketParams(r=0.12, delta=0.01, sigma=0.4)
    tl1 = terminal_limit(DividendRegime(1), sparse_yield, contract(1))
    assert tl1 == pytest.approx((0.12 - GAMMA) * K / 0.01, rel=1e-12)


def test_terminal_limit_requires_a_boundary():
    empty = MarketParams(r=0.12, delta=0.03, sigma=0.4)
    with pytest.raises(ValueError):
        terminal_limit(DividendRegime(2), empty, contract(2))
    no_dividend = MarketParams(r=0.12, delta=0.0, sigma=0.4)
    with pytest.raises(ValueError):
        terminal_limit(DividendRegime(1), no_dividend, contract(1))
