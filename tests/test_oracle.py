"""Exhaustive-stopping path-tree reference pricer."""

import numpy as np
import pytest

from stockloan import (
    MAX_ORACLE_STEPS,
    DividendRegime,
    LatticeConfig,
    LoanContract,
    MarketParams,
    oracle_boundary,
    oracle_price,
    payoff,
    price_regime1,
    price_regime2,
)

K = 0.7
GAMMA = 0.1
HIGH_VOL = MarketParams(r=0.06, delta=0.03, sigma=0.4)


def contract(regime, maturity=1.0):
    return LoanContract(principal=K, loan_rate=GAMMA, maturity=maturity,
                        regime=DividendRegime(regime))


def test_step_budget_guard():
    assert MAX_ORACLE_STEPS == 14
    with pytest.raises(ValueError, match="doubles"):
        oracle_price(0.8, HIGH_VOL, contract(1), steps=15)
    with pytest.raises(ValueError):
        oracle_price(0.8, HIGH_VOL, contract(1), steps=0)


def test_input_validation():
    with pytest.raises(ValueError):
        oracle_price(-0.5, HIGH_VOL, contract(1), steps=8)
    with pytest.raises(ValueError):
        oracle_price(0.8, HIGH_VOL, contract(1), steps=10, exercise_steps=[0, 11])
    with pytest.raises(ValueError):
        oracle_price(0.8, HIGH_VOL, contract(1), steps=10, accrued=0.1)
    with pytest.raises(ValueError):
        oracle_price(0.8, HIGH_VOL, contract(2), steps=10, accrued=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_refused(bad):
    # a NaN or infinite spot or account used to come back as the price
    with pytest.raises(ValueError, match="spot must be finite"):
        oracle_price(bad, HIGH_VOL, contract(1), steps=8)
    with pytest.raises(ValueError, match="spot must be finite"):
        oracle_boundary(np.array([0.8, bad]), HIGH_VOL, contract(1), steps=8)
    for regime in (3, 4):
        with pytest.raises(ValueError, match="accrued account must be finite"):
            oracle_price(0.8, HIGH_VOL, contract(regime), steps=8, accrued=bad)


def test_golden_values():
    assert oracle_price(0.8, HIGH_VOL, contract(1), steps=12) == pytest.approx(
        0.15427927437394354, rel=1e-14)
    assert oracle_price(0.85, HIGH_VOL, contract(3), steps=12) == pytest.approx(
        0.20536516547754866, rel=1e-14)


def test_matches_lattice_bitwise_without_dividends():
    # with no dividend bookkeeping the enumeration must collapse to the
    # recombining backward induction exactly, not just within tolerance
    for regime, price in ((1, price_regime1), (2, price_regime2)):
        loan = contract(regime)
        for spot in (0.5, 0.8, 1.4):
            enumerated = oracle_price(spot, HIGH_VOL, loan, steps=10)
            recombined, _ = price(spot, HIGH_VOL, loan, LatticeConfig(steps=10))
            assert enumerated == recombined


def test_delivered_account_enters_additively():
    base = oracle_price(0.85, HIGH_VOL, contract(3), steps=10)
    shifted = oracle_price(0.85, HIGH_VOL, contract(3), steps=10, accrued=0.2)
    assert abs(shifted - (base + 0.2)) < 1e-14


def test_exercise_step_subsets_order_the_value():
    loan = contract(3)
    european = oracle_price(0.75, HIGH_VOL, loan, steps=12, exercise_steps=[12])
    quarterly = oracle_price(0.75, HIGH_VOL, loan, steps=12,
                             exercise_steps=range(0, 13, 4))
    semiannual = oracle_price(0.75, HIGH_VOL, loan, steps=12,
                              exercise_steps=range(0, 13, 2))
    american = oracle_price(0.75, HIGH_VOL, loan, steps=12)
    assert european == pytest.approx(0.13870467451159138, rel=1e-14)
    assert quarterly == pytest.approx(0.139720060400902, rel=1e-14)
    assert semiannual == pytest.approx(0.14062927405674494, rel=1e-14)
    assert american == pytest.approx(0.14102912906721066, rel=1e-14)
    assert european < quarterly < semiannual < american


def test_default_exercise_set_is_every_step():
    loan = contract(1)
    assert oracle_price(0.8, HIGH_VOL, loan, steps=10) == oracle_price(
        0.8, HIGH_VOL, loan, steps=10, exercise_steps=range(11))


def test_boundary_flags():
    probes = np.array([0.3, 0.8, 3.0])
    flags = oracle_boundary(probes, HIGH_VOL, contract(1), steps=8)
    assert flags.dtype == bool
    assert not flags[0]
    assert flags[2]
    loan = contract(1)
    direct = np.array([
        oracle_price(float(s), HIGH_VOL, loan, steps=8)
        == payoff(DividendRegime(1), float(s), 0.0, 0.0, loan)
        for s in probes
    ])
    assert np.array_equal(flags, direct)


def test_deterministic():
    first = oracle_price(0.8, HIGH_VOL, contract(3), steps=11, accrued=0.05)
    second = oracle_price(0.8, HIGH_VOL, contract(3), steps=11, accrued=0.05)
    assert first == second
