"""Forward-shooting-grid backend for the cash-account dividend regime."""

import math

import numpy as np
import pytest

from stockloan import (
    DividendRegime,
    FSG2DConfig,
    LatticeConfig,
    LoanContract,
    MarketParams,
    extract_boundary_surface,
    price_regime1,
    price_regime4,
)

K = 0.7
GAMMA = 0.1
HIGH_VOL = MarketParams(r=0.06, delta=0.03, sigma=0.4)


def contract(regime=4, maturity=1.0):
    return LoanContract(principal=K, loan_rate=GAMMA, maturity=maturity,
                        regime=DividendRegime(regime))


@pytest.fixture(scope="module")
def golden_surface():
    cfg = FSG2DConfig(x_nodes=200, a_nodes=50, time_steps=200)
    return price_regime4(0.8, 0.1, HIGH_VOL, contract(), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        FSG2DConfig(x_nodes=4)
    with pytest.raises(ValueError):
        FSG2DConfig(a_nodes=2)
    with pytest.raises(ValueError):
        FSG2DConfig(time_steps=0)
    with pytest.raises(ValueError):
        FSG2DConfig(a_max=-0.1)
    with pytest.raises(ValueError):
        FSG2DConfig(log_x_min=1.0, log_x_max=0.0)


def test_input_validation():
    with pytest.raises(ValueError):
        price_regime4(-1.0, 0.0, HIGH_VOL, contract())
    with pytest.raises(ValueError):
        price_regime4(0.8, -0.1, HIGH_VOL, contract())
    with pytest.raises(ValueError):
        price_regime4(0.8, 0.1, HIGH_VOL, contract(regime=1))


def test_golden_value(golden_surface):
    value, surface = golden_surface
    assert value == pytest.approx(0.22307362104371448, rel=1e-12)
    assert surface.value_at(0.8, 0.1, 1.0) == pytest.approx(value, rel=1e-12)
    meta = surface.solver_meta
    assert meta["solver"] == "fsg"
    assert meta["constrained"] is True
    assert meta["n_sub"] >= 1


def test_redeem_now_fast_path():
    # once the collateral plus the account covers the balance with the
    # carry against waiting, redemption is immediate and needs no grid
    value, surface = price_regime4(0.55, 0.75, HIGH_VOL, contract())
    assert value == 0.55 + 0.75 - K
    assert surface is None


def test_surface_dominates_raw_obstacle(golden_surface):
    _, surface = golden_surface
    values = np.asarray(surface.values)
    obstacle = np.asarray(surface.obstacle)
    assert np.min(values - obstacle[None]) >= 0.0
    assert values.min() >= 0.0
    assert np.array_equal(values[0], np.maximum(obstacle, 0.0))


def test_value_at_bounds(golden_surface):
    _, surface = golden_surface
    with pytest.raises(ValueError):
        surface.value_at(0.8, 5.0, 1.0)
    with pytest.raises(ValueError):
        surface.value_at(0.8, 0.1, 2.0)
    assert surface.value_at(0.8, 0.1, 0.0) == pytest.approx(max(0.8 + 0.1 - K, 0.0), abs=1e-12)


def test_zero_dividend_collapses_to_single_factor():
    market = MarketParams(r=0.06, delta=0.0, sigma=0.4)
    cfg = FSG2DConfig(x_nodes=200, a_nodes=20, time_steps=200)
    value_2d, _ = price_regime4(0.8, 0.0, market, contract(), cfg)
    value_1d, _ = price_regime1(0.8, market, contract(regime=1), LatticeConfig(steps=2000))
    assert abs(value_2d - value_1d) < 1e-3 * K


def test_linear_solver_gating_and_agreement():
    # r < gamma redeems early and marches the obstacle; r >= gamma never
    # redeems early and marches the plain pricing equation
    cfg = FSG2DConfig(x_nodes=120, a_nodes=24, time_steps=100)
    _, surface = price_regime4(0.8, 0.1, HIGH_VOL, contract(), cfg)
    assert surface.solver_meta["constrained"] is True
    market = MarketParams(r=0.12, delta=0.03, sigma=0.3)
    _, linear_surface = price_regime4(0.8, 0.1, market, contract(), cfg)
    assert linear_surface.solver_meta["constrained"] is False


def test_all_redeem_columns_sit_on_obstacle():
    # columns whose account already covers the principal redeem everywhere,
    # and the bilinear shift keeps those planes exact to roundoff
    cfg = FSG2DConfig(x_nodes=120, a_nodes=40, time_steps=80, a_max=1.3 * K,
                      log_x_min=math.log(0.2 * K), log_x_max=math.log(4 * K))
    _, surface = price_regime4(0.8, 0.0, HIGH_VOL, contract(), cfg)
    account = np.asarray(surface.a_grid)
    values = np.asarray(surface.values)
    obstacle = np.asarray(surface.obstacle)
    columns = account >= K - 1e-12
    assert columns.sum() >= 5
    worst = np.max(np.abs(values[:, :, columns] - obstacle[None, :, columns]))
    assert worst <= 1e-10 * K


def test_boundary_surface_shape_and_terminal_row(golden_surface):
    _, surface = golden_surface
    boundary = extract_boundary_surface(surface)
    account = np.asarray(boundary.a_grid)
    assert np.all(account < K)
    levels = np.asarray(boundary.x_star)
    assert levels.shape == (surface.layer_count(), account.size)
    x_grid = np.asarray(surface.x_grid)
    expected = np.array([x_grid[np.searchsorted(x_grid, K - a)] for a in account])
    assert np.allclose(levels[0], expected)
    assert boundary.is_monotone(tolerance=0.0)
    assert boundary.max_decrease == 0.0
