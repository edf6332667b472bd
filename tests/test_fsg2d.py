"""Forward-shooting-grid backend for the cash-account dividend regime."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stockloan import (
    DividendRegime,
    FSG2DConfig,
    LatticeConfig,
    LoanContract,
    MarketParams,
    VIProblem,
    accrue_dividends,
    extract_boundary_surface,
    fold_boundary,
    fold_values,
    fsg_stream,
    oracle_price,
    price_regime1,
    price_regime4,
)
from stockloan.problems import log_grid

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


def test_input_validation():
    with pytest.raises(ValueError):
        price_regime4(-1.0, 0.0, HIGH_VOL, contract())
    with pytest.raises(ValueError):
        price_regime4(0.8, -0.1, HIGH_VOL, contract())
    with pytest.raises(ValueError):
        price_regime4(0.8, 0.1, HIGH_VOL, contract(regime=1))
    cfg = FSG2DConfig(x_nodes=40, a_nodes=6, time_steps=20)
    _, surface = price_regime4(0.8, 0.1, HIGH_VOL, contract(), cfg)
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        extract_boundary_surface(surface, -0.5)


def test_golden_value(golden_surface):
    value, surface = golden_surface
    assert value == pytest.approx(0.22307362104371448, rel=1e-12)
    assert surface.value_at(0.8, 1.0, a=0.1) == pytest.approx(value, rel=1e-12)
    meta = surface.solver_meta
    assert meta["solver"] == "fsg"
    assert surface.constrained is True
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
    obstacle = np.asarray(surface.obstacles[0])
    assert np.min(values - obstacle[None]) >= 0.0
    assert values.min() >= 0.0
    assert np.array_equal(values[0], np.maximum(obstacle, 0.0))


def test_value_at_bounds(golden_surface):
    _, surface = golden_surface
    with pytest.raises(ValueError):
        surface.value_at(0.8, 1.0, a=5.0)
    with pytest.raises(ValueError):
        surface.value_at(0.8, 2.0, a=0.1)
    assert surface.value_at(0.8, 0.0, a=0.1) == pytest.approx(max(0.8 + 0.1 - K, 0.0), abs=1e-12)


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
    assert surface.constrained is True
    market = MarketParams(r=0.12, delta=0.03, sigma=0.3)
    _, linear_surface = price_regime4(0.8, 0.1, market, contract(), cfg)
    assert linear_surface.constrained is False


def test_all_redeem_columns_sit_on_obstacle():
    # columns whose account already covers the principal redeem everywhere,
    # and the bilinear shift keeps those planes exact to roundoff
    cfg = FSG2DConfig(x_nodes=120, a_nodes=40, time_steps=80, a_max=1.3 * K)
    _, surface = price_regime4(0.8, 0.0, HIGH_VOL, contract(), cfg)
    account = np.asarray(surface.a_grid)
    values = np.asarray(surface.values)
    obstacle = np.asarray(surface.obstacles[0])
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
    assert levels.shape == (len(surface.tau_grid), account.size)
    x_grid = np.asarray(surface.x_nodes[0])
    expected = np.array([x_grid[np.searchsorted(x_grid, K - a)] for a in account])
    assert np.allclose(levels[0], expected)
    assert boundary.max_decrease == 0.0


def reference_layers(market, loan, config, constrained):
    """The stored layers of the per-offset march: each substep sums three
    account-interpolated stock rows, each with its own closure past A = K."""
    r_bar = market.r - loan.loan_rate
    x, (lo, mid, up) = log_grid(loan.principal, market.sigma, r_bar - market.delta, r_bar,
                                loan.maturity, config.x_nodes)
    if config.a_max is not None:
        a_max = config.a_max
    elif constrained:
        a_max = loan.principal
    else:
        a_max = 2.0 * loan.principal * math.exp(r_bar * loan.maturity)
    a = np.linspace(0.0, a_max, config.a_nodes)
    dtau = loan.maturity / config.time_steps
    n_sub = max(1, math.ceil(dtau * max(-mid, 0.0) / 0.95))
    dt = dtau / n_sub
    a_query = accrue_dividends(a[None, :], x[:, None], r_bar, market.delta, dt)
    pos = np.minimum(a_query / (a[1] - a[0]), 2.0 * (a.size - 1))
    k = np.clip(np.floor(pos).astype(np.intp), 0, a.size - 2)
    w = pos - k
    inner = slice(1, x.size - 1)
    rows = np.arange(x.size)[inner][:, None]
    over = pos[inner] > (a.size - 1) + 1e-9
    obstacle = x[:, None] + a[None, :] - loan.principal
    f = np.maximum(obstacle, 0.0)
    layers = [f.copy()]

    def shifted(offset):
        vals = (f[rows + offset, k[inner]] * (1.0 - w[inner])
                + f[rows + offset, k[inner] + 1] * w[inner])
        if constrained:
            vals = np.where(over, x[rows + offset] + a_query[inner] - loan.principal, vals)
        return vals

    for step in range(1, config.time_steps * n_sub + 1):
        new = np.empty_like(f)
        new[inner] = ((1.0 + dt * mid) * shifted(0) + dt * lo * shifted(-1)
                      + dt * up * shifted(1))
        if constrained:
            new[0] = np.maximum(a - loan.principal, 0.0)
            new[-1] = x[-1] + a - loan.principal
            np.maximum(new, obstacle, out=new)
            if a_max >= loan.principal:
                new[:, -1] = x + a_max - loan.principal
        else:
            disc = loan.principal * math.exp(-r_bar * (step * dt))
            new[0] = np.maximum(x[0] + a - disc, 0.0)
            new[-1] = x[-1] + a - disc
        f = new
        if step % n_sub == 0:
            layers.append(f.copy())
    return layers


@pytest.mark.parametrize("market, a_max, constrained", [
    (HIGH_VOL, 1.3 * K, True),
    (MarketParams(r=0.02, delta=0.2, sigma=1.0), None, True),
    (MarketParams(r=0.09, delta=0.03, sigma=0.2), None, True),
    (MarketParams(r=0.04, delta=0.2, sigma=0.4), 1.3 * K, True),
    (MarketParams(r=0.12, delta=0.05, sigma=0.3), None, False),
], ids=["constrained-past-K", "constrained-wide", "constrained-calm", "constrained-rich",
        "unconstrained"])
def test_march_matches_per_offset_reference(market, a_max, constrained):
    config = FSG2DConfig(x_nodes=60, a_nodes=12, time_steps=30, a_max=a_max)
    loan = contract(maturity=2.0)
    _, surface = price_regime4(0.8, 0.1, market, loan, config)
    assert surface.constrained is constrained
    reference = reference_layers(market, loan, config, constrained)
    assert len(reference) == len(surface.tau_grid)
    # the precomputed map rounds as the per-offset sums do, so bit for bit
    for ours, theirs in zip(surface.values, reference):
        assert np.array_equal(ours, theirs)
    if constrained:
        # some queries land past the last account node, where the reference
        # takes the exact closure and the march extrapolates linearly
        r_bar = market.r - GAMMA
        account = np.asarray(surface.a_grid)
        queries = accrue_dividends(account[None, :],
                                   np.asarray(surface.x_nodes[0][1:-1])[:, None],
                                   r_bar, market.delta, surface.solver_meta["dt"])
        assert queries.max() > account[-1]


@pytest.mark.parametrize("spot", [0.45, 0.4095])
def test_unconstrained_bottom_row_holds_the_stock(spot):
    # r >= gamma: the bottom stock row held max(A - K e^{-(r - gamma) tau}, 0),
    # the value at x = 0, though it sits at x[0] = K e^{-6 sigma sqrt(T)} > 0.
    # Near expiry the spots 0.45 and 0.4095, a few nodes above it, priced
    # 0.3205 and 0.0038, under the intrinsic value; the path tree gives
    # 0.4410 and 0.4005.
    market = MarketParams(r=0.13, delta=0.03, sigma=0.4)
    loan = contract(maturity=0.05)
    value, _ = price_regime4(spot, 0.69, market, loan)
    assert value >= spot + 0.69 - K
    assert value == pytest.approx(oracle_price(spot, market, loan, 14, 0.69), abs=1e-7)


@pytest.mark.parametrize("market", [HIGH_VOL, MarketParams(r=0.12, delta=0.05, sigma=0.3)],
                         ids=["constrained", "unconstrained"])
def test_two_layer_consumers_equal_the_surface(market):
    config = FSG2DConfig(x_nodes=80, a_nodes=16, time_steps=40)
    loan = contract()
    problem = VIProblem(market, loan)
    for accrued in (0.0, 0.1, 0.35):
        spots = [0.3, 0.8, 1.7]
        values = fold_values(fsg_stream(problem, config, spots, accrued), spots, accrued)
        for spot, value in zip(spots, values):
            assert value == price_regime4(spot, accrued, market, loan, config)[0]
        _, surface = price_regime4(0.8, accrued, market, loan, config)
        for tol in (0.0, 1e-7, 1e-3):
            ours = fold_boundary(fsg_stream(problem, config, [0.8], accrued), tol)
            theirs = extract_boundary_surface(surface, tol)
            assert np.array_equal(ours.tau_grid, theirs.tau_grid)
            assert np.array_equal(ours.a_grid, theirs.a_grid)
            assert np.array_equal(ours.x_star, theirs.x_star)


def test_two_layer_consumers_refuse_as_the_surface_does():
    config = FSG2DConfig(x_nodes=40, a_nodes=8, time_steps=10)
    with pytest.raises(ValueError, match="x=50.0 outside the surface nodes"):
        fsg_stream(VIProblem(HIGH_VOL, contract()), config, [0.8, 50.0], 0.1)
    with pytest.raises(ValueError, match="account level 2.0 outside grid"):
        fsg_stream(VIProblem(MarketParams(r=0.12, delta=0.03, sigma=0.3), contract()), config,
                   [0.8], 2.0)
    # an account that covers the principal redeems at once: no march, no surface
    assert fsg_stream(VIProblem(HIGH_VOL, contract()), config, [0.55, 0.6], 0.75) is None
    for s in (0.55, 0.6):
        assert price_regime4(s, 0.75, HIGH_VOL, contract()) == (s + 0.75 - K, None)
    with pytest.raises(ValueError, match="spot must be positive"):
        fsg_stream(VIProblem(HIGH_VOL, contract()), config, [0.55, -0.6], 0.75)


def test_boundary_path_memory_at_the_default_grid():
    # the full default surface holds 201 layers of 200 x 50 values (16 MB)
    tracemalloc.start()
    try:
        fold_boundary(fsg_stream(VIProblem(HIGH_VOL, contract()), FSG2DConfig(), [0.8], 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("principal", [0.7, 1.0])
def test_log_spacing_too_small_for_the_stencil_refused(principal):
    # at K = 0.7 the spacing rounds to 0; at K = 1 it is 6e-172 and its square underflows
    with pytest.raises(ValueError, match="too small for a float stencil"):
        log_grid(principal, 1e-170, 0.0, 0.0, 1.0, 200)


def test_top_row_is_never_a_boundary_point():
    # the top stock row is set, not marched; a column whose only tie is that
    # row has no boundary on the grid, where it read the top node
    stream = fsg_stream(VIProblem(HIGH_VOL, contract()), FSG2DConfig(40, 8, 10), [0.8], 0.1)
    lifted = ((x, np.concatenate([v[:-1] + 1.0, obs[-1:]]), obs) for x, v, obs in stream.layers)
    stars = fold_boundary(dataclasses.replace(stream, layers=lifted)).x_star
    assert np.isinf(stars).all()


@pytest.mark.parametrize("r", [0.13, GAMMA])
def test_no_boundary_after_maturity_without_a_redemption_region(r):
    # r >= gamma: no state redeems before maturity.  At 0.13 the bottom row
    # tied for the accounts 0.648 and 0.677 on every layer; at r = gamma the
    # march without the obstacle dips below it, and 5000 levels were read
    stream = fsg_stream(VIProblem(MarketParams(r=r, delta=0.03, sigma=0.4), contract()),
                        FSG2DConfig(), [0.8], 0.1)
    assert stream.constrained is False
    curve = fold_boundary(stream)
    assert np.isfinite(curve.x_star[0]).all()
    assert np.isinf(curve.x_star[1:]).all()
