"""Binomial-tree backend: pricing, surfaces, boundary extraction, variants."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import stockloan.lattice1d as lattice1d
from stockloan import (
    DividendRegime,
    LatticeConfig,
    LoanContract,
    MarketParams,
    VIProblem,
    amortized_payment_rate,
    extract_boundary,
    fold_boundary,
    fold_surface,
    fold_values,
    lattice_stream,
    price_amortized,
    price_regime1,
    price_regime2,
    price_regime3,
    price_withdrawable,
    reduce_regime2,
)

K = 0.7
GAMMA = 0.1
HIGH_VOL = MarketParams(r=0.06, delta=0.03, sigma=0.4)


def contract(regime, maturity=1.0):
    return LoanContract(principal=K, loan_rate=GAMMA, maturity=maturity,
                        regime=DividendRegime(regime))


def test_golden_value_high_vol():
    value, _ = price_regime1(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=2000))
    assert value == pytest.approx(0.1526384964639413, rel=1e-12)


def test_step_convergence():
    coarse, _ = price_regime1(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=250))
    fine, _ = price_regime1(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=4000))
    assert abs(fine - coarse) < 5e-4
    assert abs(fine - 0.1526384964639413) < 5e-5


def test_regime_mismatch_raises():
    with pytest.raises(ValueError):
        price_regime1(0.8, HIGH_VOL, contract(2), LatticeConfig(steps=100))
    with pytest.raises(ValueError):
        price_regime3(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=100))


def test_invalid_spot_raises():
    with pytest.raises(ValueError):
        price_regime1(0.0, HIGH_VOL, contract(1), LatticeConfig(steps=100))


def test_drift_dominating_volatility_raises():
    # a single step cannot hold the branch probability inside (0, 1)
    wild = MarketParams(r=2.0, delta=0.0, sigma=0.1)
    with pytest.raises(ValueError, match="step count"):
        price_regime1(0.8, wild, contract(1), LatticeConfig(steps=1))


def test_regime2_equals_reduced_regime1_bitwise():
    loan = contract(2)
    reduced_market, reduced_loan = reduce_regime2(HIGH_VOL, loan)
    for spot in (0.5, 0.8, 1.3):
        v2, _ = price_regime2(spot, HIGH_VOL, loan, LatticeConfig(steps=300))
        v1, _ = price_regime1(spot, reduced_market, reduced_loan, LatticeConfig(steps=300))
        assert v2 == v1


def test_deep_itm_is_immediate_redemption():
    value, surface = price_regime1(3.0, HIGH_VOL, contract(1), LatticeConfig(steps=500))
    assert value == 3.0 - K
    assert surface.values[-1][0] == surface.obstacles[-1][0]


def test_surface_dominates_obstacle_and_zero():
    for price, regime in ((price_regime1, 1), (price_regime3, 3)):
        _, surface = price(0.8, HIGH_VOL, contract(regime), LatticeConfig(steps=400))
        for layer in range(0, len(surface.tau_grid), 57):
            values = surface.values[layer]
            obstacles = surface.obstacles[layer]
            assert np.all(values >= obstacles)
            assert np.all(values >= 0.0)


def test_terminal_layer_is_clamped_payoff():
    _, surface = price_regime1(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=200))
    nodes = np.asarray(surface.x_nodes[0])
    assert np.array_equal(surface.values[0], np.maximum(nodes - K, 0.0))


def test_value_at_interpolates_and_validates():
    value, surface = price_regime1(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=200))
    assert surface.value_at(0.8, 1.0) == pytest.approx(value, rel=1e-12)
    # x queries must stay inside the layer's nodes, tau queries on the surface
    nodes = surface.x_nodes[100]  # tau = 0.5
    assert surface.value_at(nodes[-1], 0.5) == surface.values[100][-1]
    for x in (1e9, nodes[-1] * 1.0001, nodes[0] * 0.9999, 1e-9):
        with pytest.raises(ValueError, match="outside the surface nodes"):
            surface.value_at(x, 0.5)
    with pytest.raises(ValueError):
        surface.value_at(0.8, 1.5)
    # between two layers the lookup reads both, so x must lie in the narrower
    # one: the top node of layer 100 sits above every node of layer 101
    tau = 0.5 * (surface.tau_grid[100] + surface.tau_grid[101])
    assert nodes[-1] > surface.x_nodes[101][-1]
    with pytest.raises(ValueError, match="outside the surface nodes"):
        surface.value_at(nodes[-1], tau)
    assert math.isfinite(surface.value_at(surface.x_nodes[101][-1], tau))


def test_boundary_extraction_deep_itm_tree():
    # with the root inside the redemption region every layer has a flagged
    # node, so the curve is finite; wiggle stays below one level step
    _, surface = price_regime1(3.0, HIGH_VOL, contract(1), LatticeConfig(steps=500))
    boundary = extract_boundary(surface)
    assert np.isfinite(boundary.x_star).all()
    log_u = HIGH_VOL.sigma * math.sqrt(1.0 / 500)
    one_level = float(np.max(boundary.x_star)) * math.expm1(2.0 * log_u)
    assert boundary.max_decrease <= one_level
    assert boundary.x_star[0] == pytest.approx(K, abs=one_level)


def test_boundary_inf_outside_tree_cone():
    # near the valuation date the tree cone narrows to the spot, which sits
    # below the boundary here, so late layers report no redemption node
    _, surface = price_regime1(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=200))
    boundary = extract_boundary(surface)
    assert math.isinf(boundary.x_star[-1])
    assert np.isfinite(boundary.x_star[0])


def test_amortized_rate_closed_form():
    loan = contract(1, maturity=5.0)
    expected = GAMMA * K / -math.expm1(-GAMMA * 5.0)
    assert amortized_payment_rate(loan) == pytest.approx(expected, rel=1e-14)
    short = contract(1, maturity=1.0)
    assert amortized_payment_rate(short) == pytest.approx(0.7355832361342529, rel=1e-12)
    # the zero-rate limit spreads the principal evenly
    flat = LoanContract(principal=K, loan_rate=0.0, maturity=5.0, regime=DividendRegime(1))
    assert amortized_payment_rate(flat) == pytest.approx(K / 5.0, rel=1e-14)
    # so does a subnormal rate, where the formula lost digits (0.1400198...)
    assert amortized_payment_rate(dataclasses.replace(flat, loan_rate=1e-320)) == K / 5.0


def test_amortized_loan_values():
    loan = contract(1, maturity=5.0)
    value, surface = price_amortized(0.8, HIGH_VOL, loan, LatticeConfig(steps=2000))
    # the carry is negative and payments continue, so immediate redemption
    # binds at the valuation date for this state
    assert value == pytest.approx(0.8 - K, abs=1e-12)
    # committed payments can push the value below zero: redeeming at a loss
    # beats continuing here, and there is no walk-away right before maturity
    otm_value, _ = price_amortized(0.6, HIGH_VOL, loan, LatticeConfig(steps=2000))
    assert otm_value == pytest.approx(0.6 - K, abs=1e-12)
    # terminal condition: the stock itself, all debt amortized away
    nodes = np.asarray(surface.x_nodes[0])
    assert np.allclose(surface.values[0], nodes, rtol=0, atol=1e-14)
    for layer in (0, 400, 1200):
        assert np.all(surface.values[layer] >= surface.obstacles[layer] - 1e-12)


def test_withdrawable_loan_values():
    loan = contract(1, maturity=5.0)
    cap = 0.5
    value, surface = price_withdrawable(0.8, HIGH_VOL, loan, LatticeConfig(steps=2000), cap)
    assert value == pytest.approx(0.21433863974504228, rel=1e-10)
    for layer in (0, 500, 1500):
        values = surface.values[layer]
        assert np.all(values <= cap + 1e-14)
        assert np.all(values >= 0.0)
    # terminal condition: intrinsic clamped by the lender's cap
    nodes = np.asarray(surface.x_nodes[0])
    balance = K * math.exp(GAMMA * 5.0)
    expected = np.minimum(np.maximum(nodes - balance, 0.0), cap)
    assert np.allclose(surface.values[0], expected, rtol=0, atol=1e-14)


def test_withdrawable_cap_validation():
    loan = contract(1, maturity=5.0)
    for bad_cap in (0.0, K, 1.2):
        with pytest.raises(ValueError):
            price_withdrawable(0.8, HIGH_VOL, loan, LatticeConfig(steps=100), bad_cap)


def test_lattice_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(steps=0)


def test_max_decrease_matches_pairwise_scan():
    from stockloan.problems import max_decrease

    def scan(col):
        worst = 0.0
        for left, right in zip(col[:-1], col[1:]):
            if not (math.isinf(left) and math.isinf(right)):
                worst = max(worst, left - right)
        return worst

    rng = np.random.default_rng(7)
    for _ in range(50):
        stars = rng.uniform(0.5, 2.0, size=(int(rng.integers(1, 12)), 3))
        stars[rng.random(stars.shape) < 0.3] = math.inf
        assert max_decrease(stars) == max(scan(stars[:, j]) for j in range(3))
        assert max_decrease(stars[:, 0]) == scan(stars[:, 0])


PROBLEMS = [
    VIProblem(HIGH_VOL, contract(1)),
    VIProblem(HIGH_VOL, contract(2)),
    VIProblem(HIGH_VOL, contract(3)),
    VIProblem(HIGH_VOL, contract(1, maturity=2.0), "amortized"),
    VIProblem(HIGH_VOL, contract(1), "withdrawable", cap=0.5),
]


@pytest.mark.parametrize("steps", [1, 2, 7, 2000])
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.kind)
def test_lattice_value_is_surface_root_bitwise(problem, steps):
    config = LatticeConfig(steps=steps)
    for spot in (0.55, 0.8, 1.3):
        surface = fold_surface(lattice_stream(problem, config, spot))
        value = fold_values(lattice_stream(problem, config, spot), [spot])[0]
        assert value == surface.values[-1][0]


def test_lattice_value_memory_is_linear_in_steps():
    # the full 8000-step tree holds about 760 MB; two layers hold 128 KB each
    tracemalloc.start()
    try:
        fold_values(lattice_stream(PROBLEMS[2], LatticeConfig(steps=8000), 0.8), [0.8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def poison_terminal(monkeypatch):
    """Make every spec's terminal payoff NaN at the top node only."""
    original = lattice1d.problem_spec

    def spec_with_nan(problem):
        spec = original(problem)

        def terminal(x):
            values = np.array(spec.terminal(x), dtype=float)
            values[-1] = math.nan
            return values

        return dataclasses.replace(spec, terminal=terminal)

    monkeypatch.setattr(lattice1d, "problem_spec", spec_with_nan)


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.kind)
def test_nan_anywhere_reaches_the_root_guard(problem, monkeypatch):
    poison_terminal(monkeypatch)
    with pytest.raises(RuntimeError, match="NaN"):
        fold_values(lattice_stream(problem, LatticeConfig(steps=50), 0.8), [0.8])
    with pytest.raises(RuntimeError, match="NaN"):
        fold_surface(lattice_stream(problem, LatticeConfig(steps=50), 0.8))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_spot_refused_before_the_march(bad):
    # a NaN spot used to march the whole tree and fail at the root guard
    for problem in PROBLEMS:
        with pytest.raises(ValueError, match="spot must be finite"):
            lattice_stream(problem, LatticeConfig(steps=50), bad)


def reference_layers(spot, problem, steps):
    """The march with each layer's nodes from their own np.exp and fresh arrays."""
    spec = lattice1d.problem_spec(problem)
    maturity = problem.contract.maturity
    dt = maturity / steps
    taus = lattice1d.tau_grid(maturity, steps)
    u, _, up, down = lattice1d.crr_step_params(spec.sigma, spec.drift, spec.rate, dt)
    log_u = math.log(u)

    def nodes(level):
        return spot * np.exp(log_u * (2.0 * np.arange(level + 1) - level))

    x = nodes(steps)
    v = np.asarray(spec.terminal(x), dtype=float)
    obs = np.asarray(spec.obstacle(x, 0.0), dtype=float)
    if spec.cap is not None:
        v = np.minimum(v, spec.cap)
    layers = [(x, v, obs)]
    for j in range(1, steps + 1):
        x = nodes(steps - j)
        cont = up * v[1:] + down * v[:-1]
        if spec.source is not None:
            cont = cont + spec.source(x) * dt
        obs = np.asarray(spec.obstacle(x, float(taus[j])), dtype=float)
        v = np.maximum(cont, obs)
        if spec.cap is not None:
            v = np.minimum(v, spec.cap)
        layers.append((x, v, obs))
    return layers


# r above gamma: the regimes lose their boundary and the variants discount faster
HIGH_RATE = MarketParams(r=0.14, delta=0.03, sigma=0.4)


# 301: an odd march deep enough that both parity ladders reach many layers
@pytest.mark.parametrize("steps", [1, 2, 7, 300, 301])
@pytest.mark.parametrize(
    "problem",
    PROBLEMS + [dataclasses.replace(p, market=HIGH_RATE) for p in PROBLEMS],
    ids=lambda p: f"{p.kind}-r{p.market.r}",
)
def test_every_layer_matches_the_reference_march_bitwise(problem, steps):
    for spot in (0.5, 0.8, 1.4):
        stream = lattice_stream(problem, LatticeConfig(steps=steps), spot)
        # a layer holds only until the next is drawn, so copy each one as it comes
        drawn = [tuple(arr.copy() for arr in layer) for layer in stream.layers]
        expected = reference_layers(spot, problem, steps)
        assert len(drawn) == len(expected) == steps + 1
        for got, want in zip(drawn, expected):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def test_ladder_nodes_equal_the_oracle_path_nodes():
    # the path tree reaches node 2 * ups - k of level k by every path with
    # ups up moves; its distinct values must be the lattice layer exactly
    steps, spot = 12, 0.8
    problem = PROBLEMS[0]
    stream = lattice_stream(problem, LatticeConfig(steps=steps), spot)
    log_u = math.log(stream.solver_meta["up_factor"])
    layers = [x.copy() for x, _, _ in stream.layers]
    ups = [np.zeros(1, dtype=np.int64)]
    for k in range(steps):
        nxt = np.empty(ups[k].size * 2, dtype=np.int64)
        nxt[0::2] = ups[k] + 1
        nxt[1::2] = ups[k]
        ups.append(nxt)
    for k in range(steps + 1):
        path_nodes = spot * np.exp(log_u * (2.0 * ups[k] - k))
        assert np.array_equal(layers[steps - k], np.unique(path_nodes))


def test_ladder_nodes_equal_per_layer_exp_on_random_trees():
    rng = np.random.default_rng(20240611)
    for _ in range(20):
        spot = float(rng.uniform(0.2, 3.0))
        sigma = float(rng.uniform(0.05, 1.5))
        dt = float(rng.uniform(1e-4, 0.05))
        steps = int(rng.integers(1, 400))
        market = MarketParams(r=0.06, delta=0.03, sigma=sigma)
        problem = VIProblem(market, contract(1, maturity=dt * steps))
        stream = lattice_stream(problem, LatticeConfig(steps=steps), spot)
        log_u = math.log(stream.solver_meta["up_factor"])
        for j, (x, _, _) in enumerate(stream.layers):
            level = steps - j
            assert np.array_equal(x, spot * np.exp(log_u * (2.0 * np.arange(level + 1) - level)))


def test_volatility_too_small_for_the_tree_refused():
    # exp(sigma sqrt(dt)) rounds to 1, so u == d and the up probability divides by 0
    with pytest.raises(ValueError, match="sigma=1e-150 is too small"):
        lattice1d.crr_step_params(1e-150, -0.04, -0.04, 0.0025)


def test_boundary_above_eight_principals_is_found():
    # r 0.4: the boundary starts at 7 = 10 K (closedform.terminal_limit) and
    # rises; the scan stopped at 8 K and read inf on every layer after maturity
    market = MarketParams(r=0.4, delta=0.03, sigma=0.4)
    stars = fold_boundary(lattice_stream(VIProblem(market, contract(1)), LatticeConfig(200),
                                         0.7)).x_star
    assert all(8.0 * K < stars[m] < math.inf for m in (1, 2, 50, 100))
    # near the root the layers' nodes stop short of the boundary
    assert np.isinf(stars[150:]).all()


def test_no_boundary_after_maturity_without_a_redemption_region():
    # r > gamma with no dividend: waiting is optimal, yet the scan over every
    # node of a T 5 tree would read rounding ties at nodes near 1e11 on 604 layers
    market = MarketParams(r=0.13, delta=0.0, sigma=0.4)
    stream = lattice_stream(VIProblem(market, contract(1, maturity=5.0)), LatticeConfig(2000), 0.7)
    assert stream.constrained is False
    stars = fold_boundary(stream).x_star
    assert stars[0] == pytest.approx(K)
    assert np.isinf(stars[1:]).all()
