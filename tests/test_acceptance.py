"""End-to-end acceptance checks, one per shipped guarantee.

Each test records a single summary line (printed after the run) and asserts
both the numerical claim and its runtime budget.  Grids, seeds, and
tolerances are frozen; the numbers in the assertions were calibrated from
independent reference runs, not tuned to make the suite pass.
"""

import math
import time

import numpy as np

from conftest import record_acceptance
from stockloan import (
    UNBOUNDED,
    DividendRegime,
    FDConfig,
    FSG2DConfig,
    LatticeConfig,
    LoanContract,
    MarketParams,
    VIProblem,
    european_call,
    extract_boundary,
    extract_boundary_surface,
    oracle_price,
    parity_price_regime3,
    perpetual_regime1,
    perpetual_regime2,
    price_regime1,
    price_regime2,
    price_regime3,
    price_regime4,
    residual_report,
    solve_vi,
)

K = 0.7
GAMMA = 0.1
HIGH_VOL = MarketParams(r=0.06, delta=0.03, sigma=0.4)
LOW_VOL = MarketParams(r=0.06, delta=0.03, sigma=0.15)
PRICERS = {1: price_regime1, 2: price_regime2, 3: price_regime3}


def loan(regime: int, maturity: float = 1.0) -> LoanContract:
    return LoanContract(principal=K, loan_rate=GAMMA, maturity=maturity,
                        regime=DividendRegime(regime))


def draw_market(rng, r_bar_lo=-0.1, r_bar_hi=0.1, delta_lo=0.0, delta_hi=0.06):
    r_bar = float(rng.uniform(r_bar_lo, r_bar_hi))
    delta = float(rng.uniform(delta_lo, delta_hi))
    sigma = float(rng.uniform(0.1, 0.5))
    return MarketParams(r=r_bar + GAMMA, delta=delta, sigma=sigma)


def _report(number: int, ok: bool, detail: str) -> None:
    record_acceptance(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_perpetual_asymptote_high_vol():
    perpetual_regime1(HIGH_VOL, loan(1))
    start = time.perf_counter()
    level = perpetual_regime1(HIGH_VOL, loan(1)).x_star_inf
    elapsed = time.perf_counter() - start
    ok = 1.965 <= level <= 1.975 and elapsed < 1e-3
    _report(1, ok, f"perpetual level {level:.6f} in [1.965, 1.975], "
                   f"{elapsed * 1e3:.3f} ms < 1 ms")
    assert ok, (level, elapsed)


def test_criterion_2_perpetual_asymptotes_low_vol():
    perpetual_regime1(LOW_VOL, loan(1))
    start = time.perf_counter()
    level1 = perpetual_regime1(LOW_VOL, loan(1)).x_star_inf
    level2 = perpetual_regime2(LOW_VOL, loan(2)).x_star_inf
    unbounded = perpetual_regime2(HIGH_VOL, loan(2)).x_star_inf
    elapsed = time.perf_counter() - start
    ok = (0.815 <= level1 <= 0.825 and 0.965 <= level2 <= 0.975
          and unbounded is UNBOUNDED and elapsed < 1e-3)
    _report(2, ok, f"low-vol levels {level1:.6f} in [0.815, 0.825] and "
                   f"{level2:.6f} in [0.965, 0.975], high-vol reinvested case "
                   f"unbounded, {elapsed * 1e3:.3f} ms < 1 ms")
    assert ok, (level1, level2, unbounded, elapsed)


def test_criterion_3_terminal_boundary_limits():
    start = time.perf_counter()
    _, lattice_surface = price_regime1(0.8, HIGH_VOL, loan(1, 5.0),
                                       LatticeConfig(steps=2000))
    level = extract_boundary(lattice_surface).x_star[0]
    nodes = np.asarray(lattice_surface.x_nodes[0])
    idx = int(np.searchsorted(nodes, level))
    lattice_gap = abs(level - K)
    lattice_node = float(nodes[min(idx, nodes.size - 1)]
                         - nodes[max(idx - 1, 0)])
    worst_fd_nodes = 0.0
    fd_cfg = FDConfig(space_nodes=400, time_steps=400)
    for regime in (1, 2, 3):
        surface, boundary = solve_vi(VIProblem.from_regime(HIGH_VOL, loan(regime, 5.0)),
                                     fd_cfg)
        x = np.asarray(surface.x_nodes[0])
        node_gap = float(np.diff(x)[max(np.searchsorted(x, K) - 1, 0)])
        worst_fd_nodes = max(worst_fd_nodes, abs(boundary.x_star[0] - K) / node_gap)
    _, s4 = price_regime4(0.8, 0.0, HIGH_VOL, loan(4, 3.0),
                          FSG2DConfig(x_nodes=200, a_nodes=50, time_steps=200))
    account_boundary = extract_boundary_surface(s4)
    x_grid = np.asarray(s4.x_grid)
    dy = math.log(x_grid[1]) - math.log(x_grid[0])
    row0 = np.asarray(account_boundary.x_star)[0]
    account = np.asarray(account_boundary.a_grid)
    worst_fsg_nodes = float(np.max(np.abs(np.log(row0 / (K - account)))) / dy)
    elapsed = time.perf_counter() - start
    ok = (lattice_gap <= lattice_node and worst_fd_nodes <= 1.0
          and worst_fsg_nodes <= 1.0 and elapsed < 60.0)
    _report(3, ok, f"terminal boundary vs principal: lattice gap {lattice_gap:.4f} "
                   f"<= local node {lattice_node:.4f}, FD worst {worst_fd_nodes:.3f} "
                   f"nodes, collateral-plus-account line worst {worst_fsg_nodes:.3f} "
                   f"nodes, {elapsed:.1f} s < 60 s")
    assert ok, (lattice_gap, lattice_node, worst_fd_nodes, worst_fsg_nodes, elapsed)


def test_criterion_4_closed_form_equivalences():
    start = time.perf_counter()
    tol = 1e-3 * K
    spots = np.linspace(0.35, 1.6, 10)
    market_a = MarketParams(r=0.12, delta=0.0, sigma=0.3)
    similarity_a = MarketParams(r=market_a.r - GAMMA, delta=0.0, sigma=0.3)
    fd_a, _ = solve_vi(VIProblem.from_regime(market_a, loan(1)),
                       FDConfig(space_nodes=400, time_steps=400))
    worst_a = 0.0
    for spot in spots:
        reference = european_call(float(spot), 1.0, similarity_a, K)
        lattice_value, _ = price_regime1(float(spot), market_a, loan(1),
                                         LatticeConfig(steps=2000))
        worst_a = max(worst_a, abs(lattice_value - reference),
                      abs(fd_a.value_at(float(spot), 1.0) - reference))
    market_b = MarketParams(r=0.12, delta=0.03, sigma=0.3)
    fd_b, _ = solve_vi(VIProblem.from_regime(market_b, loan(3)),
                       FDConfig(space_nodes=400, time_steps=400))
    worst_b = 0.0
    for spot in spots:
        reference = parity_price_regime3(float(spot), 1.0, market_b, loan(3))
        lattice_value, _ = price_regime3(float(spot), market_b, loan(3),
                                         LatticeConfig(steps=2000))
        worst_b = max(worst_b, abs(lattice_value - reference),
                      abs(fd_b.value_at(float(spot), 1.0) - reference))
    elapsed = time.perf_counter() - start
    ok = worst_a < tol and worst_b < tol and elapsed < 30.0
    _report(4, ok, f"closed-form gaps: call-equivalent {worst_a:.2e}, "
                   f"dividend-parity {worst_b:.2e}, both < {tol:.1e}, "
                   f"{elapsed:.1f} s < 30 s")
    assert ok, (worst_a, worst_b, elapsed)


def test_criterion_5_boundary_orderings():
    start = time.perf_counter()
    fd_cfg = FDConfig(space_nodes=400, time_steps=400)
    curves = {}
    taus_fd = None
    for regime in (1, 2, 3):
        surface, boundary = solve_vi(VIProblem.from_regime(HIGH_VOL, loan(regime, 5.0)),
                                     fd_cfg)
        curves[regime] = np.asarray(boundary.x_star)
        taus_fd = np.asarray(surface.tau_grid)
    ordering_violations = int(np.count_nonzero(curves[1] > curves[2]))
    ordering_violations += int(np.count_nonzero(curves[2] > curves[3]))
    _, s4 = price_regime4(0.8, 0.0, HIGH_VOL, loan(4, 3.0),
                          FSG2DConfig(x_nodes=200, a_nodes=50, time_steps=200))
    account_boundary = extract_boundary_surface(s4)
    x_grid = np.asarray(s4.x_grid)
    dy = math.log(x_grid[1]) - math.log(x_grid[0])
    levels = np.asarray(account_boundary.x_star)
    account = np.asarray(account_boundary.a_grid)
    taus4 = np.asarray(s4.tau_grid)
    x2_interp = np.interp(taus4, taus_fd, curves[2])
    finite = np.isfinite(levels)
    overshoot = (levels + account[None, :]) - x2_interp[:, None]
    one_node = levels * np.expm1(dy)
    worst_cross = float((overshoot - one_node)[finite].max())
    layer_tau1 = int(np.argmin(np.abs(taus4 - 1.0)))
    masked = np.where(finite, levels, -np.inf)
    cap_mid = float(masked[layer_tau1].max())
    cap_end = float(masked[-1].max())
    elapsed = time.perf_counter() - start
    ok = (ordering_violations == 0 and worst_cross <= 0.0 and finite.all()
          and cap_mid <= 1.35 and cap_end <= 1.9 and elapsed < 300.0)
    _report(5, ok, f"single-factor curves ordered at every layer "
                   f"({ordering_violations} violations), account boundary below "
                   f"the reinvested curve within one node (margin {-worst_cross:.4f}), "
                   f"caps {cap_mid:.4f} <= 1.35 and {cap_end:.4f} <= 1.9, "
                   f"{elapsed:.1f} s < 300 s")
    assert ok, (ordering_violations, worst_cross, cap_mid, cap_end, elapsed)


def test_criterion_6_cross_backend_agreement():
    start = time.perf_counter()
    tol = 1e-3 * K
    rng = np.random.default_rng(424242)
    worst = 0.0
    for sigma in (0.4, 0.15):
        market = MarketParams(r=0.06, delta=0.03, sigma=sigma)
        for regime in (1, 2, 3):
            fd_surface, _ = solve_vi(VIProblem.from_regime(market, loan(regime, 5.0)),
                                     FDConfig(space_nodes=400, time_steps=400))
            for _ in range(20):
                x = float(rng.uniform(0.3, 2.2))
                tau = float(rng.uniform(0.1, 5.0))
                lattice_value, _ = PRICERS[regime](x, market, loan(regime, tau),
                                                   LatticeConfig(steps=2000))
                worst = max(worst, abs(lattice_value - fd_surface.value_at(x, tau)))
    elapsed = time.perf_counter() - start
    ok = worst < tol and elapsed < 120.0
    _report(6, ok, f"lattice vs finite-difference worst gap {worst:.2e} < {tol:.1e} "
                   f"over 120 sampled states, {elapsed:.1f} s < 120 s")
    assert ok, (worst, elapsed)


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    tol = 1e-3 * K
    worst_exact = 0.0
    for regime, pricer in ((1, price_regime1), (2, price_regime2)):
        for spot in (0.5, 0.8, 1.4):
            enumerated = oracle_price(spot, HIGH_VOL, loan(regime), steps=10)
            recombined, _ = pricer(spot, HIGH_VOL, loan(regime), LatticeConfig(steps=10))
            worst_exact = max(worst_exact, abs(enumerated - recombined))
    diffs = []
    fd3, _ = solve_vi(VIProblem.from_regime(HIGH_VOL, loan(3)),
                      FDConfig(space_nodes=600, time_steps=600))
    for spot in (0.85, 1.15):
        diffs.append(abs(fd3.value_at(spot, 1.0)
                         - oracle_price(spot, HIGH_VOL, loan(3), steps=12)))
    fsg_cfg = FSG2DConfig(x_nodes=300, a_nodes=60, time_steps=300)
    for spot, accrued in ((0.7, 0.0), (1.0, 0.1)):
        value, _ = price_regime4(spot, accrued, HIGH_VOL, loan(4), fsg_cfg)
        diffs.append(abs(value - oracle_price(spot, HIGH_VOL, loan(4), steps=12,
                                              accrued=accrued)))
    # fifth root state: account already covers the principal
    fast_value, _ = price_regime4(0.55, 0.75, HIGH_VOL, loan(4))
    diffs.append(abs(fast_value - oracle_price(0.55, HIGH_VOL, loan(4), steps=12,
                                               accrued=0.75)))
    worst_fine = max(diffs)
    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-12 and worst_fine < tol and elapsed < 120.0
    _report(7, ok, f"path-tree equivalence: recombining gap {worst_exact:.1e} <= 1e-12, "
                   f"fine-grid gap {worst_fine:.2e} < {tol:.1e} at 5 root states, "
                   f"{elapsed:.1f} s < 120 s")
    assert ok, (worst_exact, worst_fine, elapsed)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    failures = []

    # shape suite: dominance, delta bounds, convexity, maturity monotonicity
    rng = np.random.default_rng(20240808)
    worst_obstacle = 0.0
    slope_lo, slope_hi = 1.0, 0.0
    worst_convex = 0.0
    worst_tau = 0.0
    for _ in range(50):
        market = draw_market(rng)
        regime = int(rng.integers(1, 4))
        surface, _ = solve_vi(VIProblem.from_regime(market, loan(regime)),
                              FDConfig(space_nodes=200, time_steps=200))
        values = np.asarray(surface.values)
        obstacles = np.asarray(surface.obstacles)
        x = np.asarray(surface.x_nodes[0])
        worst_obstacle = min(worst_obstacle, float(np.min(values - obstacles)))
        slopes = np.diff(values[-1]) / np.diff(x)
        slope_lo = min(slope_lo, float(slopes.min()))
        slope_hi = max(slope_hi, float(slopes.max()))
        worst_convex = min(worst_convex, float(np.diff(slopes).min()))
        worst_tau = min(worst_tau, float(np.min(np.diff(values, axis=0))))
    if worst_obstacle < -1e-10 * K:
        failures.append(f"obstacle dominance {worst_obstacle:.2e}")
    if not (-1e-6 <= slope_lo and slope_hi <= 1.0 + 1e-4):
        failures.append(f"delta bounds [{slope_lo:.2e}, {slope_hi - 1.0:.2e}]")
    if worst_convex < -1e-5:
        failures.append(f"convexity {worst_convex:.2e}")
    if worst_tau < -1e-8:
        failures.append(f"maturity monotonicity {worst_tau:.2e}")

    # reinvested value never exceeds the delivered-stream net value
    rng = np.random.default_rng(20240811)
    worst_dominance = -1.0
    for _ in range(50):
        market = draw_market(rng)
        cfg = FDConfig(space_nodes=200, time_steps=200)
        s2, _ = solve_vi(VIProblem.from_regime(market, loan(2)), cfg)
        s3, _ = solve_vi(VIProblem.from_regime(market, loan(3)), cfg)
        worst_dominance = max(worst_dominance,
                              float(np.max(np.asarray(s2.values) - np.asarray(s3.values))))
    if worst_dominance > 2e-4:
        failures.append(f"reinvested-vs-delivered dominance {worst_dominance:.2e}")

    # cash-account value below the reinvested value at the combined spot
    rng = np.random.default_rng(20240812)
    worst_combined = -1.0
    for _ in range(50):
        market = draw_market(rng)
        _, s4 = price_regime4(0.8, 0.0, market, loan(4),
                              FSG2DConfig(x_nodes=200, a_nodes=120, time_steps=100))
        s2, _ = solve_vi(VIProblem.from_regime(market, loan(2)),
                         FDConfig(space_nodes=300, time_steps=200))
        x_grid = np.asarray(s4.x_grid)
        account = np.asarray(s4.a_grid)
        values = np.asarray(s4.values)
        taus = np.asarray(s4.tau_grid)
        fd_tau = np.asarray(s2.tau_grid)
        fd_x = np.asarray(s2.x_nodes[0])
        fd_values = np.asarray(s2.values)
        cap = fd_x[-1] * 0.8
        for j in range(0, len(taus), 20):
            fd_layer = fd_values[int(np.argmin(np.abs(fd_tau - taus[j])))]
            for ka in range(0, len(account), 24):
                combined = x_grid + account[ka]
                mask = combined <= cap
                if not mask.any():
                    continue
                reference = np.interp(combined[mask], fd_x, fd_layer)
                worst_combined = max(worst_combined,
                                     float(np.max(values[j][mask, ka] - reference)))
    if worst_combined > 7e-4:
        failures.append(f"combined-spot dominance {worst_combined:.2e}")

    # region inclusions against the single-factor curves (one node of slack
    # covers the cross-grid quantization; raw stragglers must be sub-node
    # boundary cells with negligible continuation premium)
    rng = np.random.default_rng(20240813)
    slack_violations = 0
    worst_premium = 0.0
    for _ in range(50):
        market = draw_market(rng, r_bar_hi=-0.005)
        _, s4 = price_regime4(0.8, 0.0, market, loan(4),
                              FSG2DConfig(x_nodes=150, a_nodes=30, time_steps=100))
        cfg = FDConfig(space_nodes=300, time_steps=200)
        s2, b2 = solve_vi(VIProblem.from_regime(market, loan(2)), cfg)
        _, b3 = solve_vi(VIProblem.from_regime(market, loan(3)), cfg)
        x_grid = np.asarray(s4.x_grid)
        account = np.asarray(s4.a_grid)
        values = np.asarray(s4.values)
        obstacle = np.asarray(s4.obstacle)
        flags = values - obstacle[None] <= 1e-12 * K
        taus = np.asarray(s4.tau_grid)
        fd_tau = np.asarray(s2.tau_grid)
        x2 = np.asarray(b2.x_star)
        x3 = np.asarray(b3.x_star)
        one_node = math.exp(math.log(x_grid[1]) - math.log(x_grid[0]))
        for j in range(len(taus)):
            k = int(np.argmin(np.abs(fd_tau - taus[j])))
            if np.isfinite(x2[k]):
                plane = x_grid[:, None] + account[None, :]
                slack_violations += int(np.count_nonzero(
                    (plane >= x2[k] * one_node) & ~flags[j]))
                raw = (plane >= x2[k]) & ~flags[j]
                if raw.any():
                    worst_premium = max(worst_premium,
                                        float((values[j] - obstacle)[raw].max()))
            if np.isfinite(x3[k]):
                column = flags[j][:, 0]
                slack_violations += int(np.count_nonzero(
                    (x_grid >= x3[k] * one_node) & ~column))
                raw = (x_grid >= x3[k]) & ~column
                if raw.any():
                    worst_premium = max(worst_premium,
                                        float((values[j][:, 0] - obstacle[:, 0])[raw].max()))
    if slack_violations != 0:
        failures.append(f"region inclusion {slack_violations} cells beyond one node")
    if worst_premium > 1e-4:
        failures.append(f"region inclusion straggler premium {worst_premium:.2e}")

    # all-redeem planes are exact where the account covers the principal
    rng = np.random.default_rng(20240814)
    worst_plane = 0.0
    for _ in range(50):
        market = draw_market(rng, r_bar_hi=-0.005, delta_lo=0.005)
        cfg = FSG2DConfig(x_nodes=120, a_nodes=40, time_steps=80, a_max=1.3 * K)
        _, sp = price_regime4(0.8, 0.0, market, loan(4), cfg)
        account = np.asarray(sp.a_grid)
        columns = account >= K - 1e-12
        worst_plane = max(worst_plane, float(np.max(np.abs(
            np.asarray(sp.values)[:, :, columns]
            - np.asarray(sp.obstacle)[None, :, columns]))))
    if worst_plane > 1e-10 * K:
        failures.append(f"all-redeem exactness {worst_plane:.2e}")

    # complementarity residual of the iterative solver
    rng = np.random.default_rng(20240815)
    worst_residual = 0.0
    worst_fraction = 0.0
    for _ in range(50):
        market = draw_market(rng)
        regime = int(rng.integers(1, 4))
        problem = VIProblem.from_regime(market, loan(regime))
        surface, _ = solve_vi(problem, FDConfig(space_nodes=200, time_steps=200))
        report = residual_report(surface, problem)
        worst_residual = max(worst_residual, report.max_violation)
        worst_fraction = max(worst_fraction, report.violation_fraction)
    if not (worst_residual < 1e-6 * K and worst_fraction == 0.0):
        failures.append(f"complementarity residual {worst_residual:.2e}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    detail = ("; ".join(failures) if failures else
              f"six property suites x 50 draws: obstacle {worst_obstacle:.1e}, "
              f"slopes [{slope_lo:.1e}, 1+{slope_hi - 1.0:.1e}], convexity "
              f"{worst_convex:.1e}, maturity {worst_tau:.1e}, dominance "
              f"{worst_dominance:.1e}/{worst_combined:.1e}, inclusions clean, "
              f"planes {worst_plane:.1e}, residual {worst_residual:.1e}")
    _report(8, ok, f"{detail}, {elapsed:.1f} s < 600 s")
    assert ok, (failures, elapsed)


def test_criterion_9_smooth_fit_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(90909)
    count = 0
    worst_value = 0.0
    worst_slope = 0.0
    while count < 1000:
        r_bar = float(rng.uniform(-0.09, 0.15))
        delta = float(rng.uniform(0.0, 0.06))
        sigma = float(rng.uniform(0.1, 0.5))
        market = MarketParams(r=r_bar + GAMMA, delta=delta, sigma=sigma)
        result = perpetual_regime1(market, loan(1))
        if not result.is_bounded:
            continue
        count += 1
        level = result.x_star_inf
        worst_value = max(worst_value, abs(result.value(level) - (level - K)))
        slope = result.c1 * result.alpha_plus * level ** (result.alpha_plus - 1.0)
        worst_slope = max(worst_slope, abs(slope - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_value < 1e-10 and worst_slope < 1e-10 and elapsed < 1.0
    _report(9, ok, f"smooth fit over 1000 bounded draws: value residual "
                   f"{worst_value:.2e}, slope residual {worst_slope:.2e}, "
                   f"both < 1e-10, {elapsed:.2f} s < 1 s")
    assert ok, (worst_value, worst_slope, elapsed)
