"""Finite-difference backend: scheme pieces, solves, audits, variants."""

import dataclasses
import math
import types

import numpy as np
import pytest

from stockloan import (
    DividendRegime,
    FDConfig,
    FSG2DConfig,
    LatticeConfig,
    LoanContract,
    MarketParams,
    RegionKind,
    VIProblem,
    classify,
    european_call,
    fd_stream,
    fsg_stream,
    lattice_stream,
    parity_price_regime3,
    price_amortized,
    price_regime1,
    price_withdrawable,
    solve_vi,
)
from stockloan import fd1d
from stockloan.problems import log_grid

K = 0.7
GAMMA = 0.1
HIGH_VOL = MarketParams(r=0.06, delta=0.03, sigma=0.4)


def contract(regime, maturity=1.0):
    return LoanContract(principal=K, loan_rate=GAMMA, maturity=maturity,
                        regime=DividendRegime(regime))


def problem(regime, market=HIGH_VOL, maturity=1.0):
    return VIProblem(market, contract(regime, maturity))


def kind_problem(kind, market=HIGH_VOL, maturity=1.0):
    """A regime's problem, or a variant's on a regime-1 contract (cap 0.5 when withdrawable)."""
    if kind.startswith("regime"):
        return problem(int(kind[-1]), market, maturity)
    return VIProblem(market, contract(1, maturity), kind, 0.5 if kind == "withdrawable" else None)


def test_config_validation():
    with pytest.raises(ValueError):
        FDConfig(space_nodes=8)
    with pytest.raises(ValueError):
        FDConfig(time_steps=1)


def test_problem_validation():
    # the kind is the variant, else read off the contract's regime
    for regime in (1, 2, 3, 4):
        assert problem(regime).kind == f"regime{regime}"
    assert VIProblem(HIGH_VOL, contract(4), "amortized").kind == "amortized"
    assert VIProblem(HIGH_VOL, contract(2), "withdrawable", cap=0.5).kind == "withdrawable"
    with pytest.raises(ValueError, match="unknown variant"):
        VIProblem(HIGH_VOL, contract(1), "regime1")
    with pytest.raises(ValueError):
        VIProblem(HIGH_VOL, contract(1), "withdrawable")
    with pytest.raises(ValueError):
        VIProblem(HIGH_VOL, contract(1), cap=0.5)
    with pytest.raises(ValueError):
        VIProblem(HIGH_VOL, contract(1), "amortized", cap=0.5)
    # each builder refuses a kind it does not march, before any layer is drawn
    with pytest.raises(ValueError, match="^no one-dimensional problem for regime 4$"):
        lattice_stream(problem(4), LatticeConfig(steps=10), 0.8)
    with pytest.raises(ValueError, match="^no one-dimensional problem for regime 4$"):
        fd_stream(problem(4), FDConfig(space_nodes=40, time_steps=4), [0.8])
    for kind in ("regime1", "regime2", "regime3", "amortized", "withdrawable"):
        with pytest.raises(ValueError, match=f"prices regime 4 only, got {kind}$"):
            fsg_stream(kind_problem(kind), FSG2DConfig(), [0.8], 0.0)


def test_log_grid_stencil_rows_sum_to_minus_rate():
    rng = np.random.default_rng(99)
    drawn = 0
    while drawn < 50:
        sigma = float(rng.uniform(0.05, 0.6))
        drift = float(rng.uniform(-0.3, 0.3))
        rate = float(rng.uniform(-0.1, 0.2))
        maturity = float(rng.uniform(0.2, 5.0))
        nodes = int(rng.integers(40, 800))
        dy = 12.0 * sigma * math.sqrt(maturity) / (nodes - 1)
        # only grids whose cell Peclet number is at most 1 (with a margin for rounding)
        if abs(drift - 0.5 * sigma ** 2) * dy > 0.99 * sigma ** 2 or dy > 0.3:
            continue
        drawn += 1
        _, (lo, mid, up) = log_grid(K, sigma, drift, rate, maturity, nodes)
        assert lo + mid + up == pytest.approx(-rate, abs=1e-12)
        # off-diagonal signs keep the discrete comparison principle
        assert lo >= 0.0
        assert up >= 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma, drift, maturity, nodes", [
    (0.1, 0.5, 1.0, 40), (0.1, -0.5, 1.0, 40), (0.4, 9.87, 5.0, 400), (1e-5, 0.03, 5.0, 100),
    (1e-3, -1e300, 1.0, 60), (1e-3, -1.7e308, 1.0, 60),
])
def test_log_grid_refuses_a_cell_peclet_number_above_one(sigma, drift, maturity, nodes):
    # central weights would go negative: one-sided differences kept them
    # nonnegative, but their numerical diffusion |nu| dy / 2 outweighed sigma^2 / 2
    with pytest.raises(ValueError, match="cell Peclet number") as refused:
        log_grid(K, sigma, drift, 0.05, maturity, nodes)
    count = float(str(refused.value).rsplit("use at least ", 1)[1].split()[0])
    if count > 10_000:
        return
    # the count it names is the smallest that passes
    with pytest.raises(ValueError, match="cell Peclet number"):
        log_grid(K, sigma, drift, 0.05, maturity, int(count) - 1)
    _, (lo, _, up) = log_grid(K, sigma, drift, 0.05, maturity, int(count))
    assert lo >= 0.0 and up >= 0.0


def test_golden_value_matches_lattice():
    surface, _ = solve_vi(problem(1), FDConfig(space_nodes=400, time_steps=400))
    fd_value = surface.value_at(0.8, 1.0)
    assert fd_value == pytest.approx(0.15262999108880965, rel=1e-10)
    lattice_value, _ = price_regime1(0.8, HIGH_VOL, contract(1), LatticeConfig(steps=2000))
    assert abs(fd_value - lattice_value) < 1e-3 * K


def test_solver_metadata():
    config = FDConfig(space_nodes=200, time_steps=100)
    surface, _ = solve_vi(problem(1), config)
    meta = surface.solver_meta
    assert meta["solver"] == "fd"
    assert surface.constrained is True
    assert meta["linear_solves"] >= config.time_steps + 1


def test_unconstrained_path_one_solve_per_step():
    market = MarketParams(r=0.12, delta=0.0, sigma=0.3)
    assert classify(market, contract(1)).redemption_region_kind is RegionKind.EMPTY
    config = FDConfig(space_nodes=200, time_steps=100)
    surface, boundary = solve_vi(VIProblem(market, contract(1)), config)
    assert surface.constrained is False
    # one banded solve per implicit step, the Rannacher half-step included
    assert surface.solver_meta["linear_solves"] == config.time_steps + 1
    assert not np.isfinite(boundary.x_star[1:]).any()


def test_unconstrained_matches_european_call():
    market = MarketParams(r=0.12, delta=0.0, sigma=0.3)
    surface, _ = solve_vi(VIProblem(market, contract(1)),
                          FDConfig(space_nodes=400, time_steps=400))
    similarity = MarketParams(r=market.r - GAMMA, delta=0.0, sigma=market.sigma)
    for spot in np.linspace(0.35, 1.6, 10):
        reference = european_call(float(spot), 1.0, similarity, K)
        assert abs(surface.value_at(float(spot), 1.0) - reference) < 1e-3 * K


def test_delivered_stream_matches_parity():
    market = MarketParams(r=0.12, delta=0.03, sigma=0.3)
    surface, _ = solve_vi(VIProblem(market, contract(3)),
                          FDConfig(space_nodes=400, time_steps=400))
    for spot in np.linspace(0.35, 1.6, 10):
        reference = parity_price_regime3(float(spot), 1.0, market, contract(3))
        assert abs(surface.value_at(float(spot), 1.0) - reference) < 1e-3 * K


def after_each_solve(monkeypatch, change):
    """Make the march's LAPACK gttrs call change on every solution it writes in place."""
    lapack = fd1d._flapack()

    def dgttrs(*args, **kwargs):
        solved = lapack.dgttrs(*args, **kwargs)
        change(args[-1])
        return solved

    monkeypatch.setattr(fd1d, "_flapack",
                        lambda: types.SimpleNamespace(dgttrf=lapack.dgttrf, dgttrs=dgttrs))


def test_policy_iteration_guard_raises(monkeypatch):
    rng = np.random.default_rng(5)

    def never_settles(f):
        f[:] = rng.standard_normal(f.size)

    after_each_solve(monkeypatch, never_settles)
    with pytest.raises(RuntimeError, match="did not settle"):
        solve_vi(problem(1), FDConfig(space_nodes=32, time_steps=4))


def poison_terminal(monkeypatch, node=None):
    """Make every spec's terminal payoff NaN at node, by default one inside, left of the strike."""
    original = fd1d.problem_spec

    def spec_with_nan(problem):
        spec = original(problem)

        def terminal(x):
            values = np.array(spec.terminal(x), dtype=float)
            values[values.size // 3 if node is None else node] = math.nan
            return values

        return dataclasses.replace(spec, terminal=terminal)

    monkeypatch.setattr(fd1d, "problem_spec", spec_with_nan)


@pytest.mark.parametrize("market", [HIGH_VOL, MarketParams(r=0.12, delta=0.0, sigma=0.3)],
                         ids=["constrained", "unconstrained"])
@pytest.mark.parametrize("kind", ["regime1", "regime2", "regime3", "amortized", "withdrawable"])
@pytest.mark.parametrize("node", [None, 0, -1], ids=["interior", "bottom", "top"])
def test_nan_in_the_payoff_reaches_the_guard(kind, market, node, monkeypatch):
    # the startup half-steps read only the payoff's interior, so an edge node is its own case
    poison_terminal(monkeypatch, node)
    with pytest.raises(RuntimeError, match="NaN"):
        solve_vi(kind_problem(kind, market), FDConfig(space_nodes=64, time_steps=8))


@pytest.mark.parametrize("kind", ["regime1", "regime2", "regime3", "amortized", "withdrawable"])
def test_complementarity_audit_clean(kind):
    surface, _ = solve_vi(kind_problem(kind), FDConfig(space_nodes=200, time_steps=200))
    # pinned rows have a slack of exactly 0, so this also bounds their
    # system residual below by -1e-9: obstacle dips are roundoff
    assert surface.solver_meta["complementarity_residual"] < 1e-9


def march_residual(prob, config):
    stream = fd_stream(prob, config)
    for _ in stream.layers:
        pass
    return stream.solver_meta["complementarity_residual"]


@pytest.mark.parametrize("market", [HIGH_VOL, MarketParams(r=0.12, delta=0.0, sigma=0.3)],
                         ids=["constrained", "unconstrained"])
def test_complementarity_audit_sees_a_perturbed_solve(market, monkeypatch):
    prob = VIProblem(market, contract(1))
    config = FDConfig(space_nodes=64, time_steps=20)
    assert march_residual(prob, config) < 1e-9

    def perturbed(f):
        # the middle of the rows solved: a continuation row, far above the obstacle
        f[f.size // 2] += 1e-6

    after_each_solve(monkeypatch, perturbed)
    assert march_residual(prob, config) > 1e-7


def test_boundary_monotone_and_anchored():
    surface, boundary = solve_vi(problem(1, maturity=5.0),
                                 FDConfig(space_nodes=400, time_steps=400))
    assert boundary.max_decrease <= 0.0
    x = np.asarray(surface.x_nodes[0])
    gap = float(np.diff(x)[np.searchsorted(x, K)])
    assert abs(boundary.x_star[0] - K) <= gap
    assert np.isfinite(boundary.x_star).all()


def test_boundary_approaches_perpetual_level():
    from stockloan import perpetual_regime1

    loan = contract(1, maturity=25.0)
    level = perpetual_regime1(HIGH_VOL, loan).x_star_inf
    _, boundary = solve_vi(VIProblem(HIGH_VOL, loan),
                           FDConfig(space_nodes=600, time_steps=600))
    finite = boundary.x_star[np.isfinite(boundary.x_star)]
    assert np.max(finite) <= level * 1.001
    assert boundary.x_star[-1] >= 0.94 * level


def test_amortized_matches_lattice():
    loan = contract(1, maturity=5.0)
    surface, _ = solve_vi(VIProblem(HIGH_VOL, loan, "amortized"),
                          FDConfig(space_nodes=400, time_steps=400))
    for spot in (0.6, 0.8, 1.1):
        lattice_value, _ = price_amortized(spot, HIGH_VOL, loan, LatticeConfig(steps=2000))
        assert abs(surface.value_at(spot, 5.0) - lattice_value) < 1e-3 * K


def test_withdrawable_matches_lattice_and_respects_cap():
    loan = contract(1, maturity=5.0)
    cap = 0.5
    surface, _ = solve_vi(VIProblem(HIGH_VOL, loan, "withdrawable", cap=cap),
                          FDConfig(space_nodes=400, time_steps=400))
    lattice_value, _ = price_withdrawable(0.8, HIGH_VOL, loan, LatticeConfig(steps=2000), cap)
    assert abs(surface.value_at(0.8, 5.0) - lattice_value) < 1e-3 * K
    for layer in (0, 150, 400):
        assert np.all(surface.values[layer] <= cap + 1e-12)


def test_far_field_carries_delivered_stream():
    # the delivered-dividend source cancels the yield drag, so the top of
    # the domain must sit on x - K*exp(-(r-gamma)*tau), not on the leaky
    # forward; a reinvested-dividend solve would otherwise dominate it there
    cfg = FDConfig(space_nodes=200, time_steps=200)
    surface2, _ = solve_vi(problem(2), cfg)
    surface3, _ = solve_vi(problem(3), cfg)
    assert np.asarray(surface2.x_nodes[0]).shape == np.asarray(surface3.x_nodes[0]).shape
    for layer in (50, 100, 200):
        gap = np.max(np.asarray(surface2.values[layer]) - np.asarray(surface3.values[layer]))
        assert gap <= 2e-4


def test_value_surface_layers_share_grid():
    surface, _ = solve_vi(problem(1), FDConfig(space_nodes=64, time_steps=32))
    first = np.asarray(surface.x_nodes[0])
    assert all(np.array_equal(first, np.asarray(nodes)) for nodes in surface.x_nodes)
    assert len(surface.tau_grid) == 33


def test_value_at_refuses_off_grid():
    surface, _ = solve_vi(problem(1), FDConfig(space_nodes=80, time_steps=40))
    x = surface.x_nodes[-1]
    assert surface.value_at(x[-1], 1.0) == surface.values[-1][-1]
    for spot in (1e9, x[-1] * 1.0001, x[0] * 0.9999, 1e-9):
        for tau in (1.0, 0.0, 0.5 * (surface.tau_grid[3] + surface.tau_grid[4])):
            with pytest.raises(ValueError, match="outside the surface nodes"):
                surface.value_at(spot, tau)


def reference_march(problem, config):
    """The march with a fresh array for every sum and the obstacle evaluated apart
    for the floor and for the layer; returns its layers, its solve count and the
    largest abs(max(min(M f - b, f - lower), f - cap)) over every step's solution.

    The two implicit-Euler half-steps take M = I - (dtau / 2) L and the
    right-hand side f_n; every later step is BDF2, with M = I - (2 dtau / 3) L
    and the right-hand side (4 f_n - f_{n-1}) / 3, f_{n-1} the payoff for the
    first; each adds its weight of L times the source and the edge terms.
    Unless partial pivoting swaps rows of M, a pass that pins every row takes
    its right-hand side as its solution, and a pass whose pinned rows are a
    top block [k, n) with k > 2 solves the leading k rows alone, row k - 1
    taking off_up f[k] to its right-hand side; any other pass solves the
    whole system with its pinned rows as identity rows.  A step's first
    policy is Brennan and Schwartz's top block, from a forward elimination
    of every row, when the last step settled on a top block [k, n) with
    0 < k < n (before the first, the rows whose payoff is on the
    obstacle), M did not pivot and there is no cap; otherwise, or where no
    row is free, it is read off the previous layer."""
    from scipy.linalg.lapack import dgtsv, dgttrf

    from stockloan.problems import problem_spec, tau_grid

    spec = problem_spec(problem)
    maturity = problem.contract.maturity
    taus = tau_grid(maturity, config.time_steps)
    x, (lo, mid, up) = log_grid(problem.contract.principal, spec.sigma, spec.drift, spec.rate,
                                maturity, config.space_nodes)
    dtau = float(taus[-1]) / (taus.size - 1)
    half, bdf = 0.5 * dtau, 2.0 * dtau / 3.0
    src = spec.source(x[1:-1]) if spec.source is not None else None
    solves, worst = 0, 0.0

    def solve(sub, diag, sup, b):
        *_, f, info = dgtsv(sub, diag, sup, b)
        assert info == 0
        return f

    def applied(diag, off_lo, off_up, f):
        """M f, a missing neighbour taken as 0."""
        padded = np.concatenate(([0.0], f, [0.0]))
        return diag * f + off_lo * padded[:-2] + off_up * padded[2:]

    def floor(tau):
        if spec.constrained:
            return np.asarray(spec.obstacle(x[1:-1], tau), dtype=float)
        return np.full(x.size - 2, -math.inf)

    def brennan_schwartz(dl, d, du, b, lower):
        """The first row of the top block that back-substituting against the obstacle pins,
        after a forward elimination from row 0; None if no row is free."""
        y = b.copy()
        for i in range(1, y.size):
            y[i] -= dl[i - 1] * y[i - 1]
        # c = (y - du lower[i + 1]) / d exceeds lower where y exceeds U lower, d > 0
        free = np.flatnonzero(y > d * lower + np.append(du * lower[1:], 0.0))
        return None if free.size == 0 else int(free[-1]) + 1

    def policy_step(diag, off_lo, off_up, b, init, lower, cap, last):
        """The step's solution, its solve count, its largest complementarity residual
        and the rows its settled policy pins to the obstacle."""
        n = b.size
        upper = math.inf if cap is None else cap
        dl, d, du, _, ipiv, info = dgttrf(np.full(n - 1, off_lo), np.full(n, diag),
                                          np.full(n - 1, off_up))
        blocks = info == 0 and np.array_equal(ipiv, np.arange(1, n + 1))

        def residual_of(f):
            return applied(diag, off_lo, off_up, f) - b

        def solve_pinned(pde, rhs):
            k = int(np.count_nonzero(pde))
            if blocks and k == 0:
                return rhs
            if blocks and k > 2 and pde[:k].all():
                if k < n:
                    rhs[k - 1] -= off_up * rhs[k]
                rhs[:k] = solve(np.full(k - 1, off_lo), np.full(k, diag), np.full(k - 1, off_up),
                                rhs[:k].copy())
                return rhs
            return solve(np.where(pde[1:], off_lo, 0.0), np.where(pde, diag, 1.0),
                         np.where(pde[:-1], off_up, 0.0), rhs)

        def audited(f, count, policy):
            comp = np.maximum(np.minimum(residual_of(f), f - lower), f - upper)
            return f, count, float(np.abs(comp).max()), policy == 1

        if cap is None and not np.isfinite(lower).any():
            return audited(solve_pinned(np.full(n, True), b.copy()), 1, np.zeros(n))

        def policy_of(f):
            residual = residual_of(f)
            slack = f - lower
            policy = np.where(slack < residual, 1, 0)
            policy[f - upper > np.minimum(residual, slack)] = 2
            return policy

        k = int(np.argmax(last)) if last.any() else n
        start = None
        if cap is None and blocks and 0 < k and last[k:].all():
            start = brennan_schwartz(dl, d, du, b, lower)
        policy = policy_of(init) if start is None else np.where(np.arange(n) < start, 0, 1)
        for count in range(1, n + 2):
            pde = policy == 0
            f = solve_pinned(pde, np.where(pde, b, np.where(policy == 1, lower, upper)))
            settled = policy_of(f)
            if np.array_equal(settled, policy):
                return audited(f, count, policy)
            policy = settled
        raise AssertionError("the reference policy iteration did not settle")

    def step(f_old, f_prev, tau_new, weight):
        nonlocal solves, worst, last
        bottom = spec.near_field(tau_new, float(x[0]))
        top = spec.far_field(tau_new, float(x[-1]))
        if f_prev is None:
            b = f_old[1:-1].copy()
        else:
            b = (4.0 * f_old[1:-1] - f_prev[1:-1]) / 3.0
        if src is not None:
            b += weight * src
        b[0] += weight * lo * bottom
        b[-1] += weight * up * top
        f_int, count, residual, last = policy_step(1.0 - weight * mid, -weight * lo, -weight * up,
                                                   b, f_old[1:-1], floor(tau_new), spec.cap, last)
        solves += count
        worst = max(worst, residual)
        return np.concatenate(([bottom], f_int, [top]))

    def layer(f, tau):
        return x, f, np.asarray(spec.obstacle(x, tau), dtype=float)

    f = np.asarray(spec.terminal(x), dtype=float)
    last = f[1:-1] <= floor(0.0)
    layers = [layer(f, 0.0)]
    startup = step(f, None, half, half)
    older, f = f, step(startup, None, float(taus[1]), half)
    layers.append(layer(f, float(taus[1])))
    for tau in taus[2:]:
        older, f = f, step(f, older, float(tau), bdf)
        layers.append(layer(f, float(tau)))
    return layers, solves, worst


# r above gamma: regimes 2 and 3 lose their boundary, so each of their steps is one solve
FD_MARKETS = [HIGH_VOL, MarketParams(r=0.14, delta=0.03, sigma=0.25)]


@pytest.mark.parametrize("grid", [(40, 2), (64, 37), (200, 120)], ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("market", FD_MARKETS, ids=lambda m: f"r{m.r}")
@pytest.mark.parametrize("kind", ["regime1", "regime2", "regime3", "amortized", "withdrawable"])
def test_every_layer_matches_the_reference_march_bitwise(kind, market, grid):
    prob = kind_problem(kind, market, maturity=3.0)
    config = FDConfig(space_nodes=grid[0], time_steps=grid[1])
    stream = fd_stream(prob, config)
    drawn = list(stream.layers)
    expected, solves, residual = reference_march(prob, config)
    assert len(drawn) == len(expected) == grid[1] + 1
    for got, want in zip(drawn, expected):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    assert stream.solver_meta["linear_solves"] == solves
    assert stream.solver_meta["complementarity_residual"] == residual


@pytest.mark.parametrize("grid", [(900, 100), (1600, 100), (3200, 100)],
                         ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("regime", [1, 2, 3])
def test_constrained_march_takes_one_solve_per_step(regime, grid):
    # each step's Brennan-Schwartz guess is the block its policy iteration settles on
    config = FDConfig(space_nodes=grid[0], time_steps=grid[1])
    stream = fd_stream(problem(regime, maturity=5.0), config)
    for _ in stream.layers:
        pass
    meta = stream.solver_meta
    assert (meta["linear_solves"], meta["factorizations"]) == (config.time_steps + 1, 2)


def test_a_guess_whose_window_misses_the_block_falls_back(monkeypatch):
    # r 0.4: the first half-step's block starts at row 195 of 198, far above the
    # strike's row 99 that the payoff pins from; 2000 steps leave a window of
    # 9 rows on each side, so the guess fails and the policy is read off the
    # payoff, while the reference eliminates every row and guesses right
    guesses, original = [], fd1d._top_block_guess

    def recorded(*args):
        guesses.append(original(*args))
        return guesses[-1]

    monkeypatch.setattr(fd1d, "_top_block_guess", recorded)
    prob = problem(1, MarketParams(r=0.4, delta=0.03, sigma=0.4))
    config = FDConfig(space_nodes=200, time_steps=2000)
    stream = fd_stream(prob, config)
    drawn = list(stream.layers)
    expected, solves, residual = reference_march(prob, config)
    for got, want in zip(drawn, expected):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    assert guesses[0] is None and None not in guesses[1:]
    assert stream.solver_meta["linear_solves"] > solves == config.time_steps + 1
    assert stream.solver_meta["complementarity_residual"] == residual


# (sigma, space nodes, time steps, maturity) where switching the cap and the
# obstacle policies of every row at once cycled with period 2
WITHDRAWABLE_CYCLES = [(0.4, 800, 50, 1.0)]


def withdrawable(sigma, maturity):
    return VIProblem(MarketParams(r=0.06, delta=0.03, sigma=sigma), contract(1, maturity),
                     "withdrawable", cap=0.35)


@pytest.mark.parametrize("sigma, nodes, steps, maturity", WITHDRAWABLE_CYCLES)
def test_withdrawable_step_settles_where_the_joint_policy_cycled(sigma, nodes, steps, maturity):
    surface, _ = solve_vi(withdrawable(sigma, maturity),
                          FDConfig(space_nodes=nodes, time_steps=steps))
    assert math.isfinite(surface.value_at(0.7, maturity))
    assert surface.solver_meta["complementarity_residual"] < 1e-6 * K


def test_withdrawable_at_a_tiny_sigma_refused_before_the_first_layer():
    # on 100 x 100 nodes (T 5) one-sided differences gave 9850 of the 10100 surface
    # entries negative values, and the policy iteration about 97 passes a step
    with pytest.raises(ValueError, match="cell Peclet number"):
        fd_stream(withdrawable(1e-5, 5.0), FDConfig(space_nodes=100, time_steps=100))


@pytest.mark.parametrize("market", FD_MARKETS + [MarketParams(r=0.12, delta=0.0, sigma=0.3)],
                         ids=lambda m: f"r{m.r}-d{m.delta}")
@pytest.mark.parametrize("kind", ["regime1", "regime2", "regime3", "amortized", "withdrawable"])
def test_factorizations_never_exceed_solves(kind, market):
    prob = kind_problem(kind, market, maturity=3.0)
    stream = fd_stream(prob, FDConfig(space_nodes=200, time_steps=120))
    for _ in stream.layers:
        pass
    meta = stream.solver_meta
    assert 2 <= meta["factorizations"] <= meta["linear_solves"]
    if not stream.constrained:
        # nothing is ever pinned, so the half-step and the BDF2 matrix are factored once each
        assert meta["factorizations"] == 2


@pytest.mark.parametrize("kind", ["regime1", "regime2", "regime3", "amortized", "withdrawable"])
def test_default_grid_march_factors_each_step_matrix_once(kind):
    config = FDConfig()
    stream = fd_stream(kind_problem(kind), config)
    for _ in stream.layers:
        pass
    meta = stream.solver_meta
    # every pass pins a top block of rows, none or all, so every solve uses
    # the one factorization of its step's matrix, the half-step's or BDF2's
    assert meta["factorizations"] == 2
    assert meta["linear_solves"] >= config.time_steps + 1


@pytest.mark.parametrize("kind, factorizations", [("regime1", 4), ("regime2", 4), ("regime3", 5)])
def test_a_march_whose_step_matrix_pivots_matches_the_reference_bitwise(kind, factorizations):
    # a loan rate far above r on a coarse time step, on the fewest nodes the
    # Peclet rule takes: |off_lo| > diag in both step matrices, so gttrf swaps
    # their rows and every pinned set, top blocks included, is factored whole,
    # once while passes repeat it, beside the one factorization of each matrix
    market = MarketParams(r=0.06, delta=0.03, sigma=0.4)
    loan = LoanContract(principal=K, loan_rate=2.0, maturity=3.0,
                        regime=DividendRegime(int(kind[-1])))
    prob, config = VIProblem(market, loan), FDConfig(space_nodes=108, time_steps=2)
    spec = fd1d.problem_spec(prob)
    _, (lo, mid, _) = log_grid(K, spec.sigma, spec.drift, spec.rate, 3.0, config.space_nodes)
    dtau = 3.0 / config.time_steps
    for weight in (0.5 * dtau, 2.0 * dtau / 3.0):  # of L, in a half-step and in a BDF2 step
        assert weight * lo > 1.0 - weight * mid
    stream = fd_stream(prob, config)
    drawn = list(stream.layers)
    expected, solves, residual = reference_march(prob, config)
    assert len(drawn) == len(expected) == config.time_steps + 1
    for got, want in zip(drawn, expected):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    meta = stream.solver_meta
    assert (meta["linear_solves"], meta["complementarity_residual"]) == (solves, residual)
    assert meta["factorizations"] == factorizations
    # the factorizations of pinned sets, beside the two of the step matrices
    assert factorizations - 2 < solves


def test_cap_policy_guard_raises(monkeypatch):
    rng = np.random.default_rng(5)

    def flickers(f, cap, residual, slack):
        return rng.random(f.size) < 0.5

    monkeypatch.setattr(fd1d, "_cap_rows", flickers)
    prob = VIProblem(HIGH_VOL, contract(1), "withdrawable", cap=0.5)
    with pytest.raises(RuntimeError, match="the cap policy did not settle within 31 updates"):
        solve_vi(prob, FDConfig(space_nodes=32, time_steps=4))


def test_grid_top_is_never_a_boundary_point():
    # r 0.4: the boundary starts at 7 = 10 K and leaves the grid, whose top
    # node K e^{6 sigma sqrt(T)} = 7.72 is set to the far field; that value
    # ties with the obstacle, and 82 of the 101 rows read the top node
    market = MarketParams(r=0.4, delta=0.03, sigma=0.4)
    surface, curve = solve_vi(problem(1, market), FDConfig())
    x = surface.x_nodes[0]
    assert surface.spatial_cap == x[-2]
    finite = curve.x_star[np.isfinite(curve.x_star)]
    assert finite.size == 19 and finite.max() < x[-1]


def test_no_boundary_after_maturity_without_a_redemption_region():
    # r = gamma with no dividend is EMPTY, yet the march's ties read levels
    # from 0.93 to 4.07; the terminal row stays
    market = MarketParams(r=GAMMA, delta=0.0, sigma=0.4)
    assert classify(market, contract(1)).redemption_region_kind is RegionKind.EMPTY
    surface, curve = solve_vi(problem(1, market), FDConfig())
    assert surface.constrained is False
    assert curve.x_star[0] == surface.x_nodes[0][np.searchsorted(surface.x_nodes[0], K)]
    assert np.isinf(curve.x_star[1:]).all()
