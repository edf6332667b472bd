"""Finite-difference variational-inequality solver in log similarity space.

Crank-Nicolson time stepping on a uniform grid in y = log(x), with a
Rannacher startup (the first step is split into two implicit-Euler halves to
damp the payoff kink) and a policy-iteration solve of the per-step linear
complementarity problem: every pass is one tridiagonal solve with the rows held
at the obstacle, or at the cap, pinned.  The drift term falls back to
one-sided differencing whenever central weights would go negative, which
keeps every per-step matrix an M-matrix.

Boundary rows are Dirichlet, set from the near- and far-field values of
the problem's spec (see problems.problem_spec).  The far field takes the
larger of the obstacle and the discounted-forward asymptote, so it stays
sensible when a finite redeeming boundary lies beyond the grid.

fd_stream hands the march over one layer at a time, for the folds of
problems.py; solve_vi keeps every layer in a surface and reads the boundary
off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .problems import (
    BoundaryCurve,
    Layer,
    LayerStream,
    ProblemSpec,
    ValueSurface,
    VIProblem,
    check_state,
    fold_boundary,
    fold_surface,
    log_stencil,
    log_x_grid,
    problem_spec,
    tau_grid,
)


@dataclass(frozen=True)
class FDConfig:
    """Grid resolution.

    The log-space domain is log(K) +- 6 sigma sqrt(T) (problems.log_x_grid).
    Each step is solved exactly by policy iteration, so there is no
    tolerance to set.
    """

    space_nodes: int = 400
    time_steps: int = 400

    def __post_init__(self) -> None:
        if self.space_nodes < 16:
            raise ValueError(f"need at least 16 space nodes, got {self.space_nodes}")
        if self.time_steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.time_steps}")


@dataclass(frozen=True)
class ComplementarityReport:
    """Discrete complementarity diagnostics for a solved surface.

    max_violation is the largest magnitude of the pointwise complementarity
    residual max(min(system residual, f - lower), f - cap) across all
    solved layers; violation_fraction counts nodes beyond tol * principal.
    The signed extremes split by region: the system residual should be
    nonnegative where the obstacle binds and near zero where neither the
    obstacle nor the cap holds the value.
    """

    max_violation: float
    violation_fraction: float
    min_obstacle_residual: float
    max_continuation_residual: float
    tol: float


# Row states of the policy iteration.
_PDE, _OBSTACLE, _CAP = 0, 1, 2


def _floor(spec: ProblemSpec, x: np.ndarray, tau: float) -> np.ndarray:
    """The obstacle at x, or -inf everywhere when it never binds."""
    if spec.constrained:
        return np.asarray(spec.obstacle(x, tau), dtype=float)
    return np.full(x.size, -math.inf)


def _tridiagonal_solve(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Solve the tridiagonal system (sub, diag, sup) f = b with LAPACK's gtsv.

    Every argument is overwritten, so callers pass arrays they no longer
    read.  scipy is imported here, so only a finite-difference solve loads it.
    """
    from scipy.linalg.lapack import dgtsv

    *_, f, info = dgtsv(sub, diag, sup, b, overwrite_dl=True, overwrite_d=True,
                        overwrite_du=True, overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"the step matrix is singular (LAPACK gtsv info {info})")
    return f


def _policy_step(
    diag: float,
    off_lo: float,
    off_up: float,
    b: np.ndarray,
    init: np.ndarray,
    lower: np.ndarray,
    cap: float | None,
) -> tuple[np.ndarray, int]:
    """Solve max(min(M f - b, f - lower), f - cap) = 0 by policy iteration.

    M is the tridiagonal step matrix (diag, off_lo, off_up).  Each row
    follows the PDE, is pinned to the obstacle or is pinned to the cap; a
    pass solves M f = b with the pinned rows replaced by identity rows, and
    the step is done once a pass leaves the policy unchanged.  The first
    policy is read off init, the previous layer.  With no finite lower
    entry and no cap every row follows the PDE, so one solve suffices.
    Returns the solution and the number of tridiagonal solves.
    """
    n = b.size
    if cap is None and not np.isfinite(lower).any():
        return _tridiagonal_solve(np.full(n - 1, off_lo), np.full(n, diag),
                                  np.full(n - 1, off_up), b.copy()), 1
    upper = math.inf if cap is None else cap
    # every pass reuses these; boundary contributions are already folded into b
    padded, (residual, slack, term) = np.zeros(n + 2), np.empty((3, n))

    def policy_of(f: np.ndarray) -> np.ndarray:
        # residual = diag * f + off_lo * padded[:-2] + off_up * padded[2:] - b, in that order
        padded[1:-1] = f
        np.multiply(f, diag, out=residual)
        np.add(residual, np.multiply(padded[:-2], off_lo, out=term), out=residual)
        np.add(residual, np.multiply(padded[2:], off_up, out=term), out=residual)
        np.subtract(residual, b, out=residual)
        np.subtract(f, lower, out=slack)
        policy = np.where(slack < residual, _OBSTACLE, _PDE)
        if cap is not None:
            policy[f - cap > np.minimum(residual, slack)] = _CAP
        return policy

    policy = policy_of(init)
    for solves in range(1, n + 2):
        pde = policy == _PDE
        rhs = np.where(pde, b, np.where(policy == _OBSTACLE, lower, upper))
        f = _tridiagonal_solve(np.where(pde[1:], off_lo, 0.0), np.where(pde, diag, 1.0),
                               np.where(pde[:-1], off_up, 0.0), rhs)
        settled = policy_of(f)
        if np.array_equal(settled, policy):
            return f, solves
        policy = settled
    raise RuntimeError(f"policy iteration did not settle within {n + 1} linear solves")


def _march(
    spec: ProblemSpec, x: np.ndarray, dy: float, taus: np.ndarray, meta: dict
) -> Iterator[Layer]:
    """Step from tau = 0 through taus on the nodes x, log spacing dy; yields every layer.

    Adds the tridiagonal solves to meta["linear_solves"] and stores the
    Rannacher half-step layer as meta["rannacher_intermediate"].  Each step
    builds its right-hand side in buffers the march reuses, summed in the
    order of the plain expression, so the layers are bit for bit those of a
    march that allocates every sum.
    """
    dtau = float(taus[-1]) / (taus.size - 1)
    half = 0.5 * dtau
    lo, mid, up = log_stencil(spec.sigma, spec.drift, spec.rate, dy)
    src = spec.source(x[1:-1]) if spec.source is not None else None
    # every step rebuilds its right-hand side b in these
    b, acc, term = np.empty((3, x.size - 2))
    unpinned = np.full(x.size - 2, -math.inf)

    def step(f_old: np.ndarray, tau_new: float, cn: bool) -> Layer:
        """One solve of (I - half L) f = rhs: Crank-Nicolson if cn, else implicit Euler.

        Returns the layer at tau_new; its obstacle is also the step's floor.
        """
        np.copyto(b, f_old[1:-1])
        if cn:
            # b += half * (lo * f_old[:-2] + mid * f_old[1:-1] + up * f_old[2:]), in that order
            np.multiply(f_old[:-2], lo, out=acc)
            np.add(acc, np.multiply(f_old[1:-1], mid, out=term), out=acc)
            np.add(acc, np.multiply(f_old[2:], up, out=term), out=acc)
            np.add(b, np.multiply(acc, half, out=acc), out=b)
        if src is not None:
            np.add(b, np.multiply(src, dtau if cn else half, out=term), out=b)
        bottom = spec.near_field(tau_new, float(x[0]))
        top = spec.far_field(tau_new, float(x[-1]))
        b[0] += half * lo * bottom
        b[-1] += half * up * top
        obstacle = np.asarray(spec.obstacle(x, tau_new), dtype=float)
        f_int, solves = _policy_step(1.0 - half * mid, -half * lo, -half * up, b, f_old[1:-1],
                                     obstacle[1:-1] if spec.constrained else unpinned, spec.cap)
        meta["linear_solves"] += solves
        f_new = np.concatenate(([bottom], f_int, [top]))
        if np.isnan(f_new).any():
            raise RuntimeError(f"finite-difference solve produced NaN for {spec.label!r}")
        return x, f_new, obstacle

    # Rannacher startup: two implicit-Euler half-steps, then Crank-Nicolson.
    f = np.asarray(spec.terminal(x), dtype=float)
    yield x, f, np.asarray(spec.obstacle(x, 0.0), dtype=float)
    _, meta["rannacher_intermediate"], _ = step(f, half, False)
    layer = step(meta["rannacher_intermediate"], float(taus[1]), False)
    yield layer
    for tau in taus[2:]:
        layer = step(layer[1], float(tau), True)
        yield layer


def fd_stream(
    problem: VIProblem, config: FDConfig, spots: Sequence[float] = ()
) -> LayerStream:
    """The march for problem on config's grid, as a stream of (x, values, obstacle) layers.

    The grid, and every spot (by check_state, against the stock nodes), are
    checked before the first layer.  solver_meta counts the tridiagonal
    solves as the layers are drawn.  Parameters whose redeeming region is
    empty have no row to pin, so each step is a single tridiagonal solve.
    """
    spec = problem_spec(problem)
    principal, maturity = problem.contract.principal, problem.contract.maturity
    taus = tau_grid(maturity, config.time_steps)
    x, dy = log_x_grid(principal, spec.sigma, maturity, config.space_nodes)
    for spot in spots:
        check_state(spot, x=x, tau=maturity)
    meta = {"solver": "fd", "config": config, "linear_solves": 0,
            "constrained": spec.constrained}
    return LayerStream(taus, None, principal, float(x[-1]), meta, _march(spec, x, dy, taus, meta))


def solve_vi(problem: VIProblem, config: FDConfig) -> tuple[ValueSurface, BoundaryCurve]:
    """Every layer of fd_stream in a surface, and the boundary read off it; returns both.

    The extracted curve is infinite at every positive tau when the
    redeeming region is empty.
    """
    surface = fold_surface(fd_stream(problem, config))
    return surface, fold_boundary(surface.stream())


def residual_report(
    surface: ValueSurface, problem: VIProblem, tol: float = 1e-6
) -> ComplementarityReport:
    """Audit a solved surface against its per-step complementarity systems.

    Rebuilds each time step's matrix and right-hand side from the stored
    layers (including the Rannacher half-step) and evaluates the pointwise
    complementarity residual in the step's own units.  tol is relative to
    the principal and only affects the violation count.
    """
    meta = surface.solver_meta
    if meta.get("solver") != "fd":
        raise ValueError("residual reports require a finite-difference surface")
    spec = problem_spec(problem)
    principal = problem.contract.principal
    x = surface.x_nodes[0]
    dy = math.log(x[1]) - math.log(x[0])
    lo, mid, up = log_stencil(spec.sigma, spec.drift, spec.rate, dy)
    src = spec.source(x[1:-1]) if spec.source is not None else None
    dtau = float(surface.tau_grid[1] - surface.tau_grid[0])
    half = 0.5 * dtau
    tol_abs = tol * principal
    upper = math.inf if spec.cap is None else spec.cap

    worst = 0.0
    violations = 0
    total = 0
    min_obstacle_res = math.inf
    max_cont_res = 0.0

    def audit(f_old: np.ndarray, f_new: np.ndarray, tau_new: float, cn: bool) -> None:
        nonlocal worst, violations, total, min_obstacle_res, max_cont_res
        rhs = f_old[1:-1].copy()
        if cn:
            rhs += half * (lo * f_old[:-2] + mid * f_old[1:-1] + up * f_old[2:])
            if src is not None:
                rhs += dtau * src
        elif src is not None:
            rhs += half * src
        fi = f_new[1:-1]
        # M f folds boundary neighbors through the stored Dirichlet rows.
        m_f = (1.0 - half * mid) * fi - half * (lo * f_new[:-2] + up * f_new[2:])
        residual = m_f - rhs
        slack = fi - _floor(spec, x[1:-1], tau_new)
        comp = np.maximum(np.minimum(slack, residual), fi - upper)
        at_cap = fi >= upper - tol_abs
        at_obstacle = (slack <= tol_abs) & ~at_cap
        if at_obstacle.any():
            min_obstacle_res = min(min_obstacle_res, float(residual[at_obstacle].min()))
        in_continuation = ~at_obstacle & ~at_cap
        if in_continuation.any():
            max_cont_res = max(max_cont_res, float(np.abs(residual[in_continuation]).max()))
        worst = max(worst, float(np.abs(comp).max()))
        violations += int((np.abs(comp) > tol_abs).sum())
        total += comp.size

    layers = surface.values
    startup = meta.get("rannacher_intermediate")
    if startup is not None:
        audit(layers[0], startup, half, cn=False)
        audit(startup, layers[1], dtau, cn=False)
    else:
        audit(layers[0], layers[1], dtau, cn=False)
    for m in range(1, len(layers) - 1):
        audit(layers[m], layers[m + 1], float(surface.tau_grid[m + 1]), cn=True)

    if min_obstacle_res is math.inf:
        min_obstacle_res = 0.0
    return ComplementarityReport(
        max_violation=worst,
        violation_fraction=violations / max(total, 1),
        min_obstacle_residual=min_obstacle_res,
        max_continuation_residual=max_cont_res,
        tol=tol_abs,
    )
