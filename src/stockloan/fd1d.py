"""Finite-difference variational-inequality solver in log similarity space.

Crank-Nicolson time stepping on a uniform grid in y = log(x), with a
Rannacher startup (the first step is split into two implicit-Euler halves to
damp the payoff kink) and a projected SOR solve of the per-step linear
complementarity problem.  The drift term falls back to one-sided
differencing whenever central weights would go negative, which keeps every
per-step matrix an M-matrix.

Boundary rows are Dirichlet, set from the near- and far-field values of
the problem's spec (see problems.problem_spec).  The far field takes the
larger of the obstacle and the discounted-forward asymptote, so it stays
sensible when a finite redeeming boundary lies beyond the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .contracts import LoanContract
from .lattice1d import extract_boundary
from .problems import (
    BoundaryCurve,
    ProblemSpec,
    ValueSurface1D,
    VIProblem,
    frozen,
    problem_spec,
)


@dataclass(frozen=True)
class FDConfig:
    """Grid resolution and projected-SOR controls.

    The log-space domain defaults to log(K) +- 6 sigma sqrt(T).  psor_tol is
    relative to the principal; sweeps stop once the largest update falls
    below psor_tol * K.
    """

    space_nodes: int = 400
    time_steps: int = 400
    log_x_min: float | None = None
    log_x_max: float | None = None
    psor_omega: float = 1.5
    psor_tol: float = 1e-9
    psor_max_iter: int = 10000

    def __post_init__(self) -> None:
        if self.space_nodes < 16:
            raise ValueError(f"need at least 16 space nodes, got {self.space_nodes}")
        if self.time_steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.time_steps}")
        if not 0.0 < self.psor_omega < 2.0:
            raise ValueError(f"SOR relaxation must lie in (0, 2), got {self.psor_omega}")
        if self.psor_tol <= 0.0 or self.psor_max_iter < 1:
            raise ValueError("PSOR tolerance and iteration cap must be positive")
        if (
            self.log_x_min is not None
            and self.log_x_max is not None
            and self.log_x_min >= self.log_x_max
        ):
            raise ValueError("log_x_min must lie below log_x_max")


class PSORNonConvergence(RuntimeError):
    """Projected SOR failed to meet tolerance within the iteration cap."""

    def __init__(self, sweeps: int, worst_update: float, worst_residual: float):
        self.sweeps = sweeps
        self.worst_update = worst_update
        self.worst_residual = worst_residual
        super().__init__(
            f"projected SOR did not converge after {sweeps} sweeps: "
            f"last update {worst_update:.3e}, complementarity residual {worst_residual:.3e}"
        )


@dataclass(frozen=True)
class ComplementarityReport:
    """Discrete complementarity diagnostics for a solved surface.

    max_violation is the largest magnitude of the pointwise complementarity
    residual min(f - lower, max(system residual, f - upper)) across all
    solved layers; violation_fraction counts nodes beyond tol * principal.
    The signed extremes split by region: the system residual should be
    nonnegative where the obstacle binds and near zero elsewhere.
    """

    max_violation: float
    violation_fraction: float
    min_obstacle_residual: float
    max_continuation_residual: float
    tol: float


def log_stencil(
    sigma: float, drift: float, rate: float, dy: float
) -> tuple[float, float, float]:
    """Constant stencil (lo, mid, up) of the pricing operator in log space.

    Central differencing for the convection term nu = drift - sigma^2 / 2,
    switching to one-sided differencing when central weights would turn
    negative, so lo and up stay nonnegative.  Shared by the one-dimensional
    solver and the stock direction of the forward-shooting-grid solver.
    """
    s2 = sigma * sigma
    nu = drift - 0.5 * s2
    diff = 0.5 * s2 / (dy * dy)
    if abs(nu) * dy <= s2:
        lo = diff - nu / (2.0 * dy)
        up = diff + nu / (2.0 * dy)
        mid = -s2 / (dy * dy) - rate
    elif nu > 0.0:
        lo = diff
        up = diff + nu / dy
        mid = -s2 / (dy * dy) - nu / dy - rate
    else:
        lo = diff - nu / dy
        up = diff
        mid = -s2 / (dy * dy) + nu / dy - rate
    return lo, mid, up


def _psor_step(
    diag: float,
    off_lo: float,
    off_up: float,
    b: np.ndarray,
    init: np.ndarray,
    lower: np.ndarray,
    upper: float | None,
    omega: float,
    tol_abs: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Solve the tridiagonal obstacle system by red-black projected SOR.

    Sweeps update all odd interior unknowns, then all even ones; that order
    is deterministic and vectorizes, and for a tridiagonal matrix each
    half-sweep only reads values of the opposite color.  Convergence is
    declared once the largest projected update in a full sweep falls below
    tol_abs.
    """
    f = np.maximum(init, lower)
    if upper is not None:
        np.minimum(f, upper, out=f)
    n = f.size
    odd = np.arange(1, n, 2)
    even = np.arange(0, n, 2)
    padded = np.zeros(n + 2)  # boundary contributions are already folded into b
    worst = math.inf
    for sweep in range(1, max_iter + 1):
        worst = 0.0
        for idx in (odd, even):
            padded[1:-1] = f
            gs = (b[idx] - off_lo * padded[idx] - off_up * padded[idx + 2]) / diag
            cand = f[idx] + omega * (gs - f[idx])
            np.maximum(cand, lower[idx], out=cand)
            if upper is not None:
                np.minimum(cand, upper, out=cand)
            change = float(np.max(np.abs(cand - f[idx]))) if idx.size else 0.0
            if change > worst:
                worst = change
            f[idx] = cand
        if worst <= tol_abs:
            return f, sweep
    padded[1:-1] = f
    residual = diag * f + off_lo * padded[:-2] + off_up * padded[2:] - b
    residual = np.minimum(residual, f - lower)
    raise PSORNonConvergence(max_iter, worst, float(np.max(np.abs(residual))))


def _march(spec: ProblemSpec, config: FDConfig, contract: LoanContract) -> dict:
    """Run the time loop; returns the grid, all layers, and diagnostics."""
    principal = contract.principal
    maturity = contract.maturity
    sig_span = 6.0 * spec.sigma * math.sqrt(maturity)
    y_min = config.log_x_min if config.log_x_min is not None else math.log(principal) - sig_span
    y_max = config.log_x_max if config.log_x_max is not None else math.log(principal) + sig_span
    n = config.space_nodes
    y = np.linspace(y_min, y_max, n)
    x = np.exp(y)
    dy = y[1] - y[0]
    m_steps = config.time_steps
    dtau = maturity / m_steps

    lo, mid, up = log_stencil(spec.sigma, spec.drift, spec.rate, dy)
    src = spec.source(x[1:-1]) if spec.source is not None else None
    tol_abs = config.psor_tol * principal

    def implicit_solve(
        rhs: np.ndarray, weight: float, tau_new: float, init: np.ndarray
    ) -> tuple[np.ndarray, int]:
        bottom = spec.near_field(tau_new, float(x[0]))
        top = spec.far_field(tau_new, float(x[-1]))
        b = rhs.copy()
        b[0] += weight * lo * bottom
        b[-1] += weight * up * top
        diag = 1.0 - weight * mid
        if spec.constrained:
            lower = np.asarray(spec.obstacle(x[1:-1], tau_new), dtype=float)
            f_int, sweeps = _psor_step(
                diag,
                -weight * lo,
                -weight * up,
                b,
                init,
                lower,
                spec.cap,
                config.psor_omega,
                tol_abs,
                config.psor_max_iter,
            )
        else:
            ab = np.zeros((3, n - 2))
            ab[0, 1:] = -weight * up
            ab[1, :] = diag
            ab[2, :-1] = -weight * lo
            f_int = solve_banded((1, 1), ab, b)
            sweeps = 0
        full = np.empty(n)
        full[0], full[-1] = bottom, top
        full[1:-1] = f_int
        return full, sweeps

    layers = [np.asarray(spec.terminal(x), dtype=float)]
    sweeps_total = 0
    startup = None
    half = 0.5 * dtau
    for m in range(m_steps):
        f_old = layers[-1]
        tau_new = (m + 1) * dtau
        if m == 0:
            # Rannacher startup: two implicit-Euler half-steps.
            rhs = f_old[1:-1].copy()
            if src is not None:
                rhs += half * src
            f_mid, s1 = implicit_solve(rhs, half, half, f_old[1:-1])
            rhs = f_mid[1:-1].copy()
            if src is not None:
                rhs += half * src
            f_new, s2 = implicit_solve(rhs, half, tau_new, f_mid[1:-1])
            sweeps_total += s1 + s2
            startup = f_mid
        else:
            rhs = f_old[1:-1] + half * (lo * f_old[:-2] + mid * f_old[1:-1] + up * f_old[2:])
            if src is not None:
                rhs += dtau * src
            f_new, s = implicit_solve(rhs, half, tau_new, f_old[1:-1])
            sweeps_total += s
        if np.isnan(f_new).any():
            raise RuntimeError(f"finite-difference solve produced NaN for {spec.label!r}")
        layers.append(f_new)

    return {
        "x": x,
        "dtau": dtau,
        "layers": layers,
        "startup": startup,
        "sweeps_total": sweeps_total,
    }


def solve_vi(problem: VIProblem, config: FDConfig) -> tuple[ValueSurface1D, BoundaryCurve]:
    """Solve the variational inequality; returns (surface, boundary curve).

    Parameters whose redeeming region is empty solve the unconstrained PDE
    with a direct tridiagonal factorization per step, and the extracted
    curve is infinite at every positive tau; constrained problems go
    through projected SOR.
    """
    spec = problem_spec(problem)
    state = _march(spec, config, problem.contract)
    x = frozen(state["x"])
    principal = problem.contract.principal
    tau_grid = frozen(np.arange(config.time_steps + 1, dtype=float) * state["dtau"])

    values = []
    obstacles = []
    flags = []
    tie_tol = 1e-12 * principal
    for j, layer in enumerate(state["layers"]):
        obs = np.asarray(spec.obstacle(x, float(tau_grid[j])), dtype=float)
        values.append(frozen(layer))
        obstacles.append(frozen(obs))
        flags.append(frozen(layer - obs <= tie_tol))

    surface = ValueSurface1D(
        tau_grid=tau_grid,
        x_nodes=tuple([x] * (config.time_steps + 1)),
        values=tuple(values),
        obstacles=tuple(obstacles),
        payoff_flags=tuple(flags),
        principal=principal,
        spatial_cap=float(x[-1]),
        label=f"fd-{spec.label}",
        solver_meta={
            "solver": "fd",
            "config": config,
            "psor_total_sweeps": state["sweeps_total"],
            "rannacher_intermediate": state["startup"],
            "constrained": spec.constrained,
        },
    )
    return surface, extract_boundary(surface)


def residual_report(
    surface: ValueSurface1D, problem: VIProblem, tol: float = 1e-6
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
        if spec.constrained:
            slack = fi - np.asarray(spec.obstacle(x[1:-1], tau_new), dtype=float)
            if spec.cap is not None:
                comp = np.minimum(slack, np.maximum(residual, fi - spec.cap))
            else:
                comp = np.minimum(slack, residual)
            at_obstacle = slack <= tol_abs
            if at_obstacle.any():
                min_obstacle_res = min(min_obstacle_res, float(residual[at_obstacle].min()))
            in_continuation = ~at_obstacle
            if spec.cap is not None:
                in_continuation &= fi < spec.cap - tol_abs
            if in_continuation.any():
                max_cont_res = max(max_cont_res, float(np.abs(residual[in_continuation]).max()))
        else:
            comp = residual
            max_cont_res = max(max_cont_res, float(np.abs(residual).max()))
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
