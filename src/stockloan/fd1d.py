"""Finite-difference variational-inequality solver in log similarity space.

BDF2 time stepping on a uniform grid in y = log(x), after two implicit-Euler
half-steps that damp the payoff kink, with a policy-iteration solve of the
per-step linear complementarity problem: every pass is one tridiagonal solve
with the rows held at the obstacle, or at the cap, pinned.  The half-steps
share one matrix and the BDF2 steps another, each factored once by LAPACK's
gttrf; a pass whose pinned rows are a top block solves only the free rows
above it, and any other pinned set is factored whole.  A step's first
policy is Brennan and Schwartz's top block, guessed by a back-substitution
against the obstacle near the block the last step settled on, so a step
whose guess holds is one pass; the iteration still decides every answer.
Each pass is one gttrs solve, bit for bit what gtsv gives on the system it
solves, written straight into the new layer.  One loop (_march) runs every
step and pass over buffers and policy masks it reuses; the last pass of a
step leaves M f, M f - b and f - obstacle behind, which audit the step's
complementarity residual.  A NaN anywhere reaches that audit or the
payoff's edges, checked once.  The drift term is differenced centrally, and
a grid on which central weights would go negative (cell Peclet number above
1) is refused before the march (problems.log_grid), so every step matrix is
an M-matrix.  BDF2 is L-stable, so a coarse time step needs few passes.

Boundary rows are Dirichlet, set from the near- and far-field values of
the problem's spec (see problems.problem_spec).  The far field takes the
larger of the obstacle and the discounted-forward asymptote, so it stays
sensible when a finite redeeming boundary lies beyond the grid.

fd_stream hands the march over one layer at a time, for the folds of
problems.py; solve_vi keeps every layer in a surface and reads the boundary
off it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from importlib import machinery, util
from typing import Iterator, Sequence

import numpy as np

from .closedform import terminal_limit
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
    frozen,
    log_grid,
    problem_spec,
    tau_grid,
)


@dataclass(frozen=True)
class FDConfig:
    """Grid resolution: 900 x 100, on the error-per-cost frontier of BDF2 steps.

    The log-space domain is log(K) +- 6 sigma sqrt(T) (problems.log_grid),
    and a space_nodes too few for the drift to stay under the diffusion
    across each cell is refused there, naming the count that passes.  Each
    step is solved exactly by policy iteration, so there is no tolerance to
    set.
    """

    space_nodes: int = 900
    time_steps: int = 100

    def __post_init__(self) -> None:
        if self.space_nodes < 16:
            raise ValueError(f"need at least 16 space nodes, got {self.space_nodes}")
        if self.time_steps < 2:
            raise ValueError(f"need at least 2 time steps, got {self.time_steps}")


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrappers, scipy/linalg/_flapack, loaded once and by themselves.

    scipy.linalg.lapack's dgttrf and dgttrs are this module's; importing it
    runs all of scipy.linalg's setup (about 0.26 s and 28 MB after numpy).
    """
    scipy = util.find_spec("scipy")
    name = "_flapack" + machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(os.path.dirname(scipy.origin), "linalg", name) if scipy else ""
    if not os.path.isfile(path):
        raise RuntimeError("the finite-difference step needs scipy's compiled LAPACK module "
                           "scipy.linalg._flapack, which was not found")
    spec = util.spec_from_file_location("_flapack", path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cap_rows(f: np.ndarray, cap: float, residual: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """The rows of a withdrawable step held at the cap: f - cap > min(M f - b, f - lower)."""
    return np.greater(f - cap, np.minimum(residual, slack))


def _top_block_guess(
    dgttrs, factors: tuple, unit: tuple, b: np.ndarray, u_lower: np.ndarray, k: int,
    reach: int
) -> int | None:
    """The first row of the top block Brennan and Schwartz's back-substitution pins; or None.

    factors are M's, from a gttrf that swapped no rows; [k, n) is the block
    the last step settled on, and unit holds n ones and n zeros.  The forward
    elimination L y = b runs over the rows [k - reach, k + reach) alone, as
    one gttrs call with the window's multipliers and a unit upper factor:
    it is exact from row 0, and a start dropped higher decays below 1e-13
    within reach rows.  A row's back-substitution against the obstacle of
    the row above, c = (y - du lower[i + 1]) / d, clears its own obstacle
    where y exceeds u_lower = U lower (d is positive); the block starts
    above the highest such row.  None where no window row is free, or where
    the window's top row is free but the window ends below the top row: the
    block left the window.
    """
    dl, _, _, _, ipiv = factors
    ones, zeros = unit
    start, stop = max(k - reach, 0), min(k + reach, b.size)
    m = stop - start
    y = b[start:stop].copy()
    dgttrs(dl[start:stop - 1], ones[:m], zeros[:m - 1], zeros[:m - 2], ipiv[:m], y,
           overwrite_b=True)
    row = np.greater(y, u_lower[start:stop]).tobytes().rfind(1)
    if row < 0 or (row == m - 1 and stop < b.size):
        return None
    return start + row + 1


def _march(
    spec: ProblemSpec, x: np.ndarray, stencil: tuple[float, float, float], taus: np.ndarray,
    meta: dict, kind: str
) -> Iterator[Layer]:
    """Step from tau = 0 through taus on the nodes x and their stencil; yields every layer.

    Every step solves max(min(M f - b, f - lower), f - cap) = 0: the two
    implicit-Euler half-steps of the startup with M = I - (dtau / 2) L and
    b = f_n, every later step by BDF2, with M = I - (2 dtau / 3) L and
    b = (4 f_n - f_{n-1}) / 3 (f_{n-1} the payoff, first), each b plus M's
    weight of L times the source, lo bottom and up top.  Each M is factored
    once by gttrf, and M f of the layer it first steps from formed, when the
    march reaches it; later steps take the M f of the last pass.  Each pass
    of the policy iteration pins rows to the obstacle or the cap, writes its
    right-hand side into the new layer and solves over it, the pinned rows
    as identity rows; it forms M f, M f - b and f - lower in reused buffers,
    reads the next policy into a reused mask and keys each mask by its bytes
    once.  Pinned rows that are a top block [k, n), as a call-type obstacle
    pins them, need no elimination (Brennan & Schwartz): row k - 1 moves
    off_up f[k] to its right-hand side and gttrs solves the leading k rows
    with the leading slices of M's factors, which are that block's own
    unless gttrf swapped rows.  Any other pinned set is factored whole when
    it differs from the set factored last.  So each solve gives the bits of
    one gtsv call on the system it solves, and every layer is bit for bit
    that of a march that allocates every sum.  The first obstacle policy is
    the block _top_block_guess finds near the one the last step settled on
    (first, the rows whose payoff is on the obstacle), when that is a top
    block [k, n) with 0 < k < n, gttrf swapped no rows and there is no cap;
    otherwise, or where it finds none, the policies are read off the
    previous layer, once.  Each step still ends on the policy its own
    solution repeats.  The cap set is held fixed while the obstacle policy
    iterates on the other rows until a pass leaves it unchanged; then the
    cap set is read off that solution, and the step is done when it
    repeats (Hoffman-Karp nesting; switching both policies at once cycled
    on some grids).  Each level is bounded by n + 1 passes.  An unconstrained
    step is one solve, audited against the PDE alone.

    Adds the passes to meta["linear_solves"] and the factorizations to
    meta["factorizations"]; before the last layer is yielded, stores the
    largest complementarity residual of every step, the half-steps
    included, as meta["complementarity_residual"], or raises, naming kind,
    if it is NaN: np.minimum, np.maximum and abs carry a NaN in any layer,
    right-hand side or floor into it.  The payoff's two edge values, which
    no step reads, are checked with it.  An obstacle that does not depend
    on tau is evaluated once.  The LAPACK module is loaded here, so only a
    finite-difference solve loads it.
    """
    subtract, add, multiply, less, copyto = np.subtract, np.add, np.multiply, np.less, np.copyto
    minimum, maximum, absolute, logical_or = np.minimum, np.maximum, np.absolute, np.logical_or
    dtau = float(taus[-1]) / (taus.size - 1)
    half, bdf = 0.5 * dtau, 2.0 * dtau / 3.0  # the weight of L in a half-step, in a BDF2 step
    lo, mid, up = stencil
    n = x.size - 2
    four, three = np.asarray(4.0), np.asarray(3.0)
    lapack = _flapack()
    dgttrf, dgttrs = lapack.dgttrf, lapack.dgttrs
    free = bytes(n)  # the key of a pass that pins no row
    # every pass reuses these; boundary contributions are folded into b
    applied, residual, slack, term, b, prev = np.empty((6, n))
    tail, term_tail, head, term_head = applied[1:], term[1:], applied[:-1], term[:-1]
    prefers, pinned = np.zeros((2, n), dtype=bool)  # the obstacle policy, and it or the cap
    unit = np.ones(n), np.zeros(n)  # the bands of a unit upper factor, for a guess's window
    worst = np.zeros(n)  # row by row, the largest complementarity residual so far
    src = spec.source(x[1:-1]) if spec.source is not None else None
    steady = None if callable(spec.strike) else frozen(spec.obstacle(x, 0.0))
    cap, constrained = spec.cap, spec.constrained
    x_bottom, x_top = float(x[0]), float(x[-1])

    payoff = np.asarray(spec.terminal(x), dtype=float)
    obstacle = steady if steady is not None else spec.obstacle(x, 0.0)
    lower = obstacle[1:-1]
    yield x, payoff, obstacle
    f = prev[:] = payoff[1:-1]  # f_{n-1} of the first BDF2 step, kept in prev
    # the policy the last step settled on; first, the rows whose payoff is on the obstacle
    key = np.less_equal(f, lower).tobytes() if constrained else free
    times = [half, *taus[1:].tolist()]  # two implicit-Euler half-steps first
    for j, tau in enumerate(times):
        inner = f
        if j in (0, 2):
            weight = half if j == 0 else bdf
            row_lo, row_up = -weight * lo, -weight * up  # floats for single rows
            # 0-d operands: a Python float costs each numpy call more, for the same bits
            diag, off_lo, off_up = map(np.asarray, (1.0 - weight * mid, row_lo, row_up))
            source = None if src is None else src * weight
            *lu, info = dgttrf(np.full(n - 1, off_lo), np.full(n, diag), np.full(n - 1, off_up))
            meta["factorizations"] += 1
            whole = tuple(lu)
            # the key of the pinned set whose factors lu holds: M's unless gttrf failed
            factored = free if info == 0 else None
            # the leading slices of M's factors, by free row count; None if gttrf swapped rows
            leading = {} if info == 0 and np.array_equal(lu[-1], np.arange(1, n + 1)) else None
            # the rows on each side of a block's start that a guess eliminates: past them
            # the product of multipliers, each at most the last, falls below 1e-13
            last = abs(float(lu[0][-1]))
            reach = 2 if last == 0 else n if last >= 1 else max(
                2, math.ceil(math.log(1e-13) / math.log(last)))
            u_lower = None  # U lower, for a guess; per step if the obstacle moves
            # M f of the layer stepped from, as a pass forms it (a missing neighbour adds -0.0)
            multiply(inner, diag, out=applied)
            add(tail, multiply(inner[:-1], off_lo, out=term_tail), out=tail)
            add(head, multiply(inner[1:], off_up, out=term_head), out=head)
        bottom, top = spec.near_field(tau, x_bottom), spec.far_field(tau, x_top)
        if j > 1:
            np.divide(subtract(multiply(inner, four, out=b), prev, out=b), three, out=b)
            copyto(prev, inner)
        else:
            copyto(b, inner)
        if source is not None:
            add(b, source, out=b)
        b[0] -= row_lo * bottom
        b[-1] -= row_up * top
        if steady is None:
            obstacle = spec.obstacle(x, tau)
            lower = obstacle[1:-1]
        f_new = np.empty(n + 2)
        f_new[0], f_new[-1] = bottom, top
        f, mask, at_cap = f_new[1:-1], prefers, None
        if constrained:
            k = key.find(1)  # the top block [k, n) the last step settled on, if it was one
            start = None
            if cap is None and leading is not None and 0 < k and key.count(1) == n - k:
                if u_lower is None or steady is None:
                    u_lower = multiply(whole[1], lower)
                    add(u_lower[:-1], multiply(whole[2], lower[1:]), out=u_lower[:-1])
                start = _top_block_guess(dgttrs, whole, unit, b, u_lower, k, reach)
            if start is None:
                subtract(applied, b, out=residual)
                subtract(inner, lower, out=slack)
                less(slack, residual, out=prefers)
                if cap is not None:
                    at_cap = _cap_rows(inner, cap, residual, slack)
                    cap_key, mask = at_cap.tobytes(), logical_or(prefers, at_cap, out=pinned)
            else:
                prefers[:start], prefers[start:] = False, True
            key = mask.tobytes()
        for _ in range(n + 1):
            for _ in range(n + 1):
                copyto(f, b)
                if constrained:
                    copyto(f, lower, where=mask)
                    if at_cap is not None:
                        copyto(f, cap, where=at_cap)
                meta["linear_solves"] += 1
                k = key.find(1)  # the free rows above a top block
                k = n if k < 0 else k
                # LAPACK's wrapper takes no system of 1 or 2 rows
                if leading is None or k in (1, 2) or key.count(1) != n - k:
                    if key != factored:
                        pde = ~mask
                        *lu, info = dgttrf(np.where(pde[1:], off_lo, 0.0),
                                           np.where(pde, diag, 1.0),
                                           np.where(pde[:-1], off_up, 0.0),
                                           overwrite_dl=True, overwrite_d=True, overwrite_du=True)
                        if info != 0:
                            raise RuntimeError(
                                f"the step matrix is singular (LAPACK gttrf info {info})")
                        factored = key
                        meta["factorizations"] += 1
                    info = dgttrs(*lu, f, overwrite_b=True)[1]
                elif k:
                    if k not in leading:
                        leading[k] = tuple(a[:k + m] for a, m in zip(whole, (-1, 0, -1, -2, 0)))
                    if k < n:
                        f[k - 1] -= row_up * f[k]
                    info = dgttrs(*leading[k], f[:k], overwrite_b=True)[1]
                else:  # every row pinned: the right-hand side is the solution
                    info = 0
                if info != 0:
                    raise RuntimeError(f"LAPACK gttrs refused its arguments (info {info})")
                multiply(f, diag, out=applied)
                add(tail, multiply(f[:-1], off_lo, out=term_tail), out=tail)
                add(head, multiply(f[1:], off_up, out=term_head), out=head)
                subtract(applied, b, out=residual)
                if not constrained:
                    break
                subtract(f, lower, out=slack)
                less(slack, residual, out=prefers)
                if at_cap is not None:
                    logical_or(prefers, at_cap, out=pinned)
                settled = mask.tobytes()
                if settled == key:
                    break
                key = settled
            else:
                raise RuntimeError(f"policy iteration did not settle within {n + 1} linear solves")
            if at_cap is None:
                break
            at_cap = _cap_rows(f, cap, residual, slack)
            settled = at_cap.tobytes()
            if settled == cap_key:
                break
            cap_key, key = settled, logical_or(prefers, at_cap, out=pinned).tobytes()
        else:
            raise RuntimeError(f"the cap policy did not settle within {n + 1} updates")
        comp = residual
        if constrained:
            comp = minimum(residual, slack, out=slack)
            if cap is not None:
                maximum(comp, subtract(f, cap, out=residual), out=comp)
        maximum(worst, absolute(comp, out=comp), out=worst)
        if 0 < j < len(times) - 1:
            yield x, f_new, obstacle
    largest = float(worst.max())
    if any(map(math.isnan, (largest, payoff[0], payoff[-1]))):
        raise RuntimeError(f"finite-difference solve produced NaN for {kind!r}")
    meta["complementarity_residual"] = largest
    yield x, f_new, obstacle


def fd_stream(
    problem: VIProblem, config: FDConfig, spots: Sequence[float] = ()
) -> LayerStream:
    """The march for problem on config's grid, as a stream of (x, values, obstacle) layers.

    The problem (a regime-4 one by problem_spec), the grid and its stencil
    (by log_grid) and every spot (by check_state, against the stock nodes)
    are checked before the first layer; so is a dividend regime whose
    redeeming level at maturity (closedform.terminal_limit) lies above the
    top stock node, where the far field would stand in for the boundary.
    solver_meta counts the tridiagonal solves as the layers are drawn, and
    once the last layer is drawn holds the largest discrete complementarity
    residual abs(max(min(M f - b, f - obstacle), f - cap)) of any row of any
    step as "complementarity_residual".  Parameters whose redeeming region
    is empty have no row to pin, so each step is a single tridiagonal
    solve, audited against the PDE alone.
    """
    spec = problem_spec(problem)
    principal, maturity = problem.contract.principal, problem.contract.maturity
    taus = tau_grid(maturity, config.time_steps)
    x, stencil = log_grid(principal, spec.sigma, spec.drift, spec.rate, maturity,
                          config.space_nodes)
    if problem.variant is None and spec.constrained:
        level = terminal_limit(problem.contract.regime, problem.market, problem.contract)
        if level > x[-1]:
            raise ValueError(f"the redeeming level at maturity {level:.6g} lies above the stock "
                             f"grid's top node {x[-1]:.6g}, so the grid cannot hold the boundary")
    for spot in spots:
        check_state(spot, x=x, tau=maturity)
    meta = {"solver": "fd", "config": config, "linear_solves": 0, "factorizations": 0}
    layers = _march(spec, x, stencil, taus, meta, problem.kind)
    # the top row is set to the far field, not solved, so it is never a boundary point
    return LayerStream(taus, None, principal, float(x[-2]), spec.constrained, meta, layers)


def solve_vi(problem: VIProblem, config: FDConfig) -> tuple[ValueSurface, BoundaryCurve]:
    """Every layer of fd_stream in a surface, and the boundary read off it; returns both.

    The extracted curve is infinite at every positive tau when the
    redeeming region is empty.
    """
    surface = fold_surface(fd_stream(problem, config))
    return surface, fold_boundary(surface)
