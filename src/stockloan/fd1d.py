"""Finite-difference variational-inequality solver in log similarity space.

Crank-Nicolson time stepping on a uniform grid in y = log(x), with a
Rannacher startup (the first step is split into two implicit-Euler halves to
damp the payoff kink) and a policy-iteration solve of the per-step linear
complementarity problem: every pass is one tridiagonal solve with the rows held
at the obstacle, or at the cap, pinned.  Every step of a march has the same
matrix, factored once by LAPACK's gttrf; a pass whose pinned rows are a top
block solves only the free rows above it, and any other pinned set is
factored whole.  Each pass is one gttrs solve, bit for bit what gtsv gives
on the system it solves, written straight into the new layer.  With a cap, the cap set is held fixed
while the obstacle policy settles on the other rows, then read off that
solution until it repeats (Hoffman-Karp nesting; switching both policies at
once cycled on some grids).  Each pass forms M f once; the last pass of a
step leaves M f, M f - b and f - obstacle in buffers, which audit the step's
complementarity residual and give the next step its M f: its first policy
reads it, and a Crank-Nicolson step's right-hand side is 2 f - M f.
A NaN anywhere reaches that audit or the payoff's edges, checked once.  The
drift term is differenced centrally, and a grid on which central weights
would go negative (cell Peclet number above 1) is refused before the march
(problems.log_grid), so every per-step matrix is an M-matrix.

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
    """Grid resolution.

    The log-space domain is log(K) +- 6 sigma sqrt(T) (problems.log_grid),
    and a space_nodes too few for the drift to stay under the diffusion
    across each cell is refused there, naming the count that passes.  Each
    step is solved exactly by policy iteration, so there is no tolerance to
    set.
    """

    space_nodes: int = 400
    time_steps: int = 400

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


class _StepSystem:
    """The step matrix M = I - (dtau / 2) L of a march, the rows of a pinned set
    replaced by identity rows, and the policy iteration that solves each step.

    M is the same for every step of the march, the Rannacher half-steps
    included, and LAPACK's gttrf factors it once.  Pinned rows that are the
    top block [k, n), as a call-type obstacle pins them, need no elimination
    (Brennan & Schwartz): row k - 1 moves off_up f[k] to its right-hand side
    and gttrs solves the leading k rows with the leading slices of M's
    factors, which are that block's own unless gttrf swapped rows.  Any
    other pinned set is factored whole when it differs from the set factored
    last.  gttrf and gttrs perform gtsv's eliminations in gtsv's order, so
    each solve gives the bits of one gtsv call on the system it solves.
    meta counts the solves and the factorizations.  applied holds M f of the
    last f passed to apply, after a step its solution's.  worst holds, row
    by row, the largest complementarity residual of any step settled so far.
    The LAPACK module is loaded here, so only a finite-difference solve
    loads it.
    """

    def __init__(self, diag: float, off_lo: float, off_up: float, n: int, meta: dict):
        lapack = _flapack()
        self._dgttrf, self._dgttrs = lapack.dgttrf, lapack.dgttrs
        # 0-d operands: a Python float costs each numpy call more, for the same bits
        self.diag, self.off_lo, self.off_up = map(np.asarray, (diag, off_lo, off_up))
        self.up = off_up  # and a float for the one row a top block moves
        self.meta = meta
        # every pass reuses these; boundary contributions are already folded into b
        self.applied, self.residual, self.slack, term = np.empty((4, n))
        # the product and a scratch term without their first row, and without their last
        self.views = ((self.applied[1:], term[1:]), (self.applied[:-1], term[:-1]))
        self.unpinned = np.zeros(n, dtype=bool)
        self.worst = np.zeros(n)
        *lu, info = self._dgttrf(np.full(n - 1, off_lo), np.full(n, diag), np.full(n - 1, off_up))
        meta["factorizations"] += 1
        self.whole = tuple(lu)
        # the pinned mask of lu, as bytes: M's until another set is factored whole
        self.factored, self.lu = (self.unpinned.tobytes(), self.whole) if info == 0 else (None, ())
        # the leading slices of M's factors, by row count; None if gttrf swapped rows
        unswapped = info == 0 and np.array_equal(lu[-1], np.arange(1, n + 1))
        self.leading: dict | None = {} if unswapped else None

    def solve(self, pinned: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve M f = rhs, the pinned rows as identity rows; returns f, written over rhs."""
        key = pinned.tobytes()
        self.meta["linear_solves"] += 1
        n, k = len(key), key.find(b"\x01")  # k: the free rows above a top block
        k = n if k < 0 else k
        # LAPACK's wrapper takes no system of 1 or 2 rows
        if self.leading is not None and k not in (1, 2) and key.count(b"\x01") == n - k:
            if k == 0:
                return rhs  # every row pinned: rhs is the solution
            if k not in self.leading:
                self.leading[k] = tuple(a[:k + m] for a, m in zip(self.whole, (-1, 0, -1, -2, 0)))
            if k < n:
                rhs[k - 1] -= self.up * rhs[k]
            lu, b = self.leading[k], rhs[:k]
        else:
            if key != self.factored:
                pde = ~pinned
                *lu, info = self._dgttrf(np.where(pde[1:], self.off_lo, 0.0),
                                         np.where(pde, self.diag, 1.0),
                                         np.where(pde[:-1], self.off_up, 0.0),
                                         overwrite_dl=True, overwrite_d=True, overwrite_du=True)
                if info != 0:
                    raise RuntimeError(f"the step matrix is singular (LAPACK gttrf info {info})")
                self.factored, self.lu = key, tuple(lu)
                self.meta["factorizations"] += 1
            lu, b = self.lu, rhs
        _, info = self._dgttrs(*lu, b, overwrite_b=True)
        if info != 0:
            raise RuntimeError(f"LAPACK gttrs refused its arguments (info {info})")
        return rhs

    def apply(self, f: np.ndarray) -> None:
        """Put M f, summed diag * f + off_lo * f[i - 1] + off_up * f[i + 1], in applied."""
        (tail, term_tail), (head, term_head) = self.views
        # a missing neighbour would add -0.0 (off_lo, off_up <= 0), which changes no sum
        np.multiply(f, self.diag, out=self.applied)
        np.add(tail, np.multiply(f[:-1], self.off_lo, out=term_tail), out=tail)
        np.add(head, np.multiply(f[1:], self.off_up, out=term_head), out=head)

    def obstacle_rows(self, f: np.ndarray, b: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """The rows where f - lower < applied - b; leaves both sides in slack and residual."""
        np.subtract(self.applied, b, out=self.residual)
        np.subtract(f, lower, out=self.slack)
        return np.less(self.slack, self.residual)

    def cap_rows(self, f: np.ndarray, cap: float) -> np.ndarray:
        """The rows where f - cap > min(residual, slack), from the last obstacle_rows."""
        return np.greater(f - cap, np.minimum(self.residual, self.slack))

    def settle(self, b: np.ndarray, init: np.ndarray, lower: np.ndarray | None,
               cap: float | None, out: np.ndarray) -> None:
        """Solve max(min(M f - b, f - lower), f - cap) = 0 by policy iteration into out.

        applied must hold M init, and is left holding M f; the residual of f
        is folded into worst.  Each row follows the PDE, is pinned to the
        obstacle or is pinned to the cap; a pass builds its right-hand side
        in out and solves over it, the pinned rows replaced by identity rows.
        With no lower and no cap one solve suffices, and the residual is
        abs(M f - b).  The policies are first read off init, the previous
        layer.  The cap set is held fixed while the obstacle policy iterates
        on the other rows until a pass leaves it unchanged; then the cap set
        is read off that solution, and the step is done when it repeats.
        Each level is bounded by n + 1 passes; where the cap set never
        changes within a step, these are the passes of the joint switch.
        """
        n = b.size
        if lower is None and cap is None:
            np.copyto(out, b)
            self.apply(self.solve(self.unpinned, out))
            comp = np.subtract(self.applied, b, out=self.residual)
            np.maximum(self.worst, np.abs(comp, out=comp), out=self.worst)
            return
        prefers_obstacle = self.obstacle_rows(init, b, lower)
        at_cap = None if cap is None else self.cap_rows(init, cap)
        for _ in range(n + 1):
            free = None if at_cap is None else ~at_cap
            at_obstacle = prefers_obstacle if free is None else prefers_obstacle & free
            for _ in range(n + 1):
                np.copyto(out, b)
                np.copyto(out, lower, where=at_obstacle)
                if at_cap is None:
                    pinned = at_obstacle
                else:
                    np.copyto(out, cap, where=at_cap)
                    pinned = at_obstacle | at_cap
                f = self.solve(pinned, out)
                self.apply(f)
                prefers_obstacle = self.obstacle_rows(f, b, lower)
                settled = prefers_obstacle if free is None else prefers_obstacle & free
                if settled.tobytes() == at_obstacle.tobytes():
                    break
                at_obstacle = settled
            else:
                raise RuntimeError(f"policy iteration did not settle within {n + 1} linear solves")
            settled = None if at_cap is None else self.cap_rows(f, cap)
            if settled is None or settled.tobytes() == at_cap.tobytes():
                break
            at_cap = settled
        else:
            raise RuntimeError(f"the cap policy did not settle within {n + 1} updates")
        comp = np.minimum(self.residual, self.slack, out=self.slack)
        if cap is not None:
            np.maximum(comp, np.subtract(f, cap, out=self.residual), out=comp)
        np.maximum(self.worst, np.abs(comp, out=comp), out=self.worst)


def _march(
    spec: ProblemSpec, x: np.ndarray, stencil: tuple[float, float, float], taus: np.ndarray,
    meta: dict, kind: str
) -> Iterator[Layer]:
    """Step from tau = 0 through taus on the nodes x and their stencil; yields every layer.

    Adds the tridiagonal solves to meta["linear_solves"] and the
    factorizations to meta["factorizations"]; before the last layer is
    yielded, stores the largest complementarity residual of every step, the
    Rannacher half-steps included, as meta["complementarity_residual"], or
    raises, naming kind, if it is NaN: np.minimum, np.maximum and abs carry
    a NaN in any layer, right-hand side or floor into it.  The payoff's two
    edge values, which no step reads, are checked with it.  Each step builds
    its right-hand side in a buffer the march reuses, summed in the order of
    the plain expression, and solves into its new layer, so the layers are
    bit for bit those of a march that allocates every sum.  Only the first
    step forms M f of its previous layer; later ones reuse the product of
    the step before, and a Crank-Nicolson step's right-hand side
    (I + half L) f is 2 f - M f, plus the source and the edge terms
    half lo (f[0] + bottom) and half up (f[-1] + top).  An obstacle that
    does not depend on tau is evaluated once.
    """
    dtau = float(taus[-1]) / (taus.size - 1)
    half = 0.5 * dtau
    lo, mid, up = stencil
    n = x.size - 2
    system = _StepSystem(1.0 - half * mid, -half * lo, -half * up, n, meta)
    # the source term of a Crank-Nicolson step and of an implicit-Euler half-step
    src = spec.source(x[1:-1]) if spec.source is not None else None
    src_cn, src_ie = (None, None) if src is None else (src * dtau, src * half)
    steady = None if callable(spec.strike) else frozen(spec.obstacle(x, 0.0))

    def obstacle_at(tau: float) -> np.ndarray:
        return steady if steady is not None else spec.obstacle(x, tau)

    # every step rebuilds its right-hand side in b
    b = np.empty(n)
    x_bottom, x_top = float(x[0]), float(x[-1])

    def step(f_old: np.ndarray, tau_new: float, cn: bool) -> Layer:
        """One solve of (I - half L) f = rhs: Crank-Nicolson if cn, else implicit Euler.

        Returns the layer at tau_new; its obstacle is also the step's floor.
        """
        inner = f_old[1:-1]
        bottom = spec.near_field(tau_new, x_bottom)
        top = spec.far_field(tau_new, x_top)
        if cn:
            np.subtract(np.add(inner, inner, out=b), system.applied, out=b)
            source, edge_lo, edge_up = src_cn, f_old[0] + bottom, f_old[-1] + top
        else:
            np.copyto(b, inner)
            source, edge_lo, edge_up = src_ie, bottom, top
        if source is not None:
            np.add(b, source, out=b)
        b[0] += half * lo * edge_lo
        b[-1] += half * up * edge_up
        obstacle = obstacle_at(tau_new)
        f_new = np.empty(n + 2)
        f_new[0], f_new[-1] = bottom, top
        system.settle(b, inner, obstacle[1:-1] if spec.constrained else None, spec.cap,
                      f_new[1:-1])
        return x, f_new, obstacle

    # Rannacher startup: two implicit-Euler half-steps, then Crank-Nicolson.
    payoff = np.asarray(spec.terminal(x), dtype=float)
    yield x, payoff, obstacle_at(0.0)
    system.apply(payoff[1:-1])
    _, f, _ = step(payoff, half, False)
    layer = step(f, float(taus[1]), False)
    for tau in taus[2:]:
        yield layer
        layer = step(layer[1], float(tau), True)
    residual = float(system.worst.max())
    if any(map(math.isnan, (residual, payoff[0], payoff[-1]))):
        raise RuntimeError(f"finite-difference solve produced NaN for {kind!r}")
    meta["complementarity_residual"] = residual
    yield layer


def fd_stream(
    problem: VIProblem, config: FDConfig, spots: Sequence[float] = ()
) -> LayerStream:
    """The march for problem on config's grid, as a stream of (x, values, obstacle) layers.

    The problem (a regime-4 one by problem_spec), the grid and its stencil
    (by log_grid) and every spot (by check_state, against the stock nodes)
    are checked before the first layer.  solver_meta counts the tridiagonal
    solves as the layers are drawn, and once the last layer is drawn holds
    the largest discrete complementarity residual
    abs(max(min(M f - b, f - obstacle), f - cap)) of any row of any step as
    "complementarity_residual".  Parameters whose redeeming region is empty
    have no row to pin, so each step is a single tridiagonal solve, audited
    against the PDE alone.
    """
    spec = problem_spec(problem)
    principal, maturity = problem.contract.principal, problem.contract.maturity
    taus = tau_grid(maturity, config.time_steps)
    x, stencil = log_grid(principal, spec.sigma, spec.drift, spec.rate, maturity,
                          config.space_nodes)
    for spot in spots:
        check_state(spot, x=x, tau=maturity)
    meta = {"solver": "fd", "config": config, "linear_solves": 0, "factorizations": 0,
            "constrained": spec.constrained}
    layers = _march(spec, x, stencil, taus, meta, problem.kind)
    return LayerStream(taus, None, principal, float(x[-1]), meta, layers)


def solve_vi(problem: VIProblem, config: FDConfig) -> tuple[ValueSurface, BoundaryCurve]:
    """Every layer of fd_stream in a surface, and the boundary read off it; returns both.

    The extracted curve is infinite at every positive tau when the
    redeeming region is empty.
    """
    surface = fold_surface(fd_stream(problem, config))
    return surface, fold_boundary(surface.stream())
