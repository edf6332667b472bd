"""What every backend shares: the time grid, and the one check of a loan's state."""

import functools
import math
import re

import numpy as np
import pytest

from stockloan import (
    DividendRegime,
    FDConfig,
    FSG2DConfig,
    LatticeConfig,
    LoanContract,
    MarketParams,
    VIProblem,
    price_regime1,
    price_regime4,
    solve_vi,
)
from stockloan.fd1d import fd_stream
from stockloan.fsg2d import fsg_stream
from stockloan.lattice1d import lattice_stream
from stockloan.oracle import oracle_price
from stockloan.problems import fold_boundary, fold_values, tau_grid

HIGH_VOL = MarketParams(r=0.06, delta=0.03, sigma=0.4)


def loan(regime, maturity):
    return LoanContract(principal=0.7, loan_rate=0.1, maturity=maturity,
                        regime=DividendRegime(regime))


@pytest.mark.parametrize("steps", [40, 50, 100, 200, 400, 2000])
def test_tau_grid_ends_at_maturity(steps):
    for maturity in (i / 100 for i in range(5, 1000)):
        taus = tau_grid(maturity, steps)
        assert taus[-1] == maturity
        # every other layer sits at the step multiple it always did, bit for bit
        multiples = np.arange(steps + 1) * (maturity / steps)
        assert np.array_equal(taus[:-1], multiples[:-1])
        assert not taus.flags.writeable


def test_every_backend_surface_ends_at_maturity():
    # 40 * (0.23 / 40) falls one ulp below 0.23
    maturity = 0.23
    assert 40 * (maturity / 40) != maturity
    value, lattice = price_regime1(0.8, HIGH_VOL, loan(1, maturity), LatticeConfig(steps=40))
    fd, _ = solve_vi(VIProblem(HIGH_VOL, loan(1, maturity)),
                     FDConfig(space_nodes=80, time_steps=40))
    fsg_value, fsg = price_regime4(0.8, 0.1, HIGH_VOL, loan(4, maturity),
                                   FSG2DConfig(x_nodes=60, a_nodes=10, time_steps=40))
    for surface in (lattice, fd, fsg):
        assert surface.tau_grid[-1] == maturity
    assert lattice.value_at(0.8, maturity) == value
    assert fd.value_at(0.8, maturity) == pytest.approx(value, abs=0.01)
    assert fsg.value_at(0.8, maturity, a=0.1) == fsg_value


# One rule for a loan's state, S > 0 and A >= 0, with one message per fault,
# at every entry point that takes a state and at every read of a layer.
SMALL_FD = FDConfig(space_nodes=80, time_steps=40)
SMALL_FSG = FSG2DConfig(x_nodes=40, a_nodes=8, time_steps=10)
# r > gamma: no state redeems at once and the account grid runs to 2 K e^{(r - gamma) T}
R_ABOVE = MarketParams(r=0.12, delta=0.03, sigma=0.3)
# r < gamma and an account that covers the principal: redeeming at once is exact, no grid
IMMEDIATE = 0.75
REGIME4 = VIProblem(HIGH_VOL, loan(4, 1.0))


def regime1():
    return VIProblem(HIGH_VOL, loan(1, 1.0))


@functools.cache
def surface(backend):
    if backend == "lattice":
        return price_regime1(0.8, HIGH_VOL, loan(1, 1.0), LatticeConfig(steps=40))[1]
    if backend == "fd":
        return solve_vi(regime1(), SMALL_FD)[0]
    return price_regime4(0.8, 0.1, HIGH_VOL, loan(4, 1.0), SMALL_FSG)[1]


# name: (call(spot, accrued), the account a valid state has, or None where no
# account is read, and whether the state is read against a grid)
ENTRIES = {
    "lattice_stream": (lambda s, a: lattice_stream(regime1(), LatticeConfig(40), s), None, False),
    "fd_stream": (lambda s, a: fd_stream(regime1(), SMALL_FD, [0.8, s]), None, True),
    "fsg_stream": (
        lambda s, a: fsg_stream(VIProblem(R_ABOVE, loan(4, 1.0)), SMALL_FSG, [0.8, s], a), 0.1, True),
    "fsg_stream immediate": (
        lambda s, a: fsg_stream(REGIME4, SMALL_FSG, [0.8, s], a), IMMEDIATE, False),
    "price_regime4": (lambda s, a: price_regime4(s, a, R_ABOVE, loan(4, 1.0), SMALL_FSG), 0.1, True),
    "price_regime4 immediate": (
        lambda s, a: price_regime4(s, a, HIGH_VOL, loan(4, 1.0), SMALL_FSG), IMMEDIATE, False),
    "oracle_price": (lambda s, a: oracle_price(s, HIGH_VOL, loan(4, 1.0), 6, a), 0.1, False),
    "value_at lattice": (lambda s, a: surface("lattice").value_at(s, 1.0), None, True),
    "value_at fd": (lambda s, a: surface("fd").value_at(s, 0.5), None, True),
    "value_at fsg": (lambda s, a: surface("fsg").value_at(s, 1.0, a=a), 0.1, True),
    # streams built for other states: only the read checks these
    "fold_values lattice": (
        lambda s, a: fold_values(lattice_stream(regime1(), LatticeConfig(40), 0.8), [s]),
        None, True),
    "fold_values fd": (lambda s, a: fold_values(fd_stream(regime1(), SMALL_FD), [s]), None, True),
    "fold_values fsg": (
        lambda s, a: fold_values(fsg_stream(REGIME4, SMALL_FSG, [], 0.1), [s], a),
        0.1, True),
}
SPOT_FAULTS = [(0.0, "spot must be positive, got 0.0"), (-1.0, "spot must be positive, got -1.0"),
               (math.nan, "spot must be finite, got nan"),
               (math.inf, "spot must be finite, got inf"),
               (-math.inf, "spot must be positive, got -inf")]
ACCOUNT_FAULTS = [(-0.1, "accrued account must be nonnegative, got -0.1"),
                  (math.nan, "accrued account must be finite, got nan"),
                  (math.inf, "accrued account must be finite, got inf")]


def refusal_cases():
    for name, (_, account, on_grid) in ENTRIES.items():
        for spot, message in SPOT_FAULTS + ([(1000.0, "x=1000.0 outside the surface nodes [")]
                                            if on_grid else []):
            yield name, spot, account, message
        if account is not None:
            for accrued, message in ACCOUNT_FAULTS + ([(5.0, "account level 5.0 outside grid [0, ")]
                                                      if on_grid else []):
                yield name, 0.8, accrued, message


@pytest.mark.parametrize("name, spot, accrued, message", list(refusal_cases()),
                         ids=str)
def test_every_state_refusal_names_its_fault(name, spot, accrued, message):
    call, _, _ = ENTRIES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call(spot, accrued)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_fold_boundary_refuses_a_tolerance_that_is_not_finite(tol):
    # a NaN tolerance read no tie and an infinite one tied every bottom node
    with pytest.raises(ValueError, match=f"tolerance must be nonnegative and finite, got {tol}"):
        fold_boundary(lattice_stream(regime1(), LatticeConfig(50), 0.8), tol)


# The account is read exactly when the layers have an account grid: an account
# given to a one-dimensional stream was ignored, and one left out of an FSG read
# silently read account 0.
ACCOUNT_RULE = "the account is given exactly when there is an a_grid"
REGIME3 = VIProblem(HIGH_VOL, loan(3, 1.0))
ACCOUNT_MISMATCHES = {
    "fold_values lattice": lambda: fold_values(
        lattice_stream(REGIME3, LatticeConfig(200), 0.8), [0.8], accrued=0.1),
    "fold_values fd": lambda: fold_values(fd_stream(REGIME3, SMALL_FD), [0.8], accrued=5.0),
    "fold_values fsg": lambda: fold_values(
        fsg_stream(REGIME4, SMALL_FSG, [0.8], 0.1), [0.8]),
    "value_at lattice": lambda: surface("lattice").value_at(0.8, 1.0, a=0.1),
    "value_at fsg": lambda: surface("fsg").value_at(0.8, 1.0),
}


@pytest.mark.parametrize("name", ACCOUNT_MISMATCHES)
def test_an_account_is_read_exactly_on_layers_with_an_account_grid(name):
    with pytest.raises(ValueError, match=ACCOUNT_RULE):
        ACCOUNT_MISMATCHES[name]()


# A loan rate too small for the amortized balance's formula: c / gamma overflowed
# at a subnormal rate (and at a normal one under a large principal), so the
# obstacle was -inf and the price came out negative; the gamma -> 0 limit holds there.
def amortized_price(backend, gamma, principal, spot):
    problem = VIProblem(HIGH_VOL, LoanContract(principal, gamma, 1.0, DividendRegime(1)),
                        "amortized")
    if backend == "lattice":
        return fold_values(lattice_stream(problem, LatticeConfig(200), spot), [spot])[0]
    return fold_values(fd_stream(problem, FDConfig(100, 100), [spot]), [spot])[0]


@pytest.mark.parametrize("backend", ["lattice", "fd"])
@pytest.mark.parametrize("gamma, principal", [(1e-320, 0.7), (1e-310, 0.7), (1e-308, 0.7),
                                              (-1e-320, 0.7), (1e-307, 100.0)])
def test_amortized_price_at_a_negligible_loan_rate_is_the_zero_rate_price(
        backend, gamma, principal):
    spot = 8.0 / 7.0 * principal
    flat = amortized_price(backend, 0.0, principal, spot)
    assert abs(amortized_price(backend, gamma, principal, spot) - flat) <= 1e-12 * max(1.0, flat)


# Every number a backend reports in solver_meta is a Python int or float: the
# marches hand numpy their coefficients as 0-d arrays, which must not leak into
# the records that the tracer reads.
WITHDRAWABLE = VIProblem(HIGH_VOL, loan(1, 1.0), "withdrawable", cap=0.5)
METAS = {
    "lattice": lambda: lattice_stream(regime1(), LatticeConfig(40), 0.8),
    "lattice withdrawable": lambda: lattice_stream(WITHDRAWABLE, LatticeConfig(40), 0.8),
    "fd": lambda: fd_stream(regime1(), SMALL_FD),
    "fd withdrawable": lambda: fd_stream(WITHDRAWABLE, SMALL_FD),
    "fsg": lambda: fsg_stream(VIProblem(R_ABOVE, loan(4, 1.0)), SMALL_FSG, [0.8], 0.1),
}


@pytest.mark.parametrize("name", METAS)
def test_solver_meta_numbers_are_python_numbers(name):
    stream = METAS[name]()
    for _ in stream.layers:
        pass
    numbers = {key: value for key, value in stream.solver_meta.items()
               if isinstance(value, (int, float, np.generic, np.ndarray))}
    assert {"steps", "linear_solves", "n_sub"} & numbers.keys()
    for key, value in numbers.items():
        assert type(value) in (bool, int, float), (key, type(value))
