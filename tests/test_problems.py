"""The grids every backend shares: the time grid ends exactly at the maturity."""

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
from stockloan.problems import tau_grid

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
    fd, _ = solve_vi(VIProblem.from_regime(HIGH_VOL, loan(1, maturity)),
                     FDConfig(space_nodes=80, time_steps=40))
    fsg_value, fsg = price_regime4(0.8, 0.1, HIGH_VOL, loan(4, maturity),
                                   FSG2DConfig(x_nodes=60, a_nodes=10, time_steps=40))
    for surface in (lattice, fd, fsg):
        assert surface.tau_grid[-1] == maturity
    assert lattice.value_at(0.8, maturity) == value
    assert fd.value_at(0.8, maturity) == pytest.approx(value, abs=0.01)
    assert fsg.value_at(0.8, maturity, a=0.1) == fsg_value
