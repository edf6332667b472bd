"""Pricing engine for finite-maturity stock loans.

A stock loan advances a principal K against a share pledged as collateral;
the borrower may redeem the share at any time before maturity by repaying
the principal accrued at the loan rate.  What the lender does with the
dividends paid in the meantime changes the contract: this package prices
the four standard dividend arrangements, plus amortizing and capped
withdrawable variants, and locates the optimal redeeming boundaries.

Solvers: a binomial lattice and a Crank-Nicolson variational-inequality
solver for the one-dimensional regimes, a forward-shooting grid for the
two-dimensional cash-dividend regime, infinite-maturity closed forms, and
an exhaustive-stopping path tree for cross-checking everything else.

Importing the package loads only the closed forms and the contract
definitions, which use math alone.  Every other public name is served by
its solver module on first use, and numpy loads with the first of them.
"""

import importlib

from .closedform import (
    UNBOUNDED,
    PerpetualRegime3Result,
    PerpetualResult,
    TerminalLimit,
    european_call,
    european_put,
    parity_price_regime3,
    perpetual_regime1,
    perpetual_regime2,
    perpetual_regime3,
    terminal_limit,
)
from .contracts import (
    ClosedForm,
    DividendRegime,
    LoanContract,
    MarketParams,
    RegimeClassification,
    RegionKind,
    accrue_dividends,
    classify,
    payoff,
    reduce_regime2,
)

# The submodule of every other public name.  Those modules import numpy, so
# each one loads on the first read of one of its names (PEP 562).
_SUBMODULE = {name: module for module, names in {
    "fd1d": ("ComplementarityReport", "FDConfig", "fd_stream", "residual_report", "solve_vi"),
    "fsg2d": ("FSG2DConfig", "extract_boundary_surface", "fsg_stream", "price_regime4"),
    "lattice1d": (
        "LatticeConfig", "extract_boundary", "lattice_stream", "lattice_surface",
        "lattice_value", "price_amortized", "price_regime1", "price_regime2", "price_regime3",
        "price_withdrawable",
    ),
    "oracle": ("MAX_ORACLE_STEPS", "oracle_boundary", "oracle_price"),
    "problems": (
        "BoundaryCurve", "LayerStream", "ValueSurface", "VIProblem", "amortized_payment_rate",
        "fold_boundary", "fold_surface", "fold_values",
    ),
}.items() for name in names}


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)


def __dir__() -> list[str]:
    return [*globals(), *_SUBMODULE]


__all__ = [
    "MAX_ORACLE_STEPS",
    "UNBOUNDED",
    "BoundaryCurve",
    "ClosedForm",
    "ComplementarityReport",
    "DividendRegime",
    "FDConfig",
    "FSG2DConfig",
    "LatticeConfig",
    "LayerStream",
    "LoanContract",
    "MarketParams",
    "PerpetualRegime3Result",
    "PerpetualResult",
    "RegimeClassification",
    "RegionKind",
    "TerminalLimit",
    "VIProblem",
    "ValueSurface",
    "accrue_dividends",
    "amortized_payment_rate",
    "classify",
    "european_call",
    "european_put",
    "extract_boundary",
    "extract_boundary_surface",
    "fd_stream",
    "fold_boundary",
    "fold_surface",
    "fold_values",
    "fsg_stream",
    "lattice_stream",
    "lattice_surface",
    "lattice_value",
    "oracle_boundary",
    "oracle_price",
    "parity_price_regime3",
    "payoff",
    "perpetual_regime1",
    "perpetual_regime2",
    "perpetual_regime3",
    "price_amortized",
    "price_regime1",
    "price_regime2",
    "price_regime3",
    "price_regime4",
    "price_withdrawable",
    "residual_report",
    "solve_vi",
    "terminal_limit",
]

__version__ = "0.1.0"
