"""Pricing engine for finite-maturity stock loans.

A stock loan advances a principal K against a share pledged as collateral;
the borrower may redeem the share at any time before maturity by repaying
the principal accrued at the loan rate.  What the lender does with the
dividends paid in the meantime changes the contract: this package prices
the four standard dividend arrangements, plus amortizing and capped
withdrawable variants, and locates the optimal redeeming boundaries.

Solvers: a binomial lattice and a BDF2 variational-inequality
solver for the one-dimensional regimes, a forward-shooting grid for the
two-dimensional cash-dividend regime, infinite-maturity closed forms, and
an exhaustive-stopping path tree for cross-checking everything else.

Importing the package loads none of its modules.  _MODULES is the one list
of public names: each is served by the module that defines it on first use
(PEP 562).  The closed forms and the contract definitions use math alone;
every other module loads numpy with it.
"""

import importlib as _importlib

_MODULES = {name: module for module, names in {
    "closedform": (
        "UNBOUNDED", "PerpetualRegime3Result", "PerpetualResult", "european_call", "european_put",
        "parity_price_regime3", "perpetual_regime1", "perpetual_regime2", "perpetual_regime3",
        "terminal_limit",
    ),
    "contracts": (
        "ClosedForm", "DividendRegime", "LoanContract", "MarketParams", "RegimeClassification",
        "RegionKind", "accrue_dividends", "classify", "payoff", "reduce_regime2",
    ),
    "fd1d": ("FDConfig", "fd_stream", "solve_vi"),
    "fsg2d": ("FSG2DConfig", "extract_boundary_surface", "fsg_stream", "price_regime4"),
    "lattice1d": (
        "LatticeConfig", "extract_boundary", "lattice_stream", "price_amortized", "price_regime1",
        "price_regime2", "price_regime3", "price_withdrawable",
    ),
    "oracle": ("MAX_ORACLE_STEPS", "oracle_boundary", "oracle_price"),
    "problems": (
        "BoundaryCurve", "LayerStream", "ValueSurface", "VIProblem", "amortized_payment_rate",
        "fold_boundary", "fold_surface", "fold_values",
    ),
}.items() for name in names}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f".{_MODULES[name]}", __name__), name)


def __dir__() -> list[str]:
    return [*globals(), *_MODULES]


__version__ = "0.1.0"
