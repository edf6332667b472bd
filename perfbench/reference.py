"""Reference formulas the benchmark checks the program against.

They are written from the textbook formulas with the standard library
only, so a check never compares the program with itself.
"""

from __future__ import annotations

import math


def normal_cdf(z: float) -> float:
    """Standard normal distribution function through the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def bs_call(spot: float, strike: float, rate: float, sigma: float, tau: float) -> float:
    """Black-Scholes call on a stock paying no dividends."""
    if tau <= 0.0:
        return max(spot - strike, 0.0)
    vol = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / vol
    d2 = d1 - vol
    return spot * normal_cdf(d1) - strike * math.exp(-rate * tau) * normal_cdf(d2)


def bs_put(spot: float, strike: float, rate: float, sigma: float, tau: float) -> float:
    """Black-Scholes put on a stock paying no dividends."""
    if tau <= 0.0:
        return max(strike - spot, 0.0)
    vol = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / vol
    d2 = d1 - vol
    return strike * math.exp(-rate * tau) * normal_cdf(-d2) - spot * normal_cdf(-d1)


def characteristic_roots(r_bar: float, delta: float, sigma: float) -> tuple[float, float]:
    """Roots of (sigma^2/2) a^2 + (r_bar - delta - sigma^2/2) a - r_bar = 0, larger first.

    Power solutions x^a of the perpetual similarity equation satisfy this
    quadratic.  The root of larger magnitude comes from the radical with the
    sign of b, the other from the product of the roots, so neither suffers
    cancellation.
    """
    a = 0.5 * sigma * sigma
    b = r_bar - delta - a
    c = -r_bar
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise ValueError(f"characteristic quadratic has no real roots (disc={disc})")
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = [q / a]
    roots.append(c / q if q != 0.0 else -b / a)
    roots.sort(reverse=True)
    return roots[0], roots[1]


def quadratic_residual(alpha: float, r_bar: float, delta: float, sigma: float) -> float:
    a = 0.5 * sigma * sigma
    return a * alpha * alpha + (r_bar - delta - a) * alpha - r_bar


def perpetual_level(principal: float, alpha_plus: float) -> float:
    """Perpetual redeeming level alpha K / (alpha - 1); unbounded unless alpha > 1."""
    if alpha_plus <= 1.0:
        return math.inf
    return alpha_plus * principal / (alpha_plus - 1.0)
