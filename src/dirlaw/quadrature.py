"""Double-exponential (tanh-sinh) quadrature primitives.

Nodes on (0, 1) come from the change of variable

    xi(t) = (1 + tanh((pi/2) sinh t)) / 2,

sampled at t = j*h.  The weights decay double-exponentially, so endpoint
singularities of integrable type are handled without any special casing,
provided the integrand is evaluated with an accurate distance to the
endpoint.  ``nodes`` therefore returns both xi and 1 - xi, each computed
without cancellation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import IntegrityError

# Node window: beyond |t| = T_MAX both the weight and 1-xi underflow for
# every exponent this package uses (alpha >= ~0.02); underflowed nodes are
# trimmed rather than evaluated.
_T_MAX = 6.5
_MAX_LEVEL = 10     # finest step h = 2**-_MAX_LEVEL
# Bernoulli numbers B_2, B_4, ..., B_20: the coefficients of the
# Euler-Maclaurin formula and of Stirling's series for log Gamma
BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
             -3617 / 510, 43867 / 798, -174611 / 330)


@lru_cache(maxsize=32)
def nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes for step h = 2**-level.

    Returns ``(xi, one_minus_xi, w)`` restricted to nodes where neither
    the weight nor the endpoint distances underflow.  The rule integrates
    over (0, 1): sum(w * f(xi)) approximates the integral of f.
    """
    h = 0.5 ** level
    j = np.arange(-int(np.ceil(_T_MAX / h)), int(np.ceil(_T_MAX / h)) + 1)
    t = j * h
    z = 0.5 * math.pi * np.sinh(t)
    # 1 - xi = e^{-2z} / (1 + e^{-2z}) is exact for z >= 0; use symmetry
    # xi(-t) = 1 - xi(t) for the negative half.
    e = np.exp(-2.0 * np.abs(z))
    small = e / (1.0 + e)          # min(xi, 1-xi)
    large = 1.0 / (1.0 + e)        # max(xi, 1-xi)
    xi = np.where(z >= 0, large, small)
    omx = np.where(z >= 0, small, large)
    # dxi/dt = (pi/4) cosh(t) sech^2(z); sech^2(z) = 4 e^{-2|z|} / (1+e^{-2|z|})^2
    w = h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    keep = (w > 0.0) & (xi > 0.0) & (omx > 0.0)
    return xi[keep], omx[keep], w[keep]


def integrate(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive tanh-sinh integral of a vectorized callable over [a, b].

    ``f`` receives an ndarray of abscissae.  The level is doubled until
    two consecutive estimates agree within ``tol``; failure to converge
    raises IntegrityError.  Endpoint behaviour must be integrable.
    """
    if a == b:
        return 0.0
    width = b - a
    prev = None
    for level in range(3, _MAX_LEVEL + 1):
        xi, _, w = nodes(level)
        val = width * float(np.dot(w, f(a + width * xi)))
        if prev is not None and abs(val - prev) <= max(tol, 1e-15 * abs(val)):
            return val
        prev = val
    raise IntegrityError(
        f"tanh-sinh integral did not converge to {tol:g} by level "
        f"{_MAX_LEVEL}")
