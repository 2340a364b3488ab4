"""Oracles that only the tests read: the divisor count tau_k, Stirling
numbers of the first kind, the arcsine law, the uniform law on the
simplex, the simplex mass, and a Monte Carlo estimate of the Dirichlet
rectangle CDF."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from dirlaw import dirichlet


def tau_k(fn, k):
    """Ordered k-tuples with product n: prod C(v + k - 1, k - 1) over the
    exponents of ``fn.factors``, so it counts the F_q[t] oracle's
    polynomial tuples too."""
    return math.prod(math.comb(v + k - 1, k - 1) for _, v in fn.factors)


def stirling_rows(max_n):
    """rows[n][j] = [n, j], the permutations of n elements with j cycles,
    by [n, j] = (n - 1) [n - 1, j] + [n - 1, j - 1]."""
    rows = [[1]]
    for n in range(1, max_n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [(n - 1) * prev[j] + prev[j - 1]
                           for j in range(1, n + 1)])
    return rows


def arcsine(u):
    """The Dir(1/2, 1/2) CDF (2/pi) asin(sqrt(u)), at 30 digits."""
    with mpmath.workdps(30):
        return float(2 / mpmath.pi * mpmath.asin(mpmath.sqrt(mpmath.mpf(u))))


def uniform_simplex_cdf(u):
    """The Dir(1, ..., 1) rectangle CDF at u (k - 1 coordinates), exactly:
    by inclusion-exclusion over the coordinates that exceed their bound,
    F(u) = sum over subsets S of (-1)^|S| (1 - sum_(i in S) u_i)_+^(k-1),
    with no quadrature and no incomplete beta function."""
    u = [Fraction(c) for c in u]
    total = Fraction(0)
    for size in range(len(u) + 1):
        for subset in itertools.combinations(u, size):
            left = 1 - sum(subset)
            if left > 0:
                total += (-1) ** size * left ** len(u)
    return total


def simplex_mass(alpha, tol=1e-9):
    """The limit CDF at the corner (1, ..., 1), alpha in the order given,
    where every conditional corner clips to 1: ideally 1."""
    alpha = tuple(float(a) for a in alpha)
    return dirichlet._cached_cdf([(alpha, (1.0,) * (len(alpha) - 1))],
                                 tol)[0]


def cdf_monte_carlo(alpha, u, n, seed):
    """(estimate, standard error) of the rectangle CDF at u from n draws
    of ``sample_many``."""
    t = dirichlet.sample_many(alpha, n, seed)[:, :-1]
    p = int(np.all(t <= np.asarray(u), axis=1).sum()) / n
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
