"""Multiple zeta-like series attached to k-part factorizations.

The central object is the k-fold sum

    D(s_1, ..., s_k) = sum over n_1, ..., n_k >= 1 of
                       1 / tau_k(n_1 ... n_k) * prod n_j^(-s_j)

which converges absolutely for Re s_j > 1 and factors over primes.
This module evaluates it two independent ways (truncated direct sum and
truncated Euler product), each paired with a certified truncation bound
so their agreement is an inequality between computed numbers rather
than a guessed tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import zeta as _zeta

from .arith import (FactoredInteger, JointTau, SpfSieve, WeightModel,
                    factorize, local_g_sum, primes_up_to)
from .errors import DomainError, IntegrityError, ResourceError

_DIRECT_N_MAX = 100_000
_DIRECT_COST_GUARD = 4 * 10 ** 8    # total elementwise work in the sum
_SIGMA_MIN_DIRECT = 1.5


@dataclass(frozen=True)
class SeriesPoint:
    """Evaluation point (s_1, ..., s_k); all real parts must exceed 1."""

    s: tuple[complex, ...]

    def __post_init__(self):
        if not self.s:
            raise DomainError("need at least one coordinate")
        if any(c.real <= 1.0 for c in self.s):
            raise DomainError("real parts must exceed 1")

    @property
    def sigmas(self) -> tuple[float, ...]:
        return tuple(c.real for c in self.s)


def _as_point(s) -> SeriesPoint:
    if isinstance(s, SeriesPoint):
        return s
    return SeriesPoint(tuple(complex(c) for c in s))


def direct_point(s, k: int, n_max: int) -> SeriesPoint:
    """``d_direct``'s point after its sieve-free domain and cost checks."""
    pt = _as_point(s)
    if len(pt.s) != k or k < 1:
        raise DomainError("s must have exactly k >= 1 coordinates")
    if min(pt.sigmas) < _SIGMA_MIN_DIRECT:
        raise DomainError(f"direct sum needs Re s >= {_SIGMA_MIN_DIRECT}")
    if n_max < 1 or n_max > _DIRECT_N_MAX:
        raise DomainError(f"n_max must lie in [1, {_DIRECT_N_MAX}]")
    if n_max ** k > _DIRECT_COST_GUARD:
        raise ResourceError("N^k exceeds the direct-sum cost guard")
    return pt


def d_direct(s, k: int, n_max: int, sieve: SpfSieve)\
        -> tuple[complex, float]:
    """Truncated direct sum over max n_j <= n_max, with tail bound.

    Returns (value, tail) where tail >= the absolute truncation error:
    sum over j of prod_{i != j} zeta(sigma_i) * sum_{n > N} n^(-sigma_j),
    using 1/tau <= 1.

    The inner axis is vectorized; the joint divisor count is corrected
    prime by prime from the outer coordinates' factorizations, which
    keeps the cost near one vector op per outer tuple.
    """
    pt = direct_point(s, k, n_max)
    if n_max > 1 and sieve.limit < n_max:
        raise DomainError("sieve does not cover n_max")

    real_point = all(c.imag == 0.0 for c in pt.s)
    inner = _axis_powers(pt.s[-1], n_max, real_point)
    joint_tau = JointTau(n_max, k, sieve)
    re_rows: list[float] = []
    im_rows: list[float] = []

    def row(exps: dict[int, int], coeff: complex):
        terms = (coeff * inner) / joint_tau.row(exps)
        if real_point:
            re_rows.append(math.fsum(terms.tolist()))
        else:
            re_rows.append(math.fsum(terms.real.tolist()))
            im_rows.append(math.fsum(terms.imag.tolist()))

    def descend(depth: int, exps: dict[int, int], coeff: complex):
        if depth == k - 1:
            row(exps, coeff)
            return
        sj = pt.s[depth]
        for n in range(1, n_max + 1):
            if n == 1:
                descend(depth + 1, exps, coeff)
                continue
            fn = factorize(n, sieve)
            nxt = dict(exps)
            for p, v in fn.factors:
                nxt[p] = nxt.get(p, 0) + v
            descend(depth + 1, nxt, coeff * _inv_power(n, sj, real_point))

    descend(0, {}, 1.0 if real_point else complex(1.0))
    value = complex(math.fsum(re_rows),
                    math.fsum(im_rows) if im_rows else 0.0)

    tail = 0.0
    for j, sig_j in enumerate(pt.sigmas):
        other = 1.0
        for i, sig_i in enumerate(pt.sigmas):
            if i != j:
                other *= float(_zeta(sig_i))
        tail += other * float(_zeta(sig_j, n_max + 1))
    return value, tail


def _inv_power(n: int, s: complex, real_point: bool):
    if real_point:
        return n ** -s.real
    return cmath.exp(-s * math.log(n))


def _axis_powers(s: complex, n_max: int, real_point: bool) -> np.ndarray:
    n = np.arange(1, n_max + 1, dtype=np.float64)
    if real_point:
        return n ** -s.real
    return np.exp(-s * np.log(n))


@lru_cache(maxsize=32)
def _comb_weights(k: int, length: int) -> np.ndarray:
    return np.array([math.comb(w + k - 1, k - 1)
                     for w in range(length)], dtype=np.float64)


def d_euler(s, k: int, prime_max: int, v_max: int)\
        -> tuple[complex, float]:
    """Truncated Euler product with a certified relative tail.

    Each local factor sums exponent vectors with all v_j <= v_max; the
    per-exponent weight 1/C(v_1+...+v_k+k-1, k-1) depends only on the
    total, so the factor is a convolution of k geometric arrays.

    The tail bounds both truncations (primes > prime_max, exponents
    > v_max) for real s; it is heuristic off the real axis.
    """
    pt = _as_point(s)
    if len(pt.s) != k or k < 1:
        raise DomainError("s must have exactly k >= 1 coordinates")
    if v_max < 1:
        raise DomainError("v_max must be at least 1")
    sig_min = min(pt.sigmas)
    if 2.0 ** (-(v_max + 1) * sig_min) >= 1e-15:
        raise DomainError("v_max too small for a sub-1e-15 local tail")

    value = complex(1.0)
    real_point = all(c.imag == 0.0 for c in pt.s)
    weights = _comb_weights(k, k * v_max + 1)
    for p in primes_up_to(prime_max):
        conv = None
        for sj in pt.s:
            axis = (float(p) ** (-sj.real * np.arange(v_max + 1))
                    if real_point else
                    np.exp(-sj * math.log(p) * np.arange(v_max + 1)))
            conv = axis if conv is None else np.convolve(conv, axis)
        local = (conv / weights).sum()
        value *= local
    if real_point:
        value = complex(value.real, 0.0)

    # primes > prime_max: sum_p -log prod_j (1 - p^-sigma_j) over the
    # missing primes, bounded through Hurwitz zeta with a 1.1 slack
    # that dominates the log-vs-linear gap once p^-sigma <= 1/4
    if prime_max >= 4:
        over = 1.1 * sum(float(_zeta(sig, prime_max + 1))
                         for sig in pt.sigmas)
    else:
        over = sum(-math.log1p(-2.0 ** -sig) * 2 for sig in pt.sigmas) \
            + 1.1 * sum(float(_zeta(sig, 5)) for sig in pt.sigmas)
    # exponents > v_max anywhere, relative to local >= 1 (real s);
    # Hurwitz from 2 so only n >= 2 terms majorize the prime sum
    b = (1.0 - 2.0 ** -sig_min) ** -(k + 1)
    vtail = k * b * float(_zeta((v_max + 1) * sig_min, 2))
    tail = abs(value) * math.expm1(over + vtail)
    return value, tail


@lru_cache(maxsize=4096)
def _comp_count(v: int, k: int) -> int:
    """Weak compositions of v into k parts, by the defining recursion."""
    if k == 1:
        return 1
    return sum(_comp_count(v - a, k - 1) for a in range(v + 1))


def a0_local_check(p: int, k: int, v_max: int) -> Fraction:
    """Local factor of the leading series coefficient, exactly.

    For each exponent v the composition count must cancel the divisor
    weight: sum over compositions of 1/C(v+k-1, k-1) = 1.  The check
    recomputes the count by recursion, then the factor collapses to the
    geometric value (1 - 1/p) * sum_{v <= V} p^-v = 1 - p^-(V+1).
    """
    if p < 2 or not all(p % d for d in range(2, math.isqrt(p) + 1)):
        raise DomainError("p must be prime")
    if k < 1 or v_max < 1:
        raise DomainError("need k >= 1 and V >= 1")
    acc = Fraction(0)
    for v in range(v_max + 1):
        count = _comp_count(v, k)
        if count != math.comb(v + k - 1, k - 1):
            raise IntegrityError("composition count identity failed")
        acc += Fraction(count, math.comb(v + k - 1, k - 1)) \
            * Fraction(1, p ** v)
    return (1 - Fraction(1, p)) * acc


def prime_sum_diag(model: WeightModel, j: int, s: complex,
                   prime_max: int) -> complex:
    """Truncated diagnostic prime sum for a weight model's coordinate.

    Sums (F_j(p) - alpha_j) / p^s over p <= prime_max, where F_j(p) is
    the model's normalized weight of the tuple putting p in slot j.
    Slow growth in prime_max is the numerical shadow of the model's
    regularity; the uniform model gives exactly 0.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("Re s must exceed 1")
    if not 0 <= j < model.k:
        raise DomainError("coordinate out of range")
    alpha_j = float(model.alpha_exact[j])
    unit = tuple(1 if i == j else 0 for i in range(model.k))
    re_parts: list[float] = []
    im_parts: list[float] = []
    for p in primes_up_to(prime_max):
        fp = FactoredInteger(p, ((p, 1),))
        f = model.f_value(fp)
        total = local_g_sum(model, p, 1)
        fj = float(Fraction(f) * Fraction(model.g_local(p, unit))
                   / Fraction(total)) if total > 0 and f != 0 else 0.0
        term = (fj - alpha_j) * cmath.exp(-s * math.log(p))
        re_parts.append(term.real)
        im_parts.append(term.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))
