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
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# factorize is unused: perfbench/tracer.py wraps it (test_tracer.py)
from .arith import factorize  # noqa: F401
from .arith import (SpfSieve, WeightModel, compositions, least_prime_powers,
                    multiplicative_table, primes_up_to, smallest_prime_factor)
from .errors import DomainError, IntegrityError, ResourceError
from .quadrature import BERNOULLI

_DIRECT_N_MAX = 100_000
_DIRECT_COST_GUARD = 4 * 10 ** 8    # total elementwise work in the sum
_SIGMA_MIN_DIRECT = 1.5
_EULER_COST_GUARD = 2 * 10 ** 9     # elementwise work of the local factors
_LOG_FLOAT_MAX = 709.0              # below log(max float) = 709.78...
_A0_MAX_K = 100                     # recursion depth of _comp_count
# k (V + 1)^2 bounds the terms _comp_count sums for one check; 2.5e6 takes
# about 0.5 s (k = 100, V = 157) on a 2-core x86 machine.  One check
# memoises at most k (V + 1) <= sqrt(guard * k) pairs (v, k), and the memo
# holds them all, since a memo that evicts recomputes without bound.
_A0_COST_GUARD = 2_500_000
_A0_MEMO = math.isqrt(_A0_COST_GUARD * _A0_MAX_K)
_ZETA_HEAD = 16                     # terms _zeta sums before Euler-Maclaurin


@dataclass(frozen=True)
class SeriesPoint:
    """Evaluation point (s_1, ..., s_k); all real parts must exceed 1."""

    s: tuple[complex, ...]

    def __post_init__(self):
        if not self.s:
            raise DomainError("need at least one coordinate")
        if not all(cmath.isfinite(c) for c in self.s):
            raise DomainError("coordinates must be finite")
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
    using 1/tau <= 1.  The value is ``tau_box_sum`` over the axes
    n^(-s_j): ``_inv_power`` for the outer ones, ``_axis_powers`` last.
    """
    pt = direct_point(s, k, n_max)
    real_point = all(c.imag == 0.0 for c in pt.s)
    axes = [[_inv_power(n, sj, real_point) for n in range(1, n_max + 1)]
            for sj in pt.s[:-1]]
    axes.append(_axis_powers(pt.s[-1], n_max, real_point))
    value = tau_box_sum(axes, sieve)

    tail = 0.0
    for j, sig_j in enumerate(pt.sigmas):
        other = 1.0
        for i, sig_i in enumerate(pt.sigmas):
            if i != j:
                other *= _zeta(sig_i)
        tail += other * _zeta(sig_j, n_max + 1)
    return value, tail


def _zeta(s: float, q: float = 1.0) -> float:
    """Hurwitz zeta sum_{n >= 0} (n + q)^-s for real s > 1 and q >= 1.

    Euler-Maclaurin: the first 16 terms by ``math.fsum``, then, at
    a = q + 16, the integral a^(1-s) / (s - 1), the half term a^-s / 2 and
    the ten Bernoulli corrections B_2j / (2j)! (s)_(2j-1) a^(1-s-2j).
    """
    head = math.fsum((q + n) ** -s for n in range(_ZETA_HEAD))
    a = q + _ZETA_HEAD
    rising = s * a ** (-s - 1)              # (s)_1 a^(-s-1)
    rest = [a ** (1.0 - s) / (s - 1.0), 0.5 * a ** -s]
    for j, b2j in enumerate(BERNOULLI, 1):
        rest.append(b2j / math.factorial(2 * j) * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j) / (a * a)
    return head + math.fsum(rest)


def _inv_power(n: int, s: complex, real_point: bool):
    if real_point:
        return n ** -s.real
    return cmath.exp(-s * math.log(n))


def _axis_powers(s: complex, n_max: int, real_point: bool) -> np.ndarray:
    n = np.arange(1, n_max + 1, dtype=np.float64)
    if real_point:
        return n ** -s.real
    return np.exp(-s * np.log(n))


# ------------------------------------------------ the tau-weighted box sum

_BLOCK_CELLS = 1 << 18      # most cells of a block; about 26 B each at peak
_SUM_CELLS = 1 << 16        # most cells summed at once: 512 KB stay in cache


def tau_box_sum(axes, sieve: SpfSieve) -> complex:
    """Sum of a_1(n_1) ... a_k(n_k) / tau_k(n_1 ... n_k) over the box
    n_j <= ``len(axes[j])``, where ``axes[j][i]`` is a_j(i + 1).

    The value is the fsum over the rows (n_1, ..., n_{k-1}) of each
    row's fsum over n_k of (c * a_k(n_k)) / tau_k, with
    c = 1.0 * a_1(n_1) * ... * a_{k-1}(n_{k-1}) left to right, real and
    imaginary parts apart.  Exact rounding frees it from the row order:
    it is, bit for bit, a plain loop with the same bracket.  c is a
    product of Python scalars (an object array), as in that loop: numpy
    multiplies complex numbers apart from Python in the last bits, in
    about half of all products.  c * a_k is numpy's, so a complex sum
    may differ from the loop's in its last bits; a real one cannot.

    The rows, in lexicographic order, go in blocks of at most
    ``_BLOCK_CELLS`` cells (or one row).  ``_tau_grid`` gives a block's
    tau_k, and ``_row_sums`` sums its rows at once, with a certificate
    that makes each sum fsum's correctly rounded one; rows it cannot
    certify go to fsum itself.  A box of one axis gets a leading axis
    [1.0]; tau_k keeps the caller's k.
    """
    k = len(axes)
    axes = [[1.0]] * (2 - k) + list(axes)
    sizes = [len(ax) for ax in axes]
    if max(sizes) > sieve.limit:
        raise DomainError("sieve does not cover the box")
    outer = [np.asarray(ax).astype(object) for ax in axes[:-1]]
    last = np.asarray(axes[-1])
    comb = _comb_weights(k, sum(n.bit_length() for n in sizes) + 1)
    _, exponent, cofactor = least_prime_powers(sieve, max(sizes))
    tau_b = multiplicative_table(comb[exponent], cofactor)[1:sizes[-1] + 1]
    n_rows, step = math.prod(sizes[:-1]), max(1, _BLOCK_CELLS // sizes[-1])
    re_rows, im_rows = array("d"), array("d")      # 8 B per row sum
    for lo in range(0, n_rows, step):
        ns = np.unravel_index(np.arange(lo, min(lo + step, n_rows)),
                              sizes[:-1])
        c = 1.0
        for ax, i in zip(outer, ns):
            c = c * ax[i]
        terms = np.multiply.outer(np.array(c.tolist()), last)
        terms /= _tau_grid([i + 1 for i in ns], tau_b, comb, sieve.spf,
                           exponent, cofactor)
        re_rows.extend(_row_sums(terms.real))
        if np.iscomplexobj(terms):
            im_rows.extend(_row_sums(terms.imag))
    return complex(math.fsum(re_rows), math.fsum(im_rows) if im_rows else 0.0)


def _tau_grid(ns, tau_b, comb, spf, exponent, cofactor) -> np.ndarray:
    """tau_k(u b) for the rows u = n_1 ... n_{k-1}, where ``ns[j]`` holds
    the n_j of every row, by the columns b = 1..len(tau_b), from
    tau_b[b - 1] = tau_k(b), comb[v] = C(v + k - 1, k - 1), the sieve's
    ``spf`` and the exponents and cofactors of ``least_prime_powers``.

    Each n_j splits into its least prime powers, giving (row, p, v)
    triples; summed per (p, row) they are the v_p(u) > 0.  The grid
    starts as tau_k(u) tau_k(b).  At every prime p <= len(tau_b) that
    divides some u, the cells of those rows at the columns p | b swap
    comb[v_p(u)] comb[v_p(b)] for comb[v_p(u b)].  The cells are integers
    below 2^53 (``ResourceError`` once tau_k(u) tau_k(b) may reach it)
    that only shrink, so every float division and product is exact.
    """
    m = len(ns[0])
    triples = []
    for n in ns:
        row = np.arange(m)
        while len(n):
            live = n > 1
            row, n = row[live], n[live]
            triples.append((row, spf[n], exponent[n]))
            n = cofactor[n]
    rows, ps, vs = map(np.concatenate, zip(*triples))
    key, inv = np.unique(ps.astype(np.int64) * m + rows, return_inverse=True)
    v = np.bincount(inv, weights=vs).astype(np.int64)
    p, row = np.divmod(key, m)          # by prime, then by row
    tau_u = np.ones(m)
    np.multiply.at(tau_u, row, comb[v])
    if tau_u.max() * tau_b.max() >= 2.0 ** 53:
        raise ResourceError("tau_k products exceed the exact float range")
    grid = np.multiply.outer(tau_u, tau_b)
    cut = np.searchsorted(p, len(tau_b), "right")    # the p <= len(tau_b)
    primes, first = np.unique(p[:cut], return_index=True)
    for q, lo, hi in zip(primes.tolist(), first.tolist(),
                         first[1:].tolist() + [cut]):
        hot, v_u = row[lo:hi], v[lo:hi]
        v_b = 1 + _vp(q, len(tau_b) // q)
        cells = grid[hot, q - 1::q]
        cells /= np.multiply.outer(comb[v_u], comb[v_b])
        cells *= comb[np.add.outer(v_u, v_b)]
        grid[hot, q - 1::q] = cells
    return grid


def _row_sums(rows: np.ndarray) -> list[float]:
    """``math.fsum`` of every row of the 2-D float array, bit for bit,
    from ``_certified_sums`` on at most ``_SUM_CELLS`` cells at a time."""
    step = max(1, _SUM_CELLS // rows.shape[1])
    out: list[float] = []
    for lo in range(0, len(rows), step):
        out += _certified_sums(rows[lo:lo + step])
    return out


def _certified_sums(rows: np.ndarray) -> list[float]:
    """Each row's correctly rounded sum, as ``math.fsum`` returns it.

    Take a row x_1..x_n with max |x_i| < 2^e, and sigma = 2^(e + M) with
    2^M > 2n.  Then q_i = fl(sigma + x_i) - sigma is exact and a multiple
    of 2^-53 sigma, and r_i = x_i - q_i is the exact rounding error of
    sigma + x_i, |r_i| <= 2^-53 sigma (ExtractVector of Rump, Ogita and
    Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31, 2008).  Every partial sum of the q_i is a
    multiple of 2^-53 sigma below sigma, so hi = fl(sum q_i) is exact in
    any order.  E = fl(sum r_i) lies within gamma_(n-1) sum |r_i|
    < 1.01 n^2 2^-106 sigma of sum r_i (Higham, Accuracy and Stability,
    2nd ed., section 4.2), and B = n^2 2^-105 sigma, at least 2^-1074,
    bounds that.  So with (res, t) = TwoSum(hi, E) the row sums to within
    B of res + t, and res is its correctly rounded value once
    [res + t - B, res + t + B] lies strictly inside res's rounding
    interval: half the gap to each neighbour of res.

    fl(t +- B) rounds monotonically, and t +- B is a multiple of 2^-1074,
    so comparing 2 fl(t +- B) with the gaps is as strict as the exact test.
    The rows that fail it go to ``math.fsum``, and they include the rows
    that need fsum's own handling.  fsum can overflow part way only where
    sum |x_i| nears 2^1023, and then sigma > 2 sum |x_i| is inf; that row,
    and a row with an inf or a nan, gets a nan res.  If |res| < 2^-1021, 0
    included, the gaps are 2^-1074 <= B; fsum chooses a zero's sign.  A
    row of +0.0 alone needs no choice: its res is +0.0, as fsum's sum is.
    """
    n = rows.shape[1]
    peak = np.abs(rows).max(axis=1)
    zero = peak == 0.0
    zero[zero] = ~np.signbit(rows[zero]).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.ldexp(1.0, np.frexp(peak)[1] + n.bit_length() + 1)
        q = rows + sigma[:, None]
        q -= sigma[:, None]
        hi = q.sum(axis=1)
        total = np.subtract(rows, q, out=q).sum(axis=1)
        bound = np.maximum(sigma * (n * n * 2.0 ** -105), 5e-324)
        res = hi + total
        back = res - hi
        t = (hi - (res - back)) + (total - back)
        ok = ((2.0 * (t + bound) < np.nextafter(res, np.inf) - res)
              & (2.0 * (t - bound) > np.nextafter(res, -np.inf) - res)) | zero
    out = res.tolist()
    for i in np.flatnonzero(~ok).tolist():
        # memoryview hands fsum one float at a time: no row list
        out[i] = math.fsum(memoryview(rows[i]))
    return out


def _vp(p: int, n: int) -> np.ndarray:
    """v_p(j) for j = 1..n."""
    v = np.zeros(n, dtype=np.int64)
    q = p
    while q <= n:
        v[q - 1::q] += 1
        q *= p
    return v


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
    # the local factors' convolutions: about k (v_max + 1)^2 per prime
    work = _prime_count_bound(prime_max) * k * (v_max + 1) ** 2
    if work + k * v_max + 1 > _EULER_COST_GUARD:
        raise ResourceError("pi(p_max) k (v_max + 1)^2 exceeds the "
                            "Euler-product cost guard")
    top = k * v_max + k - 1             # the largest weight is C(top, k - 1)
    if math.lgamma(top + 1) - math.lgamma(k) - math.lgamma(top - k + 2) \
            > _LOG_FLOAT_MAX:
        raise ResourceError("C(k v_max + k - 1, k - 1) exceeds the float "
                            "range")

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
        over = 1.1 * sum(_zeta(sig, prime_max + 1) for sig in pt.sigmas)
    else:
        over = sum(-math.log1p(-2.0 ** -sig) * 2 for sig in pt.sigmas) \
            + 1.1 * sum(_zeta(sig, 5) for sig in pt.sigmas)
    # exponents > v_max anywhere, relative to local >= 1 (real s);
    # Hurwitz from 2 so only n >= 2 terms majorize the prime sum
    b = (1.0 - 2.0 ** -sig_min) ** -(k + 1)
    vtail = k * b * _zeta((v_max + 1) * sig_min, 2)
    tail = abs(value) * math.expm1(over + vtail)
    return value, tail


def _prime_count_bound(x: int) -> float:
    """At least max(pi(x), 1): pi(x) < 1.25506 x / log x for x > 1
    (Rosser and Schoenfeld 1962)."""
    return 1.25506 * x / math.log(x) if x > 1 else 1.0


@lru_cache(maxsize=_A0_MEMO)
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
    if p < 2 or smallest_prime_factor(p) != p:
        raise DomainError("p must be prime")
    if k < 1 or v_max < 1:
        raise DomainError("need k >= 1 and V >= 1")
    if k > _A0_MAX_K:
        raise ResourceError(f"k must be at most {_A0_MAX_K} for the "
                            "composition recursion")
    if k * (v_max + 1) ** 2 > _A0_COST_GUARD:
        raise ResourceError("k (V + 1)^2 exceeds the 2.5e6 composition "
                            "recursion guard")
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
    if not cmath.isfinite(s):
        raise DomainError("s must be finite")
    if s.real <= 1.0:
        raise DomainError("Re s must exceed 1")
    if not 0 <= j < model.k:
        raise DomainError("coordinate out of range")
    alpha_j = float(model.alpha_exact[j])
    unit = tuple(1 if i == j else 0 for i in range(model.k))
    re_parts: list[float] = []
    im_parts: list[float] = []
    for p in primes_up_to(prime_max):
        f = model.f_local(p, 1)
        total = sum(model.g_local(p, c) for c in compositions(1, model.k))
        fj = float(Fraction(f) * Fraction(model.g_local(p, unit))
                   / Fraction(total)) if total > 0 and f != 0 else 0.0
        term = (fj - alpha_j) * cmath.exp(-s * math.log(p))
        re_parts.append(term.real)
        im_parts.append(term.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts))
