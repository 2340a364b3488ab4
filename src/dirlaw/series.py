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
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (SpfSieve, WeightModel, compositions, factorize,
                    least_prime_powers, multiplicative_table, primes_up_to,
                    smallest_prime_factor)
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

_BLOCK_CELLS = 1 << 20      # most cells of one prefix's block of rows
_STACK_CELLS = 1 << 18      # most cells of a block of stacked prefixes
_SUM_CELLS = 1 << 16        # most cells summed at once: 512 KB stay in cache


def tau_box_sum(axes, sieve: SpfSieve) -> complex:
    """Sum of a_1(n_1) ... a_k(n_k) / tau_k(n_1 ... n_k) over the box
    n_j <= ``len(axes[j])``, where ``axes[j][i]`` is a_j(i + 1).

    The value is the fsum over the outer tuples (n_1, ..., n_{k-1}) of
    each row's fsum over n_k of (c * a_k(n_k)) / tau_k, with
    c = 1.0 * a_1(n_1) * ... * a_{k-1}(n_{k-1}) left to right, real and
    imaginary parts apart.  Exact rounding frees it from the row order:
    it is, bit for bit, a plain loop with the same bracket.  The rows of
    a block are summed at once by ``_row_sums``, whose certificate makes
    each sum fsum's correctly rounded one; rows it cannot certify go to
    fsum itself.

    The rows a = n_{k-1} by the columns b = n_k form one prefix
    n_1 ... n_{k-2}.  Blocks of as many whole prefixes n_{k-2} as fit in
    ``_STACK_CELLS`` cells (at least one) stack into one (prefix, a, b)
    array, and only n_1 ... n_{k-3} loop in Python.  A prefix too big for
    ``_BLOCK_CELLS`` splits its rows into blocks of at most that many
    cells (or one row).  A box of fewer than three axes gets leading
    axes [1.0], so n_{k-2} always exists; tau_k keeps the caller's k.
    """
    k = len(axes)
    axes = [[1.0]] * (3 - k) + list(axes)
    sizes = [len(ax) for ax in axes]
    if max(sizes) > sieve.limit:
        raise DomainError("sieve does not cover the box")
    *outer, stack, mid = [np.asarray(ax).tolist() for ax in axes[:-1]]
    last = np.asarray(axes[-1])
    n_rows, n_cols = sizes[-2:]
    comb = _comb_weights(k, sum(n.bit_length() for n in sizes) + 1)
    _, exponent, cofactor = least_prime_powers(sieve, max(sizes))
    tau = multiplicative_table(comb[exponent], cofactor)
    primes = np.array(primes_up_to(max(sizes)), dtype=int)
    if n_rows * n_cols <= _BLOCK_CELLS:
        per, step = max(1, _STACK_CELLS // (n_rows * n_cols)), n_rows
    else:
        per, step = 1, max(1, _BLOCK_CELLS // n_cols)
    re_rows, im_rows = [], []
    for prefix in itertools.product(*(range(1, len(ax) + 1) for ax in outer)):
        c, exps = 1.0, {}
        for ax, n in zip(outer, prefix):
            c = c * ax[n - 1]
            for p, v in factorize(n, sieve).factors:
                exps[p] = exps.get(p, 0) + v
        tau_m = math.prod(comb[e] for e in exps.values())
        # per block of prefixes n_{k-2}: their c, their range and
        # tau_k(m n_{k-2})
        blocks = [([c * a for a in stack[lo - 1:hi - 1]], [(lo, hi)],
                   _tau_extend(tau_m, [], exps, lo, hi, tau, comb, primes))
                  for lo, hi in ((lo, min(lo + per, len(stack) + 1))
                                 for lo in range(1, len(stack) + 1, per))]
        for cs, ranges, tau_pre in blocks:
            for r_lo in range(1, n_rows + 1, step):
                r_hi = min(r_lo + step, n_rows + 1)
                left = _tau_extend(tau_pre, ranges, exps, r_lo, r_hi, tau,
                                   comb, primes)
                if left.max() * tau[1:n_cols + 1].max() >= 2.0 ** 53:
                    raise ResourceError(
                        "tau_k products exceed the exact float range")
                block = _tau_extend(left, ranges + [(r_lo, r_hi)], exps, 1,
                                    n_cols + 1, tau, comb, primes)
                coef = np.array([[ci * a for a in mid[r_lo - 1:r_hi - 1]]
                                 for ci in cs])
                terms = np.multiply.outer(coef, last).reshape(-1, n_cols)
                terms /= block.reshape(-1, n_cols)
                re_rows += _row_sums(terms.real)
                if np.iscomplexobj(terms):
                    im_rows += _row_sums(terms.imag)
    return complex(math.fsum(re_rows), math.fsum(im_rows) if im_rows else 0.0)


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
    included, the gaps are 2^-1074 <= B; fsum chooses a zero's sign.
    """
    n = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.ldexp(1.0, np.frexp(np.abs(rows).max(axis=1))[1]
                         + n.bit_length() + 1)
        q = rows + sigma[:, None]
        q -= sigma[:, None]
        hi = q.sum(axis=1)
        total = np.subtract(rows, q, out=q).sum(axis=1)
        bound = np.maximum(sigma * (n * n * 2.0 ** -105), 5e-324)
        res = hi + total
        back = res - hi
        t = (hi - (res - back)) + (total - back)
        ok = (2.0 * (t + bound) < np.nextafter(res, np.inf) - res) \
            & (2.0 * (t - bound) > np.nextafter(res, -np.inf) - res)
    out = res.tolist()
    for i in np.flatnonzero(~ok).tolist():
        # memoryview hands fsum one float at a time: no row list
        out[i] = math.fsum(memoryview(rows[i]))
    return out


def _vp(p: int, lo: int, hi: int) -> np.ndarray:
    """v_p(n) for n = lo..hi-1."""
    v = np.zeros(hi - lo, dtype=np.int64)
    q = p
    while q < hi:
        v[-lo % q::q] += 1
        q *= p
    return v


def _trade(cells: np.ndarray, comb: np.ndarray, v_x, v_y):
    """Swap comb[v_x[i]] comb[v_y[j]] for comb[v_x[i] + v_y[j]] in place."""
    cells /= np.multiply.outer(comb[v_x], comb[v_y])
    cells *= comb[np.add.outer(v_x, v_y)]


def _tau_extend(cells, ranges, exps: dict[int, int], lo: int, hi: int,
                tau, comb, primes: np.ndarray) -> np.ndarray:
    """tau_k(u c) on the grid of ``cells`` by c = lo..hi-1 (a new last
    axis), from cells = tau_k(u) at u = m c_1 ... c_d, where c_i runs
    over ``ranges[i]`` = (lo_i, hi_i) and ``exps`` holds the prime
    exponents of m.

    The grid starts as tau_k(u) tau_k(c).  At every prime p that divides
    some u and some c, the cells with p | c swap comb[v_p(u)]
    comb[v_p(c)] for comb[v_p(u c)]: all of them in one pass when p
    divides every u, else in one strided pass per axis i over the c_i
    divisible by p.  A pass puts v_p(u) = 0 on the cells that a later
    pass takes, an exact identity on cells not yet traded at p, so each
    cell trades once.  The cells are integers below 2^53 that only
    shrink, so every float division and product is exact.
    """
    out = np.multiply.outer(cells, tau[lo:hi])
    reach = max((b for _, b in ranges), default=0)
    shapes = [[-1 if j == i else 1 for j in range(len(ranges))]
              for i in range(len(ranges))]
    ones = [a for a, b in ranges if b - a == 1]       # axes of one value
    # the primes with a multiple among the c and along some axis
    near = primes[:np.searchsorted(primes, reach)]
    hit = np.zeros(len(near), dtype=bool)
    for a, b in ranges:
        hit |= (b - 1) // near * near >= a
    hit &= (hi - 1) // near * near >= lo
    for p in exps.keys() | set(near[hit].tolist()):
        hot_c = slice(-lo % p, None, p)
        if lo + hot_c.start >= hi:
            continue
        v_c = 1 + _vp(p, -(-lo // p), (hi - 1) // p + 1)
        # per axis with a multiple of p: its strided slice, and v_p along
        # it shaped to broadcast on the grid
        v = [((slice(None),) * i + (slice(-a % p, None, p),),
              _vp(p, a, b).reshape(shapes[i]))
             for i, (a, b) in enumerate(ranges) if a + -a % p < b]
        if p in exps or ones and any(a % p == 0 for a in ones):
            _trade(out[..., hot_c], comb,
                   exps.get(p, 0) + sum(w for _, w in v), v_c)
            continue                                     # p | every u
        for n, (hot, w) in enumerate(v):
            v_u = w[hot]                      # later axes: 0 where unmasked
            for _, x in v[:n]:
                v_u = v_u + x
            for _, x in v[n + 1:]:
                v_u = v_u * (x == 0)
            _trade(out[hot + (Ellipsis, hot_c)], comb, v_u, v_c)
    return out


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
