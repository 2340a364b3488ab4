"""Monic polynomials over prime fields F_q: an irreducible sieve
(q <= 13), and the mean rectangle statistic over all monic polynomials of
a given degree for any prime q, from the counts I_q(d) alone: their Euler
product at roots of unity, exactly or in floats.

The sieve carries a polynomial as a base-q integer code (coefficient i at
digit q^i).  A monic polynomial of degree d has code in [q^d, 2*q^d).
Code order within a degree is the lexicographic order of the coefficient
vector read from the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import Floats, Residues, smallest_prime_factor, word_primes
# cdf is unused: perfbench/tracer.py wraps it (test_tracer.py)
from .dirichlet import cdf  # noqa: F401
from .errors import DomainError, IntegrityError, ResourceError
# rect_grid is unused: perfbench/tracer.py wraps it (test_tracer.py)
from .report import rect_grid  # noqa: F401
from .report import DeviationReport, grid_report, rect_caps

_MAX_Q = 13            # the irreducible sieve's int16 digit sums need it
_TABLE_GUARD = 10 ** 8
# The work of one _corner_table call: (n + 1)^k series cells times its
# residue rings (1 in floats), swept n times by the log and exp recurrences
# and about 8k times by the h_e build, the DFT and the running sums.  The
# slowest at the edge of the guard (2 cores, q in {2, 10007}, every k):
# floats n = 50, k = 4 in 2.1-3.3 s and 355 MB peak RSS, and n = 23, k = 5
# in 1.5-2.2 s and 411 MB; residues q = 2, n = 15, k = 5 (10 rings) in
# 2.0-2.6 s and 286 MB.
_WORK_GUARD = 6 * 10 ** 8
# Most cells of one gather of the H step.  Gathering every e of a degree d
# at once would hold a copy of the whole series at d = 1 (+150 to 200 MB
# at the corners above); slabs of 2^19 cells add about 10 MB there.
_GATHER_CELLS = 1 << 19


@dataclass(frozen=True)
class IrreducibleTable:
    """Irreducible monic codes per degree 1..max_deg.

    Counts are validated against the necklace formula at build time, so
    a table loaded from elsewhere can be revalidated with ``validate``.
    """

    q: int
    max_deg: int
    by_degree: tuple[tuple[int, ...], ...]

    def validate(self):
        if len(self.by_degree) != self.max_deg:
            raise IntegrityError("table must hold degrees 1..max_deg")
        for d, codes in enumerate(self.by_degree, start=1):
            want = irreducible_count(self.q, d)
            if len(codes) != want:
                raise IntegrityError(
                    f"degree {d} irreducible count {len(codes)} != {want}")
            if list(codes) != sorted(codes):
                raise IntegrityError("codes must be sorted within degree")
            lo = self.q ** d
            if codes and (codes[0] < lo or codes[-1] >= 2 * lo):
                raise IntegrityError(
                    f"degree {d} holds a code outside the monic range")
        return self


def _check_prime(q: int):
    if q < 2 or smallest_prime_factor(q) != q:
        raise DomainError("q must be a prime")


def _mobius(n: int) -> int:
    out = 1
    while n > 1:
        p = smallest_prime_factor(n)
        n //= p
        if n % p == 0:
            return 0
        out = -out
    return out


def irreducible_count(q: int, d: int) -> int:
    """Monic irreducibles of degree d: (1/d) sum_{e|d} mu(e) q^(d/e)."""
    total = sum(_mobius(e) * q ** (d // e)
                for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise IntegrityError("necklace count is not an integer")
    return total // d


# ------------------------------------------------------ irreducible sieve

def build_irreducibles(q: int, max_deg: int) -> IrreducibleTable:
    """Irreducibles of degree <= max_deg by an Eratosthenes-style sieve.

    Composite monic codes are exactly the products P*G with P irreducible
    of degree <= deg/2; the sieve marks those ascending by P.
    """
    if q > _MAX_Q:
        raise ResourceError(f"q must be at most {_MAX_Q}")
    _check_prime(q)
    if max_deg < 1 or q ** max_deg > _TABLE_GUARD:
        raise ResourceError("q^max_deg exceeds the table guard")
    sif = _factor_sieve(q, max_deg)
    by_degree = []
    for d in range(1, max_deg + 1):
        lo = q ** d
        by_degree.append(tuple(
            (np.flatnonzero(sif[lo:2 * lo] == 0) + lo).tolist()))
    return IrreducibleTable(q, max_deg, tuple(by_degree)).validate()


def _factor_sieve(q: int, max_deg: int) -> np.ndarray:
    """sif over all monic codes of degree <= max_deg: the code of the
    smallest irreducible factor of c in (degree, code) order, 0 if c is
    irreducible or trivial.

    Digit j of P*G, over all monic G of degree dg at once, is the sum of
    P_i * G_(j-i) mod q; digit m < dg of G runs through 0..q-1 in blocks
    of q^m codes, so it is a broadcast over a (-1, q, q^m) view.
    """
    sif = np.zeros(2 * q ** max_deg, dtype=np.int64)
    # digit sums stay below (max_deg/2 + 1)(q - 1)^2 <= 576 under the guards
    digits = np.arange(q, dtype=np.int16)[:, None]
    for dp in range(1, max_deg // 2 + 1):
        lo = q ** dp
        for pc in (np.flatnonzero(sif[lo:2 * lo] == 0) + lo).tolist():
            pd = [pc // q ** i % q for i in range(dp + 1)]
            for dg in range(dp, max_deg - dp + 1):
                prod = np.zeros(q ** dg, dtype=np.int64)
                for j in range(dp + dg, -1, -1):
                    s = np.zeros(q ** dg, dtype=np.int16)
                    for i, c in enumerate(pd):
                        if c and j - i == dg:      # G is monic
                            s += c
                        elif c and 0 <= j - i < dg:
                            s.reshape(-1, q, q ** (j - i))[...] += c * digits
                    prod = prod * q + s % q
                sif[prod[sif[prod] == 0]] = pc
    return sif


# ------------------------------------------------------ mean statistics
#
# The statistic sees F only through the degrees and exponents of its
# irreducible factors, and 1/tau_k is multiplicative, so its generating
# function is an Euler product over the I_q(d) irreducibles of each
# degree d:
#
#   sum_F (w/q)^deg F / tau_k(F) sum_(D_1...D_k = F) prod_(i<k) y_i^deg D_i
#       = prod_d L(w^d / q^d; y^d)^I_q(d),
#   L(w; y) = sum_e w^e h_e(y_1, ..., y_(k-1), 1) / C(e + k - 1, k - 1),
#
# h_e the complete homogeneous polynomial.  No divisor degree exceeds n,
# so evaluating at the (n + 1)-th roots of unity loses nothing, and one
# inverse DFT of [w^n] recovers the divisor-degree tensor, in complex128
# (``arith.Floats``) or in the shared ``arith.Residues`` modulo primes
# p = 1 (mod n + 1), whose int64 sums of n + 1 < 2^11 terms stay exact.


def _omega(ring, m: int) -> np.ndarray:
    """The m-th roots of unity y runs over, one column per ring: exp(-2 pi
    i j / m), or the powers of a primitive m-th root modulo each prime."""
    if not isinstance(ring, Residues):
        return np.exp(-2j * np.pi * np.arange(m) / m)[:, None]
    columns = []
    for p in ring.primes:
        for g in range(2, p):
            w = pow(g, (p - 1) // m, p)
            powers = [pow(w, j, p) for j in range(m)]
            if powers.count(1) == 1:
                break
        else:
            raise IntegrityError(f"no primitive {m}-th root of unity mod {p}")
        columns.append(powers)
    return np.array(columns, dtype=np.int64).T


@lru_cache(maxsize=64)
def _crt_basis(q: int, n: int, k: int) -> tuple[int, tuple[int, ...]]:
    """D and the primes of the ``Residues`` of ``exact_lhs_poly``.

    D = q^n prod_(e<=n) C(e + k - 1, k - 1)^floor(n/e) is a multiple of
    every q^n tau_k(F), so D times a box mass is an integer in [0, D];
    the word primes = 1 (mod n + 1) have a product above D and skip q,
    the one prime above n + k that divides a denominator.
    """
    bound = q ** n
    for e in range(1, n + 1):
        bound *= math.comb(e + k - 1, k - 1) ** (n // e)
    return bound, word_primes(n + 1, bound, skip=q)


def _corner_table(q: int, n: int, k: int, ring) -> np.ndarray:
    """Summed-area table of the statistic in each ring of ``ring``.

    Entry [c_1, ..., c_(k-1), r] is the mean over monic F of degree n of
    the share of ordered k-tuples (D_1, ..., D_k) with product F and
    deg D_i <= c_i, in ring r (complex in ``Floats``, with an imaginary
    part of rounding size).  Every series is one (term, y_1, ...,
    y_(k-1), ring) array, all grid points at once; no check or guard is
    made here.
    """
    m = n + 1
    omega = _omega(ring, m)
    rings = omega.shape[1]
    # h_e(y_1, ..., y_(k-1), 1), one variable at a time, then L_e
    series = np.ones((m,) * k + (rings,), dtype=omega.dtype)
    for i in range(k - 1):
        y = omega.reshape((1,) * i + (m,) + (1,) * (k - 2 - i) + (rings,))
        for e in range(1, m):
            series[e] = ring.red(series[e] + y * series[e - 1])
    for e in range(1, m):
        series[e] = ring.red(
            series[e] * ring.frac(1, math.comb(e + k - 1, k - 1)))
    # s G_s for G = log L:  e G_e = e L_e - sum_(s<e) s G_s L_(e-s)
    sg = np.zeros_like(series)
    for e in range(1, m):
        sg[e] = ring.red(series[e] * ring.frac(e, 1)
                         - ring.red(np.einsum("s...,s...->...", sg[1:e],
                                              series[e - 1:0:-1])))
    # s H_s, H_t = sum_(de=t) I_q(d) q^(-t) G_e(y^d): y^d is the grid
    # point with every index times d, so G_e(y^d) is a gather: one flat
    # take on the raveled grid per slab of e <= n/d, added into t = d e
    sh = np.zeros_like(series)
    flat_sg, flat_sh = sg.reshape(m, -1, rings), sh.reshape(m, -1, rings)
    slab = max(1, _GATHER_CELLS // flat_sg[0].size)
    for d in range(1, m):
        power = np.ravel_multi_index(
            np.ix_(*[d * np.arange(m) % m] * (k - 1)), (m,) * (k - 1)).ravel()
        count = irreducible_count(q, d)
        for lo in range(1, n // d + 1, slab):
            e = range(lo, min(lo + slab, n // d + 1))
            scale = np.array([ring.frac(d * count, q ** (d * i)) for i in e])
            t = slice(d * e.start, d * e.stop, d)
            flat_sh[t] = ring.red(flat_sh[t] + ring.red(
                flat_sg[e.start:e.stop].take(power, axis=1)
                * scale[:, None]))
    del sg
    # P = exp H:  t P_t = sum_(s<=t) s H_s P_(t-s)
    series[0] = 1
    for t in range(1, m):
        series[t] = ring.red(ring.red(np.einsum(
            "s...,s...->...", sh[1:t + 1], series[t - 1::-1]))
            * ring.frac(1, t))
    # P_n(y) = sum_j T_j y^j, so T_j = (1/m) sum_a P_n(omega^a) omega^-aj:
    # one (a, j) matrix per axis, then the running sums along it
    j = np.arange(m)
    inverse = ring.red(omega[np.outer(j, -j) % m] * ring.frac(1, m))
    table = series[n]
    for axis in range(k - 1):
        table = np.moveaxis(ring.red(np.einsum(
            "...ar,ajr->...jr", np.moveaxis(table, axis, -2), inverse)),
            -2, axis)
        table = ring.red(np.cumsum(table, axis=axis))
    return table


@lru_cache(maxsize=2)
def _residue_table(q: int, n: int, k: int) -> np.ndarray:
    """``_corner_table`` in the residue rings of ``_crt_basis``, kept so
    that a grid of exact corners builds it once.  Under the work guard
    one table holds under 6e8 / (n + 1)^2 int64 cells, so few are kept."""
    return _corner_table(q, n, k, Residues(_crt_basis(q, n, k)[1]))


def check_statistic(q: int, n: int, k: int, exact: bool = False):
    """The domain and work checks of the statistic.  ``exact`` also
    counts the residue rings of ``exact_lhs_poly``, once the float count
    has bounded n, so a huge n builds no CRT basis."""
    _check_prime(q)
    if n < 1 or k < 2:
        raise DomainError("need n >= 1 and k >= 2")
    # n + 1 >= 2 and 2^30 > 6e8, so capping n and k keeps each verdict
    # but not the cost of a huge power
    n_, k_ = min(n, _WORK_GUARD), min(k, 30)
    work = (n_ + 8 * k_) * (n_ + 1) ** k_
    if work > _WORK_GUARD or exact and \
            work * len(_crt_basis(q, n, k)[1]) > _WORK_GUARD:
        raise ResourceError("(n + 8k)(n + 1)^k times residue rings exceeds "
                            "the 6e8 work guard")


def exact_lhs_poly(q: int, n: int, k: int, rect) -> Fraction:
    """Mean over all monic F of degree n of the fraction of ordered
    k-tuples (D_1, ..., D_k) with product F and deg D_i <= floor(n*u_i)
    for i < k.  Exact rational: one corner of ``_residue_table``,
    recombined by the Chinese remainder theorem."""
    caps = rect_caps(rect, k, n)
    check_statistic(q, n, k, exact=True)
    bound, primes = _crt_basis(q, n, k)
    return Residues(primes).fraction(_residue_table(q, n, k)[caps], bound)


def deviation_poly(q: int, n: int, k: int, grid_step) -> DeviationReport:
    """Grid sup of |mean - Dir(1/k, ..., 1/k) CDF| after ``check_statistic``,
    one complex128 ``_corner_table`` serving every grid point; the rate
    normalization n^(1/k) matches the expected decay of the deviation."""
    check_statistic(q, n, k)

    def statistic(points):
        corners = _corner_table(q, n, k, Floats())[..., 0].real
        return [float(corners[rect_caps(u, k, n)]) for u in points]

    return grid_report("polys", n, k, f"q{q}-uniform", (1.0 / k,) * k,
                       grid_step, n ** (1.0 / k), statistic)
