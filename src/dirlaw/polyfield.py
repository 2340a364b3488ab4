"""Monic polynomials over prime fields F_q: arithmetic, an irreducible
sieve, factorization, k-part divisor counts, and exact evaluation of the
mean rectangle statistic over all monic polynomials of a given degree
from the irreducible counts I_q(d) alone.

Polynomials are carried two ways: a PolyQ coefficient tuple for the
public arithmetic ops, and a base-q integer code (coefficient i at digit
q^i) for the irreducible sieve.  A monic polynomial of degree d has code in
[q^d, 2*q^d).  Code order within a degree is the lexicographic order of
the coefficient vector read from the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import compositions, smallest_prime_factor
from .dirichlet import cdf
from .errors import DomainError, IntegrityError, ResourceError
from .perms import CycleType, cycle_types
from .report import (DeviationReport, deviation_report, rect_fractions,
                     rect_grid)

_MAX_Q = 13
_TABLE_GUARD = 10 ** 8
_ENUM_GUARD = 10 ** 7
_CELL_GUARD = 10 ** 7
# tensor-cell operations of one _profile_tensors call (_tensor_work).  On
# a 2-core x86 machine, q = 2: n = 16, k = 4 (2.1e8) takes 0.7 s, n = 2,
# k = 14 (2.7e8) 0.5 s and n = 1, k = 24 (2.2e8) peaks at 184 MB RSS; the
# refused n = 9, k = 7 (2.7e10) took 49 s and 325 MB.
_WORK_GUARD = 3 * 10 ** 8


@dataclass(frozen=True)
class PolyQ:
    """Coefficients lowest-degree first; () is the zero polynomial."""

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2 or smallest_prime_factor(self.q) != self.q:
            raise DomainError("q must be a prime")
        if any(c < 0 or c >= self.q for c in self.coeffs):
            raise DomainError("coefficients must lie in [0, q)")
        if self.coeffs and self.coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def code(self) -> int:
        c = 0
        for a in reversed(self.coeffs):
            c = c * self.q + a
        return c


def poly_from_code(q: int, code: int) -> PolyQ:
    if code < 0:
        raise DomainError("polynomial code must be nonnegative")
    coeffs = []
    while code:
        coeffs.append(code % q)
        code //= q
    return PolyQ(q, tuple(coeffs))


@dataclass(frozen=True)
class FactoredPoly:
    """factors are (irreducible, exponent), ordered by (degree, code)."""

    poly: PolyQ
    factors: tuple[tuple[PolyQ, int], ...]


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


def _check_q(q: int):
    """The field size every table and enumeration accepts."""
    if q > _MAX_Q:
        raise ResourceError(f"q must be at most {_MAX_Q}")
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


# ---------------------------------------------------------- arithmetic

def poly_mul(a: PolyQ, b: PolyQ) -> PolyQ:
    if a.q != b.q:
        raise DomainError("operands must share the field")
    if not a.coeffs or not b.coeffs:
        return PolyQ(a.q, ())
    q = a.q
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] = (out[i + j] + ca * cb) % q
    return PolyQ(q, tuple(out))


def poly_divrem(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ]:
    if a.q != b.q:
        raise DomainError("operands must share the field")
    if not b.coeffs:
        raise DomainError("division by the zero polynomial")
    q = a.q
    rem = list(a.coeffs)
    db = b.degree
    inv_lead = pow(b.coeffs[-1], q - 2, q)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = (c * inv_lead) % q
        quot[i - db] = factor
        for j, cb in enumerate(b.coeffs):
            rem[i - db + j] = (rem[i - db + j] - factor * cb) % q
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return PolyQ(q, tuple(quot)), PolyQ(q, tuple(rem))


# ------------------------------------------------------ irreducible sieve

def build_irreducibles(q: int, max_deg: int) -> IrreducibleTable:
    """Irreducibles of degree <= max_deg by an Eratosthenes-style sieve.

    Composite monic codes are exactly the products P*G with P irreducible
    of degree <= deg/2; the sieve marks those ascending by P.
    """
    _check_q(q)
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
            pd = poly_from_code(q, pc).coeffs
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


def factor_poly(f: PolyQ, table: IrreducibleTable) -> FactoredPoly:
    """Factor a monic polynomial by trial division in (degree, code)
    order; the table need only cover degree <= deg(f)/2 since the last
    cofactor is then irreducible."""
    if not f.is_monic:
        raise DomainError("only monic polynomials are factored")
    if f.q != table.q:
        raise DomainError("table field does not match the polynomial")
    if table.max_deg < f.degree // 2:
        raise DomainError("table must cover degree deg(f)/2")
    facs: list[tuple[PolyQ, int]] = []
    rest = f
    for d in range(1, f.degree // 2 + 1):
        if d > table.max_deg or rest.degree < 2 * d:
            break
        for code in table.by_degree[d - 1]:
            if rest.degree < 2 * d:
                break
            p = poly_from_code(table.q, code)
            e = 0
            while True:
                quot, rem = poly_divrem(rest, p)
                if rem.coeffs:
                    break
                rest = quot
                e += 1
            if e:
                facs.append((p, e))
    if rest.degree >= 1:
        facs.append((rest, 1))   # irreducible by the half-degree rule
    facs.sort(key=lambda pe: (pe[0].degree, pe[0].code))
    return FactoredPoly(f, tuple(facs))


# ------------------------------------------------------ mean statistics

@lru_cache(maxsize=64)
def _cycle_types(m: int) -> tuple[CycleType, ...]:
    """The partitions of m, built once for every count and tensor."""
    return tuple(cycle_types(m))


@lru_cache(maxsize=4096)
def _shifts(d: int, e: int, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The compositions of e into k parts whose first k - 1 divisor
    degrees d * comp[i] stay within n."""
    return tuple(comp for comp in compositions(e, k)
                 if all(comp[i] * d <= n for i in range(k - 1)))


def _spread(tensor: np.ndarray, d: int, e: int, n: int, k: int)\
        -> np.ndarray:
    """The divisor-degree tensor after one more factor P^e, deg P = d.

    Each composition of e into k parts hands d * comp[i] degrees to the
    i-th divisor, shifting axis i < k - 1; the k-th divisor takes the
    rest.
    """
    out = np.zeros_like(tensor)
    for comp in _shifts(d, e, n, k):
        idx = tuple(slice(0, n + 1 - comp[i] * d) for i in range(k - 1))
        dst = tuple(slice(comp[i] * d, n + 1) for i in range(k - 1))
        out[dst] += tensor[idx]
    return out


def exact_lhs_poly(q: int, n: int, k: int, rect, table: IrreducibleTable)\
        -> Fraction:
    """Mean over all monic F of degree n of the fraction of ordered
    k-tuples (D_1, ..., D_k) with product F and deg D_i <= floor(n*u_i)
    for i < k.  Exact rational."""
    caps = [math.floor(n * c) for c in rect_fractions(rect, k)]
    return _box_mass(_box_table(_profile_tensors(q, n, k, table)),
                     caps) / q ** n


def _box_table(tensors) -> tuple[int, list]:
    """Summed-area tables of the tau tensors, read by ``_box_mass``.

    Returns L = lcm(tau) and, per tau, the pair (L / tau, cumulative
    sums of its tensor along every axis, taken in place).  Each entry is
    at most that tensor's total, so int64 holds it; one tensor of all
    tau weighted by L / tau would not (68 bits at q = 2, n = 20, k = 2).
    """
    lcm = math.lcm(*tensors)
    out = []
    for tau, tensor in tensors.items():
        for axis in range(tensor.ndim):
            np.cumsum(tensor, axis=axis, out=tensor)
        out.append((lcm // tau, tensor))
    return lcm, out


def _box_mass(box_table, caps) -> Fraction:
    """Sum over tau of (tuples with deg D_i <= caps[i]) / tau, exactly:
    one summed-area entry per tau, in Python integers."""
    lcm, cums = box_table
    corner = tuple(caps)
    return Fraction(sum(w * int(cum[corner]) for w, cum in cums), lcm)


def check_enumeration(q: int, n: int, k: int):
    """The table-free domain and cost checks of ``_profile_tensors``."""
    _check_q(q)
    if n < 1 or k < 2:
        raise DomainError("need n >= 1 and k >= 2")
    # both bases are >= 2 and 2^24 > 1e7, so capping the exponents at 24
    # keeps each verdict but not the cost of a huge power
    if q ** min(n, 24) > _ENUM_GUARD:
        raise ResourceError("q^n exceeds the enumeration guard")
    if (n + 1) ** min(k - 1, 24) > _CELL_GUARD:
        raise ResourceError("(n + 1)^(k - 1) tensor cells exceed the 1e7 "
                            "guard")
    if _tensor_work(q, n, k) > _WORK_GUARD:
        raise ResourceError("tensor-cell operations exceed the 3e8 work "
                            "guard")


def _tensor_work(q: int, n: int, k: int) -> int:
    """Tensor-cell operations of ``_profile_tensors``, counted without a
    tensor: each factor P^e makes a new tensor and one shifted add per
    kept composition, each leaf one scaled add.  A subtree's count
    depends on (d, rest) alone, so each is counted once."""
    irr = [0] + [irreducible_count(q, d) for d in range(1, n + 1)]

    @lru_cache(maxsize=None)
    def rec(d: int, rest: int) -> int:
        if rest == 0:
            return 1
        if d > rest:
            return 0
        total = 0
        for m in range(rest // d + 1):
            for ct in _cycle_types(m):
                if math.perm(irr[d], ct.cycle_count):
                    total += rec(d + 1, rest - m * d) + sum(
                        mult * (1 + len(_shifts(d, e, n, k)))
                        for e, mult in ct.partition)
        return total

    return rec(1, n) * (n + 1) ** (k - 1)


def _profile_tensors(q: int, n: int, k: int, table: IrreducibleTable):
    """tau -> summed divisor-degree tensor over all monic F of degree n.

    Entry [j_1, ..., j_(k-1)] counts pairs of F and an ordered tuple of
    monic divisors (D_1, ..., D_k) with product F and deg D_i = j_i.
    Only the (degree, exponent) pairs of F matter, so no polynomial is
    enumerated: a recursion over d = 1..n takes the exponents of the
    distinct degree-d factors as a partition of m, placed on the I_q(d)
    irreducibles in perm(I_q(d), s) / prod(mult!) ways.
    """
    check_enumeration(q, n, k)
    if table.q != q or table.max_deg < max(n // 2, 1):
        raise DomainError("table must cover the field up to degree n/2")
    irr = [0] + [irreducible_count(q, d) for d in range(1, n + 1)]
    out: dict[int, np.ndarray] = {}

    def rec(d: int, rest: int, count: int, tau: int, tensor: np.ndarray):
        if rest == 0:
            if tau in out:
                out[tau] += count * tensor
            else:
                out[tau] = count * tensor
            return
        if d > rest:
            return
        for m in range(rest // d + 1):
            for ct in _cycle_types(m):
                ways = math.perm(irr[d], ct.cycle_count)
                if not ways:
                    continue
                t, grown = tau, tensor
                for e, mult in ct.partition:
                    ways //= math.factorial(mult)
                    t *= math.comb(e + k - 1, k - 1) ** mult
                    for _ in range(mult):
                        grown = _spread(grown, d, e, n, k)
                rec(d + 1, rest - m * d, count * ways, t, grown)

    start = np.zeros((n + 1,) * (k - 1), dtype=np.int64)
    start[(0,) * (k - 1)] = 1
    rec(1, n, 1, 1, start)
    return out


def deviation_poly(q: int, n: int, k: int, grid_step,
                   table: IrreducibleTable) -> DeviationReport:
    """Grid sup of |exact mean - Dir(1/k, ..., 1/k) CDF|.

    One summed-area table (``_box_table``) serves every grid point, so
    a corner costs one integer read per tau and one Fraction; the rate
    normalization is n^(1/k), matching the expected decay of the
    deviation.
    """
    step = Fraction(grid_step)
    box_table = _box_table(_profile_tensors(q, n, k, table))
    points = rect_grid(k, step)
    alpha = tuple(1.0 / k for _ in range(k))
    return deviation_report(
        "polys", n, k, f"q{q}-uniform", step, points,
        [float(_box_mass(box_table, [math.floor(n * c) for c in u])
               / q ** n) for u in points],
        [cdf(alpha, tuple(float(c) for c in u), 1e-9) for u in points],
        n ** (1.0 / k))
