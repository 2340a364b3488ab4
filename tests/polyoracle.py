"""Scalar F_q[t] arithmetic, the test oracle of ``dirlaw.polyfield``.

A PolyQ holds its coefficients lowest degree first.  Its ``code`` is the
base-q integer of the irreducible sieve (coefficient i at digit q^i), so
the oracle can check the sieve's tables by trial division.
"""

from __future__ import annotations

from dataclasses import dataclass

from dirlaw import polyfield
from dirlaw.errors import DomainError
from dirlaw.polyfield import IrreducibleTable


@dataclass(frozen=True)
class PolyQ:
    """Coefficients lowest-degree first; () is the zero polynomial."""

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        polyfield._check_prime(self.q)
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
