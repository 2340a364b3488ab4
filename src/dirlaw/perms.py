"""Cycle statistics of uniform random permutations: Stirling numbers,
the k-block ordered set-decomposition statistic, and its convergence to
the Dirichlet(1/k, ..., 1/k) law.

The mean rectangle statistic admits two independent routes: a closed
binomial-product sum over block sizes, and a brute force over cycle
types.  They agree as exact rationals, which the test suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import Floats, Residues, rising_binoms, word_primes
# cdf is unused: perfbench/tracer.py wraps it (test_tracer.py)
from .dirichlet import cdf  # noqa: F401
from .dirichlet import cdf_many
from .errors import DomainError, IntegrityError
from .report import (DeviationReport, deviation_report, rect_fractions,
                     rect_grid)

_MAX_N = 5000
_MAX_K = 6
_BRUTE_MAX_N = 40
_EXACT_MAX_N = 300      # above this the binomial path runs in floats


@dataclass(frozen=True)
class CycleType:
    """Cycle lengths with multiplicities, ascending and distinct."""

    n: int
    partition: tuple[tuple[int, int], ...]

    def __post_init__(self):
        lens = [l for l, _ in self.partition]
        if lens != sorted(set(lens)):
            raise DomainError("cycle lengths must be distinct ascending")
        if any(l < 1 or c < 1 for l, c in self.partition):
            raise DomainError("lengths and multiplicities must be >= 1")
        if sum(l * c for l, c in self.partition) != self.n:
            raise DomainError("cycle lengths must sum to n")

    @property
    def cycle_count(self) -> int:
        return sum(c for _, c in self.partition)

    @property
    def class_size(self) -> int:
        """Permutations of S_n with this cycle type."""
        denom = 1
        for l, c in self.partition:
            denom *= l ** c * math.factorial(c)
        return math.factorial(self.n) // denom


def cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types of S_n (integer partitions of n)."""

    def parts(rest: int, biggest: int):
        if rest == 0:
            yield ()
            return
        for l in range(min(rest, biggest), 0, -1):
            for tail in parts(rest - l, l):
                yield (l,) + tail

    for p in parts(n, n):
        counts: dict[int, int] = {}
        for l in p:
            counts[l] = counts.get(l, 0) + 1
        yield CycleType(n, tuple(sorted(counts.items())))


@dataclass(frozen=True)
class StirlingTable:
    """rows[n][j] = number of permutations of n elements with j cycles."""

    max_n: int
    rows: tuple[tuple[int, ...], ...]


def build_stirling(max_n: int) -> StirlingTable:
    if max_n < 0:
        raise DomainError("max_n must be nonnegative")
    rows = [(1,)]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for j in range(1, n + 1):
            # [n, j] = (n-1)[n-1, j] + [n-1, j-1]
            row[j] = (n - 1) * (prev[j] if j <= n - 1 else 0) + prev[j - 1]
        rows.append(tuple(row))
    return StirlingTable(max_n, tuple(rows))


def stirling_first(n: int, j: int, table: StirlingTable) -> int:
    if not 0 <= j <= n <= table.max_n:
        raise DomainError("need 0 <= j <= n <= table.max_n")
    return table.rows[n][j]


def mean_tau_alpha(n: int, alpha, table: StirlingTable) -> Fraction:
    """Mean of alpha^(cycle count) over S_n, two ways.

    The rising-binomial value prod_{j<=n} (alpha+j-1)/j must equal the
    Stirling sum (1/n!) sum_j [n, j] alpha^j; a mismatch means a broken
    table and raises IntegrityError.  n = 0 gives 1.
    """
    a = Fraction(alpha)
    if a <= 0:
        raise DomainError("alpha must be positive")
    if n < 0 or n > table.max_n:
        raise DomainError("n out of table range")
    binom = rising_binoms(a, n)[n]
    stirl = sum(table.rows[n][j] * a ** j
                for j in range(n + 1)) / Fraction(math.factorial(n))
    if binom != stirl:
        raise IntegrityError("Stirling identity failed; table corrupt")
    return binom


# ------------------------------------------------------- mean statistic

def lhs_perm_exact(n: int, k: int, rect):
    """Mean over S_n of the fraction of ordered k-block invariant
    decompositions with |A_i| <= floor(n*u_i) for i < k.

    It is [z^n] B(z) prod_(i<k) B_(<=c_i)(z): B(z) = (1 - z)^(-1/k) has
    the block weights b[m] = C(m + 1/k - 1, m) as coefficients, B_(<=c)
    is B cut after z^c, and every k is one dot against the ``_tail``
    chain of truncated convolutions.  Exact Fraction for n <= 300, from
    residues recombined over D = k^n n!, since each term prod_i b[m_i]
    (sum_i m_i = n) has a denominator dividing D; double precision beyond
    (relative error well under 1e-9).
    """
    return _corner(n, k, _caps(n, k, rect), n <= _EXACT_MAX_N)


def _caps(n: int, k: int, rect) -> list[int]:
    if n < 0 or n > _MAX_N:
        raise DomainError(f"n must lie in [0, {_MAX_N}]")
    if not 2 <= k <= _MAX_K:
        raise DomainError(f"k must lie in [2, {_MAX_K}]")
    return [math.floor(n * c) for c in rect_fractions(rect, k)]


def _corner(n: int, k: int, caps: list[int], exact: bool):
    """The statistic at one corner: a float, or a Fraction over k^n n!."""
    binom, tail = _tail(n, k, (), exact), _tail(n, k, tuple(caps[1:]), exact)
    ring = _ring(n, k, exact)
    value = ring.red(np.array([np.dot(b[: caps[0] + 1], t[n - caps[0]:][::-1])
                               for b, t in zip(binom.T, tail.T)]))
    return ring.fraction(value, k ** n * math.factorial(n)) if exact \
        else float(value[0])


@lru_cache(maxsize=64)
def _ring(n: int, k: int, exact: bool):
    """One float64 column, or residues modulo word primes whose product
    exceeds k^n n!; the chain's int64 sums hold n + 1 <= 2^11 terms."""
    return Residues(word_primes(1, k ** n * math.factorial(n))) if exact \
        else Floats()


@lru_cache(maxsize=128)
def _tail(n: int, k: int, caps: tuple[int, ...], exact: bool) -> np.ndarray:
    """The first n + 1 coefficients of B(z) prod_i B_(<=caps[i])(z), one
    row per power of z, in the columns of ``_ring``: the block-size sums
    of the blocks after the first, the first len(caps) of them capped at
    ``caps``, or with no caps the block weights.  Each truncated
    convolution is one ``np.convolve`` per column."""
    ring = _ring(n, k, exact)
    if caps:
        binom, rest = _tail(n, k, (), exact), _tail(n, k, caps[1:], exact)
        return ring.red(np.stack(
            [np.convolve(b, t)[: n + 1]
             for b, t in zip(binom[: caps[0] + 1].T, rest.T)], axis=1))
    if not exact:
        return np.array(rising_binoms(1.0 / k, n))[:, None]
    return np.array([ring.frac(b.numerator, b.denominator)
                     for b in rising_binoms(Fraction(1, k), n)])


def lhs_perm_brute(n: int, k: int, rect) -> Fraction:
    """Same statistic by enumeration of cycle types.

    Counts, per type, the assignments of (labeled) cycles to k ordered
    blocks whose first k-1 block sizes respect the caps, via dynamic
    programming over partial size vectors, and weights each type by its
    ``class_size`` / (n! k^cycle_count); exact rationals throughout.
    """
    if n > _BRUTE_MAX_N:
        raise DomainError(f"brute force needs n <= {_BRUTE_MAX_N}")
    caps = _caps(n, k, rect)
    total = Fraction(0)
    for ct in cycle_types(n):
        states: dict[tuple[int, ...], int] = {(0,) * (k - 1): 1}
        for length, mult in ct.partition:
            for _ in range(mult):
                nxt: dict[tuple[int, ...], int] = {}
                for sizes, cnt in states.items():
                    nxt[sizes] = nxt.get(sizes, 0) + cnt    # k-th block
                    for i in range(k - 1):
                        if sizes[i] + length <= caps[i]:
                            grown = sizes[:i] + (sizes[i] + length,) \
                                + sizes[i + 1:]
                            nxt[grown] = nxt.get(grown, 0) + cnt
                states = nxt
        total += Fraction(sum(states.values()) * ct.class_size,
                          k ** ct.cycle_count)
    return total / math.factorial(n)


def deviation_perm(n: int, k: int, grid_step) -> DeviationReport:
    """Grid sup of |mean statistic - Dir(1/k, ..., 1/k) CDF|.

    The mean is the float chain's at every n.  The limit CDF of the
    whole grid is one ``cdf_many`` call, taken first; it checks every
    corner before it evaluates any, so a k it refuses evaluates no
    corner.  The rate normalization is n^(1/k), the expected deviation
    decay.
    """
    step = Fraction(grid_step)
    points = rect_grid(k, step)
    alpha = tuple(1.0 / k for _ in range(k))
    limits = cdf_many(alpha, [tuple(float(c) for c in u) for u in points],
                      1e-9)
    return deviation_report(
        "perms", n, k, "uniform", step, points,
        [_corner(n, k, _caps(n, k, u), False) for u in points], limits,
        n ** (1.0 / k))
