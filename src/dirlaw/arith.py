"""Multiplicative arithmetic: smallest-prime-factor sieve, generalized
divisor counts, and the weighted factorization models.

A weight model is a pair (f, G): f is a nonnegative multiplicative
weight on n, and G assigns a nonnegative multiplicative weight to each
ordered k-tuple (d_1, ..., d_k) with product n.  Both are described by
local data at prime powers; the exponent vector of a tuple at a prime p
is a weak composition of v_p(n) into k parts.  Each model carries the
Dirichlet parameter vector of its limiting law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dirichlet import DirichletParams
from .errors import DomainError, IntegrityError, ResourceError

_SIEVE_LIMIT = 100_000_000
_TRIAL_LIMIT = 10 ** 12          # at most 10^6 trial divisions


@dataclass(frozen=True)
class SpfSieve:
    """Smallest prime factor for every 2 <= n <= limit.

    ``spf[n]`` is the least prime dividing n; entries 0 and 1 are 0.
    A limit of 1 holds only the sentinels.
    """

    limit: int
    spf: np.ndarray

    def __post_init__(self):
        if self.limit < 1:
            raise DomainError("sieve limit must be at least 1")
        if len(self.spf) != self.limit + 1:
            raise IntegrityError("sieve array length must be limit + 1")


@dataclass(frozen=True)
class FactoredInteger:
    """n with its factorization as ascending (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]


def build_spf_sieve(x: int) -> SpfSieve:
    """Sieve smallest prime factors up to x (refused above 1e8)."""
    if x < 1:
        raise DomainError("sieve limit must be at least 1")
    if x > _SIEVE_LIMIT:
        raise ResourceError(f"sieve limit {x} exceeds the 1e8 guard")
    spf = np.arange(x + 1, dtype=np.uint32)
    spf[:2] = 0
    for p in range(2, math.isqrt(x) + 1):
        if spf[p] == p:
            sl = spf[p * p:: p]
            untouched = sl == np.arange(p * p, x + 1, p, dtype=np.uint32)
            sl[untouched] = p
    return SpfSieve(x, spf)


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit, ascending."""
    if limit < 2:
        return []
    if limit > _SIEVE_LIMIT:
        raise ResourceError(f"prime limit {limit} exceeds the 1e8 guard")
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    return [int(p) for p in np.flatnonzero(is_p)]


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n, by trial division; 0 (the sieve's
    sentinel) for n < 2.  Refused above 10^12."""
    if n < 2:
        return 0
    if n > _TRIAL_LIMIT:
        raise ResourceError(f"{n} exceeds the 10^12 trial-division guard")
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


def least_prime_powers(sieve: SpfSieve, x: int) -> tuple[np.ndarray, ...]:
    """(power, exponent, cofactor) for every n = 0..x: n = power[n] *
    cofactor[n], where power[n] = spf[n]^exponent[n] exactly divides n
    (1, 0 and n at n < 2).  The vectorised view of ``factorize``."""
    spf = sieve.spf[: x + 1]
    exponent = (spf > 0).astype(np.int8)
    for p in primes_up_to(math.isqrt(x)):
        q = p * p
        while q <= x:               # +1 where p^v | n and spf[n] = p
            exponent[q:: q][spf[q:: q] == p] += 1
            q *= p
    power = spf.astype(np.int32) ** exponent          # 0^0 = 1 at n < 2
    return power, exponent, np.arange(x + 1, dtype=np.int32) // power


def multiplicative_table(local: np.ndarray, cofactor: np.ndarray)\
        -> np.ndarray:
    """table[n] = local[n] * table[cofactor[n]] for n >= 2, local[n] below:
    a multiplicative function at every n from its values at the least
    prime powers (1 at n < 2) and the cofactors of ``least_prime_powers``.
    Blocks [lo, 2 lo) fill in turn, since cofactor[n] <= n / 2 < lo."""
    table = np.array(local)
    lo = 2
    while lo < len(table):
        table[lo: 2 * lo] *= table[cofactor[lo: 2 * lo]]
        lo *= 2
    return table


def factorize(n: int, sieve: SpfSieve) -> FactoredInteger:
    """Factor n by walking the sieve; O(log n)."""
    if n < 1:
        raise DomainError("can only factor positive integers")
    if n > sieve.limit:
        raise DomainError(f"{n} exceeds the sieve limit {sieve.limit}")
    spf = sieve.spf
    out = []
    m = n
    while m > 1:
        p = int(spf[m])
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        out.append((p, v))
    return FactoredInteger(n, tuple(out))


def tau_k(fn: FactoredInteger, k: int) -> int:
    """Number of ordered k-tuples with product n: prod C(v+k-1, k-1).
    It reads only the exponents of ``fn.factors``."""
    if k < 1:
        raise DomainError("k must be at least 1")
    out = 1
    for _, v in fn.factors:
        out *= math.comb(v + k - 1, k - 1)
    return out


def rising_binoms(a, m: int) -> list:
    """C(a + j - 1, j) = prod_{i<=j} (a + i - 1) / i for j = 0..m.

    Each entry extends the previous one by a single factor, so the whole
    prefix table costs O(m).  Exact when ``a`` is a Fraction, floating
    otherwise.
    """
    out = [Fraction(1) if isinstance(a, Fraction) else 1.0]
    for j in range(1, m + 1):
        out.append(out[-1] * (a + j - 1) / j)
    return out


# ------------------------------------------------------------ exact rings

class Floats:
    """float64, one ring: the inexact twin of ``Residues``."""

    def frac(self, num: int, den: int) -> np.ndarray:
        # integer true division: a huge num or den does not overflow
        return np.array([num / den])

    def red(self, x):
        return x


class Residues:
    """int64 residues modulo primes below 2^26 (``word_primes``), one ring
    per prime on the last axis, so a scalar is an (R,) array that
    broadcasts.  A product of two residues stays below 2^52, so a sum of
    up to 2^11 products fits int64 before it is reduced."""

    def __init__(self, primes: tuple[int, ...]):
        self.primes = primes
        self.p = np.array(primes, dtype=np.int64)
        self.modulus = math.prod(primes)
        # the CRT weights (M / p) ((M / p)^-1 mod p), M = ``modulus``
        self.crt = [self.modulus // p * pow(self.modulus // p, -1, p)
                    for p in primes]

    def frac(self, num: int, den: int) -> np.ndarray:
        return np.array([num % p * pow(den % p, -1, p) % p
                         for p in self.primes], dtype=np.int64)

    def red(self, x: np.ndarray) -> np.ndarray:
        return x % self.p

    def fraction(self, residues: np.ndarray, bound: int) -> Fraction:
        """The V in [0, 1] with these residues, one per ring, by the Chinese
        remainder theorem: bound * V is an integer below their product."""
        value = bound * sum(r * w for r, w in
                            zip(residues.tolist(), self.crt)) % self.modulus
        if value > bound:
            raise IntegrityError("residues recombined above their bound")
        return Fraction(value, bound)


def word_primes(m: int, bound: int, skip: int = 0) -> tuple[int, ...]:
    """Primes p = 1 (mod m) other than ``skip``, taken down from 2^26 until
    their product exceeds ``bound``; ResourceError once they would fall
    below 2^25."""
    divisors = np.array(primes_up_to(1 << 13))
    primes, product, p = [], 1, ((1 << 26) - 2) // m * m + 1
    while product <= bound:
        if p < 1 << 25:
            raise ResourceError("too few word primes for the exact path")
        if p != skip and (p % divisors).all():     # no factor below 2^13
            primes.append(p)
            product *= p
        p -= m
    return tuple(primes)


@lru_cache(maxsize=4096)
def compositions(v: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All weak compositions of v into k ordered parts, in a fixed order."""
    if k == 1:
        return ((v,),)
    out = []
    for a in range(v + 1):
        for rest in compositions(v - a, k - 1):
            out.append((a,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class WeightModel:
    """Local description of a weighted factorization statistic.

    ``f_local(p, v)`` is the weight of p^v inside f; ``g_local(p, comp)``
    the weight of a local exponent composition inside G.  ``alpha_exact``
    is the limiting Dirichlet parameter vector as exact rationals, with
    ``theta`` its total.

    ``local_class`` maps an int64 array of primes to an integer array of
    class keys.  Primes with equal keys must have equal ``f_local`` and
    ``g_local`` at every exponent, so the local tables are compiled once
    per (class, exponent).  ``None`` puts every prime in its own class.
    """

    model_id: str
    k: int
    f_local: Callable[[int, int], object]
    g_local: Callable[[int, tuple[int, ...]], object]
    alpha_exact: tuple[Fraction, ...]
    f_bounded_by_one: bool = True
    local_class: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.k != len(self.alpha_exact):
            raise DomainError("alpha vector length must equal k")
        if self.f_local(2, 0) != 1 or self.g_local(2, (0,) * self.k) != 1:
            raise IntegrityError("local weights must equal 1 at exponent 0")

    @property
    def theta(self) -> Fraction:
        return sum(self.alpha_exact, Fraction(0))

    @property
    def alpha(self) -> DirichletParams:
        return DirichletParams(tuple(float(a) for a in self.alpha_exact))

    def f_value(self, fn: FactoredInteger):
        out = 1
        for p, v in fn.factors:
            out = out * self.f_local(p, v)
            if out == 0:
                return out
        return out


# ----------------------------------------------------------------- models

def _one_class(p: np.ndarray) -> np.ndarray:
    """The ``local_class`` of a model whose local weights ignore p."""
    return np.zeros(len(p), dtype=np.int64)


def model_uniform(k: int) -> WeightModel:
    """Unweighted tuples: f = 1, G = 1, limit Dir(1/k, ..., 1/k)."""
    _check_k(k)
    return WeightModel(
        model_id="uniform", k=k,
        f_local=lambda p, v: 1,
        g_local=lambda p, comp: 1,
        alpha_exact=(Fraction(1, k),) * k,
        local_class=_one_class,
    )


def model_tau_weights(theta, lambdas: Sequence) -> WeightModel:
    """f = tau_theta, G = prod tau_{lambda_j}(d_j); Dir(theta*l_j/sum l)."""
    lams = tuple(Fraction(x) for x in lambdas)
    th = Fraction(theta)
    if th <= 0 or any(x <= 0 for x in lams):
        raise DomainError("tau-weight parameters must be positive")
    k = len(lams)
    _check_k(k)
    lam_sum = sum(lams)

    # the local weights ignore p: compute each value once
    rising = lru_cache(maxsize=None)(lambda lam, a: rising_binoms(lam, a)[a])

    @lru_cache(maxsize=None)
    def g_of(comp):
        out = Fraction(1)
        for lam, a in zip(lams, comp):
            out *= rising(lam, a)
        return out

    alpha = tuple(th * lam / lam_sum for lam in lams)
    return WeightModel(
        model_id="tau-weights", k=k, f_local=lambda p, v: rising(th, v),
        g_local=lambda p, comp: g_of(comp),
        alpha_exact=alpha,
        f_bounded_by_one=(th <= 1),
        local_class=_one_class,
    )


_RESIDUE_CLASSES = {3: (1, 2), 4: (1, 3), 5: (1, 2, 3, 4), 8: (1, 3, 5, 7)}


def model_residues(q: int) -> WeightModel:
    """Split n coprime to q by residue class of the prime support.

    Coordinate j collects the primes congruent to the j-th unit residue
    mod q in ascending order; k = phi(q).  Limit Dir(1/phi(q), ...).
    """
    if q not in _RESIDUE_CLASSES:
        raise DomainError("residue modulus must be one of 3, 4, 5, 8")
    classes = _RESIDUE_CLASSES[q]
    k = len(classes)
    index = {a: j for j, a in enumerate(classes)}

    def f_local(p, v, _q=q):
        if v == 0:
            return 1
        return 1 if math.gcd(p, _q) == 1 else 0

    def g_local(p, comp, _q=q, _index=index):
        v = sum(comp)
        if v == 0:
            return 1
        j = _index.get(p % _q)
        if j is None:
            return 0
        return 1 if comp[j] == v else 0

    return WeightModel(
        model_id=f"residues({q})", k=k, f_local=f_local, g_local=g_local,
        alpha_exact=(Fraction(1, k),) * k,
        local_class=lambda p, _q=q: p % _q,
    )


def model_two_squares(k: int) -> WeightModel:
    """Restrict to sums of two squares; limit Dir(1/(2k), ..., 1/(2k))."""
    _check_k(k)

    def f_local(p, v):
        if v == 0:
            return 1
        return 0 if (p % 4 == 3 and v % 2 == 1) else 1

    return WeightModel(
        model_id="two-squares", k=k, f_local=f_local,
        g_local=lambda p, comp: 1,
        alpha_exact=(Fraction(1, 2 * k),) * k,
        local_class=lambda p: p % 4,
    )


def model_squarefree(k: int) -> WeightModel:
    """Restrict to squarefree n; limit Dir(1/k, ..., 1/k)."""
    _check_k(k)

    def f_local(p, v):
        return 1 if v <= 1 else 0

    return WeightModel(
        model_id="squarefree", k=k, f_local=f_local,
        g_local=lambda p, comp: 1,
        alpha_exact=(Fraction(1, k),) * k,
        local_class=_one_class,
    )


def model_coprime(k: int, allowed_pairs: Sequence[tuple[int, int]] = ())\
        -> WeightModel:
    """Require the parts to be pairwise coprime except on listed pairs.

    ``allowed_pairs`` contains 1-based coordinate pairs that may share a
    prime.  Limit Dir(1/k, ..., 1/k) regardless of the allowance set.
    """
    _check_k(k)
    allowed = set()
    for i, j in allowed_pairs:
        if not (1 <= i <= k and 1 <= j <= k) or i == j:
            raise DomainError("coprimality pairs must be distinct 1-based "
                              "coordinates bounded by k")
        allowed.add((min(i, j), max(i, j)))

    def g_local(p, comp, _allowed=frozenset(allowed)):
        hot = [i + 1 for i, a in enumerate(comp) if a > 0]
        for x in range(len(hot)):
            for y in range(x + 1, len(hot)):
                if (hot[x], hot[y]) not in _allowed:
                    return 0
        return 1

    return WeightModel(
        model_id="coprime", k=k,
        f_local=lambda p, v: 1, g_local=g_local,
        alpha_exact=(Fraction(1, k),) * k,
        local_class=_one_class,
    )


def model_nested(k: int) -> WeightModel:
    """Chain weight G = prod_{j<k} 1/tau(d_j ... d_k).

    Limit Dir(1/2, 1/4, ..., 1/2^(k-2), 1/2^(k-1), 1/2^(k-1)).
    """
    _check_k(k)

    def g_local(p, comp, _k=k):
        den, tail = 1, sum(comp)
        for j in range(_k - 1):
            den *= tail + 1
            tail -= comp[j]
        return Fraction(1, den)

    alpha = tuple(Fraction(1, 2 ** min(j, k - 1)) for j in range(1, k + 1))
    return WeightModel(
        model_id="nested", k=k,
        f_local=lambda p, v: 1, g_local=g_local,
        alpha_exact=alpha,
        local_class=_one_class,
    )


def _check_k(k: int):
    if not 2 <= k <= 5:
        raise DomainError("k must lie in [2, 5]")


def _model_arg(convert, text: str):
    """Convert one piece of a model spelling; malformed text is a domain
    error, not a crash."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"malformed model argument {text!r}") from None


def parse_model(text: str, k: int | None = None) -> WeightModel:
    """Build a model from its CLI spelling.

    Accepted forms: ``uniform``, ``squarefree``, ``two-squares``,
    ``nested``, ``coprime``, ``coprime:1-2,2-3``, ``residues:4``,
    ``tau-weights:theta;l1,l2,...``.  ``k`` is required except for
    residues (which fixes its own dimension).
    """
    name, _, arg = text.partition(":")
    name = name.strip()
    if name == "residues":
        if not arg:
            raise DomainError("residues needs a modulus, e.g. residues:4")
        model = model_residues(_model_arg(int, arg))
        if k is not None and k != model.k:
            raise DomainError(f"residues({arg}) fixes k = {model.k}")
        return model
    if name == "tau-weights":
        theta_s, _, lam_s = arg.partition(";")
        if not lam_s:
            raise DomainError(
                "tau-weights needs theta;lambda list, e.g. tau-weights:1;1,2,3")
        lams = [_model_arg(Fraction, x) for x in lam_s.split(",")]
        if k is not None and k != len(lams):
            raise DomainError("tau-weights lambda count must equal k")
        return model_tau_weights(_model_arg(Fraction, theta_s), lams)
    if k is None:
        raise DomainError(f"model '{name}' needs an explicit k")
    if name == "uniform":
        return model_uniform(k)
    if name == "squarefree":
        return model_squarefree(k)
    if name == "two-squares":
        return model_two_squares(k)
    if name == "nested":
        return model_nested(k)
    if name == "coprime":
        pairs = []
        if arg:
            for chunk in arg.split(","):
                i, _, j = chunk.partition("-")
                pairs.append((_model_arg(int, i), _model_arg(int, j)))
        return model_coprime(k, pairs)
    raise DomainError(f"unknown model '{name}'")


BUILTIN_MODELS = ("uniform", "tau-weights", "residues", "two-squares",
                  "squarefree", "coprime", "nested")


def sample_factorization(fn: FactoredInteger, k: int, model: WeightModel,
                         seed: int) -> tuple[int, ...]:
    """Draw an ordered k-tuple with product n, P(tuple) = G / sum G."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return sample_factorization_rng(fn, k, model, rng)


def sample_factorization_rng(fn: FactoredInteger, k: int,
                             model: WeightModel, rng) -> tuple[int, ...]:
    if k != model.k:
        raise DomainError("tuple length must equal the model dimension")
    parts = [1] * k
    for p, v in fn.factors:
        comps = compositions(v, k)
        weights = np.array([float(model.g_local(p, c)) for c in comps])
        total = weights.sum()
        if total <= 0.0:
            raise IntegrityError(
                f"model {model.model_id} has no admissible split at "
                f"{p}^{v} of {fn.n}")
        idx = rng.choice(len(comps), p=weights / total)
        for i, a in enumerate(comps[idx]):
            parts[i] *= p ** a
    return tuple(parts)
