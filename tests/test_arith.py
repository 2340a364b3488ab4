import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirlaw import integers
from dirlaw.arith import (BUILTIN_MODELS, Residues, build_spf_sieve,
                          compositions, factorize, least_prime_powers,
                          model_coprime, model_residues, model_tau_weights,
                          model_two_squares, model_uniform,
                          multiplicative_table, parse_model, primes_up_to,
                          sample_factorization, smallest_prime_factor,
                          word_primes)
from dirlaw.errors import DomainError, IntegrityError, ResourceError
from oracles import tau_k


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def test_factorize_roundtrip(sieve_small):
    for n in range(1, 2001):
        fn = factorize(n, sieve_small)
        prod = 1
        for p, v in fn.factors:
            assert v >= 1
            for q, _ in fn.factors:
                assert p == q or p % q != 0 or q == 1
            prod *= p ** v
        assert prod == n
        assert list(fn.factors) == sorted(fn.factors)


def test_tau_k_counts_ordered_tuples(sieve_small):
    for n in range(1, 401):
        fn = factorize(n, sieve_small)
        d_count = len(_divisors(n))
        assert tau_k(fn, 2) == d_count
        triple = sum(len(_divisors(n // d)) for d in _divisors(n))
        assert tau_k(fn, 3) == triple
        assert tau_k(fn, 1) == 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(x=st.integers(1, 5000), k=st.integers(1, 5))
def test_least_prime_powers_and_tau_table_match_factorize(x, k,
                                                         sieve_small):
    power, exponent, cofactor = least_prime_powers(sieve_small, x)
    assert len(power) == len(exponent) == len(cofactor) == x + 1
    assert power[1] == 1 and exponent[1] == 0 and cofactor[1] == 1
    comb = np.array([math.comb(v + k - 1, k - 1) for v in range(14)],
                    dtype=np.float64)
    tau = multiplicative_table(comb[exponent], cofactor)
    for n in range(2, x + 1):
        fn = factorize(n, sieve_small)
        p, v = fn.factors[0]
        assert (power[n], exponent[n], cofactor[n]) == (p ** v, v, n // p ** v)
        assert tau[n] == tau_k(fn, k)
    assert tau[1] == 1.0


def test_smallest_prime_factor_guard():
    assert [smallest_prime_factor(n) for n in (0, 1, 2, 91, 97)] \
        == [0, 0, 2, 7, 97]
    assert smallest_prime_factor(10 ** 12) == 2
    with pytest.raises(ResourceError, match="trial-division guard"):
        smallest_prime_factor(10 ** 12 + 1)


def test_compositions_count_and_sum():
    for v in range(0, 7):
        for k in range(1, 5):
            comps = list(compositions(v, k))
            assert len(comps) == math.comb(v + k - 1, k - 1)
            assert len(set(comps)) == len(comps)
            assert all(sum(c) == v and len(c) == k for c in comps)


def test_primes_up_to_matches_trial_division():
    def is_prime(m):
        return m >= 2 and all(m % p for p in range(2, int(m ** 0.5) + 1))

    assert primes_up_to(1000) == [m for m in range(2, 1001) if is_prime(m)]


def test_word_primes_and_the_recombination_guard():
    bound = 10 ** 30
    primes = word_primes(7, bound)
    assert all(p % 7 == 1 and smallest_prime_factor(p) == p < 1 << 26
               for p in primes)
    assert math.prod(primes[:-1]) <= bound < math.prod(primes)
    assert primes[0] not in word_primes(7, bound, skip=primes[0])
    ring = Residues(primes)
    assert ring.fraction(ring.frac(2, 3), 3) == Fraction(2, 3)
    assert ring.fraction(ring.red(ring.frac(1, 3) * 3), 3) == 1
    # 4/3 and -1/3 have bound * V = 4 and -1, outside [0, 3]
    for num in (4, -1):
        with pytest.raises(IntegrityError, match="recombined above"):
            ring.fraction(ring.frac(num, 3), 3)
    # about 4 primes = 1 (mod 2^20) lie in [2^25, 2^26)
    with pytest.raises(ResourceError, match="too few word primes"):
        word_primes(1 << 20, 1 << 200)


def crt_per_call(residues, primes, bound):
    """bound * V mod M, with the CRT weights formed on every call."""
    modulus = math.prod(primes)
    return sum(r * bound * (modulus // p) * pow(modulus // p, -1, p)
               for r, p in zip(residues, primes)) % modulus


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.sampled_from([1, 2, 7, 60]), bound=st.integers(1, 10 ** 60),
       data=st.data())
def test_fraction_matches_the_per_call_crt(m, bound, data):
    ring = Residues(word_primes(m, bound))
    if data.draw(st.booleans()):
        residues = ring.frac(data.draw(st.integers(0, bound)), bound)
    else:
        residues = np.array([data.draw(st.integers(0, p - 1))
                             for p in ring.primes], dtype=np.int64)
    value = crt_per_call(residues.tolist(), ring.primes, bound)
    if value > bound:
        with pytest.raises(IntegrityError, match="recombined above"):
            ring.fraction(residues, bound)
    else:
        assert ring.fraction(residues, bound) == Fraction(value, bound)


@pytest.mark.parametrize("name,k", [("uniform", 2), ("uniform", 3),
                                    ("squarefree", 2), ("two-squares", 2),
                                    ("coprime", 2), ("nested", 3)])
def test_total_g_is_a_tuple_sum(name, k, sieve_small):
    """G_total(n) of the walker's local tables against the sum of G over
    every ordered k-tuple with product n, wherever f(n) > 0 (the tables
    keep no tuples where f vanishes)."""
    model = parse_model(name, k)
    ns = list(range(1, 37)) + [60, 64, 97]
    _, f, g_total = _slots(model, ns, sieve_small)

    def tuple_splits(n, parts):
        if parts == 1:
            yield (n,)
            return
        for d in _divisors(n):
            for rest in tuple_splits(n // d, parts - 1):
                yield (d,) + rest

    for n, f_n, g in zip(ns, f, g_total):
        fn = factorize(n, sieve_small)
        assert f_n == model.f_value(fn)
        if f_n == 0:
            continue
        brute = 0
        for tup in tuple_splits(n, k):
            term = 1
            for p, _ in fn.factors:
                vp = tuple(_val(p, d) for d in tup)
                term *= model.g_local(p, vp)
            brute += term
        if name == "nested":
            assert math.isclose(g, brute, rel_tol=1e-15)
        else:
            assert g == brute


def _slots(model, ns, sieve):
    """``_LocalTables._slots`` on the n in ``ns``: entries, f, G_total."""
    tables = integers._LocalTables(model, max(ns), sieve)
    return tables._slots(np.array(ns))


def _val(p, d):
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def test_alpha_vectors_are_positive_with_theta_total():
    for name in BUILTIN_MODELS:
        if name == "residues":
            model = model_residues(4)
        elif name == "tau-weights":
            model = model_tau_weights(Fraction(1), [Fraction(1), Fraction(2)])
        elif name == "nested":
            model = parse_model(name, 3)
        else:
            model = parse_model(name, 2)
        assert len(model.alpha_exact) == model.k
        assert all(a > 0 for a in model.alpha_exact)
        assert model.theta == sum(model.alpha_exact)
    assert parse_model("uniform", 4).alpha_exact == (Fraction(1, 4),) * 4
    # the two-squares family carries total mass theta = 1/2, not 1
    assert model_two_squares(2).theta == Fraction(1, 2)


def test_two_squares_weights_live_on_representable_numbers(sieve_small):
    model = model_two_squares(2)
    reps = {a * a + b * b for a in range(0, 40) for b in range(0, 40)}
    for n in range(1, 200):
        fn = factorize(n, sieve_small)
        f = model.f_value(fn)
        assert f == (1 if n in reps else 0)


def test_coprime_pairs_constraint(sieve_small):
    # without allowances each prime goes fully to one side: 2 per prime
    assert _slots(model_coprime(2), [12], sieve_small)[2][0] == 4
    # allowing the pair to share removes the constraint entirely
    assert _slots(model_coprime(2, [(1, 2)]), [12], sieve_small)[2][0] == 6
    with pytest.raises(DomainError):
        model_coprime(2, [(1, 3)])


def test_parse_model_errors_and_residues_dimension():
    with pytest.raises(DomainError):
        parse_model("uniform", None)
    with pytest.raises(DomainError):
        parse_model("residues")
    with pytest.raises(DomainError):
        parse_model("no-such-model", 2)
    model = parse_model("residues:4")
    assert model.k == 2
    with pytest.raises(DomainError):
        parse_model("residues:4", 3)
    tw = parse_model("tau-weights:1;1,2,3")
    assert tw.k == 3 and tw.theta == 1


def test_sample_factorization_products(sieve_small):
    model = model_uniform(3)
    for n in (1, 12, 97, 360):
        fn = factorize(n, sieve_small)
        tup = sample_factorization(fn, 3, model, seed=5)
        assert len(tup) == 3
        assert math.prod(tup) == n
        assert tup == sample_factorization(fn, 3, model, seed=5)


def test_sieve_limits():
    sv = build_spf_sieve(10)
    assert sv.limit == 10
    assert factorize(1, build_spf_sieve(1)).factors == ()
    with pytest.raises(DomainError):
        factorize(11, sv)
    with pytest.raises(DomainError):
        build_spf_sieve(0)
