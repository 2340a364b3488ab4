import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirlaw import polyfield
from dirlaw.arith import compositions, tau_k
from dirlaw.errors import DomainError, IntegrityError, ResourceError
from dirlaw.perms import cycle_types, lhs_perm_exact
from dirlaw.polyfield import (IrreducibleTable, build_irreducibles,
                              deviation_poly, exact_lhs_poly,
                              irreducible_count)
from dirlaw.report import rect_grid
from polyoracle import (PolyQ, factor_poly, poly_divrem, poly_from_code,
                        poly_mul)


def _random_poly(q, deg, rng):
    coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
    return PolyQ(q, tuple(coeffs))


def test_code_roundtrip():
    for q in (2, 3, 5):
        for code in range(1, 400):
            f = poly_from_code(q, code)
            assert f.code == code


def test_mul_divrem_roundtrip():
    rng = random.Random(7)
    for q in (2, 3, 5, 7):
        for _ in range(60):
            a = _random_poly(q, rng.randrange(0, 6), rng)
            b = _random_poly(q, rng.randrange(1, 6), rng)
            prod = poly_mul(a, b)
            assert prod.degree == a.degree + b.degree
            quot, rem = poly_divrem(prod, b)
            assert rem.code == 0 or rem.degree < b.degree
            assert poly_mul(quot, b).code + rem.code == prod.code \
                or poly_mul(quot, b).coeffs != prod.coeffs
            # exact divisibility: remainder must vanish
            assert rem.code == 0
            assert quot.coeffs == a.coeffs


def test_divrem_general_remainder():
    rng = random.Random(11)
    for q in (2, 3, 5):
        for _ in range(40):
            a = _random_poly(q, rng.randrange(0, 7), rng)
            b = _random_poly(q, rng.randrange(1, 5), rng)
            quot, rem = poly_divrem(a, b)
            lhs = poly_mul(quot, b)
            # a == quot * b + rem, coefficient by coefficient
            coeffs = list(lhs.coeffs) + [0] * 8
            for i, c in enumerate(rem.coeffs):
                coeffs[i] = (coeffs[i] + c) % q
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            assert tuple(coeffs) == a.coeffs


@pytest.mark.parametrize("q", [2, 3, 5])
def test_irreducible_counts_match_necklace_formula(q):
    table = build_irreducibles(q, 6)
    for d in range(1, 7):
        assert len(table.by_degree[d - 1]) == irreducible_count(q, d)
    # spot values: Gauss counts for F_2 are 2, 1, 2, 3, 6, 9
    if q == 2:
        assert [len(c) for c in table.by_degree] == [2, 1, 2, 3, 6, 9]


@pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 5), (5, 4), (7, 3),
                                         (11, 3), (13, 3)])
def test_factor_sieve_matches_trial_division(q, max_deg):
    # sif[c] is the first monic divisor of degree 1..deg/2 in (degree,
    # code) order, which is c's smallest irreducible factor, or 0
    sif = polyfield._factor_sieve(q, max_deg)
    assert sif.shape == (2 * q ** max_deg,)
    for d in range(1, max_deg + 1):
        for code in range(q ** d, 2 * q ** d):
            f = poly_from_code(q, code)
            monics = (g for e in range(1, d // 2 + 1)
                      for g in range(q ** e, 2 * q ** e))
            want = next((g for g in monics if not poly_divrem(
                f, poly_from_code(q, g))[1].coeffs), 0)
            assert sif[code] == want, (q, code)


def test_validate_rejects_tampering():
    table = build_irreducibles(2, 4)
    bad = IrreducibleTable(2, 4, table.by_degree[:-1]
                           + ((table.by_degree[-1][0],),))
    with pytest.raises(IntegrityError):
        bad.validate()


@pytest.mark.parametrize("q", [2, 3])
def test_factor_poly_roundtrip_all_monics(q, irr2, irr3):
    table = irr2 if q == 2 else irr3
    for deg in range(1, 6):
        for code in range(q ** deg, 2 * q ** deg):
            f = poly_from_code(q, code)
            fp = factor_poly(f, table)
            prod = PolyQ(q, (1,))
            seen = set()
            for g, e in fp.factors:
                assert e >= 1
                assert g.code in table.by_degree[g.degree - 1]
                assert g.code not in seen
                seen.add(g.code)
                for _ in range(e):
                    prod = poly_mul(prod, g)
            assert prod.code == f.code


def test_tau_k_poly_counts_ordered_factorizations(irr2):
    # tau_2 of a monic f equals its number of monic divisors
    for code in range(8, 16):
        f = poly_from_code(2, code)
        fp = factor_poly(f, irr2)
        divisors = 0
        for d_code in range(1, 2 ** (f.degree + 1)):
            d = poly_from_code(2, d_code)
            if d.degree > f.degree:
                break
            _, rem = poly_divrem(f, d)
            if rem.code == 0:
                divisors += 1
        assert tau_k(fp, 2) == divisors
        assert tau_k(fp, 1) == 1


def brute_poly_lhs(q, n, k, u, table):
    """Mean over monic degree-n f of the in-box share of divisor tuples."""
    caps = [(n * c.numerator) // c.denominator for c in u]
    total = Fraction(0)
    for code in range(q ** n, 2 * q ** n):
        fp = factor_poly(poly_from_code(q, code), table)
        tuples = []

        def splits(i, exps):
            if i == len(fp.factors):
                tuples.append(tuple(exps))
                return
            _, e = fp.factors[i]
            for comp in compositions(e, k):
                splits(i + 1, exps + [comp])

        splits(0, [])
        good = 0
        for assignment in tuples:
            degs = [0] * k
            for (g, _), comp in zip(fp.factors, assignment):
                for i in range(k):
                    degs[i] += g.degree * comp[i]
            if all(degs[i] <= caps[i] for i in range(k - 1)):
                good += 1
        total += Fraction(good, len(tuples))
    return total / q ** n


def test_hand_oracle_q2_n2():
    table = build_irreducibles(2, 1)
    got = exact_lhs_poly(2, 2, 2, (Fraction(1, 2),), table)
    assert got == Fraction(31, 48)


@pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2), (5, 2), (5, 3),
                                 (2, 4), (3, 4)])
def test_exact_lhs_poly_matches_brute(q, k, irr2, irr3):
    table = {2: irr2, 3: irr3}.get(q) or build_irreducibles(q, 2)
    for n in range(1, 6 if q < 5 else 4):
        for u in [(Fraction(1, 3),) * (k - 1), (Fraction(1, 2),) * (k - 1),
                  (Fraction(1),) * (k - 1)]:
            got = exact_lhs_poly(q, n, k, u, table)
            want = brute_poly_lhs(q, n, k, u, table)
            assert got == want, (q, n, k, u)


def test_engine_enumerates_no_polynomial(irr2, monkeypatch):
    # the mean statistic comes from irreducible counts, not a sieve walk
    def refuse(*args):
        raise AssertionError("the polys engine enumerated polynomials")

    monkeypatch.setattr(polyfield, "_factor_sieve", refuse)
    assert exact_lhs_poly(2, 2, 2, (Fraction(1, 2),), irr2) \
        == Fraction(31, 48)
    rep = deviation_poly(2, 16, 3, Fraction(1, 4), irr2)
    assert rep.scale == 16 and len(rep.points) == 6


def test_full_box_is_one(irr2):
    for n in (1, 4, 7):
        assert exact_lhs_poly(2, n, 2, (Fraction(1),), irr2) == 1


@lru_cache(maxsize=4096)
def _shifts(d, e, n, k):
    """The compositions of e into k parts whose first k - 1 divisor
    degrees d * comp[i] stay within n."""
    return tuple(comp for comp in compositions(e, k)
                 if all(comp[i] * d <= n for i in range(k - 1)))


def _spread(tensor, d, e, n, k):
    """The divisor-degree tensor after one more factor P^e, deg P = d:
    each composition of e into k parts hands d * comp[i] degrees to the
    i-th divisor, shifting axis i < k - 1; the k-th takes the rest."""
    out = np.zeros_like(tensor)
    for comp in _shifts(d, e, n, k):
        idx = tuple(slice(0, n + 1 - comp[i] * d) for i in range(k - 1))
        dst = tuple(slice(comp[i] * d, n + 1) for i in range(k - 1))
        out[dst] += tensor[idx]
    return out


def profile_tensors(q, n, k):
    """tau -> summed divisor-degree tensor over all monic F of degree n.

    Entry [j_1, ..., j_(k-1)] counts pairs of F and an ordered tuple of
    monic divisors (D_1, ..., D_k) with product F and deg D_i = j_i.  A
    recursion over d = 1..n takes the exponents of the distinct degree-d
    factors as a partition of m, placed on the I_q(d) irreducibles in
    perm(I_q(d), s) / prod(mult!) ways.
    """
    irr = [0] + [irreducible_count(q, d) for d in range(1, n + 1)]
    out = {}

    def rec(d, rest, count, tau, tensor):
        if rest == 0:
            out[tau] = out.get(tau, 0) + count * tensor
            return
        if d > rest:
            return
        for m in range(rest // d + 1):
            for ct in cycle_types(m):
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


def oracle_lhs(q, n, k, tensors, u):
    """The statistic from the partition recursion: per tau, the tensor
    block within the caps summed and divided by tau, over q^n."""
    caps = [math.floor(n * c) for c in u]
    total = Fraction(0)
    for tau, tensor in tensors.items():
        block = tensor[tuple(slice(0, c + 1) for c in caps)]
        total += Fraction(int(block.sum()), tau)
    return total / q ** n


@pytest.mark.parametrize("q,n,k", [(2, 12, 3), (3, 8, 2), (2, 12, 4),
                                   (2, 20, 2)])
def test_box_table_matches_block_sums(q, n, k):
    # the exact path against the per-tau block sums of the recursion
    tensors = profile_tensors(q, n, k)
    for u in rect_grid(k, Fraction(1, 10)):
        assert exact_lhs_poly(q, n, k, u) \
            == oracle_lhs(q, n, k, tensors, u), (q, n, k, u)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(q=st.sampled_from([2, 3, 5, 7, 17, 101, 10007]), k=st.integers(2, 4),
       data=st.data())
def test_both_rings_match_the_partition_recursion(q, k, data):
    # n is capped so that q^n times a tensor entry stays inside int64
    n = data.draw(st.integers(1, {2: 8, 3: 6, 5: 4, 7: 4, 17: 5, 101: 4,
                                  10007: 3}[q]))
    tensors = profile_tensors(q, n, k)
    u = data.draw(st.tuples(*[st.fractions(0, 1, max_denominator=12)]
                            * (k - 1)))
    exact = exact_lhs_poly(q, n, k, u)
    assert exact == oracle_lhs(q, n, k, tensors, u)
    floats = polyfield._corner_table(q, n, k, polyfield.Floats())
    caps = tuple(math.floor(n * c) for c in u)
    assert abs(Fraction(floats[caps + (0,)].real) - exact) <= 1e-15
    assert exact_lhs_poly(q, n, k, (1,) * (k - 1)) == 1


@pytest.mark.parametrize("q,n,k", [(2, 400, 2), (10007, 100, 3)])
def test_full_box_is_one_at_large_n(q, n, k):
    # the float path far beyond any enumeration of q^n polynomials
    table = polyfield._corner_table(q, n, k, polyfield.Floats())
    assert abs(table[(n,) * (k - 1) + (0,)] - 1) <= 1e-12


def test_float_path_tends_to_perms_as_q_grows():
    # I_q(d) q^-d -> 1/d and every repeated factor weighs O(1/q), so the
    # statistic tends to the permutation one, with a gap of order 1/q
    n, k = 60, 2
    points = rect_grid(k, Fraction(1, 10))
    perm = [float(lhs_perm_exact(n, k, u)) for u in points]
    gaps = {}
    for q in (101, 10007, 1000003):
        table = polyfield._corner_table(q, n, k, polyfield.Floats())
        gaps[q] = max(abs(table[math.floor(n * u[0]), 0].real - want)
                      for u, want in zip(points, perm))
    scaled = [q * gap for q, gap in gaps.items()]
    assert max(scaled) <= 2 * min(scaled), gaps
    assert gaps[1000003] < 1e-10


def test_deviation_poly_report(irr2):
    rep = deviation_poly(2, 8, 2, Fraction(1, 4), irr2)
    assert rep.kind == "polys" and rep.scale == 8
    assert rep.model_id == "q2-uniform"
    assert rep.sup_dev == max(rep.deviation) < 0.2
    assert rep.scaled_sup_dev == pytest.approx(
        rep.sup_dev * 8 ** Fraction(1, 2))
    assert math.isfinite(rep.scaled_sup_dev)


def test_poly_domain_errors(irr2):
    with pytest.raises(DomainError):
        PolyQ(4, (1, 1))  # q must be prime
    with pytest.raises(DomainError):
        PolyQ(3, (1, 5))  # coefficient out of range
    with pytest.raises(DomainError, match="q must be a prime"):
        exact_lhs_poly(4, 2, 2, (Fraction(1, 2),))
    with pytest.raises(ResourceError, match="trial-division guard"):
        exact_lhs_poly(10 ** 18 + 3, 2, 2, (Fraction(1, 2),))
    with pytest.raises(ResourceError, match="q must be at most 13"):
        build_irreducibles(17, 2)  # the sieve keeps its cap
    # the table is not read, so one of degree 8 serves n = 18
    assert exact_lhs_poly(2, 18, 2, (Fraction(1, 2),), irr2) \
        == exact_lhs_poly(2, 18, 2, (Fraction(1, 2),))
    # the work guard: in floats at (9, 7), by its 159 residue rings at
    # (200, 2), where the float count alone is 8.7e6
    for n, k in [(9, 7), (200, 2)]:
        with pytest.raises(ResourceError, match="exceeds the 6e8 work"):
            exact_lhs_poly(2, n, k, (Fraction(1, k),) * (k - 1))
    polyfield.check_statistic(2, 200, 2)
