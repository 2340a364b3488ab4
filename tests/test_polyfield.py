import math
import random
from fractions import Fraction

import pytest

from dirlaw import polyfield
from dirlaw.arith import tau_k
from dirlaw.errors import DomainError, IntegrityError
from dirlaw.polyfield import (IrreducibleTable, PolyQ, build_irreducibles,
                              deviation_poly, exact_lhs_poly, factor_poly,
                              irreducible_count, poly_divrem, poly_from_code,
                              poly_mul)
from dirlaw.report import rect_grid


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
            from dirlaw.arith import compositions
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


def block_sum_box_mass(tensors, caps):
    """Per tau, the tensor block within the caps summed and divided by
    tau: the box mass read without a summed-area table."""
    total = Fraction(0)
    for tau, tensor in tensors.items():
        block = tensor[tuple(slice(0, c + 1) for c in caps)]
        total += Fraction(int(block.sum()), tau)
    return total


@pytest.mark.parametrize("q,n,k", [(2, 12, 3), (3, 8, 2), (2, 12, 4),
                                   (2, 20, 2)])
def test_box_table_matches_block_sums(q, n, k):
    table = build_irreducibles(q, n // 2)
    tensors = polyfield._profile_tensors(q, n, k, table)
    corners = {u: [math.floor(n * c) for c in u]
               for u in rect_grid(k, Fraction(1, 10))}
    want = {u: block_sum_box_mass(tensors, caps)
            for u, caps in corners.items()}
    lcm, cums = box = polyfield._box_table(tensors)
    for u, caps in corners.items():
        assert polyfield._box_mass(box, caps) == want[u], (q, n, k, u)
    # folding every tau into one tensor weighted by lcm / tau would need
    # the full-box count times lcm, past int64 at q = 2, n = 20
    folded = sum(w * int(cum[(n,) * (k - 1)]) for w, cum in cums)
    assert folded == lcm * q ** n
    assert (folded >= 2 ** 63) == ((q, n, k) == (2, 20, 2))


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
    with pytest.raises(DomainError):
        exact_lhs_poly(2, 18, 2, (Fraction(1, 2),), irr2)  # table too small
    from dirlaw.errors import ResourceError
    with pytest.raises(ResourceError):
        exact_lhs_poly(2, 40, 2, (Fraction(1, 2),),
                       irr2)  # enumeration guard
    with pytest.raises(ResourceError, match="3e8 work guard"):
        exact_lhs_poly(2, 9, 7, (Fraction(1, 7),) * 6, irr2)
