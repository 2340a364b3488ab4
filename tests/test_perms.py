import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirlaw import perms
from dirlaw.arith import rising_binoms
from dirlaw.errors import DomainError
from dirlaw.perms import (build_stirling, cycle_types, deviation_perm,
                          lhs_perm_brute, lhs_perm_exact, mean_tau_alpha,
                          stirling_first)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_cycle_types_enumerate_partitions():
    for n in range(0, 11):
        types = list(cycle_types(n))
        assert len(types) == PARTITION_COUNTS[n]
        assert sum(t.class_size for t in types) == math.factorial(n)
        for t in types:
            assert sum(l * c for l, c in t.partition) == n


def test_stirling_row_sums_and_values(stirling50):
    for n in range(0, 12):
        total = sum(stirling_first(n, j, stirling50)
                    for j in range(0, n + 1))
        assert total == math.factorial(n)
    # [4 2] = 11, [5 3] = 35 from the classical table
    assert stirling_first(4, 2, stirling50) == 11
    assert stirling_first(5, 3, stirling50) == 35
    assert stirling_first(0, 0, stirling50) == 1
    assert stirling_first(6, 0, stirling50) == 0


def test_stirling_counts_cycle_types(stirling50):
    for n in range(0, 10):
        by_cycles = {}
        for t in cycle_types(n):
            by_cycles[t.cycle_count] = (by_cycles.get(t.cycle_count, 0)
                                        + t.class_size)
        for j in range(0, n + 1):
            assert by_cycles.get(j, 0) == stirling_first(n, j, stirling50)


def brute_mean_tau(n, alpha):
    total = Fraction(0)
    for t in cycle_types(n):
        total += Fraction(t.class_size) * Fraction(alpha) ** t.cycle_count
    return total / math.factorial(n)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 3),
                                   Fraction(2), Fraction(7, 3)])
def test_mean_tau_alpha_matches_class_sum(alpha, stirling50):
    for n in range(0, 12):
        assert mean_tau_alpha(n, alpha, stirling50) == brute_mean_tau(n,
                                                                      alpha)


def test_hand_oracle_n2():
    assert lhs_perm_exact(2, 2, (Fraction(1, 2),)) == Fraction(5, 8)
    assert lhs_perm_brute(2, 2, (Fraction(1, 2),)) == Fraction(5, 8)


def test_exact_equals_brute_spot_checks():
    grid2 = [(Fraction(1, 4),), (Fraction(1, 2),), (Fraction(9, 10),)]
    grid3 = [(Fraction(1, 4), Fraction(1, 4)),
             (Fraction(1, 3), Fraction(1, 2))]
    for n in (0, 1, 4, 7):
        for u in grid2:
            assert lhs_perm_exact(n, 2, u) == lhs_perm_brute(n, 2, u)
        for u in grid3:
            assert lhs_perm_exact(n, 3, u) == lhs_perm_brute(n, 3, u)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 20), st.integers(2, 4), st.data())
def test_exact_equals_brute_property(n, k, data):
    u = tuple(Fraction(j, 20) for j in data.draw(
        st.lists(st.integers(0, 20), min_size=k - 1, max_size=k - 1)))
    assert lhs_perm_exact(n, k, u) == lhs_perm_brute(n, k, u)


def nested_sum(n, k, u, exact):
    """The block-size sum as plain nested loops: the product of the
    binomials b[m] = C(m + 1/k - 1, m) over block sizes m_1..m_(k-1)
    within the caps and the rest m_k = n - sum m_i."""
    caps = [math.floor(n * c) for c in u]
    b = rising_binoms(Fraction(1, k) if exact else 1.0 / k, n)

    def rec(i, remaining):
        if i == k - 1:
            return b[remaining]
        total = 0
        for m in range(min(caps[i], remaining) + 1):
            total += b[m] * rec(i + 1, remaining - m)
        return total

    return rec(0, n)


F = Fraction
ORACLE_CORNERS = {
    2: [(F(1, 3),), (F(1, 2),), (F(1),)],
    3: [(F(1, 10), F(1, 5)), (F(1, 3), F(1, 2)), (F(0), F(9, 10)),
        (F(9, 10), F(9, 10))],
    4: [(F(1, 20), F(1, 10), F(1, 5)), (F(1, 10), F(0), F(1, 10)),
        (F(1, 50), F(1, 20), F(1))],
}


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 7, 100, 300])
def test_exact_matches_nested_sum(n, k):
    for u in ORACLE_CORNERS[k]:
        got = lhs_perm_exact(n, k, u)
        assert isinstance(got, Fraction)
        assert got == nested_sum(n, k, u, exact=True), (n, k, u)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("n", [301, 1000])
def test_float_path_matches_nested_sum(n, k):
    for u in ORACLE_CORNERS[k]:
        got = lhs_perm_exact(n, k, u)
        assert isinstance(got, float)
        assert abs(got - nested_sum(n, k, u, exact=False)) < 1e-13, (n, u)


def test_full_box_and_edge_cases():
    assert lhs_perm_exact(0, 2, (Fraction(1, 2),)) == 1
    assert lhs_perm_exact(25, 2, (Fraction(1),)) == 1
    assert lhs_perm_brute(1, 2, (Fraction(0),)) == Fraction(1, 2)
    # an odd n makes every permutation split unevenly at one half, so
    # by block swap symmetry the mean lands exactly on 1/2
    assert lhs_perm_exact(9, 2, (Fraction(1, 2),)) == Fraction(1, 2)


def test_float_path_consistency():
    u = (Fraction(2, 5),)
    exact = float(lhs_perm_exact(300, 2, u))
    big = lhs_perm_exact(301, 2, u)
    assert isinstance(big, float)
    assert abs(big - exact) < 5e-3  # consecutive sizes stay close
    assert 0.0 <= big <= 1.0
    odd = lhs_perm_exact(1001, 2, (Fraction(1, 2),))
    assert odd == pytest.approx(0.5, abs=1e-12)


def test_deviation_perm_report():
    rep = deviation_perm(200, 2, Fraction(1, 10))
    assert rep.kind == "perms" and rep.scale == 200
    assert rep.model_id == "uniform"
    assert rep.sup_dev == max(rep.deviation) < 0.05
    assert rep.scaled_sup_dev == pytest.approx(rep.sup_dev * math.sqrt(200))


def test_perm_guards():
    with pytest.raises(DomainError):
        lhs_perm_exact(-1, 2, (Fraction(1, 2),))
    with pytest.raises(DomainError):
        lhs_perm_exact(10, 1, ())
    with pytest.raises(DomainError):
        lhs_perm_exact(10, 2, (Fraction(3, 2),))
    with pytest.raises(DomainError):
        lhs_perm_brute(200, 2, (Fraction(1, 2),))
    with pytest.raises(DomainError):
        lhs_perm_exact(5001, 2, (Fraction(1, 2),))
    with pytest.raises(DomainError):
        lhs_perm_exact(10, 7, (Fraction(1, 2),) * 6)


@pytest.mark.parametrize("n, k", [(4000, 6), (5000, 4)])
def test_full_box_is_one_at_large_n(n, k):
    assert lhs_perm_exact(n, k, (Fraction(1),) * (k - 1)) == \
        pytest.approx(1.0, abs=1e-12)


K56_CORNERS = [(F(1, 2),) * 5, (F(0), F(1, 3), F(1, 4), F(1), F(1, 2)),
               (F(1, 5), F(1, 5), F(2, 5), F(0), F(3, 4)), (F(1),) * 5]


@pytest.mark.parametrize("k", [5, 6])
@pytest.mark.parametrize("n", [1, 5, 9, 12])
def test_exact_equals_brute_k5_k6(n, k):
    for u in K56_CORNERS:
        assert lhs_perm_exact(n, k, u[:k - 1]) == \
            lhs_perm_brute(n, k, u[:k - 1]), (n, k, u)


@pytest.mark.parametrize("k", [5, 6])
def test_largest_exact_bound_matches_the_float_chain(k):
    # n = 300 is the last exact n: D = k^n n! needs 106 rings at k = 5
    # and 109 at k = 6
    n = 300
    assert lhs_perm_exact(n, k, (Fraction(1),) * (k - 1)) == Fraction(1)
    for u in K56_CORNERS:
        u = u[:k - 1]
        exact = lhs_perm_exact(n, k, u)
        assert isinstance(exact, Fraction)
        floats = perms._corner(n, k, perms._caps(n, k, u), False)
        assert abs(float(exact) - floats) <= 1e-14, (k, u)
