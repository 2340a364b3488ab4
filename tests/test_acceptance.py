"""Acceptance suite: one test per release criterion.

Each test prints a single status line with its measured numbers, so a
verbose run reads as a checklist.  Most print PASS after their
assertions hold; criterion 7 evaluates all of its clauses first, prints
PASS or FAIL with the numbers, and only then asserts, so a red run still
reports exactly what was measured.  Tolerances are pinned here and
nowhere else.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dirlaw import integers
from dirlaw.arith import (build_spf_sieve, factorize, model_uniform,
                          parse_model, tau_k)
from dirlaw.cli import main as cli_main
from dirlaw.dirichlet import (cdf, cdf_arcsine, cdf_monte_carlo,
                              simplex_mass)
from dirlaw.integers import (accumulate_histogram, convergence_study,
                             exact_lhs, sup_deviation, weighted_sum_S)
from dirlaw.perms import (build_stirling, deviation_perm, lhs_perm_brute,
                          lhs_perm_exact, mean_tau_alpha)
from dirlaw.polyfield import build_irreducibles, deviation_poly, exact_lhs_poly
from dirlaw.report import rect_grid
from dirlaw.series import a0_local_check, d_direct, d_euler


@pytest.fixture(scope="module")
def sieve_1e6():
    return build_spf_sieve(1_000_000)


def test_criterion_01_perm_exact_equals_brute():
    checked = 0
    for k in (2, 3):
        grid = rect_grid(k, Fraction(1, 10))
        for n in range(0, 11):
            for u in grid:
                a = lhs_perm_exact(n, k, u)
                b = lhs_perm_brute(n, k, u)
                assert isinstance(a, Fraction)
                assert a == b, (n, k, u)
                checked += 1
    print(f"\nPASS criterion 1: exact == brute at {checked} "
          "(n, k, u) points, exact rationals")


def test_criterion_02_mean_tau_dual_routes(stirling50):
    alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2),
              Fraction(7, 3)]
    for alpha in alphas:
        assert mean_tau_alpha(0, alpha, stirling50) == 1
        for n in range(0, 51):
            mean_tau_alpha(n, alpha, stirling50)  # dual route, self-checked
    print("\nPASS criterion 2: dual mean computations agree exactly for "
          f"n <= 50 at {len(alphas)} alphas, n=0 gives 1")


def test_criterion_03_hand_oracles():
    sv = build_spf_sieve(4)
    got_i = exact_lhs(4, 2, model_uniform(2), (Fraction(1, 2),), sv)
    assert got_i == Fraction(2, 3)
    table = build_irreducibles(2, 1)
    got_p = exact_lhs_poly(2, 2, 2, (Fraction(1, 2),), table)
    assert got_p == Fraction(31, 48)
    got_m = lhs_perm_exact(2, 2, (Fraction(1, 2),))
    assert got_m == Fraction(5, 8)
    print(f"\nPASS criterion 3: hand oracles {got_i}, {got_p}, {got_m}")


def test_criterion_04_arcsine_cross_check():
    worst = 0.0
    for m in range(0, 101):
        u = m / 100
        diff = abs(cdf((0.5, 0.5), (u,)) - cdf_arcsine(u))
        worst = max(worst, diff)
    assert worst <= 1e-8
    print(f"\nPASS criterion 4: quadrature vs arcsine closed form, "
          f"sup diff {worst:.2e} <= 1e-8 on the 0.01 grid")


def test_criterion_05_normalization_and_monte_carlo():
    masses = {}
    for k in (2, 3, 4):
        masses[k] = simplex_mass((1.0 / k,) * k)
        assert abs(masses[k] - 1.0) <= 1e-6
    alpha = (1 / 3, 1 / 3, 1 / 3)
    u = (0.3, 0.4)
    want = cdf(alpha, u)
    est, err = cdf_monte_carlo(alpha, u, 1_000_000, seed=2024)
    assert abs(est - want) <= 4 * err
    print("\nPASS criterion 5: masses "
          + ", ".join(f"k={k}: {m:.8f}" for k, m in masses.items())
          + f"; MC {est:.5f} vs quadrature {want:.5f} "
          f"within {abs(est - want) / err:.2f} stderr")


def test_criterion_06_euler_product_identity(sieve_small):
    checks = []
    for k, s, nmax, pmax, vmax in [(2, 2.0, 10_000, 10_000, 40),
                                   (2, 3.0, 10_000, 10_000, 40),
                                   (3, 2.0, 500, 2000, 40),
                                   (3, 3.0, 500, 2000, 40)]:
        point = (s,) * k
        direct, tail_d = d_direct(point, k, nmax, sieve_small)
        euler, tail_e = d_euler(point, k, pmax, vmax)
        gap = abs(euler - direct)
        assert gap <= tail_d + tail_e, (k, s, gap, tail_d, tail_e)
        checks.append(f"k={k} s={s:g}: gap {gap:.2e} <= {tail_d + tail_e:.2e}")
    count = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97):
        for k in range(1, 6):
            for v in range(1, 31):
                assert a0_local_check(p, k, v) \
                    == 1 - Fraction(1, p ** (v + 1))
                count += 1
    print("\nPASS criterion 6: " + "; ".join(checks)
          + f"; a0 identity exact at {count} (p, k, V) points")


def test_criterion_07_integer_convergence(sieve_1e6):
    model = model_uniform(2)
    reps = convergence_study([10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], 2, model,
                             Fraction(1, 20), sieve_1e6)
    sups = [r.sup_dev for r in reps]
    scaled = [r.scaled_sup_dev for r in reps]
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    small_tail = sups[-1] <= 0.15
    ratio = max(scaled) / min(scaled)
    ok = decreasing and small_tail and ratio <= 3.0
    print(f"\n{'PASS' if ok else 'FAIL'} criterion 7: sup_dev "
          + " -> ".join(f"{s:.4f}" for s in sups)
          + f" (decreasing: {decreasing}; last <= 0.15: {small_tail}; "
          f"scaled spread x{ratio:.4f} <= x3: {ratio <= 3.0})")
    assert decreasing, sups
    assert small_tail, sups[-1]
    assert ratio <= 3.0, scaled


def test_criterion_08_poly_and_perm_convergence(irr2):
    p4 = deviation_poly(2, 4, 2, Fraction(1, 10), irr2)
    p16 = deviation_poly(2, 16, 2, Fraction(1, 10), irr2)
    assert p16.sup_dev < p4.sup_dev
    lines = [f"polys q=2 n=4->16: {p4.sup_dev:.4f} -> {p16.sup_dev:.4f}"]
    for k in (2, 3):
        small = deviation_perm(10, k, Fraction(1, 10))
        big = deviation_perm(1000, k, Fraction(1, 10))
        assert big.sup_dev < small.sup_dev, k
        lines.append(f"perms k={k} n=10->1000: "
                     f"{small.sup_dev:.4f} -> {big.sup_dev:.4f}")
        if k == 2:
            assert big.sup_dev <= 0.10
    print("\nPASS criterion 8: " + "; ".join(lines))


SUITE = [("two-squares", 2, Fraction(1, 10)),
         ("squarefree", 2, Fraction(1, 10)),
         ("coprime", 2, Fraction(1, 10)),
         ("residues:4", None, Fraction(1, 10)),
         ("nested", 3, Fraction(1, 10)),
         ("tau-weights:1;1,2,3", 3, Fraction(1, 10))]


def test_criterion_09_model_suite(sieve_small):
    lines = []
    for spelling, k, step in SUITE:
        model = parse_model(spelling, k)
        small = sup_deviation(10 ** 3, model.k, model, step, sieve_small)
        big = sup_deviation(10 ** 5, model.k, model, step, sieve_small)
        assert big.sup_dev <= 0.15, (spelling, big.sup_dev)
        assert big.sup_dev < small.sup_dev, (spelling, small.sup_dev,
                                             big.sup_dev)
        lines.append(f"{model.model_id}: {small.sup_dev:.4f} -> "
                     f"{big.sup_dev:.4f}")
    print("\nPASS criterion 9: x=1e3 -> 1e5 sup_dev " + "; ".join(lines))


def test_criterion_10_weighted_box_sum(sieve_small):
    _, _, rr_small = weighted_sum_S((500.0, 500.0), 2, sieve_small)
    _, _, rr_big = weighted_sum_S((5000.0, 5000.0), 2, sieve_small)
    assert abs(rr_big) < abs(rr_small)

    bound = 2000
    engine_S, _, _ = weighted_sum_S((float(bound), float(bound)), 2,
                                    sieve_small)
    tau2 = np.zeros(bound * bound + 1, dtype=np.int64)
    for d in range(1, bound * bound + 1):
        tau2[d:: d] += 1
    log_sq = [0.0, 0.0] + [math.log(d) ** 2 for d in range(2, bound + 1)]
    rows = []
    for d1 in range(2, bound + 1):
        ls1 = log_sq[d1]
        row = [(ls1 * log_sq[d2]) / tau2[d1 * d2]
               for d2 in range(2, bound + 1)]
        rows.append(math.fsum(row))
    oracle_S = math.fsum(rows)
    assert engine_S == oracle_S  # bitwise, not approximately
    print(f"\nPASS criterion 10: |rr| {abs(rr_small):.4f} -> "
          f"{abs(rr_big):.4f}; S({bound},{bound}) bitwise equal "
          f"({engine_S!r})")


def test_criterion_11_determinism(sieve_small, tmp_path, capsys,
                                  monkeypatch):
    model = parse_model("squarefree", 2)
    base = accumulate_histogram(50_000, 2, model, 20, sieve=sieve_small)
    for pass_tuples in (1, 1 << 40):    # one chunk per pass; one pass
        monkeypatch.setattr(integers, "_PASS_TUPLES", pass_tuples)
        other = accumulate_histogram(50_000, 2, model, 20, sieve=sieve_small)
        assert base.weights.tobytes() == other.weights.tobytes()
        assert base.cum.tobytes() == other.cum.tobytes()
    monkeypatch.undo()

    outs = []
    for i, threads in enumerate((2, 8)):
        out = tmp_path / f"run{i}.csv"
        code = cli_main(["integers", "run", "--x", "20000", "--k", "2",
                         "--model", "two-squares", "--grid", "1/20",
                         "--threads", str(threads), "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / f"run{i}.csv.manifest.json")
                              .read_text())
        assert manifest["params"]["x"] == 20000
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    print("\nPASS criterion 11: histograms byte-identical across pass "
          "groupings; CLI reruns byte-identical across thread counts")
