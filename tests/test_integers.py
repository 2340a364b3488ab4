import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from dirlaw import integers
from dirlaw.arith import (WeightModel, build_spf_sieve, factorize,
                          least_prime_powers, model_uniform,
                          multiplicative_table, parse_model)
from dirlaw.errors import (DomainError, IntegrityError, ResourceError,
                           UnsupportedError)
from dirlaw.integers import (accumulate_histogram, convergence_study,
                             empirical_cdf, exact_lhs, mc_lhs, sup_deviation,
                             weighted_sum_S)
from dirlaw.report import rect_grid


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_lhs(x, k, model, u, sieve):
    """Direct definition: weighted mean over n of the in-box G mass.

    Thresholds d <= n^(p/q) are decided by the integer comparison
    d^q <= n^p, so the value is an exact rational.
    """
    def tuple_splits(n, parts):
        if parts == 1:
            yield (n,)
            return
        for d in _divisors(n):
            for rest in tuple_splits(n // d, parts - 1):
                yield (d,) + rest

    def vp(p, d):
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        return v

    num = Fraction(0)
    den = Fraction(0)
    for n in range(1, x + 1):
        fn = factorize(n, sieve)
        f = Fraction(model.f_value(fn))
        if f == 0:
            continue
        den += f
        total = Fraction(0)
        inside = Fraction(0)
        for tup in tuple_splits(n, k):
            g = Fraction(1)
            for p, _ in fn.factors:
                g *= model.g_local(p, tuple(vp(p, d) for d in tup))
            total += g
            if all(d ** c.denominator <= n ** c.numerator
                   for d, c in zip(tup[:-1], u)):
                inside += g
        if total:
            num += f * inside / total
    return num / den


def test_hand_oracle_x4():
    from dirlaw.arith import build_spf_sieve
    sv = build_spf_sieve(4)
    assert exact_lhs(4, 2, parse_model("uniform", 2), (Fraction(1, 2),),
                     sv) == Fraction(2, 3)


@pytest.mark.parametrize("name,k", [("uniform", 2), ("uniform", 3),
                                    ("squarefree", 2), ("two-squares", 2),
                                    ("nested", 3), ("coprime", 2)])
def test_exact_lhs_matches_brute_definition(name, k, sieve_small):
    model = parse_model(name, k)
    grid = [(Fraction(1, 3),) * (k - 1), (Fraction(2, 5),) * (k - 1),
            (Fraction(1),) * (k - 1)]
    for x in (1, 7, 36, 60):
        for u in grid:
            got = exact_lhs(x, k, model, u, sieve_small)
            want = brute_lhs(x, k, model, u, sieve_small)
            assert got == want, (name, x, u)


def test_residues_model_matches_brute(sieve_small):
    model = parse_model("residues:4")
    for x in (5, 24, 60):
        u = (Fraction(1, 2),)
        assert exact_lhs(x, model.k, model, u, sieve_small) \
            == brute_lhs(x, model.k, model, u, sieve_small)


def test_float_mode_tracks_exact_mode(sieve_small):
    model = parse_model("uniform", 2)
    for x in (50, 500):
        for u in [(Fraction(1, 4),), (Fraction(3, 5),)]:
            ex = exact_lhs(x, 2, model, u, sieve_small, exact=True)
            fl = exact_lhs(x, 2, model, u, sieve_small, exact=False)
            assert abs(float(ex) - fl) < 1e-12


def test_full_box_and_n1_edge(sieve_small):
    model = parse_model("uniform", 2)
    assert exact_lhs(1, 2, model, (Fraction(0),), sieve_small) == 1
    assert exact_lhs(37, 2, model, (Fraction(1),), sieve_small) == 1


def test_histogram_matches_exact_at_grid_corners(sieve_small):
    model = parse_model("squarefree", 2)
    x, bins = 2000, 10
    grid = accumulate_histogram(x, 2, model, bins, sieve=sieve_small)
    for m in range(1, bins + 1):
        u = Fraction(m, bins)
        emp = empirical_cdf(grid, (float(u),))
        ex = exact_lhs(x, 2, model, (u,), sieve_small, exact=False)
        assert emp == pytest.approx(ex, abs=5e-14)


# x <= 2000, smaller where the exact Fraction oracle is slow
WALKER_CASES = [("uniform", 3, 400), ("squarefree", 4, 300),
                ("two-squares", 3, 600), ("coprime", 3, 400),
                ("coprime:1-2", 3, 400), ("residues:3", None, 2000),
                ("residues:4", None, 2000), ("residues:5", None, 2000),
                ("residues:8", None, 2000), ("nested", 3, 400),
                ("nested", 4, 150), ("tau-weights:3/2;1,2,3", 3, 250),
                ("tau-weights:1/2;1,1", 2, 1000)]


@pytest.mark.parametrize("spelling,k,x", WALKER_CASES)
def test_walker_matches_exact_rationals_at_grid_corners(spelling, k, x,
                                                        sieve_small):
    model = parse_model(spelling, k)
    rep = sup_deviation(x, model.k, model, Fraction(1, 5), sieve_small)
    for u, emp in zip(rep.points, rep.empirical):
        ex = float(exact_lhs(x, model.k, model, u, sieve_small, exact=True))
        fl = exact_lhs(x, model.k, model, u, sieve_small, exact=False)
        assert abs(emp - ex) <= 5e-14, (u, emp, ex)
        assert abs(fl - ex) <= 5e-14, (u, fl, ex)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from([(s, k) for s, k, _ in WALKER_CASES]
                            + [("tau-weights:2;1,3,1/2", 3),
                               ("coprime:1-3", 4)]),
       x=st.integers(1, 300), data=st.data())
def test_walker_float_lhs_matches_exact_at_rational_corners(case, x, data,
                                                            sieve_small):
    model = parse_model(*case)
    u = tuple(Fraction(data.draw(st.integers(0, 12)), 12)
              for _ in range(model.k - 1))
    ex = exact_lhs(x, model.k, model, u, sieve_small, exact=True)
    fl = exact_lhs(x, model.k, model, u, sieve_small, exact=False)
    assert abs(fl - float(ex)) <= 5e-14, (case, x, u, fl, ex)


# every model spelling of this file, with its k (None: the model's own)
SPELLINGS = sorted({(s, k) for s, k, _ in WALKER_CASES} | {
    ("uniform", 2), ("squarefree", 2), ("squarefree", 3), ("two-squares", 2),
    ("coprime", 2), ("coprime:1-3", 4), ("tau-weights:2;1,1", 2),
    ("tau-weights:2;1,3,1/2", 3), ("tau-weights:1;1,2,3", 3),
    ("tau-weights:1;1,1,2", 3)}, key=str)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from(SPELLINGS), x=st.integers(1, 5000))
def test_tuple_count_table_matches_the_slots(case, x, sieve_small):
    """The multiplicative tuple counts against the product of the row
    counts along ``_slots``, and against the rows of the blocks that
    ``tuples`` expands per n."""
    tables = integers._LocalTables(parse_model(*case), x, sieve_small)
    counts = tables.tuple_counts()
    slots, f, _ = tables._slots(np.arange(x + 1))
    want = np.ones(x + 1, dtype=np.int64)
    for entry in slots:
        want *= tables._row_count[tables._table[entry]]
    assert counts.tolist() == want.tolist()
    ps = tables.tuples(1, x + 1)
    rows = np.zeros(len(ps.n), dtype=np.int64)
    for m, _, _, g in ps.blocks:
        rows[m] += len(g)
    assert rows.tolist() == counts[ps.n].tolist()
    assert not counts[1:][f[1:] == 0].any()


_TABLE_ARRAYS = ("_table", "_entry", "_logp", "_cofactor", "_f", "_g_sum",
                 "_row_count", "_row_start", "_row_g", "_row_key")


@pytest.mark.parametrize(
    "case", SPELLINGS + [(f"residues:{q}", None) for q in (3, 4, 5, 8)],
    ids=str)
def test_local_class_tables_match_per_prime_tables(case, sieve_small):
    """Tables compiled once per (local class, v) against tables compiled
    at every prime power, array for array, bit for bit."""
    model = parse_model(*case)
    assert model.local_class is not None
    got = integers._LocalTables(model, 4095, sieve_small)
    want = integers._LocalTables(
        dataclasses.replace(model, local_class=None), 4095, sieve_small)
    for name in _TABLE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert [e.tobytes() for e in got._row_exps] \
        == [e.tobytes() for e in want._row_exps]


@pytest.mark.parametrize("spec,k", [("uniform", 3), ("nested", 3),
                                    ("two-squares", 2), ("residues:5", None),
                                    ("tau-weights:1;1,2,3", 3)])
def test_compile_calls_the_model_once_per_class(spec, k, sieve_small):
    """``_LocalTables`` calls f_local exactly once per (class, v) among
    the prime powers <= x, not once per prime power."""
    model = parse_model(spec, k)
    calls = []
    counted = dataclasses.replace(
        model, f_local=lambda p, v: calls.append((p, v)) or
        model.f_local(p, v))
    calls.clear()                      # the dataclass's own check
    x = 4095
    integers._LocalTables(counted, x, sieve_small)
    primes = np.array([p for p in range(2, x + 1)
                       if factorize(p, sieve_small).factors == ((p, 1),)])
    cls = dict(zip(primes.tolist(), model.local_class(primes).tolist()))
    want = {(cls[p], v) for p in cls for v in range(1, 13) if p ** v <= x}
    got = Counter((cls[p], v) for p, v in calls)
    assert set(got) == want and set(got.values()) == {1}
    assert len(calls) < len(primes) / 10


@pytest.mark.parametrize("spelling,x,bins", [
    ("nested", 10_000, 20), ("tau-weights:1;1,2,3", 10_000, 20),
    ("squarefree", 3000, 100)],       # 100^2 cells exceed _PASS_TUPLES
    ids=["nested", "tau-weights:1;1,2,3", "squarefree-100-bins"])
def test_walker_bits_ignore_passes(spelling, x, bins, sieve_small,
                                   monkeypatch):
    model = parse_model(spelling, 3)
    base = accumulate_histogram(x, 3, model, bins, sieve=sieve_small)
    for pass_tuples in (1, 1 << 40):    # one chunk per pass; one pass
        monkeypatch.setattr(integers, "_PASS_TUPLES", pass_tuples)
        other = accumulate_histogram(x, 3, model, bins, sieve=sieve_small)
        assert base.weights.tobytes() == other.weights.tobytes()
        assert base.cum.tobytes() == other.cum.tobytes()


def _leaves_oracle(tables, lo, hi):
    """The tuples of every n in [lo, hi) with f(n) != 0 as the walker
    expanded them before it grouped n by prime signature: slot by slot,
    one gather per tuple.  Returns n, log n, f, G_total and per tuple its
    owner (index into n), log d_j (one array per j < k) and G weight."""
    slots, f, g_total = tables._slots(np.arange(lo, hi))
    keep = np.flatnonzero(f)
    n = keep + lo
    owner = np.arange(len(n), dtype=np.int32)
    logd = [np.zeros(len(n)) for _ in range(tables.k - 1)]
    g = np.ones(len(n))
    for entry in slots:
        entry = entry[keep]
        tid = tables._table[entry][owner]
        count = tables._row_count[tid]
        parent = np.repeat(np.arange(len(owner), dtype=np.int32), count)
        row = np.repeat(tables._row_start[tid] - (np.cumsum(count) - count),
                        count)
        row += np.arange(len(parent))
        owner = owner[parent]
        g = g[parent] * tables._row_g[row]
        logp = tables._logp[entry][owner]
        logd = [d[parent] + e[row] * logp
                for d, e in zip(logd, tables._row_exps)]
    return n, integers._log(n), f[keep], g_total[keep], owner, logd, g


def _histogram_oracle(x, model, bins_list, sieve):
    """Finalized histograms per bin count, deposited chunk by chunk of
    ``_chunk_ranges`` from ``_leaves_oracle``'s tuples in tuple order."""
    tables = integers._LocalTables(model, x, sieve)
    hists = {bins: np.zeros((bins,) * (model.k - 1)) for bins in bins_list}
    norm = 0.0
    for lo, hi in integers._chunk_ranges(x):
        n, log_n, f, g_total, owner, logd, g = _leaves_oracle(tables, lo, hi)
        ln_inv = np.divide(1.0, log_n, out=np.zeros_like(log_n),
                           where=log_n > 0.0)[owner]
        weights = g * (f / g_total)[owner]
        for bins, hist in hists.items():
            cell = np.zeros(len(owner), dtype=np.int64)
            for d in logd:
                r = d * ln_inv * bins       # ``_cells`` as it was, with clip
                c = np.ceil(r * (1.0 - integers._REL_GUARD)
                            - integers._ABS_GUARD).astype(np.int64) - 1
                cell = cell * bins + np.clip(c, 0, bins - 1)
            hist += np.bincount(cell, weights, hist.size).reshape(hist.shape)
        norm += math.fsum(f)
    return {bins: integers.HistogramGrid(model.k, bins, hist,
                                         normalizer=norm).finalize()
            for bins, hist in hists.items()}


def _float_lhs_oracle(x, model, u, sieve):
    """The float ``exact_lhs`` summed from ``_leaves_oracle``'s tuples."""
    tables = integers._LocalTables(model, x, sieve)
    num, den = [], []
    for lo, hi in integers._chunk_ranges(x):
        n, log_n, f, g_total, owner, logd, g = _leaves_oracle(tables, lo, hi)
        inside = np.ones(len(g), dtype=bool)
        for c, d in zip(u, logd):
            caps = (float(c) * log_n * (1.0 + integers._REL_GUARD)
                    + integers._ABS_GUARD)
            inside &= d <= caps[owner]
        good = np.bincount(owner, weights=np.where(inside, g, 0.0),
                           minlength=len(n))
        num.append(f * good / g_total)
        den.append(f)
    return math.fsum(np.concatenate(num)) / math.fsum(np.concatenate(den))


# every builtin model at k = 2, 3, 4 that runs the walker (uniform k = 2
# has its own path), and each residues modulus
ORACLE_CASES = [(s, k) for k in (2, 3, 4) for s in (
    "uniform", "squarefree", "two-squares", "nested", "coprime",
    {2: "tau-weights:1/2;1,1", 3: "tau-weights:3/2;1,2,3",
     4: "tau-weights:2;1,3,1/2,1"}[k]) if (s, k) != ("uniform", 2)] \
    + [(f"residues:{q}", None) for q in (3, 4, 5, 8)]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=str)
def test_walker_histograms_are_the_oracle_bitwise(case, sieve_small):
    """Weights, cum and normalizer of the per-signature blocks against the
    per-tuple expansion, byte for byte."""
    model = parse_model(*case)
    for x in (1, 2, 511, 512, 513, 5000, 30_000):
        for bins, want in _histogram_oracle(x, model, (10, 20, 100),
                                            sieve_small).items():
            got = accumulate_histogram(x, model.k, model, bins, sieve_small)
            assert got.weights.tobytes() == want.weights.tobytes(), (x, bins)
            assert got.cum.tobytes() == want.cum.tobytes(), (x, bins)
            assert got.normalizer.hex() == want.normalizer.hex(), (x, bins)


@pytest.mark.parametrize("case", ORACLE_CASES, ids=str)
def test_walker_float_lhs_is_the_oracle_bitwise(case, sieve_small):
    model = parse_model(*case)
    m = model.k - 1
    corners = [(Fraction(0),) * m, (Fraction(1),) * m, (Fraction(1, 2),) * m,
               tuple(Fraction(i + 1, 2 * m + 1) for i in range(m)),
               tuple(Fraction(1, 3 + i) for i in range(m))]
    for x in (1, 513, 5000):
        for u in corners:
            got = exact_lhs(x, model.k, model, u, sieve_small, exact=False)
            assert got.hex() == _float_lhs_oracle(x, model, u,
                                                  sieve_small).hex(), (x, u)


def test_uniform_fast_path_matches_general_walk(sieve_small):
    model = parse_model("uniform", 2)
    x, bins = 3000, 25
    fast = accumulate_histogram(x, 2, model, bins, sieve=sieve_small)
    # the same statistic, 1/tau(n) per divisor pair, through the walker
    slow = accumulate_histogram(x, 2, parse_model("tau-weights:1;1,1"),
                                bins, sieve=sieve_small)
    assert fast.normalizer == slow.normalizer
    np.testing.assert_allclose(fast.weights, slow.weights, rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(fast.cum, slow.cum, rtol=0, atol=1e-15)
    for m in range(1, bins + 1):
        u = Fraction(m, bins)
        ex = exact_lhs(x, 2, model, (u,), sieve_small, exact=False)
        assert empirical_cdf(fast, (float(u),)) == pytest.approx(ex,
                                                                 abs=5e-14)


def _k2_pair_cells(x, bins):
    """(cells, n) per row of the divisor pairs (d, n) with 2 <= n <= x,
    each binned on its own: the per-pair deposit of the k = 2 path
    before its run sums."""
    split = math.isqrt(x)
    logn = np.zeros(x + 1)
    logn[2:] = np.log(np.arange(2, x + 1, dtype=np.float64))
    for d in range(1, split + 1):
        n = np.arange(d, x + 1, d)
        n = n[n >= 2]
        d_arr = np.full(len(n), float(d))
        yield integers._cells((np.log(d_arr) / logn[n]) * bins, bins), n
    for m in range(1, x // (split + 1) + 1):
        d = np.arange(split + 1, x // m + 1, dtype=np.int64)
        n = d * m
        yield integers._cells((np.log(d.astype(np.float64)) / logn[n])
                              * bins, bins), n


@pytest.mark.parametrize("bins", [2, 3, 7, 10, 20, 25, 50, 100])
def test_k2_run_sums_count_every_pair_in_its_own_bin(bins):
    for x in [*range(1, 11), 97, 1000, 100_000]:
        want = np.zeros(bins)
        want[0] = 1.0                                   # n = 1
        for cells, _ in _k2_pair_cells(x, bins):
            want += np.bincount(cells, minlength=bins)
        got = integers._k2_run_sums(x, bins, np.ones(x + 1))
        assert got.tolist() == want.tolist(), (x, bins)


@pytest.fixture(scope="module")
def sieve_1e6():
    return build_spf_sieve(1_000_000)


def _inverse_tau_oracle(x, sieve):
    """1 / tau(n) for n = 0..x as the uniform k = 2 path built it before
    the in-place fill: a product of v + 1 over the least prime powers."""
    exponent, cofactor = least_prime_powers(sieve, x)[1:]
    return 1.0 / multiplicative_table(exponent + 1.0, cofactor)


BLOCK = integers._TAU_BLOCK


@pytest.mark.parametrize("x", [1, 2, 3, 4, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 3, 100_003, 1_000_000])
def test_inverse_tau_is_the_factorization_product_bitwise(x, sieve_1e6):
    oracle = _inverse_tau_oracle(x, sieve_1e6)
    assert integers._inverse_tau(x, sieve_1e6).tobytes() == oracle.tobytes()
    for bins in (10, 20, 100):
        got = accumulate_histogram(x, 2, model_uniform(2), bins, sieve_1e6)
        want = integers.HistogramGrid(
            k=2, bins_per_dim=bins, weights=integers._k2_run_sums(
                x, bins, oracle), normalizer=float(x)).finalize()
        assert got.weights.tobytes() == want.weights.tobytes(), (x, bins)
        assert got.cum.tobytes() == want.cum.tobytes(), (x, bins)


def test_uniform_k2_traced_peak_per_n(sieve_1e6):
    """The weights (8 B per n) and ``_k2_run_sums``'s run buffer (4 B)
    set the floor; the int8 exponents of the fill are freed before the
    run sums start.  16 B leaves room for block-sized temporaries and the
    bisection arrays, and refuses any second x-long float64 table."""
    x = 1_000_000
    integers._accumulate_uniform_k2(1000, 20, sieve_1e6)    # warm imports
    tracemalloc.start()
    try:
        integers._accumulate_uniform_k2(x, 20, sieve_1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * x, peak / x


def test_walker_traced_peak_is_pass_sized(sieve_1e6):
    """The walker holds one pass of tuples at a time.  At x = 2e5 the
    x-long tables of ``_LocalTables`` and the tuple counts peak near
    6 MB; a pass adds its tuple-order cells and weights (16 B per tuple,
    about 4 MB at ``_PASS_TUPLES`` = 2^18) and its largest block's
    temporaries, 9.3 MB in all.  16 MB leaves room for those to move,
    while one pass over the whole range (16.8M tuples here) would need
    over 250 MB."""
    model = model_uniform(3)
    accumulate_histogram(1000, 3, model, 10, sieve_1e6)     # warm imports
    tracemalloc.start()
    try:
        accumulate_histogram(200_000, 3, model, 10, sieve_1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, peak / 1e6


@pytest.mark.parametrize("bins", [10, 20])
def test_k2_run_sums_within_fsum_of_pair_weights(bins):
    x = 30_000
    tau = np.zeros(x + 1)
    for d in range(1, x + 1):
        tau[d::d] += 1.0
    weight = np.divide(1.0, tau, out=np.zeros(x + 1), where=tau > 0)
    cells, n = map(np.concatenate, zip(*_k2_pair_cells(x, bins)))
    want = [math.fsum([1.0, *weight[n[cells <= b]].tolist()])
            for b in range(bins)]
    got = np.cumsum(integers._k2_run_sums(x, bins, weight))
    assert np.abs(got - want).max() <= 1e-13 * x


def test_sup_deviation_report_shape(sieve_small):
    model = parse_model("uniform", 2)
    rep = sup_deviation(10_000, 2, model, Fraction(1, 10), sieve_small)
    assert rep.kind == "integers" and rep.scale == 10_000
    assert len(rep.points) == len(rect_grid(2, Fraction(1, 10)))
    assert rep.sup_dev == max(rep.deviation)
    assert rep.scaled_sup_dev == pytest.approx(
        rep.sup_dev * math.sqrt(math.log(10_000)))
    assert 0 < rep.sup_dev < 0.2


def test_convergence_study_orders_scales(sieve_small):
    model = parse_model("uniform", 2)
    reps = convergence_study([1000, 10_000], 2, model, Fraction(1, 10),
                             sieve_small)
    assert [r.scale for r in reps] == [1000, 10_000]
    with pytest.raises(DomainError):
        convergence_study([10_000, 1000], 2, model, Fraction(1, 10),
                          sieve_small)


def test_mc_lhs_within_four_sigma(sieve_small):
    model = parse_model("uniform", 2)
    u = (Fraction(1, 2),)
    est, err = mc_lhs(5000, 2, model, u, 20_000, seed=9, sieve=sieve_small)
    want = exact_lhs(5000, 2, model, u, sieve_small, exact=False)
    assert abs(est - want) <= 4 * err
    est1, err1 = mc_lhs(5000, 2, model, (Fraction(1),), 2000, seed=1,
                        sieve=sieve_small)
    assert est1 == 1.0 and err1 == 0.0


def test_mc_lhs_guards(sieve_small):
    model = parse_model("uniform", 2)
    with pytest.raises(DomainError):
        mc_lhs(5000, 2, model, (Fraction(1, 2),), 10, seed=0,
               sieve=sieve_small)
    unbounded = parse_model("tau-weights:2;1,1")
    if not unbounded.f_bounded_by_one:
        with pytest.raises(UnsupportedError):
            mc_lhs(100, 2, unbounded, (Fraction(1, 2),), 2000, seed=0,
                   sieve=sieve_small)


def _drawn_tuples(tables, n, size, seed):
    """(d_1, ..., d_{k-1}) of ``size`` tuples of n, one ``draw`` per prime
    slot, counted."""
    rng = np.random.Generator(np.random.PCG64(seed))
    slots, f, _ = tables._slots(np.full(size, n))
    assert f[0] > 0
    parts = np.ones((tables.k - 1, size), dtype=np.int64)
    for entry in slots:
        row = tables.draw(entry, rng.random(size))
        p = np.rint(np.exp(tables._logp[entry])).astype(np.int64)
        for d, e in zip(parts, tables._row_exps):
            d *= p ** e[row].astype(np.int64)
    return Counter(zip(*parts.tolist()))


@pytest.mark.parametrize("spec,k", [("uniform", 3), ("squarefree", 3),
                                    ("nested", 3), ("coprime:1-2", 3),
                                    ("residues:4", 2)])
def test_draw_matches_walker_tuple_weights(spec, k, sieve_small):
    """Tuple frequencies of the per-slot sampler at fixed n against
    G / sum G from the exact recursion: no tuple outside its support, and
    a chi-square statistic below its 1e-6 upper quantile."""
    model = parse_model(spec, k)
    tables = integers._LocalTables(model, 4095, sieve_small)
    size = 100_000
    tested = 0
    for n in (1, 12, 360, 2520, 2310, 4095):
        fn = factorize(n, sieve_small)
        if model.f_value(fn) == 0:
            continue
        want = dict(integers._walk_leaf_parts(fn, model))
        total = sum(want.values())
        got = _drawn_tuples(tables, n, size, seed=n)
        assert set(got) <= set(want), (spec, n)
        stat = sum((got[t] - size * float(g / total)) ** 2
                   / (size * float(g / total)) for t, g in want.items())
        if len(want) > 1:
            assert stat < chi2.isf(1e-6, len(want) - 1), (spec, n, stat)
        tested += 1
    assert tested >= 2


@pytest.mark.parametrize("spec", ["uniform", "squarefree", "nested",
                                  "coprime:1-2", "two-squares",
                                  "tau-weights:1;1,1,2"])
def test_mc_lhs_within_four_sigma_k3(spec, sieve_small):
    model = parse_model(spec, 3)
    u = (Fraction(1, 2), Fraction(1, 5))
    est, err = mc_lhs(3000, 3, model, u, 20_000, seed=5, sieve=sieve_small)
    want = exact_lhs(3000, 3, model, u, sieve_small, exact=False)
    assert 0.0 < err and abs(est - want) <= 4 * err


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 63), spec=st.sampled_from(
    ["uniform", "squarefree", "nested", "two-squares"]))
def test_mc_lhs_same_seed_same_bits(seed, spec, sieve_small):
    model = parse_model(spec, 3)
    u = (Fraction(1, 3), Fraction(1, 3))
    first = mc_lhs(2000, 3, model, u, 3000, seed, sieve_small)
    assert first == mc_lhs(2000, 3, model, u, 3000, seed, sieve_small)


def test_mc_lhs_refuses_vanishing_g(sieve_small):
    # f(3) = 1 but no split of 3 has G > 0
    model = WeightModel(
        model_id="no-split-at-3", k=2, f_local=lambda p, v: 1,
        g_local=lambda p, comp: 0 if p == 3 and sum(comp) else 1,
        alpha_exact=(Fraction(1, 2),) * 2)
    with pytest.raises(IntegrityError, match="vanishes"):
        mc_lhs(100, 2, model, (Fraction(1, 2),), 1000, seed=0,
               sieve=sieve_small)


def test_weighted_sum_matches_double_loop(sieve_small):
    bound = 60
    total, main, ratio = weighted_sum_S((float(bound), float(bound)), 2,
                                        sieve_small)

    from dirlaw.arith import tau_k
    rows = []
    for d1 in range(2, bound + 1):
        terms = []
        for d2 in range(2, bound + 1):
            tau = tau_k(factorize(d1 * d2, sieve_small), 2)
            terms.append((math.log(d1) ** 2 * math.log(d2) ** 2) / tau)
        rows.append(math.fsum(terms))
    want = math.fsum(rows)
    assert total == want  # bitwise, not approximately
    assert main > 0 and ratio == (total - main) / main


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_weighted_sum_matches_plain_loop_on_unequal_boxes(data, sieve_small):
    k = data.draw(st.integers(2, 4))
    top = {2: 150.0, 3: 25.0, 4: 9.0}[k]
    bounds = [data.draw(st.floats(math.e, top)) for _ in range(k)]
    total, _, _ = weighted_sum_S(bounds, k, sieve_small)

    from dirlaw.arith import tau_k
    log_sq = [0.0, 0.0] + [math.log(d) ** 2
                           for d in range(2, math.floor(max(bounds)) + 1)]
    rows = []
    for outer in itertools.product(*(range(2, math.floor(x) + 1)
                                     for x in bounds[:-1])):
        c = 1.0
        for d in outer:
            c = c * log_sq[d]
        m = math.prod(outer)
        rows.append(math.fsum(
            (c * log_sq[d]) / tau_k(factorize(m * d, sieve_small), k)
            for d in range(2, math.floor(bounds[-1]) + 1)))
    assert total == math.fsum(rows)  # bitwise, not approximately


def test_weighted_sum_guards(sieve_small):
    with pytest.raises(DomainError):
        weighted_sum_S((2.0, 50.0), 2, sieve_small)  # below e
    with pytest.raises(ResourceError):
        weighted_sum_S((20_000.0, 20_000.0), 2, sieve_small)
    with pytest.raises(DomainError):
        weighted_sum_S((math.nan, 50.0), 2, sieve_small)


def test_domain_errors(sieve_small):
    model = parse_model("uniform", 2)
    with pytest.raises(DomainError):
        exact_lhs(10, 3, model, (Fraction(1, 2), Fraction(1, 2)),
                  sieve_small)
    with pytest.raises(DomainError):
        exact_lhs(10, 2, model, (Fraction(3, 2),), sieve_small)
    with pytest.raises(DomainError):
        accumulate_histogram(100, 2, model, 5, sieve=sieve_small)
    with pytest.raises(DomainError):
        sup_deviation(100, 2, model, Fraction(3, 10), sieve_small)
    with pytest.raises(DomainError):
        sup_deviation(100, 2, model, Fraction(1, 200), sieve_small)
