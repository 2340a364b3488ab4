import itertools
import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from dirlaw import series
from dirlaw.arith import (build_spf_sieve, factorize, least_prime_powers,
                          parse_model, tau_k)
from dirlaw.errors import DomainError, ResourceError
from dirlaw.series import (a0_local_check, d_direct, d_euler, prime_sum_diag,
                           tau_box_sum)


def test_single_variable_is_partial_zeta(sieve_small):
    for sigma in (1.6, 2.0, 3.0):
        val, tail = d_direct((sigma,), 1, 500, sieve_small)
        partial = math.fsum(n ** -sigma for n in range(1, 501))
        assert val == pytest.approx(partial, rel=1e-14)
        true_tail = zeta(sigma) - partial
        assert 0 < true_tail <= tail * (1 + 1e-12)


def _zeta_reference(s, q):
    """Hurwitz zeta at 40 digits: mp.fsum of the first max(40, 2 s + 2)
    terms, then Euler-Maclaurin with 20 Bernoulli corrections, which at
    that start decrease.  Neither mpmath.zeta (off by 4.9e-10 relative at
    (40, 1001), 40 digits) nor scipy.special.zeta (off by up to 6e-11
    relative at s > 100, q in [100, 300]) holds 1e-14 over this range."""
    with mpmath.workdps(40):
        s, q = mpmath.mpf(s), mpmath.mpf(q)
        m = max(40, 2 * int(s) + 2)
        a = q + m
        rest = [a ** (1 - s) / (s - 1), a ** -s / 2]
        rising = s
        for j in range(1, 21):
            rest.append(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                        * rising * a ** (1 - s - 2 * j))
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        return float(mpmath.fsum((q + n) ** -s for n in range(m))
                     + mpmath.fsum(rest))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=st.floats(1.0, 200.0, exclude_min=True),
       q=st.one_of(st.integers(1, 300).map(float),
                   st.floats(0.0, math.log(1e6)).map(math.exp)))
@example(s=1 + 1e-10, q=1.0)
@example(s=40.0, q=1001.0)
@example(s=151.9962952094701, q=93.54844184382337)
@example(s=200.0, q=1e6)
def test_zeta_matches_reference(s, q):
    want = _zeta_reference(s, q)
    # relative below the normal range would ask for more bits than it has
    assert abs(series._zeta(s, q) - want) <= 1e-14 * max(
        want, sys.float_info.min)


def test_tiny_truncations_by_hand(sieve_small):
    val, _ = d_direct((2.0, 2.0), 2, 1, sieve_small)
    assert val == pytest.approx(1.0, rel=1e-15)
    # n pairs up to 2: (1,1) -> 1, (1,2) and (2,1) -> (1/2)/4 each,
    # (2,2) -> (1/3)/16
    val2, _ = d_direct((2.0, 2.0), 2, 2, sieve_small)
    want = 1 + 2 * (1 / 2) / 4 + (1 / 3) / 16
    assert val2 == pytest.approx(want, rel=1e-15)


def test_direct_tail_brackets_refinement(sieve_small):
    coarse, tail_c = d_direct((2.0, 2.0), 2, 200, sieve_small)
    fine, tail_f = d_direct((2.0, 2.0), 2, 2000, sieve_small)
    assert tail_f < tail_c
    assert abs(fine - coarse) <= tail_c + tail_f


@pytest.mark.parametrize("k,s,nmax,pmax,vmax", [
    (2, 2.0, 2000, 2000, 30),
    (2, 3.0, 1000, 1000, 25),
    (3, 3.0, 300, 500, 25),
])
def test_euler_product_matches_direct_sum(k, s, nmax, pmax, vmax,
                                          sieve_small):
    point = (s,) * k
    direct, tail_d = d_direct(point, k, nmax, sieve_small)
    euler, tail_e = d_euler(point, k, pmax, vmax)
    assert abs(euler - direct) <= tail_d + tail_e


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), data=st.data())
def test_euler_product_matches_direct_sum_property(k, data, sieve_small):
    # real points, each coordinate on its own; v_max from the smallest
    # one that certifies the sub-1e-15 local tail, p_max from 1, where
    # the tail takes its small-prime branch
    point = tuple(data.draw(st.lists(st.floats(1.6, 4.0), min_size=k,
                                     max_size=k)))
    nmax = data.draw(st.integers(1, {1: 2000, 2: 300, 3: 40}[k]))
    pmax = data.draw(st.integers(1, 500))
    vmax = data.draw(st.integers(math.ceil(50 / min(point)), 40))
    direct, tail_d = d_direct(point, k, nmax, sieve_small)
    euler, tail_e = d_euler(point, k, pmax, vmax)
    assert abs(euler - direct) <= tail_d + tail_e


def test_complex_point_is_finite(sieve_small):
    point = (2.0 + 0.7j, 2.5 - 0.3j)
    val, tail = d_direct(point, 2, 500, sieve_small)
    val_e, tail_e = d_euler(point, 2, 500, 30)
    assert abs(val) < 10 and tail > 0
    assert abs(val - val_e) <= tail + tail_e


def test_a0_local_identity():
    for p in (2, 3, 97):
        for k in (1, 2, 5):
            for v in (1, 7, 30):
                want = 1 - Fraction(1, p ** (v + 1))
                assert a0_local_check(p, k, v) == want


def test_prime_sum_vanishes_for_balanced_models():
    uniform = parse_model("uniform", 2)
    assert prime_sum_diag(uniform, 0, 2.0, 5000) == 0
    sqfree = parse_model("squarefree", 2)
    assert prime_sum_diag(sqfree, 1, 2.0, 5000) == 0
    with pytest.raises(DomainError):
        prime_sum_diag(uniform, 2, 2.0, 5000)


def test_prime_sum_bounded_for_two_squares():
    model = parse_model("two-squares", 2)
    val = prime_sum_diag(model, 0, 2.0, 20_000)
    assert abs(val) < 0.05
    # alternating character sum over p^-2: tiny but not identically zero
    assert abs(val) > 1e-4


def test_series_guards(sieve_small):
    with pytest.raises(DomainError):
        d_direct((1.2, 2.0), 2, 100, sieve_small)  # sigma below 1.5
    with pytest.raises(ResourceError):
        d_direct((2.0, 2.0, 2.0), 3, 100_000, sieve_small)  # cost guard
    with pytest.raises(DomainError):
        d_euler((2.0, 2.0), 2, 1000, 10)  # local tail not certified
    for pmax, vmax in ((100, 100_000), (1, 10 ** 9)):
        with pytest.raises(ResourceError):  # Euler-product cost guard
            d_euler((2.0, 2.0), 2, pmax, vmax)
    with pytest.raises(ResourceError):  # C(k v_max + k - 1, k - 1) > 1e308
        d_euler((2.0,) * 200, 200, 10, 30)
    with pytest.raises(ResourceError):  # deeper than the recursion guard
        a0_local_check(2, 900, 30)
    for k, v_max in ((100, 300), (2, 20_000)):
        with pytest.raises(ResourceError):  # k (V + 1)^2 above 2.5e6
            a0_local_check(2, k, v_max)
    assert a0_local_check(2, 100, 30) == 1 - Fraction(1, 2 ** 31)
    for point in ((math.nan, 2.0), (2.0, math.inf)):
        with pytest.raises(DomainError):
            d_direct(point, 2, 10, sieve_small)
        with pytest.raises(DomainError):
            d_euler(point, 2, 100, 30)
    with pytest.raises(DomainError):
        prime_sum_diag(parse_model("uniform", 2), 0, complex(2, math.nan),
                       100)


def plain_box_sum(axes, sieve):
    """The box sum term by term: tau_k from factorize, c = 1.0 * a_1 *
    ... * a_{k-1} left to right, one fsum per row of (c * a_k) / tau."""
    k = len(axes)
    re_rows, im_rows = [], []
    for outer in itertools.product(*(range(1, len(ax) + 1)
                                     for ax in axes[:-1])):
        c, m = 1.0, 1
        for ax, n in zip(axes, outer):
            c, m = c * ax[n - 1], m * n
        terms = [complex((c * a) / tau_k(factorize(m * b, sieve), k))
                 for b, a in enumerate(axes[-1], start=1)]
        re_rows.append(math.fsum(t.real for t in terms))
        im_rows.append(math.fsum(t.imag for t in terms))
    return complex(math.fsum(re_rows), math.fsum(im_rows))


@st.composite
def boxes(draw, ks=st.integers(1, 5), stack=1, real=False):
    """k axes of random reals (or, unless ``real``, complexes); the axes
    of n_{k-2} and n_{k-1}, where they exist, have at least ``stack``
    entries."""
    k = draw(ks)
    longest = {1: 300, 2: 60, 3: 16, 4: 7, 5: 4}[k]
    value = st.floats(-2.0, 2.0)
    if not real and draw(st.booleans()):
        value = st.builds(complex, value, value)
    return [draw(st.lists(value, min_size=stack if j in (k - 3, k - 2) else 1,
                          max_size=longest))
            for j in range(k)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(axes=boxes(), cells=st.sampled_from([1, 5, 64, 1 << 20]))
def test_tau_box_sum_matches_plain_loop(axes, cells, sieve_small):
    with mock.patch.object(series, "_BLOCK_CELLS", cells):
        got = tau_box_sum(axes, sieve_small)
    want = plain_box_sum(axes, sieve_small)
    if all(isinstance(a, float) for ax in axes for a in ax):
        assert got == want  # bitwise, not approximately
    else:                   # Python and numpy may divide complex apart
        scale = math.prod(max(map(abs, ax)) for ax in axes) \
            * math.prod(map(len, axes))
        assert abs(got - want) <= 1e-15 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(axes=boxes(ks=st.integers(3, 5), stack=3, real=True),
       data=st.data())
def test_tau_box_sum_stacks_some_prefixes(axes, data, sieve_small):
    """Blocks that start and end inside one prefix n_1 ... n_{k-2}, and
    blocks that span several prefixes, bit for bit."""
    rows, n_cols = len(axes[-2]), len(axes[-1])     # the rows of a prefix
    want = plain_box_sum(axes, sieve_small)
    for per in (data.draw(st.integers(1, rows - 1)),
                data.draw(st.integers(2 * rows + 1, 4 * rows))):
        cells = per * n_cols + data.draw(st.integers(0, n_cols - 1))
        with mock.patch.object(series, "_BLOCK_CELLS", cells):
            assert tau_box_sum(axes, sieve_small) == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(axes=boxes(real=True))
@example(axes=[[math.sin(n + j) for n in range(60)] for j in range(3)])
def test_tau_box_sum_sieves_the_axes_not_their_products(axes):
    """A sieve up to the longest axis is enough: each n_j is factored, not
    the products n_1 ... n_k.  The oracle sieves the products."""
    got = tau_box_sum(axes, build_spf_sieve(max(map(len, axes))))
    assert got == plain_box_sum(axes,
                                build_spf_sieve(math.prod(map(len, axes))))


def test_tau_grid_refuses_tau_past_the_exact_float_range():
    """tau_12(720720^2) < 2^53 is exact; tau_12(720720^11) is past 2^53,
    so the row kernel refuses that row."""
    sieve = build_spf_sieve(720720)                 # 2^4 3^2 5 7 11 13
    _, exponent, cofactor = least_prime_powers(sieve, 720720)
    comb = series._comb_weights(12, 64)

    def grid(n_axes):
        return series._tau_grid([np.array([720720])] * n_axes, np.ones(1),
                                comb, sieve.spf, exponent, cofactor)

    assert grid(2)[0, 0] == math.comb(19, 11) * math.comb(15, 11) \
        * math.comb(13, 11) ** 4
    with pytest.raises(ResourceError, match="exact float range"):
        grid(11)


@st.composite
def fsum_rows(draw, n):
    """One row of n floats whose correct rounding is hard to get right."""
    kind = draw(st.sampled_from(["mixed", "tie", "power", "zero", "cancel"]))
    if kind == "mixed":     # subnormal up to about 2^1000, either sign
        return [math.ldexp(m, e) for m, e in zip(
            draw(st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=n,
                          max_size=n)),
            draw(st.lists(st.integers(-1126, 947), min_size=n,
                          max_size=n)))]
    if kind == "zero":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                             max_size=n))
    # a base b, a term h, a nudge far below them and pairs +-y that cancel
    ys = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=True),
                       min_size=(n - 3) // 2, max_size=(n - 3) // 2))
    if kind == "cancel":
        b, h = 0.0, 0.0
    elif kind == "tie":     # b + h halfway between b and a neighbour
        b = draw(st.floats(1e-300, 1e300)) * draw(st.sampled_from([1, -1]))
        h = draw(st.sampled_from([1, -1])) * math.ulp(b) / 2
        if draw(st.booleans()):                 # below a power of two
            b = math.copysign(2.0 ** math.frexp(b)[1], b)
            h = -math.copysign(math.ulp(b) / 4, b)
    else:                   # b + h a power of two, or just next to one
        b = 2.0 ** draw(st.integers(-1000, 1000))
        h = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ulp(b) / 8
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ulp(h) / 2 ** 40
    row = [b, h, nudge] + ys + [-y for y in ys]
    row += [0.0] * (n - len(row))
    return draw(st.permutations(row))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(3, 40)),
       cells=st.sampled_from([1, 7, 1 << 16]))
def test_row_sums_equal_fsum_bitwise(data, shape, cells):
    """The certified kernel returns fsum's bits on every row, including
    the strided real and imaginary views of a complex block."""
    m, n = shape
    z = np.empty((m, n), dtype=complex)
    z.real, z.imag = (data.draw(st.lists(fsum_rows(n), min_size=m,
                                         max_size=m)) for _ in range(2))
    with mock.patch.object(series, "_SUM_CELLS", cells):
        for rows in (z.real.copy(), z.real, z.imag):
            got = np.array(series._row_sums(rows))
            want = np.array([math.fsum(row) for row in rows])
            assert (got.view(np.int64) == want.view(np.int64)).all()


def test_row_sums_overflow_as_fsum():
    """Pairs of halves never overflow here, but fsum's running sum does."""
    big = sys.float_info.max
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [big, 1e300, -big, 1.0]])
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(rows[1])
    with pytest.raises(OverflowError, match="intermediate overflow"):
        series._row_sums(rows)


def test_row_sums_certify_a_benchmark_block():
    """No row of a positive block shaped like the benchmark's falls back
    to fsum, so a certificate that rejected every row would fail here.
    The 2^-200 column keeps each sum off a rounding tie, which only fsum
    decides."""
    rng = np.random.default_rng(7)
    rows = rng.random((2184, 120)) / rng.integers(1, 50, (2184, 120))
    rows[:, 0] = 2.0 ** -200
    with mock.patch("math.fsum", wraps=math.fsum) as fsum:
        got = series._row_sums(rows)
    assert fsum.call_count == 0
    assert got == [math.fsum(row) for row in rows]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), n_max=st.integers(1, 40),
       sigma=st.floats(1.5, 4.0))
def test_direct_sum_matches_plain_loop(k, n_max, sigma, sieve_small):
    point = tuple(sigma + j / 4 for j in range(k))
    value, _ = d_direct(point, k, n_max, sieve_small)
    axes = [[n ** -s for n in range(1, n_max + 1)] for s in point[:-1]]
    axes.append(np.arange(1, n_max + 1, dtype=np.float64) ** -point[-1])
    assert value == plain_box_sum(axes, sieve_small)
