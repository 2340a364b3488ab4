import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from dirlaw import dirichlet
from dirlaw.dirichlet import (DirichletParams, RectQuery, cdf, cdf_arcsine,
                              cdf_monte_carlo, density, sample_many,
                              simplex_mass)
from dirlaw.errors import (DomainError, IntegrityError, ResourceError,
                           SingularityError)

ARCSINE = DirichletParams((0.5, 0.5))


def test_arcsine_closed_form():
    for u in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 1 - 2 ** -53]:
        got = cdf(ARCSINE, (u,))
        assert abs(got - cdf_arcsine(u)) <= 1e-15
    assert cdf_arcsine(0.25) == pytest.approx(1 / 3, abs=1e-15)
    # 1 - (2/pi) asin(sqrt(2^-53)); the form asin(sqrt(u)) is 2.8e-9 off
    with mpmath.workdps(30):
        want = 2 / mpmath.pi * mpmath.asin(mpmath.sqrt(1 - mpmath.mpf(2) ** -53))
    assert abs(cdf_arcsine(1 - 2 ** -53) - float(want)) <= 1e-16


def _betainc_reference(a, b, x):
    """I_x(a, b): scipy's where min(a, b) < 1; for a, b >= 1, mpmath
    quadrature of the Beta density at 30 digits, split at the mean and at
    +-1, 3, 10 and 40 standard deviations.  There scipy is off by up to
    2.1e-12 (a = 2, b = 1e5, x = 2.08e-5) and 2.6e-14 near the mean of
    (328, 37), against 3e-16 here."""
    if min(a, b) < 1.0 or x in (0.0, 1.0):
        return float(betainc(a, b, x))
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        log_beta = mpmath.log(mpmath.beta(a, b))
        mean = a / (a + b)
        sd = mpmath.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        cuts = [c for c in (mean + z * sd for z in (-40, -10, -3, -1, 0, 1,
                                                    3, 10, 40)) if 0 < c < 1]

        def density_at(t):
            return mpmath.exp((a - 1) * mpmath.log(t)
                              + (b - 1) * mpmath.log1p(-t) - log_beta)

        if x <= mean:
            return float(mpmath.quad(density_at,
                                     [0, *(c for c in cuts if c < x), x]))
        return float(1 - mpmath.quad(density_at,
                                     [x, *(c for c in cuts if c > x), 1]))


@st.composite
def _beta_points(draw):
    """a, b log-uniform on [0.02, 1e5]; x uniform, at 0, 1/2 +- ulp and 1,
    within 8 standard deviations of the mean, or next to the split point
    (a + 1) / (a + b + 2) of the continued fraction."""
    a, b = (math.exp(draw(st.floats(math.log(0.02), math.log(1e5))))
            for _ in range(2))
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    x = draw(st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.5 - 2 ** -54, 0.5, 0.5 + 2 ** -53, 1.0]),
        st.floats(-8.0, 8.0).map(lambda z: mean + z * sd),
        st.floats(-1e-3, 1e-3).map(
            lambda r: (a + 1) / (a + b + 2) * (1 + r))))
    return a, b, min(max(x, 0.0), 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_beta_points())
@example((0.25, 0.25, 0.5 - 2 ** -54))
@example((1 / 3, 1 / 3, 0.5 + 2 ** -53))
@example((0.25, 0.5, 0.9))
@example((0.5, 0.5, 0.3))
@example((1000.0, 1000.0, 0.5016903898621745))
@example((2.0, 1e5, 2.076324860383728e-05))
@example((1e5, 3.0, 0.9999595051968685))
def test_betainc_matches_reference(point):
    a, b, x = point
    got = dirichlet._betainc(a, b, np.array([x]))[0]
    assert 0.0 <= got <= 1.0
    assert abs(got - _betainc_reference(a, b, x)) <= 1e-14


def test_betainc_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(dirichlet, "_CF_MAX_ITER", 5)
    with pytest.raises(IntegrityError, match="did not converge"):
        dirichlet._betainc(1e5, 1e5, np.array([0.25, 0.5]))


def test_beta_marginal_matches_scipy():
    for a, b in [(2.0, 3.0), (0.5, 1.5), (1.0, 1.0), (0.25, 0.75)]:
        for u in [0.05, 0.3, 0.5, 0.77, 0.95]:
            got = cdf((a, b), (u,))
            assert got == pytest.approx(betainc(a, b, u), abs=1e-9)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_simplex_mass_is_one(k):
    alpha = (1.0 / k,) * k
    assert abs(simplex_mass(alpha) - 1.0) <= 1e-6


def _box_oracle_k3(alpha, u):
    """F(u_1, u_2) for Dir(a_1, a_2, a_3) as a 20-digit 2-D box integral.

    The substitution t_i = u_i s_i^(1/a_i) takes t_i^(a_i - 1) dt_i to
    (u_i^a_i / a_i) ds_i, so mpmath integrates the smooth remainder
    (1 - t_1 - t_2)^(a_3 - 1) over the unit square; no stick-breaking.
    """
    with mpmath.workdps(20):
        a1, a2, a3 = (mpmath.mpf(a) for a in alpha)
        u1, u2 = (mpmath.mpf(c) for c in u)

        def face(s1, s2):
            return (1 - u1 * s1 ** (1 / a1) - u2 * s2 ** (1 / a2)) ** (a3 - 1)

        norm = mpmath.gamma(a1 + a2 + a3) / (
            mpmath.gamma(a1) * mpmath.gamma(a2) * mpmath.gamma(a3))
        scale = u1 ** a1 / a1 * u2 ** a2 / a2
        return float(norm * scale * mpmath.quad(face, [0, 1], [0, 1]))


@pytest.mark.parametrize("alpha,u", [
    ((0.4, 0.7, 1.9), (0.3, 0.4)),
    ((1 / 3, 1 / 3, 1 / 3), (0.3, 0.4)),
    ((0.25, 0.25, 0.5), (0.125, 0.5)),
])
def test_cdf_k3_matches_box_integral(alpha, u):
    assert abs(cdf(alpha, u) - _box_oracle_k3(alpha, u)) <= 1e-12


@pytest.mark.parametrize("alpha,u", [
    ((24.0, 28.0, 38.0), (0.5, 0.42)),
    ((37.0, 15.0, 32.0), (0.73, 0.22)),
    ((1000.0, 1000.0, 1000.0), (0.3, 0.34)),
])
def test_cdf_large_alpha_matches_beta_mixture(alpha, u):
    # Large alpha puts the mass where s = (t/u)^alpha is tiny, so these
    # corners need log(s) to full relative accuracy near s = 0.  At alpha
    # = 1000 the normalizer alone overflows a float.  The
    # oracle is the Beta(a_1, a_2 + a_3) mixture of mpmath's incomplete
    # beta function, integrated in t on 40 pieces at 20 digits.
    a1, a2, a3 = alpha
    with mpmath.workdps(20):
        def mix(t):
            return (t ** (a1 - 1) * (1 - t) ** (a2 + a3 - 1) * mpmath.betainc(
                a2, a3, 0, min(1, u[1] / (1 - t)), regularized=True))

        want = mpmath.quad(mix, mpmath.linspace(0, u[0], 41)) / mpmath.beta(
            a1, a2 + a3)
    assert abs(cdf(alpha, u) - float(want)) <= 1e-12


@pytest.mark.parametrize("alpha,u,want", [
    # t_1 <= 0.3 lies 30 sd below the mean 1/3, so F is below 1e-100
    ((1e5,) * 3, (0.3, 0.34), 0.0),
    # t_1 <= 0.382 lies 18 sd above the mean: F = P(t_2 <= 0.336) to 1e-70
    ((1e4,) * 3, (0.382, 0.336), float(betainc(1e4, 2e4, 0.336)))])
def test_cdf_large_alpha_in_either_order(alpha, u, want):
    # with the larger u_i in the outer integral, the first corner exits 4
    # and the second returns 0.0; cdf puts it in the incomplete beta
    for c in (u, u[::-1]):
        assert abs(cdf(alpha, c) - want) <= 1e-9


@pytest.mark.parametrize("alpha,u", [((1e5,) * 3, (0.364, 0.492)),
                                     ((1e4,) * 3, (0.377, 0.408))])
def test_cdf_outside_the_frechet_bounds_raises(alpha, u):
    # every u_i lies far above its mode, so F = 1 - 2e-14 and 1 - 1e-16,
    # and so is the lower bound 1 - sum(1 - F_i); the substitution misses
    # the peak and two levels agree on 0 and 3.1e-10
    for c in (u, u[::-1]):
        with pytest.raises(IntegrityError, match="Frechet bounds"):
            cdf(alpha, c)


@pytest.mark.parametrize("u", [(0.1, 0.2, 0.3), (0.125, 0.375, 0.5),
                               (0.05, 0.25, 0.6)])
def test_cdf_k4_is_permutation_invariant(u):
    # Dir(1/4, ..., 1/4) is exchangeable, so F(u) ignores the order of u
    alpha = (0.25,) * 4
    vals = [cdf(alpha, p) for p in itertools.permutations(u)]
    assert max(vals) - min(vals) <= 1e-12


@pytest.mark.parametrize("alpha,u", [
    ((0.4, 0.7, 1.9), (0.3, 0.4)),
    ((3.0, 0.1, 0.1, 5.0), (0.2, 0.3, 0.1)),
    ((0.25,) * 4, (0.125, 0.5, 0.125))])
def test_cdf_reorders_pairs_exactly(alpha, u):
    # F_alpha(u) = F_(pi alpha)(pi u): cdf reorders the pairs (u_i, alpha_i)
    # by u ascending, then alpha; every order gives the same F
    want = cdf(alpha, u)
    for order in itertools.permutations(range(len(u))):
        a = tuple(alpha[i] for i in order) + alpha[-1:]
        c = tuple(u[i] for i in order)
        assert abs(dirichlet._cdf_cached(a, c, 1e-9) - want) <= 1e-12
    # so the six orders of an exchangeable k = 4 corner share one entry
    dirichlet._cdf_cached.cache_clear()
    for p in itertools.permutations((0.1, 0.2, 0.3)):
        cdf((0.25,) * 4, p)
    assert dirichlet._cdf_cached.cache_info().currsize == 1


@st.composite
def _k4_corners(draw):
    """Corners (i, j, l) / 40 with every coordinate >= 1/40, sum <= 1."""
    i = draw(st.integers(1, 38))
    j = draw(st.integers(1, 39 - i))
    return i / 40, j / 40, draw(st.integers(1, 40 - i - j)) / 40


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_k4_corners())
def test_cdf_k4_exchangeable_on_the_1_40_grid(u):
    vals = [cdf((0.25,) * 4, p) for p in itertools.permutations(u)]
    assert max(vals) - min(vals) <= 1e-12


def _unskipped(alpha, u, level):
    """``dirichlet._stick_breaking`` with every outer node recursed on."""
    m, d = u.shape
    a, b = alpha[0], math.fsum(alpha[1:])
    if d == 1:
        return betainc(a, b, u[:, 0])
    if d > 2 and m > 1:
        return np.array([_unskipped(alpha, c[None], level)[0] for c in u])
    xi, omx, w = dirichlet.nodes(level)
    u1 = u[:, :1]
    with np.errstate(divide="ignore", over="ignore"):
        lg = np.where(xi < 0.5, np.log(xi), np.log1p(-omx))
        q = -np.expm1(lg / a)
        omt = (1.0 - u1) + u1 * q
        inner = np.minimum(1.0, u[:, None, 1:] / omt[:, :, None])
        face = np.where(omt > 0.0, np.exp(
            dirichlet._log_norm((a, b)) + a * np.log(u1)
            + (b - 1.0) * np.log(omt)), 0.0)
    g = _unskipped(alpha[1:], inner.reshape(-1, d - 1), level)
    return (face * g.reshape(m, -1)) @ w / a


@pytest.mark.parametrize("alpha,u", [
    ((0.25,) * 4, (0.1, 0.2, 0.3)),
    ((0.25,) * 4, (0.875, 0.125, 0.0)),
    ((0.25,) * 4, (0.9, 0.8, 0.7)),            # clipped: sum u_i > 1
    ((0.02,) * 4, (0.1, 0.2, 0.3)),
    ((0.02,) * 4, (0.5, 0.25, 0.125)),
    ((0.2,) * 5, (0.1, 0.2, 0.3, 0.15)),
    ((0.2,) * 5, (1.0, 1.0, 1.0, 1.0)),        # clipped: the whole simplex
    ((1000.0,) * 3, (0.3, 0.34)),
    ((1000.0,) * 3, (0.34, 0.3)),
    ((3.0, 0.1, 0.1, 5.0), (0.2, 0.3, 0.1)),
    ((3.0, 0.1, 0.1, 5.0), (0.6, 0.7, 0.5))])  # clipped
def test_node_skip_matches_the_unskipped_recursion(alpha, u):
    # a skipped node bounds its own share by 1e-17 / (node count) per depth
    corner = np.array([u])
    got = dirichlet._stick_breaking(alpha, corner, 4)
    want = _unskipped(alpha, corner, 4)
    assert got.shape == want.shape == (1,)
    assert abs(got[0] - want[0]) <= 1e-15


def test_node_skip_with_no_live_node():
    # t_1 <= 1e-300 leaves every face * w / a far below the threshold
    assert 0.0 <= cdf((0.25,) * 4, (1e-300, 0.5, 0.2)) <= 1e-16
    empty = dirichlet._stick_breaking((0.25,) * 4, np.empty((0, 3)), 4)
    assert empty.shape == (0,)


def test_full_rectangle_has_full_mass():
    assert cdf((0.5, 0.5), (1.0,)) == pytest.approx(1.0, abs=1e-8)
    assert cdf((1 / 3, 1 / 3, 1 / 3), (1.0, 0.0)) == pytest.approx(0.0,
                                                                   abs=1e-9)


def test_cdf_requires_simplex_corner():
    with pytest.raises(DomainError):
        cdf((1 / 3, 1 / 3, 1 / 3), (0.7, 0.7))


def test_cdf_monotone_in_each_coordinate():
    alpha = (0.4, 0.7, 1.9)
    last = -1.0
    for u in np.linspace(0.05, 0.55, 10):
        val = cdf(alpha, (float(u), 0.4))
        assert val >= last - 1e-12
        last = val
    last = -1.0
    for u in np.linspace(0.05, 0.55, 10):
        val = cdf(alpha, (0.4, float(u)))
        assert val >= last - 1e-12
        last = val


def test_density_beta_value():
    # Dir(2,2) is Beta(2,2): density 6 t (1 - t), so 1.5 at the center
    assert density((2.0, 2.0), (0.5, 0.5)) == pytest.approx(1.5, rel=1e-12)


def test_density_singular_on_boundary():
    with pytest.raises(SingularityError):
        density(ARCSINE, (0.0, 1.0))


def test_rect_query_rejects_out_of_range():
    with pytest.raises(DomainError):
        RectQuery((1.5,))
    with pytest.raises(DomainError):
        cdf(ARCSINE, (-0.1,))
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            cdf(ARCSINE, (c,))
        with pytest.raises(DomainError, match="finite"):
            density(ARCSINE, (c, 0.5))


def test_sampling_is_deterministic():
    a = sample_many(ARCSINE, 6, seed=42)
    b = sample_many(ARCSINE, 6, seed=42)
    c = sample_many(ARCSINE, 6, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.allclose(a.sum(axis=1), 1.0)
    with pytest.raises(ResourceError):  # refused before any allocation
        sample_many(ARCSINE, 10 ** 9, seed=0)


def test_monte_carlo_agrees_with_quadrature():
    est, err = cdf_monte_carlo(ARCSINE, (0.3,), 200_000, seed=11)
    want = cdf_arcsine(0.3)
    assert abs(est - want) <= 4 * err
    assert err < 0.005
