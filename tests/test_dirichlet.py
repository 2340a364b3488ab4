import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from dirlaw import dirichlet
from dirlaw.dirichlet import (DirichletParams, RectQuery, cdf, cdf_arcsine,
                              cdf_monte_carlo, density, sample, sample_many,
                              simplex_mass)
from dirlaw.errors import DomainError, ResourceError, SingularityError

ARCSINE = DirichletParams((0.5, 0.5))


def test_arcsine_closed_form():
    for u in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]:
        got = cdf(ARCSINE, (u,))
        assert abs(got - cdf_arcsine(u)) <= 1e-8
    assert cdf_arcsine(0.25) == pytest.approx(1 / 3, abs=1e-15)


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


@pytest.mark.parametrize("u", [(0.1, 0.2, 0.3), (0.125, 0.375, 0.5),
                               (0.05, 0.25, 0.6)])
def test_cdf_k4_is_permutation_invariant(u):
    # Dir(1/4, ..., 1/4) is exchangeable, so F(u) ignores the order of u
    alpha = (0.25,) * 4
    vals = [cdf(alpha, p) for p in itertools.permutations(u)]
    assert max(vals) - min(vals) <= 1e-12


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
    pt = sample(ARCSINE, seed=0)
    assert math.isclose(sum(pt.t), 1.0, abs_tol=1e-12)
    with pytest.raises(ResourceError):  # refused before any allocation
        sample_many(ARCSINE, 10 ** 9, seed=0)


def test_monte_carlo_agrees_with_quadrature():
    est, err = cdf_monte_carlo(ARCSINE, (0.3,), 200_000, seed=11)
    want = cdf_arcsine(0.3)
    assert abs(est - want) <= 4 * err
    assert err < 0.005
