"""Dirichlet distributions on the simplex: density, rectangle CDF, sampling.

The distribution Dir(alpha_1, ..., alpha_k) lives on the simplex
{t_i >= 0, sum t_i = 1} and has density

    f(t) = Gamma(alpha_1 + ... + alpha_k) / prod Gamma(alpha_i)
           * prod t_i^(alpha_i - 1)

with respect to dt_1 ... dt_(k-1) (the last coordinate is eliminated).
The rectangle CDF F(u) is the mass of {t_i <= u_i, i < k}.  It is
computed by stick-breaking: by the complete neutrality of the Dirichlet
law (Connor & Mosimann 1969), t_1 ~ Beta(alpha_1, A - alpha_1) with
A = sum alpha_i, and (t_2, ..., t_k) / (1 - t_1) ~ Dir(alpha_2, ...,
alpha_k) independently of t_1.  So F is a 1-D integral over t_1 of the
(k-2)-coordinate CDF at the conditional corner min(1, u_j / (1 - t_1)),
down to one coordinate, where F is the regularized incomplete beta
function I_x(a, b) of ``_betainc``.  It has two regimes.  For a, b <= 1
(every Dir(1/k) law) it is the power series x^a / B(a, b) * sum_n e_n x^n,
e_n = (1 - b)_n / (n! (a + n)), whose terms are all positive, by Horner on
56 cached coefficients for x <= 1/2 and as 1 - I_(1-x)(b, a) above.
Otherwise it is the continued fraction of DiDonato & Morris (ACM TOMS 18,
1992, "Algorithm 708", BFRAC) by the modified Lentz method, below
x = (a + 1) / (a + b + 2) and for 1 - I_(1-x)(b, a) above; its prefactor
x^a (1 - x)^b / B(a, b) is formed from a - (a + b) x and Stirling's series,
so no large logarithms cancel.

Each integral substitutes t_1 = u_1 s^(1/alpha_1), which absorbs the t^(alpha-1) endpoint singularity exactly, and runs over s in
(0, 1) on the tanh-sinh nodes, whose clustering at s = 1 absorbs the
(1 - t_1)^(A - alpha_1 - 1) factor when u_1 = 1.

The inner CDF is at most 1, so an outer node adds at most its prefactor
times its weight, face * w / a.  Nodes where that bound is below
1e-17 / (node count) are not recursed on: each of the k - 2 integrals
loses at most 1e-17 per corner, (k - 2) * 1e-17 in all, far below the
4e-16 floor of the level-to-level convergence test.  At k = 4 this
skips about half the middle-depth nodes and leaves about a third of the
incomplete-beta evaluations.

``cdf_many`` takes a whole report grid.  It checks every corner before
it evaluates any, then evaluates the uncached corners of each alpha order
together: one pass per level over every corner still pending, at most N
corners (N nodes) per call, with convergence decided corner by corner.
Each corner's outer integral is reduced by its own dot with the weights,
as a lone corner's is, so no value depends on the rest of its batch.
``cdf`` is its one-corner case, and ``simplex_mass`` reads the same
bounded cache.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (DirlawError, DomainError, IntegrityError,
                     ResourceError, SingularityError, UnsupportedError)
from .quadrature import BERNOULLI, nodes

_MAX_CDF_DIMS = 4          # CDF coordinate cap (k - 1)
_MAX_LEVEL = 6             # finest tanh-sinh level tried by the CDF
_SAMPLE_CELLS = 10 ** 7    # most samples * k floats ``sample_many`` holds
_MC_BATCH = 1_000_000      # draws per ``cdf_monte_carlo`` batch
# largest alpha_i at which ``_log_norm`` keeps 1e-9 relative accuracy (worst
# error vs. mpmath over max(1, |value|), k <= 5: 1.6e-10 at 1e5, 2e-9 at 1e6)
_MAX_ALPHA = 1e5
# outer nodes whose share bound face * w / a is below _SKIP / (node count)
# are skipped, so one depth of ``_stick_breaking`` drops at most _SKIP
_SKIP = 1e-17
# power series terms: for x <= 1/2 the rest is below 2^-56 / 56 of the first
_SERIES_TERMS = 56
# continued-fraction steps: alpha = (1e5, 1e5), the largest allowed, takes
# at most about 260, at x next to the split point
_CF_MAX_ITER = 1000
_CF_TOL = 2.3e-16          # |step - 1|: one ulp above 1 or two below
_STIRLING_MIN = 8.0        # Stirling's series holds 1e-18 from here up
_VELTKAMP = 2.0 ** 27 + 1  # splits a double into two 26-bit halves


@dataclass(frozen=True)
class DirichletParams:
    """Parameter vector alpha; every entry strictly positive, k >= 2."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        if len(self.alpha) < 2:
            raise DomainError("Dirichlet parameters need k >= 2 components")
        if any(not (a > 0.0) or not math.isfinite(a) for a in self.alpha):
            raise DomainError("every alpha_i must be finite and > 0")
        if max(self.alpha) > _MAX_ALPHA:
            raise DomainError(f"every alpha_i must be at most {_MAX_ALPHA:g}")

    @property
    def k(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class SimplexPoint:
    """A point with nonnegative coordinates summing to 1 (tol 1e-12)."""

    t: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.t):
            raise DomainError("simplex coordinates must be finite")
        if any(c < 0.0 for c in self.t):
            raise DomainError("simplex coordinates must be nonnegative")
        if abs(sum(self.t) - 1.0) > 1e-12:
            raise DomainError("simplex coordinates must sum to 1 (tol 1e-12)")


@dataclass(frozen=True)
class RectQuery:
    """Corner u of the rectangle {t_i <= u_i, i < k}, inside the simplex."""

    u: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.u):
            raise DomainError("rectangle corner coordinates must be finite")
        if any(c < 0.0 or c > 1.0 for c in self.u):
            raise DomainError("rectangle corner coordinates must lie in [0,1]")


def _as_alpha(params) -> tuple[float, ...]:
    if isinstance(params, DirichletParams):
        return params.alpha
    return DirichletParams(tuple(float(a) for a in params)).alpha


def _as_corner(rect) -> tuple[float, ...]:
    if isinstance(rect, RectQuery):
        return rect.u
    return RectQuery(tuple(float(c) for c in rect)).u


def _log_norm(alpha: Sequence[float]) -> float:
    return math.lgamma(math.fsum(alpha)) - math.fsum(
        math.lgamma(a) for a in alpha)


def density(params, point) -> float:
    """Density at an interior point (or boundary when all alpha_i >= 1).

    Evaluating on a boundary face carrying a t^(alpha-1) singularity with
    alpha < 1 raises SingularityError.
    """
    alpha = _as_alpha(params)
    t = point.t if isinstance(point, SimplexPoint) else SimplexPoint(
        tuple(float(c) for c in point)).t
    if len(t) != len(alpha):
        raise DomainError("point dimension does not match parameter k")
    logs = 0.0
    for a, c in zip(alpha, t):
        if c == 0.0:
            if a < 1.0:
                raise SingularityError(
                    "density is singular on this boundary face")
            if a > 1.0:
                return 0.0
        else:
            logs += (a - 1.0) * math.log(c)
    return math.exp(_log_norm(alpha) + logs)


def cdf_arcsine(u: float) -> float:
    """Closed form for k=2, alpha=(1/2,1/2): (2/pi) * arcsin(sqrt(u)).

    Above u = 1/2 it is 1 - (2/pi) arcsin(sqrt(1 - u)), where 1 - u is
    exact, so F keeps its full accuracy next to u = 1.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError("arcsine CDF argument must lie in [0,1]")
    if u > 0.5:
        return 1.0 - 2.0 / math.pi * math.asin(math.sqrt(1.0 - u))
    return 2.0 / math.pi * math.asin(math.sqrt(u))


def _betainc(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, b), x in [0, 1].

    The power series when a, b <= 1, the continued fraction otherwise;
    in both, x above the split point goes through 1 - I_(1-x)(b, a).
    """
    if a <= 1.0 and b <= 1.0:
        lo = x <= 0.5
        out = np.empty_like(x)
        if lo.any():
            out[lo] = _power_series(a, b, x[lo])
        if not lo.all():
            out[~lo] = 1.0 - _power_series(b, a, 1.0 - x[~lo])
        return out
    y = 1.0 - x
    lam = _lambda(a, b, x)
    with np.errstate(divide="ignore", under="ignore"):
        power = np.exp(_log_power_terms(a, b, lam, np.log(x), np.log1p(-x)))
        lo = x < (a + 1.0) / (a + b + 2.0)
        hi = ~lo
        out = np.empty_like(x)
        out[lo] = power[lo] / _continued_fraction(a, b, x[lo], y[lo], lam[lo])
        out[hi] = 1.0 - power[hi] / _continued_fraction(b, a, y[hi], x[hi],
                                                        -lam[hi])
    return out


@lru_cache(maxsize=64)
def _series_terms(a: float, b: float) -> tuple[tuple[float, ...], float]:
    """e_n = (1 - b)_n / (n! (a + n)) from the last n down, and 1 / B(a, b)."""
    e, rising = [], 1.0
    for n in range(_SERIES_TERMS):
        e.append(rising / (a + n))
        rising *= (n + 1 - b) / (n + 1)
    return tuple(reversed(e)), math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))


def _power_series(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) for a, b <= 1 and x <= 1/2: every e_n is positive."""
    coeffs, inv_beta = _series_terms(a, b)
    acc = np.zeros_like(x)
    for c in coeffs:
        acc *= x
        acc += c
    return x ** a * inv_beta * acc


def _lambda(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """a - (a + b) x to within a few ulps of the result, not of a.

    The sum a + b and each product are split into a rounded value and its
    exact error (Dekker's two-product), so the cancellation next to the
    mean x = a / (a + b) costs nothing.
    """
    s = a + b
    s_err = (a - (s - (s - a))) + (b - (s - a))
    p = s * x
    s_hi = _VELTKAMP * s - (_VELTKAMP * s - s)
    x_hi = _VELTKAMP * x - (_VELTKAMP * x - x)
    s_lo, x_lo = s - s_hi, x - x_hi
    p_err = ((s_hi * x_hi - p) + s_hi * x_lo + s_lo * x_hi) + s_lo * x_lo
    return (a - p) - p_err - s_err * x


def _stirling(z: float) -> float:
    """lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2."""
    if z < _STIRLING_MIN:
        return (math.lgamma(z) - (z - 0.5) * math.log(z) + z
                - 0.5 * math.log(2.0 * math.pi))
    acc, r = 0.0, 1.0 / (z * z)
    for j in range(len(BERNOULLI), 0, -1):
        acc = acc * r + BERNOULLI[j - 1] / (2 * j * (2 * j - 1))
    return acc / z


def _rlog1(e: np.ndarray) -> np.ndarray:
    """e - log(1 + e); a series in t = e / (2 + e) where that cancels."""
    out = e - np.log1p(e)
    small = np.abs(e) <= 0.25
    t = e[small] / (2.0 + e[small])
    t2 = t * t
    acc = np.zeros_like(t)
    for j in range(9, -1, -1):            # |t| <= 1/7: t^21 / 21 < 1e-19
        acc = acc * t2 + 1.0 / (2 * j + 3)
    out[small] = 2.0 * t2 / (1.0 - t) - 2.0 * t * t2 * acc
    return out


def _log_power_terms(a: float, b: float, lam: np.ndarray, log_x: np.ndarray,
                     log_y: np.ndarray) -> np.ndarray:
    """log(x^a y^b / B(a, b)), y = 1 - x, from lam = a - (a + b) x.

    With a, b >= 8 this is (Stirling's series in 1 / B)
    log sqrt(ab / (2 pi (a + b))) - a rlog1(-lam / a) - b rlog1(lam / b)
    - (mu(a) + mu(b) - mu(a + b)), mu = ``_stirling``, as in DiDonato &
    Morris's BRCOMP.
    Otherwise, with a the smaller, the large logarithms of x^a and of
    Gamma(b) / Gamma(a + b) cancel in closed form first.
    """
    s = a + b
    if min(a, b) >= _STIRLING_MIN:
        return (0.5 * math.log(a * b / (2.0 * math.pi * s))
                - (a * _rlog1(-lam / a) + b * _rlog1(lam / b))
                - (_stirling(a) + _stirling(b) - _stirling(s)))
    if a > b:
        a, b, log_x, log_y = b, a, log_y, log_x
    return (a * (log_x + math.log(s)) + b * log_y
            + ((b - 0.5) * math.log1p(a / b) - a)
            + _stirling(s) - _stirling(b) - math.lgamma(a))


def _continued_fraction(a: float, b: float, x: np.ndarray, y: np.ndarray,
                        lam: np.ndarray) -> np.ndarray:
    """x^a y^b / (B(a, b) I_x(a, b)), for x below (a + 1) / (a + b + 2).

    DiDonato & Morris's BFRAC continued fraction, evaluated by the
    modified Lentz method; its first term 1 + lam is where the
    cancellation of 1 - (a + b) x / (a + 1) would sit.  Elements leave
    the active set as they converge.
    """
    out = np.empty_like(x)
    idx = np.arange(len(x))
    c = 1.0 + lam
    c0, c1 = b / a, 1.0 + 1.0 / a
    yp1 = y + 1.0
    f = c / c1
    big, small = f, np.zeros_like(x)       # Lentz's C and D
    p, s = 1.0, a + 1.0
    n = 0
    while len(idx):
        n += 1
        if n > _CF_MAX_ITER:
            raise IntegrityError(
                f"incomplete beta continued fraction did not converge in "
                f"{_CF_MAX_ITER} steps at a = {a:g}, b = {b:g}")
        t = n / a
        w = n * (b - n) * x
        num = (p * (p + c0) * (a / s) ** 2) * (w * x)
        den = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        p, s = 1.0 + t, s + 2.0
        small = 1.0 / (den + num * small)
        big = den + num / big
        step = big * small
        f = f * step
        done = np.abs(step - 1.0) <= _CF_TOL
        if done.any():
            out[idx[done]] = f[done]
            keep = ~done
            idx, x, c, yp1, f, big, small = (v[keep] for v in (
                idx, x, c, yp1, f, big, small))
    return out


def _stick_breaking(alpha: tuple[float, ...], u: np.ndarray,
                    level: int) -> np.ndarray:
    """Dir(alpha) mass of {t_i <= u_i, i < k} for each row of u, (m, k-1).

    Coordinates of u must lie in [0, 1].  The outer integral over t_1
    uses the tanh-sinh nodes of ``level`` (``_integrand``), reduced for
    all m rows by one (m, N) @ (N,) product.
    """
    m, d = u.shape
    if d == 1:
        return _betainc(alpha[0], math.fsum(alpha[1:]), u[:, 0])
    if d > 2 and m > 1:
        # m corners of d coordinates bring m * N^(d-1) corners to the base
        # (N nodes per level); taking these one at a time bounds that
        # working set by N^2.
        return np.array([_stick_breaking(alpha, c[None], level)[0]
                         for c in u])
    return _integrand(alpha, u, level) @ nodes(level)[2] / alpha[0]


def _integrand(alpha: tuple[float, ...], u: np.ndarray,
               level: int) -> np.ndarray:
    """The outer integrand of ``_stick_breaking`` times alpha_1 at the N
    nodes of ``level``, (m, N) for rows u of d >= 2 coordinates: its
    prefactor times the same function of the conditional corners, one
    coordinate shorter."""
    a, b = alpha[0], math.fsum(alpha[1:])
    xi, omx, w = nodes(level)
    u1 = u[:, :1]
    with np.errstate(divide="ignore", over="ignore"):
        # log(s) from whichever of s and 1 - s is the smaller, so it keeps
        # full relative accuracy at both ends; q = 1 - s^(1/a).
        lg = np.where(xi < 0.5, np.log(xi), np.log1p(-omx))
        q = -np.expm1(lg / a)
        # 1 - t_1 = (1 - u_1) + u_1 q without cancellation; q when u_1 = 1.
        omt = (1.0 - u1) + u1 * q
        inner = np.minimum(1.0, u[:, None, 1:] / omt[:, :, None])
        # normalizer * u_1^a * (1 - t_1)^(b - 1) in log space, as each factor
        # can overflow; 1 - t_1 underflows only at nodes of negligible weight
        face = np.where(omt > 0.0, np.exp(
            _log_norm((a, b)) + a * np.log(u1) + (b - 1.0) * np.log(omt)),
            0.0)
    # g is a conditional CDF, in [0, 1], so a node adds at most face * w / a
    live = face * w / a >= _SKIP / len(w)
    g = np.zeros_like(face)
    g[live] = _stick_breaking(alpha[1:], inner[live], level)
    return face * g


def _corner_masses(alpha: tuple[float, ...], u: np.ndarray,
                   level: int) -> np.ndarray:
    """``_stick_breaking`` for corners of d >= 2 coordinates, each row
    reduced by its own dot with the weights: a batched (m, N) @ (N,)
    product rounds a row differently from the single corner's, so this
    keeps every corner's bits independent of its batch."""
    if u.shape[1] > 2:
        return _stick_breaking(alpha, u, level)
    w = nodes(level)[2]
    return np.array([row @ w for row in _integrand(alpha, u, level)]) \
        / alpha[0]


def _check_frechet(alpha: tuple[float, ...], u: np.ndarray, vals: np.ndarray,
                   tol: float):
    """Refuse a CDF outside the Frechet bounds of its marginals F_i =
    I_(u_i)(alpha_i, A - alpha_i), max(0, 1 - sum(1 - F_i)) <= F <=
    min F_i: two levels that both miss the peak of the density agree on a
    wrong value.  One ``_betainc`` call per distinct alpha_i for all rows
    of u; a row whose value lies within 1e-14 of the lower bound, where
    the plain sum of at most four terms could decide otherwise, is
    decided by ``math.fsum``."""
    shares = np.array(alpha[:u.shape[1]])
    marginal = np.empty_like(u)
    for a in set(alpha[:u.shape[1]]):
        cols = shares == a
        marginal[:, cols] = _betainc(a, math.fsum(alpha) - a,
                                     u[:, cols].ravel()).reshape(len(u), -1)
    hi = marginal.min(axis=1)
    near = np.maximum(0.0, 1.0 - (1.0 - marginal).sum(axis=1)) - tol + 1e-14
    for i in np.flatnonzero(~((near <= vals) & (vals <= hi + tol))).tolist():
        lo = max(0.0, 1.0 - math.fsum(1.0 - marginal[i]))
        if not lo - tol <= vals[i] <= hi[i] + tol:
            raise IntegrityError(
                f"CDF {vals[i]:g} leaves its Frechet bounds "
                f"[{lo:g}, {hi[i]:g}] by more than {tol:g}")


def _evaluate(alpha: tuple[float, ...], u: np.ndarray,
              tol: float) -> list[float]:
    """F at each row of u, (m, d), every coordinate positive.

    The level is raised from 3 until two levels agree within tol / 2, row
    by row; each level evaluates every row still pending, at most N (the
    level's node count) rows per call, so a call holds at most N rows by
    N nodes.  A one-coordinate row is ``_betainc`` at every level.
    """
    m, d = u.shape
    out = np.empty(m)
    todo = np.arange(m)
    beta = _betainc(alpha[0], math.fsum(alpha[1:]), u[:, 0]) if d == 1 \
        else None
    prev = None
    for level in range(3, _MAX_LEVEL + 1):
        if beta is not None:
            val = beta[todo]
        else:
            rows = len(nodes(level)[2])
            val = np.concatenate([
                _corner_masses(alpha, u[todo[i:i + rows]], level)
                for i in range(0, len(todo), rows)])
        if prev is not None:
            with np.errstate(invalid="ignore"):     # inf - inf is unsettled
                done = np.abs(val - prev) <= max(0.5 * tol, 4e-16)
            out[todo[done]] = val[done]
            todo, val = todo[~done], val[~done]
        if not len(todo):
            break
        prev = val
    else:
        raise IntegrityError(
            f"CDF quadrature did not converge to {tol:g} in {d} dimensions")
    if d > 1:
        _check_frechet(alpha, u, out, tol)
    return np.where((out > 1.0) & (out - 1.0 < tol), 1.0, out).tolist()


# (alpha, u, tol) -> F, least recently used first; at most _CACHE_SIZE
_CACHE: OrderedDict[tuple, float] = OrderedDict()
_CACHE_SIZE = 200_000


def _cached_cdf(keys: list[tuple[tuple[float, ...], tuple[float, ...]]],
                tol: float) -> list[float]:
    """F at every (alpha, u) of keys, taken as given: from ``_CACHE``, else
    evaluated with every uncached corner of the same alpha.

    If any batch fails, the uncached corners are evaluated again one at a
    time in input order, so the error raised is the first failing
    corner's own.
    """
    found: dict = {}
    batches: dict = {}
    for key in dict.fromkeys(keys):
        if any(c == 0.0 for c in key[1]):
            found[key] = 0.0
        elif key + (tol,) in _CACHE:
            _CACHE.move_to_end(key + (tol,))
            found[key] = _CACHE[key + (tol,)]
        else:
            batches.setdefault(key[0], []).append(key[1])
    try:
        for alpha, us in batches.items():
            found.update(zip(((alpha, u) for u in us),
                             _evaluate(alpha, np.array(us), tol)))
    except DirlawError:
        for alpha, u in keys:
            if (alpha, u) not in found:
                found[alpha, u] = _evaluate(alpha, np.array([u]), tol)[0]
    for alpha, us in batches.items():
        for u in us:
            _CACHE[alpha, u, tol] = found[alpha, u]
    while len(_CACHE) > _CACHE_SIZE:
        _CACHE.popitem(last=False)
    return [found[key] for key in keys]


def cdf_many(params, corners, tol: float = 1e-9) -> list[float]:
    """Rectangle CDF F(u_1, ..., u_(k-1)) at every corner, to absolute
    accuracy tol; each value is the one ``cdf`` gives that corner alone.

    Stick-breaking recursion: the incomplete beta function for k = 2 (a
    power series when both alpha_i <= 1, a continued fraction otherwise),
    and for larger k one tanh-sinh integral per coordinate but the last.
    The level is raised from 3 until two levels agree within tol / 2.
    The pairs (u_i, alpha_i), i < k, are put in one order (u ascending,
    then alpha) first: F_alpha(u) = F_(pi alpha)(pi u) for every order pi,
    so the corners of one exchangeable class share one cache entry.  The
    largest u_i goes to the exact incomplete beta function; in an outer
    integral, a u_i far above the mode of a large alpha_i is where the
    substitution t = u s^(1/alpha) loses the peak.  The uncached corners
    of each alpha order are evaluated together, one pass per level.
    Every corner is checked before any is evaluated: each needs
    sum u_i <= 1 (the box must not leave the simplex) and k - 1 <= 4;
    tol must lie in [1e-12, 1e-3].
    """
    alpha = _as_alpha(params)
    keys = []
    for rect in corners:
        u = _as_corner(rect)
        if len(u) != len(alpha) - 1:
            raise DomainError("rectangle dimension must be k - 1")
        if sum(u) > 1.0 + 1e-12:
            raise DomainError("rectangle corner must satisfy sum u_i <= 1")
        if len(u) > _MAX_CDF_DIMS:
            raise UnsupportedError(
                "CDF supports at most k - 1 = 4 dimensions")
        pairs = sorted(zip(u, alpha))
        keys.append((tuple(a for _, a in pairs) + alpha[-1:],
                     tuple(c for c, _ in pairs)))
    if not (1e-12 <= tol <= 1e-3):
        raise DomainError("tol must lie in [1e-12, 1e-3]")
    return _cached_cdf(keys, tol)


def cdf(params, rect, tol: float = 1e-9) -> float:
    """``cdf_many`` at the one corner rect."""
    return cdf_many(params, [rect], tol)[0]


def simplex_mass(params, tol: float = 1e-9) -> float:
    """Total mass of the density over the whole simplex (ideally 1).

    The stick-breaking rule of ``cdf`` at the corner u = (1, ..., 1),
    with alpha in the order given, where every conditional corner clips
    to 1; a direct check on the quadrature plus normalization constants.
    """
    alpha = _as_alpha(params)
    if len(alpha) - 1 > _MAX_CDF_DIMS:
        raise UnsupportedError("mass check supports at most k - 1 = 4")
    return _cached_cdf([(alpha, tuple(1.0 for _ in alpha[:-1]))], tol)[0]


def sample_many(params, n: int, seed: int) -> np.ndarray:
    """``n`` draws as an (n, k) array; deterministic for a fixed seed."""
    alpha = _as_alpha(params)
    if n < 1:
        raise DomainError("sample count must be positive")
    if n * len(alpha) > _SAMPLE_CELLS:
        raise ResourceError("samples * k exceeds the 1e7 guard")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.gamma(shape=np.asarray(alpha), size=(n, len(alpha)))
    return g / g.sum(axis=1, keepdims=True)


def cdf_monte_carlo(params, rect, n_samples: int, seed: int)\
        -> tuple[float, float]:
    """Monte Carlo estimate of the rectangle CDF: (estimate, stderr).

    The independent-route oracle for ``cdf``: draws are batched so memory
    stays bounded at ~_MC_BATCH * k floats.
    """
    alpha = _as_alpha(params)
    u = _as_corner(rect)
    if len(u) != len(alpha) - 1:
        raise DomainError("rectangle dimension must be k - 1")
    if n_samples < 1:
        raise DomainError("sample count must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    done = 0
    ua = np.asarray(u)
    while done < n_samples:
        m = min(_MC_BATCH, n_samples - done)
        g = rng.gamma(shape=np.asarray(alpha), size=(m, len(alpha)))
        t = g[:, :-1] / g.sum(axis=1, keepdims=True)
        hits += int(np.all(t <= ua, axis=1).sum())
        done += m
    p = hits / n_samples
    return p, math.sqrt(max(p * (1.0 - p), 1.0 / n_samples) / n_samples)
