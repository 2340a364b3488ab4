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
function.  Each integral substitutes t_1 = u_1 s^(1/alpha_1), which
absorbs the t^(alpha-1) endpoint singularity exactly, and runs over s in
(0, 1) on the tanh-sinh nodes, whose clustering at s = 1 absorbs the
(1 - t_1)^(A - alpha_1 - 1) factor when u_1 = 1.

The inner CDF is at most 1, so an outer node adds at most its prefactor
times its weight, face * w / a.  Nodes where that bound is below
1e-17 / (node count) are not recursed on: each of the k - 2 integrals
loses at most 1e-17 per corner, (k - 2) * 1e-17 in all, far below the
4e-16 floor of the level-to-level convergence test.  At k = 4 this
skips about half the middle-depth nodes and leaves about a third of the
incomplete-beta evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (DomainError, IntegrityError, ResourceError,
                     SingularityError, UnsupportedError)
from .quadrature import nodes

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
    """Closed form for k=2, alpha=(1/2,1/2): (2/pi) * arcsin(sqrt(u))."""
    if not 0.0 <= u <= 1.0:
        raise DomainError("arcsine CDF argument must lie in [0,1]")
    return 2.0 / math.pi * math.asin(math.sqrt(u))


def _stick_breaking(alpha: tuple[float, ...], u: np.ndarray,
                    level: int) -> np.ndarray:
    """Dir(alpha) mass of {t_i <= u_i, i < k} for each row of u, (m, k-1).

    Coordinates of u must lie in [0, 1].  The outer integral over t_1
    uses the tanh-sinh nodes of ``level``; its integrand is the same
    function of the conditional corners, one coordinate shorter.
    """
    m, d = u.shape
    a, b = alpha[0], math.fsum(alpha[1:])
    if d == 1:
        from scipy.special import betainc  # slow import: load on use
        return betainc(a, b, u[:, 0])
    if d > 2 and m > 1:
        # m corners of d coordinates bring m * N^(d-1) corners to the base
        # (N nodes per level); taking these one at a time bounds that
        # working set by N^2.
        return np.array([_stick_breaking(alpha, c[None], level)[0]
                         for c in u])
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
    return (face * g) @ w / a


@lru_cache(maxsize=200_000)
def _cdf_cached(alpha: tuple[float, ...], u: tuple[float, ...],
                tol: float) -> float:
    if any(c == 0.0 for c in u):
        return 0.0
    corner = np.array([u])
    prev = None
    for level in range(3, _MAX_LEVEL + 1):
        val = float(_stick_breaking(alpha, corner, level)[0])
        if prev is not None and abs(val - prev) <= max(0.5 * tol, 4e-16):
            return min(val, 1.0) if val > 1.0 and val - 1.0 < tol else val
        prev = val
    raise IntegrityError(
        f"CDF quadrature did not converge to {tol:g} in {len(u)} dimensions")


def cdf(params, rect, tol: float = 1e-9) -> float:
    """Rectangle CDF F(u_1, ..., u_(k-1)) to absolute accuracy tol.

    Stick-breaking recursion: ``scipy.special.betainc`` for k = 2, and for
    larger k one tanh-sinh integral per coordinate but the last.  The
    level is raised from 3 until two levels agree within tol / 2.
    Requires sum u_i <= 1 (the box must not leave the simplex) and
    k - 1 <= 4; tol must lie in [1e-12, 1e-3].
    """
    alpha = _as_alpha(params)
    u = _as_corner(rect)
    if len(u) != len(alpha) - 1:
        raise DomainError("rectangle dimension must be k - 1")
    if sum(u) > 1.0 + 1e-12:
        raise DomainError("rectangle corner must satisfy sum u_i <= 1")
    if len(u) > _MAX_CDF_DIMS:
        raise UnsupportedError("CDF supports at most k - 1 = 4 dimensions")
    if not (1e-12 <= tol <= 1e-3):
        raise DomainError("tol must lie in [1e-12, 1e-3]")
    return _cdf_cached(alpha, u, tol)


def simplex_mass(params, tol: float = 1e-9) -> float:
    """Total mass of the density over the whole simplex (ideally 1).

    The stick-breaking rule of ``cdf`` at the corner u = (1, ..., 1),
    where every conditional corner clips to 1; a direct check on the
    quadrature plus normalization constants.
    """
    alpha = _as_alpha(params)
    if len(alpha) - 1 > _MAX_CDF_DIMS:
        raise UnsupportedError("mass check supports at most k - 1 = 4")
    return _cdf_cached(alpha, tuple(1.0 for _ in alpha[:-1]), tol)


def sample(params, seed: int) -> SimplexPoint:
    """One draw: independent Gamma(alpha_i, 1) variates, normalized."""
    pt = sample_many(params, 1, seed)[0]
    return SimplexPoint(tuple(float(c) for c in pt))


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
