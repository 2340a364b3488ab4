"""Deviation reports shared by the integer, polynomial and permutation
engines, plus the rectangle grids they are evaluated on, the rectangle
parser and caps rule they share and the CSV payloads written from
reports.

A grid of step g consists of every corner u with coordinates that are
positive multiples of g and sum at most 1.  The origin is excluded: at
u = 0 the empirical mass is dominated by the n = 1 style boundary terms
while the limit is 0, so the deviation there measures nothing about
convergence.  The far face (sum u_i = 1) is included.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dirichlet import cdf_many
from .errors import DomainError, ResourceError

# Most corners of one grid, each a tuple of Fractions with one limit CDF:
# the largest grid under it, 99,681 k = 3 corners (step 1/447), takes
# 3.4 s and 103 MB in ``perms converge --n 10`` (2 cores), while a step of
# 1/100000 alone would ask for about 5e9 corners.
_MAX_CORNERS = 10 ** 5


@dataclass(frozen=True)
class DeviationReport:
    """Grid comparison of an empirical law against its Dirichlet limit.

    ``scale`` is x for integers, the degree / permutation size n for the
    other engines.  ``scaled_sup_dev`` multiplies ``sup_dev`` by the
    reciprocal of the proven error rate, so it should stay bounded as
    the scale grows.
    """

    kind: str
    scale: int
    k: int
    model_id: str
    grid_step: Fraction
    points: tuple[tuple[Fraction, ...], ...]
    empirical: tuple[float, ...]
    limit: tuple[float, ...]
    deviation: tuple[float, ...]
    sup_dev: float
    scaled_sup_dev: float

    def rows(self):
        """(corner, empirical, limit, deviation) per grid point."""
        return zip(self.points, self.empirical, self.limit, self.deviation)

    def arg_sup(self) -> tuple[Fraction, ...]:
        """The first grid point, in grid order, whose deviation is within
        a relative 1e-12 of ``sup_dev``.

        Exchangeable corners tie exactly in theory; the tolerance, far
        above the rounding in the last bits of the floats, keeps that
        rounding from choosing between them.
        """
        return next(u for u, dev in zip(self.points, self.deviation)
                    if math.isclose(dev, self.sup_dev, rel_tol=1e-12))


def check_grid(k: int, step) -> int:
    """The corner count of ``rect_grid(k, step)``, C(floor(1/step), k - 1),
    after its checks, without building a corner."""
    step = Fraction(step)
    if not 0 < step <= Fraction(1, 2):
        raise DomainError("grid step must lie in (0, 1/2]")
    if (k - 1) * step > 1:
        raise DomainError("grid step leaves no corner: (k - 1) step > 1")
    count = math.comb(step.denominator // step.numerator, k - 1)
    if count > _MAX_CORNERS:
        raise ResourceError("grid corner count exceeds the 1e5 guard")
    return count


def rect_grid(k: int, step: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """All (k-1)-tuples of positive multiples of step with sum <= 1, in
    lexicographic order: the steps between the members of each increasing
    (k-1)-subset of the multiples up to 1, as ``check_grid`` counts them."""
    check_grid(k, step)
    step = Fraction(step)
    top = range(1, step.denominator // step.numerator + 1)
    return tuple(tuple((b - a) * step for a, b in zip((0,) + s, s))
                 for s in itertools.combinations(top, k - 1))


def rect_fractions(rect, k: int) -> tuple[Fraction, ...]:
    """The k-1 corner coordinates of a rectangle as exact rationals."""
    u = rect.u if hasattr(rect, "u") else rect
    out = tuple(Fraction(c) for c in u)
    if len(out) != k - 1:
        raise DomainError("rectangle dimension must be k - 1")
    if any(c < 0 or c > 1 for c in out):
        raise DomainError("rectangle coordinates must lie in [0, 1]")
    return out


def rect_caps(rect, k: int, n: int) -> tuple[int, ...]:
    """The caps floor(n * u_i) of a rectangle, from its exact rationals,
    so no float rounding decides a boundary case."""
    return tuple(math.floor(n * c) for c in rect_fractions(rect, k))


def grid_report(kind: str, scale: int, k: int, model_id: str, alpha,
                step, rate_factor: float, statistic) -> DeviationReport:
    """The report of every verb, after the engine's own checks: the grid,
    then its Dir(alpha) limit in one ``cdf_many`` call, which checks every
    corner before it evaluates any, and only then the engine's
    ``statistic`` (grid points to floats).  ``rate_factor`` is the
    reciprocal of the proven error rate at this scale."""
    points = rect_grid(k, step)
    limit = tuple(cdf_many(alpha, [tuple(map(float, u)) for u in points],
                           1e-9))
    empirical = tuple(statistic(points))
    dev = tuple(abs(e - f) for e, f in zip(empirical, limit))
    return DeviationReport(kind, scale, k, model_id, Fraction(step), points,
                           empirical, limit, dev, max(dev),
                           max(dev) * rate_factor)


def fmt(x: float) -> str:
    """A float with 12 significant digits, as every payload prints it."""
    return format(float(x), ".12g")


def report_csv(report: DeviationReport) -> str:
    """Deterministic CSV: u_1,...,u_{k-1},empirical,limit,deviation."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"u_{i}" for i in range(1, report.k)]
               + ["empirical", "limit", "deviation"])
    for u, *values in report.rows():
        w.writerow([fmt(v) for v in (*u, *values)])
    return buf.getvalue()


def convergence_csv(reports) -> str:
    """Deterministic CSV: scale,sup_dev,scaled_sup_dev."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["scale", "sup_dev", "scaled_sup_dev"])
    for r in reports:
        w.writerow([r.scale, fmt(r.sup_dev), fmt(r.scaled_sup_dev)])
    return buf.getvalue()
