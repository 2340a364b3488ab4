"""Deviation reports shared by the integer, polynomial and permutation
engines, plus the rectangle grids they are evaluated on, the rectangle
parser they share and the CSV payloads written from reports.

A grid of step g consists of every corner u with coordinates that are
positive multiples of g and sum at most 1.  The origin is excluded: at
u = 0 the empirical mass is dominated by the n = 1 style boundary terms
while the limit is 0, so the deviation there measures nothing about
convergence.  The far face (sum u_i = 1) is included.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


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
        for u, emp, lim, dev in zip(self.points, self.empirical,
                                    self.limit, self.deviation):
            yield [float(c) for c in u] + [emp, lim, dev]

    def arg_sup(self) -> tuple[Fraction, ...]:
        """The first grid point, in grid order, whose deviation is within
        a relative 1e-12 of ``sup_dev``.

        Exchangeable corners tie exactly in theory; the tolerance, far
        above the rounding in the last bits of the floats, keeps that
        rounding from choosing between them.
        """
        return next(u for u, dev in zip(self.points, self.deviation)
                    if math.isclose(dev, self.sup_dev, rel_tol=1e-12))


def rect_grid(k: int, step: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """All (k-1)-tuples of positive multiples of step with sum <= 1."""
    step = Fraction(step)
    if not 0 < step <= Fraction(1, 2):
        raise DomainError("grid step must lie in (0, 1/2]")
    if (k - 1) * step > 1:
        raise DomainError("grid step leaves no corner: (k - 1) step > 1")
    out = []

    def rec(prefix: tuple, left: Fraction):
        if len(prefix) == k - 1:
            out.append(prefix)
            return
        m = 1
        while m * step <= left:
            rec(prefix + (m * step,), left - m * step)
            m += 1

    rec((), Fraction(1))
    return tuple(out)


def rect_fractions(rect, k: int) -> tuple[Fraction, ...]:
    """The k-1 corner coordinates of a rectangle as exact rationals.

    Engines that need integer caps take floor(n * u_i) from the result,
    so no float rounding decides a boundary case.
    """
    u = rect.u if hasattr(rect, "u") else rect
    out = tuple(Fraction(c) for c in u)
    if len(out) != k - 1:
        raise DomainError("rectangle dimension must be k - 1")
    if any(c < 0 or c > 1 for c in out):
        raise DomainError("rectangle coordinates must lie in [0, 1]")
    return out


def deviation_report(kind: str, scale: int, k: int, model_id: str,
                     step: Fraction, points, empirical, limit,
                     rate_factor: float) -> DeviationReport:
    """Assemble a report from per-point empirical and limit values.

    ``rate_factor`` is the reciprocal of the proven error rate at this
    scale; the scaled sup deviation is ``sup_dev * rate_factor``.
    """
    dev = tuple(abs(e - f) for e, f in zip(empirical, limit))
    sup = max(dev)
    return DeviationReport(
        kind=kind, scale=scale, k=k, model_id=model_id, grid_step=step,
        points=points, empirical=tuple(empirical), limit=tuple(limit),
        deviation=dev, sup_dev=sup, scaled_sup_dev=sup * rate_factor)


def fmt(x: float) -> str:
    """A float with 12 significant digits, as every payload prints it."""
    return format(float(x), ".12g")


def report_csv(report: DeviationReport) -> str:
    """Deterministic CSV: u_1,...,u_{k-1},empirical,limit,deviation."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([f"u_{i}" for i in range(1, report.k)]
               + ["empirical", "limit", "deviation"])
    for row in report.rows():
        w.writerow([fmt(v) for v in row])
    return buf.getvalue()


def convergence_csv(reports) -> str:
    """Deterministic CSV: scale,sup_dev,scaled_sup_dev."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["scale", "sup_dev", "scaled_sup_dev"])
    for r in reports:
        w.writerow([r.scale, fmt(r.sup_dev), fmt(r.scaled_sup_dev)])
    return buf.getvalue()
