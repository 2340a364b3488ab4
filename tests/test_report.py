import math
import types
from fractions import Fraction

import pytest

from dirlaw import report
from dirlaw.errors import ResourceError
from dirlaw.report import check_grid, grid_report, rect_grid

F = Fraction
_LIMIT = 0.1044676954610027
_PRINTED = 0.1234567890125      # prints ...012; the next float up ...013


def _report(monkeypatch, kind, k, step, empirical, limit):
    """``grid_report`` with the given empirical and limit values."""
    monkeypatch.setattr(report, "cdf_many", lambda *args: limit)
    return grid_report(kind, 100, k, "uniform", (1 / k,) * k, step, 10.0,
                       lambda points: empirical)


def _last_bit_ties():
    """(empirical, limit) at three corners whose last two deviations
    tie in theory and differ by 1 ulp."""
    for nudge in (math.inf, -math.inf):
        for i in (1, 2):
            limit = [0.05, _LIMIT, _LIMIT]
            limit[i] = math.nextafter(_LIMIT, nudge)
            yield [0.06, 0.146, 0.146], limit
    up = math.nextafter(_PRINTED, math.inf)
    yield [0.06, _PRINTED, up], [0.0, 0.0, 0.0]
    yield [0.06, up, _PRINTED], [0.0, 0.0, 0.0]


@pytest.mark.parametrize("empirical,limit", list(_last_bit_ties()))
def test_arg_sup_ignores_last_bit_ties(monkeypatch, empirical, limit):
    # (1/3, 2/3) and (2/3, 1/3) are exchangeable corners, so arg_sup
    # must stay on the first of them in grid order, also where the two
    # deviations print differently to 12 digits
    rep = _report(monkeypatch, "perms", 3, F(1, 3), empirical, limit)
    assert rep.points == ((F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
                          (F(2, 3), F(1, 3)))
    assert rep.deviation[1] != rep.deviation[2]
    assert rep.arg_sup() == rep.points[1]


def test_arg_sup_is_the_largest_deviation(monkeypatch):
    rep = _report(monkeypatch, "polys", 2, F(1, 4), [0.3, 0.5, 0.9, 1.0],
                  [0.25, 0.5, 0.75, 1.0])
    assert rep.arg_sup() == (F(3, 4),)
    assert rep.sup_dev == 0.15000000000000002
    assert rep.scaled_sup_dev == 10 * rep.sup_dev


def test_grid_report_takes_the_limit_before_the_statistic(monkeypatch):
    calls = []
    monkeypatch.setattr(report, "cdf_many", lambda alpha, corners, tol:
                        calls.append("limit") or [0.5] * len(corners))
    rep = grid_report("perms", 10, 2, "uniform", (0.5, 0.5), F(1, 4), 2.0,
                      lambda points: calls.append("statistic")
                      or [0.25] * len(points))
    assert calls == ["limit", "statistic"]
    assert rep.points == rect_grid(2, F(1, 4)) and rep.sup_dev == 0.25


@pytest.mark.parametrize("k,step,count", [
    (2, F(1, 2), 2), (3, F(1, 10), 45), (4, F(1, 8), 56),
    (3, F(1, 100), 4950), (3, F(2, 7), 3), (5, F(1, 4), 1)])
def test_corner_count_is_the_grid_length(k, step, count):
    assert check_grid(k, step) == len(rect_grid(k, step)) == count


def test_corner_guard_refuses_before_enumerating(monkeypatch):
    # C(100000, 2) = 4,999,950,000 corners: refused from the step alone
    def refuse(*args):
        raise AssertionError("a corner was enumerated")

    monkeypatch.setattr(report, "itertools",
                        types.SimpleNamespace(combinations=refuse))
    for k, step in [(3, F(1, 100000)), (5, F(1, 100))]:
        with pytest.raises(ResourceError, match="corner count exceeds"):
            rect_grid(k, step)
    assert check_grid(3, F(1, 447)) == 99681
