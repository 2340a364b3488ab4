import math
from fractions import Fraction

import pytest

from dirlaw.report import deviation_report, rect_grid

F = Fraction
_LIMIT = 0.1044676954610027
_PRINTED = 0.1234567890125      # prints ...012; the next float up ...013


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
def test_arg_sup_ignores_last_bit_ties(empirical, limit):
    # (1/10, 9/10) and (9/10, 1/10) are exchangeable corners, so arg_sup
    # must stay on the first of them in grid order, also where the two
    # deviations print differently to 12 digits
    points = ((F(1, 10), F(1, 10)), (F(1, 10), F(9, 10)),
              (F(9, 10), F(1, 10)))
    rep = deviation_report("perms", 100, 3, "uniform", F(1, 10), points,
                           empirical, limit, 10.0)
    assert rep.deviation[1] != rep.deviation[2]
    assert rep.arg_sup() == points[1]


def test_arg_sup_is_the_largest_deviation():
    points = rect_grid(2, F(1, 4))
    rep = deviation_report("polys", 8, 2, "q2-uniform", F(1, 4), points,
                           [0.3, 0.5, 0.9, 1.0], [0.25, 0.5, 0.75, 1.0],
                           1.0)
    assert rep.arg_sup() == (F(3, 4),)
