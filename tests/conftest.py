import pytest

from dirlaw.arith import build_spf_sieve
from dirlaw.polyfield import build_irreducibles
from oracles import stirling_rows


@pytest.fixture(scope="session")
def sieve_small():
    return build_spf_sieve(100_000)


@pytest.fixture(scope="session")
def stirling50():
    return stirling_rows(50)


@pytest.fixture(scope="session")
def irr2():
    return build_irreducibles(2, 8)


@pytest.fixture(scope="session")
def irr3():
    return build_irreducibles(3, 5)
