import pytest

from ringline.correspondence import STRUCTURE
from ringline.projline import enumerate_line
from ringline.rings import ring_by_name


@pytest.fixture(scope="session")
def m2f2():
    return ring_by_name("m2f2")


@pytest.fixture(scope="session")
def m2f2_line(m2f2):
    return enumerate_line(m2f2)


@pytest.fixture(scope="session")
def gq():
    return STRUCTURE.gq


@pytest.fixture(scope="session")
def hyperplanes():
    return STRUCTURE.hyperplanes


@pytest.fixture(scope="session")
def spreads():
    return STRUCTURE.spreads
