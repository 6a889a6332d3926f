import random

import pytest

from cuntz import standard_rfs_o2, standard_rfs_p, standard_rpfs2


@pytest.fixture
def rng():
    return random.Random(271828)


@pytest.fixture(scope="session")
def std_o2():
    return standard_rfs_o2()


@pytest.fixture(scope="session")
def rfs2():
    return standard_rfs_p(2)


@pytest.fixture(scope="session")
def rfs3():
    return standard_rfs_p(3)


@pytest.fixture(scope="session")
def rpfs2():
    return standard_rpfs2()
