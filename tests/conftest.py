import pytest

from irslab.oracles import CayleyOracle

from helpers import index2_oracle, one_vertex_oracle


@pytest.fixture
def cayley2():
    return CayleyOracle(2)


@pytest.fixture
def index2():
    return index2_oracle()


@pytest.fixture
def one_vertex():
    return one_vertex_oracle()
