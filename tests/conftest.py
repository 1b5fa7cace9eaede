import pytest

from spherebif.collocation import DiscreteSystem, build_grid
from spherebif.model import ModelParams


@pytest.fixture(scope="session")
def params():
    return ModelParams(n=2, delta=1.0, q=3.0)


@pytest.fixture(scope="session")
def system96(params):
    return DiscreteSystem(build_grid(96), params)


@pytest.fixture(scope="session")
def system48(params):
    return DiscreteSystem(build_grid(48), params)
