import numpy as np
import pytest

from lobphase.dist import ArrivalSpec, uniform_dist


@pytest.fixture(scope="session")
def uniform_spec() -> ArrivalSpec:
    return ArrivalSpec(uniform_dist(), uniform_dist())


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)


def pytest_report_header(config):
    from lobphase import book
    kernel = book._kernel()
    return f"lobphase kernel: {kernel.name}" + (f" ({kernel.library})" if kernel.library else "")
