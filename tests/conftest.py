import math
import signal

import pytest

from delaybvp import spectral
from delaybvp.problem import ProblemSpec

PI_HALF = math.pi / 2


@pytest.fixture(scope="session")
def null_spec():
    return ProblemSpec.from_strings("0", "0", "0", "0", PI_HALF, PI_HALF, 1.0)


@pytest.fixture(scope="session")
def constq_spec():
    return ProblemSpec.from_strings("1", "1", "0", "0", PI_HALF, PI_HALF, 1.0)


@pytest.fixture(scope="session")
def delayed_spec():
    return ProblemSpec.from_strings(
        "sin(x)", "cos(x)",
        "0.5*x*(pi/2 - x)", "(x - pi/2)*(pi - x)*0.25",
        PI_HALF, PI_HALF, 1.0)


@pytest.fixture(scope="session")
def constq_pairs(constq_spec):
    """Localized eigenpairs n = 5..50 for the constant-q problem."""
    return spectral.localize_range(constq_spec, range(5, 51))


@pytest.fixture(scope="session")
def delayed_pairs(delayed_spec):
    """Localized eigenpairs n = 5..50 for the delayed problem."""
    return spectral.localize_range(delayed_spec, range(5, 51))


@pytest.fixture
def alarm():
    """Turns a hang of the test body into a TimeoutError after 60 s."""
    def fail(signum, frame):
        raise TimeoutError("no result within 60 s")
    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
