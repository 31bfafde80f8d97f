import threading

import pytest

from htwk import spec_to_model
from htwk.verify import CASE_B, DEFAULT_MODEL, K_DIVERGENT, LIGHT_CONTROL


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running, such as a read-ahead
    helper that its run did not join."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture(scope="session")
def default_model():
    """Heavy positive tail, infinite-mean negative part."""
    return spec_to_model(DEFAULT_MODEL)


@pytest.fixture(scope="session")
def light_model():
    """Exponential both sides: the negative control."""
    return spec_to_model(LIGHT_CONTROL)


@pytest.fixture(scope="session")
def k_divergent_model():
    return spec_to_model(K_DIVERGENT)


@pytest.fixture(scope="session")
def case_b_model():
    return spec_to_model(CASE_B)
