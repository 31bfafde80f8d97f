import threading

import pytest

from htwk import spec_to_model, walksim
from pinned_models import CASE_B, DEFAULT_MODEL, K_DIVERGENT, LIGHT_CONTROL


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


# the walk constants that a test may set, by the keyword that sets them
_WALK_CONSTANTS = {"step_budget": "STEP_BUDGET_DEFAULT",
                   "barrier": "BARRIER_DEFAULT"}


@pytest.fixture
def walk_constants(monkeypatch):
    """Set walksim's step budget or barrier until the test ends:
    walk_constants(step_budget=..., barrier=...)."""
    def set_constants(**values):
        for key, value in values.items():
            monkeypatch.setattr(walksim, _WALK_CONSTANTS[key], value)
    return set_constants


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
