import pytest

from morsecert.certify import certify_p5, certify_p6
from morsecert.io import builtin_subject
from morsecert.polytopes import build_p5, build_p6
from morsecert.states import (
    balanced_states_p5,
    balanced_states_p6,
    move_system_p5,
    move_system_p6,
)


@pytest.fixture(scope="session")
def P6():
    return build_p6()


@pytest.fixture(scope="session")
def M6():
    return move_system_p6()


@pytest.fixture(scope="session")
def BAL6(P6):
    return balanced_states_p6(P6)


@pytest.fixture(scope="session")
def P5(P6):
    return build_p5(P6)


@pytest.fixture(scope="session")
def M5(P5):
    return move_system_p5(P5)


@pytest.fixture(scope="session")
def BAL5(P5):
    return balanced_states_p5(P5)


@pytest.fixture(scope="session")
def S6():
    return builtin_subject("p6")


@pytest.fixture(scope="session")
def S5():
    return builtin_subject("p5")


@pytest.fixture(scope="session")
def cert_p6():
    # spec default: seed 0
    return certify_p6()


@pytest.fixture(scope="session")
def cert_p5():
    return certify_p5()
