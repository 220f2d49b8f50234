import numpy as np
import pytest

from qlat import (
    Projection,
    TolerancePolicy,
    reference_qubit_family,
    reference_qubit_model,
)


@pytest.fixture(scope="session")
def pol():
    return TolerancePolicy()


@pytest.fixture(scope="session")
def p0():
    return Projection(np.array([[1, 0], [0, 0]], dtype=complex))


@pytest.fixture(scope="session")
def p1():
    return Projection(np.array([[0, 0], [0, 1]], dtype=complex))


@pytest.fixture(scope="session")
def pplus():
    return Projection(np.full((2, 2), 0.5, dtype=complex))


@pytest.fixture(scope="session")
def qubit_family():
    return reference_qubit_family()


@pytest.fixture(scope="session")
def ground_model():
    return reference_qubit_model()


@pytest.fixture(scope="session")
def plus_ket():
    return np.array([1.0, 1.0]) / np.sqrt(2.0)
