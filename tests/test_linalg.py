import numpy as np
import pytest

from gmewit.linalg import I2, X, Y, Z, assert_state, expectation, is_hermitian, kron
from gmewit.measurement import AXIS_VECTORS, measurement_fidelity
from gmewit.states import ghz_state
from oracles import born_probabilities, pauli_string, projectors

NOT_HERMITIAN = np.array([[0, 1], [0, 0]], dtype=complex)


def test_pauli_algebra():
    assert np.max(np.abs(X @ Y - 1j * Z)) <= 1e-15
    assert np.max(np.abs(Y @ Z - 1j * X)) <= 1e-15
    assert np.max(np.abs(Z @ X - 1j * Y)) <= 1e-15
    for a in (X, Y, Z):
        assert np.max(np.abs(a @ a - I2)) <= 1e-15
    for a, b in ((X, Y), (Y, Z), (Z, X)):
        assert np.max(np.abs(a @ b + b @ a)) <= 1e-15


def test_kron_associativity():
    left = kron(kron(X, Y), Z)
    right = kron(X, kron(Y, Z))
    assert np.max(np.abs(left - right)) <= 1e-15
    assert np.array_equal(kron(X), X)


def test_pauli_string():
    assert np.allclose(pauli_string("XZ"), np.kron(X, Z))
    assert pauli_string("XZII").shape == (16, 16)


@pytest.mark.parametrize("call", [
    pytest.param(projectors, id="projectors"),
    pytest.param(lambda m: born_probabilities(ghz_state(2, +1), [[m], [m]]),
                 id="born_probabilities"),
    pytest.param(lambda m: measurement_fidelity(m, I2 - m, AXIS_VECTORS["Z"]),
                 id="measurement_fidelity"),
    pytest.param(lambda m: expectation(m, np.array([1, 0], dtype=complex)),
                 id="expectation"),
])
def test_non_hermitian_input_rejected(call):
    with pytest.raises(ValueError, match="Hermitian"):
        call(NOT_HERMITIAN)


def test_expectation_vector_and_density_matrix_agree():
    psi = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert expectation(Y, psi) == pytest.approx(expectation(Y, rho), abs=1e-12)
    assert expectation(Y, psi) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(4, dtype=complex), np.array([1.0, 0.0], dtype=complex))


def test_is_hermitian():
    assert is_hermitian(X)
    assert not is_hermitian(NOT_HERMITIAN)


def test_assert_state():
    assert_state(np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError):
        assert_state(np.array([1, 1], dtype=complex))
    with pytest.raises(ValueError):
        assert_state(np.array([1, 0, 0], dtype=complex) / 1.0)

