import numpy as np
import pytest

from gmewit.linalg import expectation
from gmewit.states import (NoiseModel, apply_noise, cluster_state_4, ghz_state,
                           spoof_state, w_state)
from oracles import pauli_string


def test_ghz_state_components():
    psi = ghz_state(3, +1)
    assert psi[0] == pytest.approx(1 / np.sqrt(2))
    assert psi[-1] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(psi) == 2
    minus = ghz_state(3, -1)
    assert minus[-1] == pytest.approx(-1 / np.sqrt(2))


def test_ghz_state_validation():
    with pytest.raises(ValueError):
        ghz_state(1)
    with pytest.raises(ValueError):
        ghz_state(11)
    with pytest.raises(ValueError):
        ghz_state(3, 0)


def test_spoof_state_is_normalized_product():
    psi = spoof_state(4)
    assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-12
    # 1|234 product structure: the full vector is the Kronecker product of
    # its first-qubit factor with the rest.
    first = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    rest = psi[:8] / first[0]
    assert np.max(np.abs(psi - np.kron(first, rest))) <= 1e-12


def test_w_state():
    psi = w_state()
    nz = np.flatnonzero(psi)
    assert list(nz) == [1, 2, 4]
    assert np.allclose(psi[nz], 1 / np.sqrt(3))


def test_cluster_state_stabilizers():
    psi = cluster_state_4()
    for letters in ("XZII", "ZXZI", "IZXZ", "IIZX"):
        assert expectation(pauli_string(letters), psi) == pytest.approx(1.0, abs=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("pink", 0.5)
    with pytest.raises(ValueError):
        NoiseModel("dephasing", 1.5)


def test_depolarizing_noise():
    rho = apply_noise(ghz_state(4, +1), NoiseModel("depolarizing", 0.7))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    # p = 0 gives the maximally mixed state.
    rho0 = apply_noise(ghz_state(4, +1), NoiseModel("depolarizing", 0.0))
    assert np.max(np.abs(rho0 - np.eye(16) / 16)) <= 1e-12


def test_dephasing_noise_requires_ghz_plus():
    rho = apply_noise(ghz_state(3, +1), NoiseModel("dephasing", 0.8))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        apply_noise(w_state(), NoiseModel("dephasing", 0.8))


def test_dephasing_interpolates_ghz_projectors():
    p = 0.6
    rho = apply_noise(ghz_state(4, +1), NoiseModel("dephasing", p))
    plus, minus = ghz_state(4, +1), ghz_state(4, -1)
    expected = p * np.outer(plus, plus.conj()) + (1 - p) * np.outer(minus, minus.conj())
    assert np.max(np.abs(rho - expected)) <= 1e-12
