"""Dense complex linear algebra: Pauli matrices, Kronecker products,
expectation values and validation helpers.

All operators are plain ``numpy`` complex arrays; states are 1-D complex
vectors, density matrices square complex arrays.  Every public routine
validates its inputs against the central tolerance table.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .tolerances import tol

# ---------------------------------------------------------------------------
# Pauli constants
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    return reduce(np.kron, mats)


def bloch_observable(v) -> np.ndarray:
    """The 2×2 observable v·σ = v_x·X + v_y·Y + v_z·Z of a real 3-vector."""
    return np.array([[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]], dtype=complex)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol("hermitian"))


def assert_hermitian(m: np.ndarray) -> None:
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")


def assert_state(psi: np.ndarray) -> None:
    """Check normalization and power-of-two dimension of a state vector."""
    dim = psi.shape[0]
    if dim & (dim - 1):
        raise ValueError(f"state dimension {dim} is not a power of two")
    if abs(np.vdot(psi, psi).real - 1.0) > tol("state_norm"):
        raise ValueError("state vector is not normalized")


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

def expectation(op: np.ndarray, state: np.ndarray) -> float:
    """⟨ψ|op|ψ⟩ for a vector or tr(op·ρ) for a density matrix.

    The operator must be Hermitian and dimension-matched; the imaginary
    residue of the result is asserted small and discarded.
    """
    assert_hermitian(op)
    if state.ndim == 1:
        if op.shape[0] != state.shape[0]:
            raise ValueError("operator/state dimension mismatch")
        val = np.vdot(state, op @ state)
    elif state.ndim == 2:
        if op.shape != state.shape:
            raise ValueError("operator/state dimension mismatch")
        val = np.trace(op @ state)
    else:
        raise ValueError("state must be a vector or a density matrix")
    if abs(val.imag) > tol("expectation_imag"):
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)
