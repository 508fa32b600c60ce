"""State constructors (GHZ, W, cluster, spoofing, |χ(θ)⟩) and noise channels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import assert_state

NOISE_KINDS = ("depolarizing", "dephasing")


@dataclass(frozen=True)
class NoiseModel:
    """Source noise model with visibility ``p``."""

    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("visibility p must lie in [0, 1]")


def ghz_state(n: int, sign: int = +1) -> np.ndarray:
    """|ghz_n^±⟩ = (|0…0⟩ ± |1…1⟩)/√2."""
    if not 2 <= n <= 10:
        raise ValueError("n must be in [2, 10]")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[-1] = sign / np.sqrt(2)
    return psi


def spoof_state(n: int) -> np.ndarray:
    """Biseparable 1|rest product state that saturates the tilted Mermin bound.

    ½ (|0⟩ + e^{iπ/4}|1⟩) ⊗ (|0⟩^{n−1} + e^{−iπ/4}|1⟩^{n−1}).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    first = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
    rest = np.zeros(2 ** (n - 1), dtype=complex)
    rest[0] = 1 / np.sqrt(2)
    rest[-1] = np.exp(-1j * np.pi / 4) / np.sqrt(2)
    psi = np.kron(first, rest)
    assert_state(psi)
    return psi


def w_state() -> np.ndarray:
    """Symmetric single-excitation three-qubit W state."""
    psi = np.zeros(8, dtype=complex)
    for idx in (0b001, 0b010, 0b100):
        psi[idx] = 1 / np.sqrt(3)
    return psi


def cluster_state_4() -> np.ndarray:
    """Linear four-qubit cluster state: CZ chain applied to |+⟩^⊗4.

    Unique common +1 eigenstate of the stabilizer generators
    XZ𝟙𝟙, ZXZ𝟙, 𝟙ZXZ, 𝟙𝟙ZX.
    """
    psi = np.full(16, 0.25, dtype=complex)
    for idx in range(16):
        bits = [(idx >> (3 - q)) & 1 for q in range(4)]
        phase = sum(bits[q] * bits[q + 1] for q in range(3))
        psi[idx] *= (-1) ** phase
    return psi


def chi_state(theta: float) -> np.ndarray:
    """|χ(θ)⟩ = cos θ|0⟩ + sin θ|1⟩."""
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def apply_noise(psi: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Mix a pure state with the chosen noise channel, returning a density matrix.

    Depolarizing: p|ψ⟩⟨ψ| + (1−p)𝟙/d.  Dephasing (GHZ inputs only):
    p|ghz⟩⟨ghz| + (1−p)|ghz⁻⟩⟨ghz⁻|.
    """
    assert_state(psi)
    d = psi.shape[0]
    proj = _projector(psi)
    if noise.kind == "depolarizing":
        return noise.p * proj + (1 - noise.p) * np.eye(d) / d
    n = int(np.log2(d))
    if not np.allclose(psi, ghz_state(n, +1), atol=1e-12):
        raise ValueError("dephasing noise is defined only for |ghz_n^+⟩ inputs")
    return noise.p * proj + (1 - noise.p) * _projector(ghz_state(n, -1))


def _projector(psi: np.ndarray) -> np.ndarray:
    """|ψ⟩⟨ψ| divided by its trace, so that |ghz⟩⟨ghz| has entries exactly ±½
    (the 1/√2 amplitudes square to 0.4999999999999999)."""
    proj = np.outer(psi, psi.conj())
    return proj / np.trace(proj).real
