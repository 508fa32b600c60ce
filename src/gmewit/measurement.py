"""Measurement models: the tilt coefficients q and u, imprecision budgets, the
waveplate/PBS POVM error model, and tomography-based fidelity estimation."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import I2, assert_hermitian, bloch_observable
from .tolerances import tol

AXES = ("X", "Y", "Z")
AXIS_VECTORS = {"X": np.array([1.0, 0, 0]), "Y": np.array([0, 1.0, 0]), "Z": np.array([0, 0, 1.0])}


def q_of(eps: float) -> float:
    """Alignment coefficient q = 1 − 2ε."""
    return 1.0 - 2.0 * eps


def u_of(eps: float) -> float:
    """Transverse coefficient √(1−q²) = 2√(ε(1−ε))."""
    return 2.0 * np.sqrt(eps * (1.0 - eps))


@dataclass(frozen=True)
class ImprecisionBudget:
    """Per-party (ε_X, ε_Y, ε_Z) measurement infidelities."""

    per_party: tuple

    def __post_init__(self):
        for trip in self.per_party:
            if len(trip) != len(AXES):
                raise ValueError("each party needs exactly three ε: (ε_X, ε_Y, ε_Z)")
            for eps in trip:
                if not 0.0 <= eps <= 0.5:
                    raise ValueError("each ε must lie in [0, 1/2]")

    @classmethod
    def ideal(cls, n: int) -> "ImprecisionBudget":
        return cls(tuple((0.0, 0.0, 0.0) for _ in range(n)))

    @classmethod
    def uniform(cls, eps: float, n: int) -> "ImprecisionBudget":
        return cls(tuple((eps, eps, eps) for _ in range(n)))

    @classmethod
    def per_basis(cls, eps_x: float, eps_y: float, eps_z: float, n: int) -> "ImprecisionBudget":
        return cls(tuple((eps_x, eps_y, eps_z) for _ in range(n)))

    @classmethod
    def single_party(cls, eps: float, n: int) -> "ImprecisionBudget":
        return cls(((eps, eps, eps),) + ((0.0, 0.0, 0.0),) * (n - 1))

    @property
    def n(self) -> int:
        return len(self.per_party)

    def eps(self, party: int, axis: str) -> float:
        return self.per_party[party][AXES.index(axis)]

    def is_ideal(self) -> bool:
        return all(e == 0.0 for trip in self.per_party for e in trip)


#: Per-basis infidelity budget of the reference experiment (ε_X, ε_Y, ε_Z).
REFERENCE_BUDGET = ImprecisionBudget.per_basis(6e-4, 2.3e-3, 3e-4, 4)


# ---------------------------------------------------------------------------
# Measurement fidelity
# ---------------------------------------------------------------------------

def measurement_fidelity(povm_plus: np.ndarray, povm_minus: np.ndarray,
                         axis: np.ndarray) -> float:
    """Average fidelity ½⟨n|P̃₊|n⟩ + ½⟨−n|P̃₋|−n⟩ against the axis n, as
    ¼·tr(P̃₊(𝟙 + n·σ) + P̃₋(𝟙 − n·σ))."""
    if np.max(np.abs(povm_plus + povm_minus - I2)) > tol("povm_completeness"):
        raise ValueError("POVM elements do not sum to the identity")
    for p in (povm_plus, povm_minus):
        assert_hermitian(p)
        if np.linalg.eigvalsh(p).min() < -1e-12:
            raise ValueError("POVM element is not positive semidefinite")
    axis = np.asarray(axis, dtype=float)
    n_sigma = bloch_observable(axis / np.linalg.norm(axis))
    return float(0.25 * np.trace(povm_plus @ (I2 + n_sigma) + povm_minus @ (I2 - n_sigma)).real)


# ---------------------------------------------------------------------------
# Waveplate / PBS POVM model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveplateErrorSpec:
    """Rotation-stage and retardance errors plus PBS routing probability."""

    d_alpha: float = 0.0
    d_beta: float = 0.0
    d_eta_q: float = 0.0
    d_eta_h: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if min(self.d_alpha, self.d_beta, self.d_eta_q, self.d_eta_h) < 0:
            raise ValueError("error magnitudes must be non-negative")
        if not 0.5 <= self.gamma <= 1.0:
            raise ValueError("γ must lie in [1/2, 1]")


#: QWP angle α and HWP angle β steering each basis onto the PBS H/V ports.
WAVEPLATE_SETTINGS = {
    "Z": (0.0, 0.0),
    "X": (np.pi / 4, np.pi / 8),
    "Y": (0.0, 3 * np.pi / 8),
}


def _rot(t: float) -> np.ndarray:
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)


def waveplate(t: float, eta: float) -> np.ndarray:
    """Jones matrix of a waveplate at angle t with retardance η."""
    return _rot(t) @ np.diag([1.0, np.exp(1j * eta)]) @ _rot(-t)


def _povm_plus(alpha, beta, eta_q, eta_h, gamma):
    u = waveplate(beta, eta_h) @ waveplate(alpha, eta_q)
    return u.conj().T @ np.diag([gamma, 1 - gamma]) @ u


def waveplate_povm(basis: str, spec: WaveplateErrorSpec):
    """POVM pair implemented by the imperfect QWP–HWP–PBS chain.

    Returns ``(P_plus, P_minus, info)``: the POVM of the error-sign
    combination with the lowest fidelity, and ``info["fidelity"]``, that
    worst-case fidelity.
    """
    if basis not in WAVEPLATE_SETTINGS:
        raise ValueError(f"unknown basis {basis!r}")
    alpha, beta = WAVEPLATE_SETTINGS[basis]
    axis = AXIS_VECTORS[basis]
    worst_f, worst_povm = np.inf, None
    for sa, sb, sq, sh in itertools.product((1, -1), repeat=4):
        p_plus = _povm_plus(alpha + sa * spec.d_alpha, beta + sb * spec.d_beta,
                            np.pi / 2 + sq * spec.d_eta_q, np.pi + sh * spec.d_eta_h,
                            spec.gamma)
        f = measurement_fidelity(p_plus, I2 - p_plus, axis)
        if f < worst_f:
            worst_f, worst_povm = f, p_plus
    return worst_povm, I2 - worst_povm, {"fidelity": float(worst_f)}


# ---------------------------------------------------------------------------
# Detector tomography from coincidence counts
# ---------------------------------------------------------------------------

PREP_LABELS = ("H", "V", "D", "A", "R", "L")
PROJ_LABELS = ("D", "A", "R", "L", "H", "V")

#: Each projector pair and the Bloch axis whose ± eigenstates it targets.
PROJECTOR_PAIRS = {"X": ("D", "A"), "Y": ("R", "L"), "Z": ("H", "V")}


def _check_labels(prefix: str, labels: list[str]) -> None:
    """Bad input if a label is none of the six, or repeats (its later count hides the earlier)."""
    for i, label in enumerate(labels):
        if label not in PREP_LABELS:        # the projectors carry the same six
            raise ValueError(f"{prefix}{label} is not one of {', '.join(PREP_LABELS)}")
        if label in labels[:i]:
            raise ValueError(f"{prefix}{label} is repeated")


@dataclass
class CountTable:
    """6×6 table of coincidence counts, projector row × preparation column."""

    counts: dict

    def __post_init__(self):
        for proj in PROJ_LABELS:
            for prep in PREP_LABELS:
                c = self.counts.get((proj, prep))
                if c is None:
                    raise ValueError(f"missing count for proj_{proj}/prep_{prep}")
                if c < 0:
                    raise ValueError("counts must be non-negative")

    @classmethod
    def from_csv(cls, path) -> "CountTable":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        if not rows:
            raise ValueError("no header row of prep_ columns")
        header = rows[0]
        preps = [h.removeprefix("prep_") for h in header[1:]]
        _check_labels("prep_", preps)
        _check_labels("proj_", [row[0].removeprefix("proj_") for row in rows[1:]])
        counts = {}
        for row in rows[1:]:
            proj = row[0].removeprefix("proj_")
            if len(row) != len(header):
                raise ValueError(f"row proj_{proj} has {len(row)} cells, the header {len(header)}")
            for prep, cell in zip(preps, row[1:]):
                if not cell.strip().isdecimal():
                    raise ValueError(f"proj_{proj}/prep_{prep} is not a count: {cell!r}")
                counts[(proj, prep)] = int(cell)
        return cls(counts)


def fidelity_from_counts(table: CountTable) -> dict:
    """Per-projector fidelity estimates from a tomography count table, all three
    from one pass probability p(prep) = N[proj, prep] / (N[proj, prep] + N[partner, prep]):

    - ``pass_fail``: p at the projector's own eigenstate;
    - ``symmetric``: (1 + pass_fail)/2 — attributes half of the observed
      infidelity to probe preparation (primary column);
    - ``tomography``: the linear-inversion POVM ½(c₀·𝟙 + c·σ), probe states
      assumed ideal, scored by ``measurement_fidelity`` against the axis.
    """
    out = {}
    for axis, (plus, minus) in PROJECTOR_PAIRS.items():
        for label, partner, sign in ((plus, minus, +1), (minus, plus, -1)):
            p = {}
            for prep in PREP_LABELS:
                total = table.counts[(label, prep)] + table.counts[(partner, prep)]
                if total == 0:
                    raise ValueError(f"proj_{label} and proj_{partner} both count 0 "
                                     f"under prep_{prep}")
                p[prep] = table.counts[(label, prep)] / total
            # p(prep) = ½(c₀ + c·s(prep)) with s the probe Bloch vector; the
            # six probes are ±x, ±y, ±z, so the inversion is direct.
            c = [p[a] - p[b] for a, b in PROJECTOR_PAIRS.values()]
            povm = 0.5 * (sum(p.values()) / 3.0 * I2 + bloch_observable(c))
            # Clip to [0, 𝟙] if sampling noise pushed an eigenvalue outside.
            evals, vecs = np.linalg.eigh(povm)
            povm = (vecs * np.clip(evals, 0.0, 1.0)) @ vecs.conj().T
            out[label] = {
                "axis": axis,
                "pass_fail": p[label],
                "tomography": measurement_fidelity(povm, I2 - povm, sign * AXIS_VECTORS[axis]),
                "symmetric": (1.0 + p[label]) / 2.0,
            }
    return out
