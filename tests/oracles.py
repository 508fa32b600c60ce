"""Reference constructions used only by the tests: explicit Pauli strings,
the recursive Mermin pair, Born-rule probability tables, the best-case
visibility-threshold closed forms and the earlier Nelder–Mead L_ε search."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import minimize

from gmewit.fidelity import TILT_BASES, _lower_bound_fixed, _tilt_table
from gmewit.linalg import PAULI, kron
from gmewit.measurement import projectors
from gmewit.states import ghz_state
from gmewit.witnesses import BUILDERS, coefficient_tensor, expand


def pauli_string(letters: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"XZII"``."""
    return kron(*(PAULI[c] for c in letters))


def mermin_recursive(n: int, observables) -> tuple[np.ndarray, np.ndarray]:
    """Recursive Mermin pair: M_k = M_{k−1}⊗A₀ − N_{k−1}⊗A₁ and
    N_k = M_{k−1}⊗A₁ + N_{k−1}⊗A₀.

    ``observables`` is a per-party list of (A₀, A₁) 2×2 Hermitian pairs;
    with A₀ = X, A₁ = Y the first output equals the Eq.-style assembly.
    """
    if len(observables) != n:
        raise ValueError("need one (A0, A1) pair per party")
    for a0, a1 in observables:
        for obs in (a0, a1):
            evs = np.linalg.eigvalsh(obs)
            if evs.min() < -1 - 1e-9 or evs.max() > 1 + 1e-9:
                raise ValueError("observable eigenvalues must lie in [−1, 1]")
    m, nn = observables[0]
    for a0, a1 in observables[1:]:
        m, nn = np.kron(m, a0) - np.kron(nn, a1), np.kron(m, a1) + np.kron(nn, a0)
    return m, nn


def born_probabilities(state: np.ndarray, settings) -> np.ndarray:
    """P(r⃗|s⃗) table for per-party dichotomic observables via the Born rule.

    ``settings`` is a per-party list of m 2×2 Hermitian observables; outcome
    bit 0 maps to the +1 eigenprojector.  Non-Hermitian settings raise.
    """
    n = len(settings)
    m = len(settings[0])
    projs = [[projectors(obs) for obs in party_obs] for party_obs in settings]
    rho = np.outer(state, state.conj()) if state.ndim == 1 else state
    table = np.zeros((m,) * n + (2,) * n)
    for svec in itertools.product(range(m), repeat=n):
        for rvec in itertools.product(range(2), repeat=n):
            op = kron(*(projs[p][svec[p]][rvec[p]] for p in range(n)))
            table[svec + rvec] = np.trace(op @ rho).real
    return table


def best_case_threshold_closed_form(witness: str, noise_kind: str, bound: float) -> float:
    """Best-case (exact measurements) threshold closed forms.

    White noise: p = bound/8 (Mermin), bound/11 (stabilizer).  Dephasing:
    p = (bound+8)/16 (Mermin; the printed (bound−8)/16 is an erratum — the
    witness value on the dephased state is 16p−8) and p = (bound−3)/8.
    """
    if noise_kind == "depolarizing":
        return bound / 8.0 if witness == "mermin4" else bound / 11.0
    if witness == "mermin4":
        return (bound + 8.0) / 16.0
    return (bound - 3.0) / 8.0


def nelder_mead_l_eps(query) -> float:
    """L_ε by the earlier outer search: Nelder–Mead (``maxfev`` 400) over the
    tilt angles from the same seeded starts, on the same exact dual."""
    spec = BUILDERS[query.witness]()
    bases = TILT_BASES[query.witness]
    ghz = ghz_state(4, +1)
    p_ghz = np.outer(ghz, ghz.conj())
    w = query.observed_value
    coeffs = coefficient_tensor(spec.terms, spec.constant_offset, spec.n)
    table = _tilt_table(bases, query.budget)
    lam = None

    def objective(x):
        nonlocal lam
        maps, _ = table(x.reshape(4, len(bases)))
        value, lam, _ = _lower_bound_fixed(expand(coeffs, maps), p_ghz, w, lam)
        return value

    rng = np.random.default_rng(query.seed)
    best = np.inf
    for _ in range(query.tilt_restarts):
        x0 = rng.uniform(0, 2 * np.pi, 4 * len(bases))
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": 400, "xatol": 1e-3, "fatol": 1e-6})
        best = min(best, float(res.fun))
    return best
