"""GHZ-fidelity lower bounds from witness values: the ideal closed forms
L0 and the imprecision-corrected numeric bound L_ε."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .linalg import expectation
from .measurement import AXIS_VECTORS, ImprecisionBudget, tilt_vector
from .states import ghz_state
from .witnesses import BUILDERS, WitnessSpec, assemble

def _algebraic_range(witness: str) -> tuple[float, float]:
    evals = np.linalg.eigvalsh(BUILDERS[witness]().matrix)
    return float(evals[0]), float(evals[-1])

#: Tilt plane (intended bases that carry imprecision) per witness.
TILT_BASES = {"mermin4": "XY", "stabilizer4": "XZ"}

_PERP = {"X": ("Y", "Z"), "Y": ("X", "Z"), "Z": ("X", "Y")}


def ghz_fidelity(rho: np.ndarray, n: int = 4) -> float:
    """⟨ghz_n|ρ|ghz_n⟩ for a density matrix (or overlap² for a vector)."""
    ghz = ghz_state(n, +1)
    if rho.ndim == 1:
        return float(abs(np.vdot(ghz, rho)) ** 2)
    proj = np.outer(ghz, ghz.conj())
    return expectation(proj, rho)


def closed_form_l0(witness: str, w: float) -> float:
    """Ideal-measurement fidelity bound: w/8 (Mermin) or (w−3)/8 (stabilizer)."""
    if witness == "mermin4":
        return w / 8.0
    if witness == "stabilizer4":
        return (w - 3.0) / 8.0
    raise ValueError(f"no closed form for witness {witness!r}")


@dataclass(frozen=True)
class FidelityBoundQuery:
    """Parameters of a numeric L_ε computation."""

    witness: str
    observed_value: float
    budget: ImprecisionBudget
    lambda_grid: int = 80
    tilt_restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        lo, hi = _algebraic_range(self.witness)
        if not lo - 1e-9 <= self.observed_value <= hi + 1e-9:
            raise ValueError("observed value outside the witness's range")


def _lower_bound_fixed(w_matrix: np.ndarray, p_ghz: np.ndarray, w: float,
                       grid: int = 80) -> float:
    """Exact fidelity lower bound for a fixed tilted witness matrix.

    L(w) = max_λ [min-eig(P_ghz − λ·W_ε) + λ·w]; the inner function is
    concave in λ, so a signed log grid plus bounded refinement suffices.
    """
    def g(lam):
        return np.linalg.eigvalsh(p_ghz - lam * w_matrix)[0] + lam * w

    lams = np.concatenate([np.geomspace(1e-4, 10, grid),
                           -np.geomspace(1e-4, 10, grid), [0.0]])
    vals = [g(lam) for lam in lams]
    i = int(np.argmax(vals))
    lb = lams[i]
    span = max(abs(lb), 1e-3)
    res = minimize_scalar(lambda lam: -g(lam), bounds=(lb - span, lb + span),
                          method="bounded", options={"xatol": 1e-9})
    return float(max(vals[i], g(res.x)))


def _tilt_table(bases: str, budget: ImprecisionBudget, omegas: np.ndarray):
    """Per-party Bloch table with continuous perpendicular tilt directions.

    ``omegas[j, k]`` rotates party j's basis-k tilt direction within the plane
    perpendicular to the intended axis: d = cos ω·e₁ + sin ω·e₂.
    """
    table = []
    for j in range(omegas.shape[0]):
        row = {}
        for k, b in enumerate(bases):
            e1, e2 = (AXIS_VECTORS[a] for a in _PERP[b])
            row[b] = tilt_vector(b, budget.eps(j, b),
                                 np.cos(omegas[j, k]) * e1 + np.sin(omegas[j, k]) * e2)
        table.append(row)
    return table


@dataclass
class LEpsResult:
    value: float
    omegas: np.ndarray = field(repr=False)
    witness_matrix: np.ndarray = field(repr=False)


def numeric_l_eps(query: FidelityBoundQuery, return_details: bool = False):
    """Smallest GHZ fidelity compatible with the observed witness value.

    Inner step: the certified λ-scan of ``_lower_bound_fixed`` for each tilt
    configuration.  Outer step: Nelder–Mead over the continuous perpendicular
    tilt directions of every party/basis, with random restarts.
    """
    spec: WitnessSpec = BUILDERS[query.witness]()
    bases = TILT_BASES[query.witness]
    ghz = ghz_state(4, +1)
    p_ghz = np.outer(ghz, ghz.conj())
    w = query.observed_value
    if query.budget.is_ideal():
        value = _lower_bound_fixed(spec.matrix, p_ghz, w, query.lambda_grid)
        if return_details:
            return LEpsResult(value, np.zeros((4, len(bases))), spec.matrix)
        return value

    def objective(x):
        omegas = x.reshape(4, len(bases))
        mat = assemble(spec.terms, spec.constant_offset, _tilt_table(bases, query.budget, omegas))
        return _lower_bound_fixed(mat, p_ghz, w, query.lambda_grid)

    rng = np.random.default_rng(query.seed)
    best, best_x = np.inf, None
    for _ in range(query.tilt_restarts):
        x0 = rng.uniform(0, 2 * np.pi, 4 * len(bases))
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": 400, "xatol": 1e-3, "fatol": 1e-6})
        if res.fun < best:
            best, best_x = float(res.fun), res.x
    if return_details:
        omegas = best_x.reshape(4, len(bases))
        return LEpsResult(best, omegas, assemble(spec.terms, spec.constant_offset,
                                                 _tilt_table(bases, query.budget, omegas)))
    return best


def fidelity_curve(witness: str, budget: ImprecisionBudget, w_fractions,
                   tilt_restarts: int = 4, seed: int = 0) -> list[dict]:
    """Fig.-6-style table: fraction of the maximal witness value vs L0/L_ε."""
    _, w_max = _algebraic_range(witness)
    rows = []
    for frac in w_fractions:
        w = frac * w_max
        query = FidelityBoundQuery(witness, w, budget,
                                   tilt_restarts=tilt_restarts, seed=seed)
        rows.append({"w_fraction": float(frac),
                     "L0": closed_form_l0(witness, w),
                     "L_eps": float(numeric_l_eps(query))})
    return rows
