"""GHZ-fidelity lower bounds from witness values: the ideal closed forms
L0 and the imprecision-corrected numeric bound L_ε."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize

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
    tilt_restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        lo, hi = _algebraic_range(self.witness)
        if not lo - 1e-9 <= self.observed_value <= hi + 1e-9:
            raise ValueError("observed value outside the witness's range")


#: Largest |λ| the dual search reaches.  A slope still signed at the cap means
#: w lies outside the spectrum of W_ε (no state is compatible); g(±cap) is
#: then returned, a finite and still valid bound.
LAMBDA_CAP = 16.0


def _lower_bound_fixed(w_matrix: np.ndarray, p_ghz: np.ndarray, w: float) -> float:
    """Exact fidelity lower bound for a fixed tilted witness matrix.

    L(w) = max_λ g(λ), g(λ) = λ_min(P_ghz − λ·W_ε) + λ·w, the Lagrange dual of
    min ⟨ghz|ρ|ghz⟩ subject to tr(W_ε ρ) = w; by weak duality every g(λ) is a
    lower bound.  g is concave with supergradient g′(λ) = w − ⟨v_λ|W_ε|v_λ⟩
    (Hellmann–Feynman, v_λ a ground vector of P_ghz − λ·W_ε), so λ* is the
    sign change of a non-increasing function: bracket it by doubling out from
    ±1 and find it with Brent's method, which also converges at kinks.
    """
    def slope(lam):
        v = np.linalg.eigh(p_ghz - lam * w_matrix)[1][:, 0]
        return w - float(np.real(np.vdot(v, w_matrix @ v)))

    lam = _dual_argmax(slope)
    # g(0) = λ_min(P_ghz) = 0 exactly: the kink at λ = 0, where brentq stops
    # only within xtol, needs no eigensolve.
    return max(float(np.linalg.eigvalsh(p_ghz - lam * w_matrix)[0] + lam * w), 0.0)


def _dual_argmax(slope) -> float:
    """Sign change of the non-increasing ``slope`` on [−LAMBDA_CAP, LAMBDA_CAP],
    or the end of that interval it points to."""
    known = {}

    def cached(lam):
        if lam not in known:
            known[lam] = slope(lam)
        return known[lam]

    lo, hi = -1.0, 1.0
    while cached(hi) > 0:           # sign change above hi
        if hi >= LAMBDA_CAP:
            return hi
        lo, hi = hi, 2 * hi
    while cached(lo) < 0:           # sign change below lo
        if lo <= -LAMBDA_CAP:
            return lo
        lo, hi = 2 * lo, lo
    return brentq(cached, lo, hi, xtol=1e-12)


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

    Inner step: the exact λ-dual of ``_lower_bound_fixed``, a valid lower
    bound for each tilt configuration it is given.  Outer step: Nelder–Mead
    over the continuous perpendicular tilt directions of every party/basis,
    with random restarts.  The outer minimum is a heuristic: a local minimum
    reports a value that is too high, the unsafe side for a certificate.
    """
    spec: WitnessSpec = BUILDERS[query.witness]()
    bases = TILT_BASES[query.witness]
    ghz = ghz_state(4, +1)
    p_ghz = np.outer(ghz, ghz.conj())
    w = query.observed_value
    if query.budget.is_ideal():
        value = _lower_bound_fixed(spec.matrix, p_ghz, w)
        if return_details:
            return LEpsResult(value, np.zeros((4, len(bases))), spec.matrix)
        return value

    def objective(x):
        omegas = x.reshape(4, len(bases))
        mat = assemble(spec.terms, spec.constant_offset, _tilt_table(bases, query.budget, omegas))
        return _lower_bound_fixed(mat, p_ghz, w)

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
