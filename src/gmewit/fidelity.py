"""GHZ-fidelity lower bounds from witness values: the ideal closed forms
L0 and the imprecision-corrected numeric bound L_ε."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import brentq, minimize

from .measurement import AXIS_VECTORS, ImprecisionBudget, q_of, u_of
from .states import ghz_state
from .tolerances import tol
from .witnesses import (BUILDERS, LETTERS, WitnessSpec, coefficient_tensor, expand,
                        letter_map_gradients, pauli_expectations)


@functools.cache
def _algebraic_range(witness: str) -> tuple[float, float]:
    evals = np.linalg.eigvalsh(BUILDERS[witness]().matrix)
    return float(evals[0]), float(evals[-1])

#: Tilt plane (intended bases that carry imprecision) per witness.
TILT_BASES = {"mermin4": "XY", "stabilizer4": "XZ"}

_PERP = {"X": ("Y", "Z"), "Y": ("X", "Z"), "Z": ("X", "Y")}


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

#: Half-width of a warm-started λ bracket (λ* moves little between the outer
#: search's evaluations; 3e-3 and 1e-2 measured no cheaper).
_WARM_STEP = 1e-3


def _lower_bound_fixed(w_matrix: np.ndarray, p_ghz: np.ndarray, w: float,
                       start: float | None = None) -> tuple[float, float, np.ndarray]:
    """Exact fidelity lower bound for a fixed tilted witness matrix, λ*, and a
    factor F of the primal optimum ρ* = F·F†.

    L(w) = max_λ g(λ), g(λ) = λ_min(P_ghz − λ·W_ε) + λ·w, the Lagrange dual of
    min ⟨ghz|ρ|ghz⟩ subject to tr(W_ε ρ) = w; by weak duality every g(λ) is a
    lower bound, and the largest one evaluated is returned.  g is concave
    with supergradient g′(λ) = w − ⟨v_λ|W_ε|v_λ⟩ (Hellmann–Feynman, v_λ a
    ground vector of P_ghz − λ·W_ε), so λ* is the sign change of a
    non-increasing function: bracket it by doubling out from ``start`` (the
    λ* of a nearby tilt) or, without one, from ±1, and find it with Brent's
    method, which also converges at kinks; at a kink g is also evaluated
    where the tangents at the final bracket's ends cross.  Each λ costs one
    ground-pair eigensolve, shared by g and g′.  ρ* mixes the ground vectors
    at the bracket's ends so that tr(W_ε ρ*) = w: the two branches at a
    kink, one vector on a smooth branch.  A value floored at 0 has F = 0.
    """
    solved = {}

    def slope(lam):
        if lam not in solved:
            val, vec = eigh(p_ghz - lam * w_matrix, subset_by_index=[0, 0])
            solved[lam] = (val[0] + lam * w, w - float(np.real(np.vdot(vec, w_matrix @ vec))), vec)
        return solved[lam][1]

    origin, step = (0.0, 1.0) if start is None else (start, _WARM_STEP)
    lam = _dual_argmax(slope, origin, step)
    value = max(g for g, _, _ in solved.values())
    below = [x for x, (_, s, _) in solved.items() if s >= 0]
    above = [x for x, (_, s, _) in solved.items() if s < 0]
    if below and above:
        lo, hi = max(below), min(above)
        (g_lo, s_lo, v_lo), (g_hi, s_hi, v_hi) = solved[lo], solved[hi]
        # The tangents at lo and hi bound g from above and meet at λ×.  On a
        # smooth branch that bound is within rounding of g; at a kink (two
        # ground branches crossing) λ× is the crossing, up to the slope jump
        # times brentq's xtol above the best g evaluated, and g(λ×) is exact.
        cross = min(max((g_hi - g_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi), lo), hi)
        if g_lo + s_lo * (cross - lo) > value + tol("dual_kink"):
            kink = eigh(p_ghz - cross * w_matrix, subset_by_index=[0, 0], eigvals_only=True)
            value = max(value, kink[0] + cross * w)
    # g(0) = λ_min(P_ghz) = 0 exactly: the kink at λ = 0 needs no eigensolve.
    if value <= 0.0:
        return 0.0, lam, np.zeros((len(w_matrix), 1))
    if not above:
        return value, lam, solved[max(below)][2]
    if not below:
        return value, lam, solved[min(above)][2]
    p = s_hi / (s_hi - s_lo)
    return value, lam, np.hstack([np.sqrt(p) * v_lo, np.sqrt(1 - p) * v_hi])


def _dual_argmax(slope, start: float, step: float) -> float:
    """Sign change of the non-increasing ``slope`` on [−LAMBDA_CAP, LAMBDA_CAP],
    or the end of that interval it points to.  The bracket starts at
    start ± step and its outer end moves to start ± 2·step, ± 4·step, …"""
    lo, hi = max(start - step, -LAMBDA_CAP), min(start + step, LAMBDA_CAP)
    while slope(hi) > 0:            # sign change above hi
        if hi >= LAMBDA_CAP:
            return hi
        step *= 2
        lo, hi = hi, min(start + step, LAMBDA_CAP)
    while slope(lo) < 0:            # sign change below lo
        if lo <= -LAMBDA_CAP:
            return lo
        step *= 2
        lo, hi = max(start - step, -LAMBDA_CAP), lo
    return brentq(slope, lo, hi, xtol=1e-12)


def _tilt_table(bases: str, budget: ImprecisionBudget):
    """Letter maps of every party as a function of the tilt angles.

    ``omegas[j, k]`` rotates party j's basis-k tilt direction within the plane
    perpendicular to the intended axis e: that letter's row is (0, q·e + u·d)
    with d = cos ω·e₁ + sin ω·e₂.  The returned function maps ``omegas`` to the
    (n, 4, 4) letter maps M and their derivatives ∂Mⱼ/∂ω_jk, shape
    (n, len(bases), 4, 4), whose only non-zero row is (0, u·d′),
    d′ = −sin ω·e₁ + cos ω·e₂.
    """
    rows = [LETTERS.index(b) for b in bases]
    eps = np.array([[budget.eps(j, b) for b in bases] for j in range(budget.n)])
    q, u = q_of(eps)[..., None], u_of(eps)[..., None]
    # (n, len(bases), 3): q·e and u·e₁, u·e₂ of every party's tilted letters.
    aligned = q * np.array([AXIS_VECTORS[b] for b in bases])
    u1, u2 = (u * np.array([AXIS_VECTORS[_PERP[b][i]] for b in bases]) for i in (0, 1))
    identity = np.tile(np.eye(4), (budget.n, 1, 1))
    parties, k = np.arange(budget.n)[:, None], np.arange(len(bases))

    def table(omegas):
        cos, sin = np.cos(omegas)[..., None], np.sin(omegas)[..., None]
        maps = identity.copy()
        maps[:, rows, 1:] = aligned + cos * u1 + sin * u2
        d_maps = np.zeros((budget.n, len(bases), 4, 4))
        d_maps[parties, k, rows, 1:] = cos * u2 - sin * u1
        return maps, d_maps

    return table


#: L-BFGS-B options of one outer restart.  It makes at most the 400 tilt
#: evaluations of the earlier Nelder–Mead search: ``maxfun`` is checked only
#: between iterations, and an iteration makes at most two line searches of
#: ``maxls`` evaluations.  ``gtol`` lies far below the gradient's scale,
#: which is proportional to u = 2√(ε(1−ε)), so a restart stops on ``ftol``
#: even at small ε.
_OUTER_OPTIONS = {"maxfun": 400 - 2 * 20, "maxls": 20, "gtol": 1e-12}


def _tilt_objective(query: FidelityBoundQuery):
    """The outer search's objective: flattened tilt angles ω ↦ (L, ∂L/∂ω).

    L is the exact dual of ``_lower_bound_fixed`` for the witness tilted by
    ω, its λ bracket warm-started at the previous call's λ*.  ∂L/∂ω is the
    envelope gradient −λ*·tr(ρ*·∂W_ε/∂ω): W_ε is linear in each party's
    letter map, so it needs the Pauli expectations of ρ* and the
    derivatives of the tilted rows only.
    """
    spec: WitnessSpec = BUILDERS[query.witness]()
    bases = TILT_BASES[query.witness]
    ghz = ghz_state(spec.n, +1)
    p_ghz = np.outer(ghz, ghz.conj())
    coeffs = coefficient_tensor(spec.terms, spec.constant_offset, spec.n)
    table = _tilt_table(bases, query.budget)
    lam = None

    def objective(x):
        nonlocal lam
        maps, d_maps = table(x.reshape(spec.n, len(bases)))
        value, lam, factor = _lower_bound_fixed(expand(coeffs, maps), p_ghz,
                                                query.observed_value, lam)
        grads = letter_map_gradients(coeffs, maps, pauli_expectations(factor, spec.n))
        return value, -lam * np.einsum("jab,jkab->jk", grads, d_maps).ravel()

    return objective


def numeric_l_eps(query: FidelityBoundQuery) -> float:
    """Smallest GHZ fidelity compatible with the observed witness value.

    Inner step: the exact λ-dual of ``_lower_bound_fixed``, a valid lower
    bound for each tilt configuration it is given, its λ bracket warm-started
    at the previous evaluation's λ* (a cheaper search, the same value).
    Outer step: L-BFGS-B over the continuous perpendicular tilt directions of
    every party/basis, from random starts, on the envelope gradient of the
    dual (``_tilt_objective``).  The outer minimum is a local heuristic: a
    local minimum reports a value that is too high, the unsafe side for a
    certificate.
    """
    if query.budget.is_ideal():
        ghz = ghz_state(4, +1)
        return _lower_bound_fixed(BUILDERS[query.witness]().matrix, np.outer(ghz, ghz.conj()),
                                  query.observed_value)[0]
    objective = _tilt_objective(query)
    rng = np.random.default_rng(query.seed)
    best = np.inf
    for _ in range(query.tilt_restarts):
        x0 = rng.uniform(0, 2 * np.pi, 4 * len(TILT_BASES[query.witness]))
        res = minimize(objective, x0, jac=True, method="L-BFGS-B", options=_OUTER_OPTIONS)
        best = min(best, float(res.fun))
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
