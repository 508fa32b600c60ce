"""GHZ-fidelity lower bounds from witness values: the ideal closed forms
L0 and the imprecision-corrected numeric bound L_ε."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .measurement import AXIS_VECTORS, ImprecisionBudget, q_of, u_of
from .states import ghz_state
from .tolerances import tol
from .witnesses import (LETTERS, coefficient_tensor, contract, expand, ideal,
                        letter_map_gradients, pauli_expectations)


@functools.cache
def _algebraic_range(witness: str) -> tuple[float, float]:
    evals = np.linalg.eigvalsh(ideal(witness).matrix)
    return float(evals[0]), float(evals[-1])


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
        n = ideal(self.witness).n
        if self.budget.n != n:
            raise ValueError(f"the budget has {self.budget.n} parties, {self.witness} has {n}")
        lo, hi = _algebraic_range(self.witness)
        if not lo - 1e-9 <= self.observed_value <= hi + 1e-9:
            raise ValueError("observed value outside the witness's range")


#: Largest |λ| the dual search reaches.  A slope still signed at the cap means
#: w lies outside the spectrum of W_ε (no state is compatible); g(±cap) is
#: then returned, a finite and still valid bound.
LAMBDA_CAP = 16.0


def _lower_bound_fixed(w_matrix: np.ndarray, p_ghz: np.ndarray, w: float,
                       start: float | None = None) -> tuple[float, float, np.ndarray]:
    """Exact fidelity lower bound for a fixed tilted witness matrix, λ*, and a
    factor F of the primal optimum ρ* = F·F†.

    L(w) = max_λ g(λ), g(λ) = λ_min(P_ghz − λ·W_ε) + λ·w, the Lagrange dual of
    min ⟨ghz|ρ|ghz⟩ subject to tr(W_ε ρ) = w; by weak duality every g(λ) is a
    lower bound, and the largest one evaluated is returned.  g is concave.
    One full eigensolve of P_ghz − λ·W_ε gives g(λ), the supergradient
    g′ = w − ⟨u₀|W_ε|u₀⟩ (Hellmann–Feynman) and, where the ground level is
    isolated, g″ = 2·Σ_{k≥1} |⟨u_k|W_ε|u₀⟩|²/(E₀ − E_k).  The search starts
    at ``start`` (the λ* of a nearby tilt) or at 0 and keeps a sign-checked
    bracket of λ* within ±LAMBDA_CAP.  It takes the Newton step on g′ when
    that lands inside the bracket and is at most half the step before last,
    and stops once that step is below ``tol("dual_lambda")``.  Otherwise (a
    degenerate ground level, as at a kink or at λ = 0, or a poor step) it
    goes to the bracket's unvisited end, or to where the tangents at its two
    ends cross: the kink itself where two linear branches meet.  It stops
    there once those tangents, which bound g from above, leave no gain
    beyond ``tol("dual_kink")``.  ρ* mixes the ground vectors at the
    bracket's ends so that tr(W_ε ρ*) = w: the two branches at a kink, one
    vector in effect on a smooth branch.  A value floored at 0 has F = 0.
    """
    solved = {}
    lo, hi = -LAMBDA_CAP, LAMBDA_CAP
    lam = 0.0 if start is None else min(max(start, lo), hi)
    before_last = last = hi - lo
    while True:
        evals, evecs = np.linalg.eigh(p_ghz - lam * w_matrix)
        coupling = (w_matrix @ evecs[:, 0]).conj() @ evecs       # conj ⟨u_k|W_ε|u₀⟩
        slope = w - coupling[0].real
        solved[lam] = (evals[0] + lam * w, slope, evecs[:, :1].copy())
        lo, hi = (lam, hi) if slope >= 0 else (lo, lam)
        if lo == hi:                    # the slope points past ±LAMBDA_CAP
            break
        gaps, nxt = evals[1:] - evals[0], None
        if gaps[0] > tol("dual_lambda") * (evals[-1] - evals[0]):
            curvature = 2 * np.sum(np.abs(coupling[1:]) ** 2 / gaps)     # −g″
            if abs(slope) <= tol("dual_lambda") * curvature:
                break
            if curvature > 0:
                nxt = lam + slope / curvature
        if nxt is None or not (lo < nxt < hi and abs(nxt - lam) <= before_last / 2):
            if lo not in solved or hi not in solved:
                nxt = hi if lo == lam else lo
            else:
                (g_lo, s_lo, _), (g_hi, s_hi, _) = solved[lo], solved[hi]
                nxt = (g_hi - g_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi)
                best = max(0.0, *(g for g, _, _ in solved.values()))
                if not lo < nxt < hi or g_lo + s_lo * (nxt - lo) <= best + tol("dual_kink"):
                    break
        before_last, last = last, abs(nxt - lam)
        lam = nxt
    value = max(g for g, _, _ in solved.values())
    # g(0) = λ_min(P_ghz) = 0 exactly: the kink at λ = 0 needs no eigensolve.
    if value <= 0.0:
        return 0.0, lam, np.zeros((len(w_matrix), 1))
    if hi not in solved or lo == hi:
        return value, lam, solved[lo][2]
    if lo not in solved:
        return value, lam, solved[hi][2]
    (_, s_lo, v_lo), (_, s_hi, v_hi) = solved[lo], solved[hi]
    p = s_hi / (s_hi - s_lo)
    return value, lam, np.hstack([np.sqrt(p) * v_lo, np.sqrt(1 - p) * v_hi])


def _tilt_table(bases, budget: ImprecisionBudget):
    """Letter maps of every party as a function of the tilt angles of ``bases``.

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
    perp = np.array([[AXIS_VECTORS[c] for c in "XYZ" if c != b] for b in bases])
    u1, u2 = (u * perp[:, i] for i in (0, 1))
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
    ω, its Newton search started at the previous call's λ*.  ∂L/∂ω is the
    envelope gradient −λ*·tr(ρ*·∂W_ε/∂ω): W_ε is linear in each party's
    letter map, so it needs the Pauli expectations of ρ* and the
    derivatives of the tilted rows only.
    """
    spec = ideal(query.witness)
    ghz = ghz_state(spec.n, +1)
    p_ghz = np.outer(ghz, ghz.conj())
    coeffs = coefficient_tensor(spec.terms, spec.constant_offset, spec.n)
    table = _tilt_table(spec.tilt_plane, query.budget)
    lam = None

    def objective(x):
        nonlocal lam
        maps, d_maps = table(x.reshape(spec.n, len(spec.tilt_plane)))
        stages = contract(coeffs, maps)
        value, lam, factor = _lower_bound_fixed(expand(stages), p_ghz, query.observed_value, lam)
        grads = letter_map_gradients(stages, maps, pauli_expectations(factor, spec.n))
        return value, -lam * np.einsum("jab,jkab->jk", grads, d_maps).ravel()

    return objective


def numeric_l_eps(query: FidelityBoundQuery) -> float:
    """Smallest GHZ fidelity compatible with the observed witness value.

    Inner step: the exact λ-dual of ``_lower_bound_fixed``, a valid lower
    bound for each tilt configuration it is given: a safeguarded Newton
    search for λ* on one full eigensolve per λ (about 4 per evaluation),
    started at the previous evaluation's λ* (a cheaper search, the same value).
    Outer step: L-BFGS-B over the continuous perpendicular tilt directions of
    every party/basis, from random starts, on the envelope gradient of the
    dual (``_tilt_objective``).  The outer minimum is a local heuristic: a
    local minimum reports a value that is too high, the unsafe side for a
    certificate.
    """
    spec = ideal(query.witness)
    angles = spec.n * len(spec.tilt_plane)
    objective = _tilt_objective(query)
    if query.budget.is_ideal():             # every tilt is then the untilted witness
        return objective(np.zeros(angles))[0]
    rng = np.random.default_rng(query.seed)
    best = np.inf
    for _ in range(query.tilt_restarts):
        x0 = rng.uniform(0, 2 * np.pi, angles)
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
