"""GHZ-fidelity lower bounds from witness values: the ideal bound L0 and
the imprecision-corrected numeric bound L_ε."""

from __future__ import annotations

import functools
import math
from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np

from .measurement import ImprecisionBudget
from .states import ghz_state
from .tolerances import tol
from .witnesses import (coefficient_tensor, contract, expand, ideal, letter_map_gradients,
                        pauli_expectations, tilt_table)


@functools.cache
def _algebraic_range(witness: str) -> tuple[float, float]:
    evals = np.linalg.eigvalsh(ideal(witness).matrix)
    return float(evals[0]), float(evals[-1])


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
        if self.tilt_restarts < 1:
            raise ValueError(f"the tilt search needs at least 1 restart, got {self.tilt_restarts}")
        if self.seed < 0:
            raise ValueError(f"the tilt-search seed must be non-negative, got {self.seed}")


#: Largest |λ| the dual search reaches.  A slope still signed at the cap means
#: w lies outside the spectrum of W_ε (no state is compatible); g(±cap) is
#: then returned, a finite and still valid bound.
LAMBDA_CAP = 16.0


def _lower_bound_fixed(w_matrix: np.ndarray, ghz: np.ndarray,
                       w: float) -> tuple[float, float, np.ndarray]:
    """Exact fidelity lower bound for a fixed tilted witness matrix, λ*, and a
    factor F of the primal optimum ρ* = F·F†.

    L(w) = max_λ g(λ), g(λ) = λ_min(P_ghz − λ·W_ε) + λ·w, the Lagrange dual of
    min ⟨ghz|ρ|ghz⟩ subject to tr(W_ε ρ) = w; by weak duality every g(λ) is a
    lower bound.  g is concave and g(0) = 0, the floor of the result.
    P_ghz = |ghz⟩⟨ghz| has rank one, so one eigensolve W_ε = Σ μᵢ|mᵢ⟩⟨mᵢ|
    serves every λ: the ground energy of P_ghz − λ·W_ε solves the secular
    equation of a rank-one update (Bunch, Nielsen & Sorensen, Numer. Math. 31,
    31 (1978)).  ``_dual_half`` maximizes g over each sign of λ.
    """
    evals, evecs = np.linalg.eigh(w_matrix)
    amps = evecs.conj().T @ ghz                                  # ⟨mᵢ|ghz⟩
    width = evals[-1] - evals[0]
    for s, order in ((1.0, slice(None, None, -1)), (-1.0, slice(None))):
        value, lam, factor = _dual_half(s * evals[order], amps[order], evecs[:, order],
                                        s * w, width)
        if value > 0:                   # g is concave and g(0) = 0: no other sign gives g > 0
            return value, s * lam, factor
    return 0.0, 0.0, np.zeros((len(ghz), 1))


def _dual_half(m: np.ndarray, amps: np.ndarray, vecs: np.ndarray, sw: float,
               width: float) -> tuple[float, float, np.ndarray | None]:
    """max g(s·λ′) over 0 < λ′ ≤ LAMBDA_CAP as (value, λ′, F), for m the
    eigenvalues of s·W_ε in descending order, ``amps`` the GHZ amplitudes on
    their eigenvectors ``vecs`` and ``sw`` = s·w; a value ≤ 0 means that
    this sign of λ gives nothing.

    With pᵢ = |⟨mᵢ|ghz⟩|² and x = t + m₀, the ground energy of P_ghz − λ′·s·W_ε
    is λ′·t for x in (0, m₀ − m₁), where λ′ = S(x) = Σ pᵢ/(x + mᵢ − m₀).  So
    g = h(x) = S(x)·(x − m₀ + s·w), unimodal with h′(x) = Σ pcᵢ/(x + mᵢ − m₀)²,
    pcᵢ = pᵢ·(mᵢ − s·w).  A top level of zero weight (``tol("dual_weight")``)
    or degenerate to ``tol("dual_gap")`` of the spectral width holds a ground
    vector orthogonal to ghz, so g = λ′·(s·w − m₀).  Every lower level keeps
    its pole, its weight raised to at least ``tol("dual_weight")`` (which
    moves g by about the floor's square root), so the secular vector mixes
    in a level of no weight by itself.  ``_newton`` solves h′ = pc₀/x² + R(x)
    = 0 as x = √(pc₀/−R(x)), linear in x when one weighted level lies below
    the top, and, where λ′ would pass the cap, S(x) = LAMBDA_CAP as
    x = p₀/(LAMBDA_CAP − T(x)), T = S − p₀/x.  It runs in y = x − c, c the
    pole at x = 0 or at x = m₀ − m₁ that the root lies nearer to, so that
    x + mᵢ − m₀ = y + (c + mᵢ − m₀) keeps y's relative precision next to
    either pole (rounded to the spacing of x, a root just below the upper
    pole moves tr(W_ε ρ*) by far more than rounding).
    """
    p, floor = np.abs(amps) ** 2, tol("dual_weight")
    if p[0] <= floor:                   # the top vector is orthogonal to ghz
        return LAMBDA_CAP * (sw - m[0]), LAMBDA_CAP, vecs[:, :1]
    if m[0] - m[1] <= tol("dual_gap") * width:      # and so is a mix of a degenerate pair
        top = vecs[:, :2] @ np.conj([[amps[1]], [-amps[0]]]) / math.sqrt(p[0] + p[1])
        return LAMBDA_CAP * (sw - m[0]), LAMBDA_CAP, top
    if m[1] >= sw:                      # h rises up to the pole where λ′ = −∞: nothing
        return 0.0, 0.0, None
    amps, p = np.where(p > floor, amps, math.sqrt(floor)), np.maximum(p, floor)
    d = m - m[0]
    p0, p1, d1 = p[0], p[1:], d[1:]
    pc0, pc1 = p0 * (m[0] - sw), p1 * (m[1:] - sw)
    x_hi = -d1[0]

    def slope(c):       # in y = x − c: √(pc₀/−R(x)) − x, zero where h′ = pc₀/x² + R(x) is
        e1 = c + d1

        def at(y):
            r = 1 / (y + e1)
            r2 = r * r
            rest = pc1 @ r2
            if rest >= 0:               # h′ > 0: left of the root
                return math.inf, -1.0
            root = math.sqrt(pc0 / -rest)
            return root - (y + c), root * (pc1 @ (r2 * r)) / rest - 1

        return at

    def excess(c):      # in y = x − c: p₀/(LAMBDA_CAP − T(x)) − x, zero where S = LAMBDA_CAP
        e1 = c + d1

        def at(y):
            r = 1 / (y + e1)
            room = LAMBDA_CAP - p1 @ r
            return p0 / room - (y + c), -p0 * (p1 @ (r * r)) / room ** 2 - 1

        return at

    def nearer_pole(fn):    # (c, y) at the root of fn in (0, x_hi)
        lower = fn(0.0)
        if lower(x_hi / 2)[0] > 0:
            return x_hi, _newton(fn(x_hi), -x_hi / 2, 0.0, -x_hi / 4)
        return 0.0, _newton(lower, 0.0, x_hi, x_hi / 2)

    c, y = (0.0, 0.0) if pc0 <= 0 else nearer_pole(slope)    # pc₀ ≤ 0: λ′ is capped
    lam = math.inf if y + c == 0 else p @ (1 / (y + (c + d)))
    if lam <= 0:
        return 0.0, 0.0, None
    if lam > LAMBDA_CAP:
        c, y = nearer_pole(excess)
        lam = LAMBDA_CAP
    value = lam * (y + c - m[0] + sw)
    if value <= 0:
        return 0.0, 0.0, None
    coef = amps / (y + (c + d))
    return value, lam, (vecs @ coef)[:, None] / math.sqrt(np.vdot(coef, coef).real)


def _newton(fn, lo: float, hi: float, x: float) -> float:
    """Root of ``fn`` in (lo, hi), from ``x`` (or the midpoint): ``fn`` returns
    its value, positive left of the root, and derivative.  The search ends
    on a Newton step below ``tol("dual_root")``·|x|, tested before the bracket,
    or on a bracket down to rounding; it bisects where a step would leave
    the bracket."""
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    while True:
        f, df = fn(x)
        step = -f / df if df else math.inf
        if abs(step) <= tol("dual_root") * abs(x):
            return x + step
        lo, hi = (x, hi) if f > 0 else (lo, x)
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        if not lo < x < hi:             # the bracket is down to rounding
            return x


#: The outer search's settings, fixed at those of the L-BFGS-B search it
#: replaced (c1, c2 are ``dcsrch``'s).  The gradient stop lies far below the
#: gradient's scale u = 2√(ε(1−ε)), so a restart stops on ``_FTOL`` even at small ε.
_MEMORY, _C1, _C2, _FTOL, _GTOL = 10, 1e-3, 0.9, 1e7 * np.finfo(float).eps, 1e-12
_MAX_EVALS, _MAX_LINE_EVALS = 360, 20          # a restart, a line search
SearchResult = namedtuple("SearchResult", "x fun nfev success")


def minimize(fun, x0: np.ndarray) -> SearchResult:
    """Minimize ``fun``: x ↦ (f, ∇f) from ``x0`` by L-BFGS (Liu & Nocedal,
    Math. Program. 45, 503 (1989)).  The direction is ``_two_loop``'s over
    the last ``_MEMORY`` pairs (s, y) of steps and gradient changes, a pair
    with s·y ≤ ε_mach·|s·∇f| left out; the step meets the strong Wolfe
    conditions (``_wolfe_step``), tried at 1/‖∇f‖ while no pair is kept and
    at 1 after.  ``fun`` is f at the last accepted point ``x``, ``nfev``
    counts the evaluations, and ``success`` is false where a line search or
    the evaluations ran out."""
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, pairs = 1, deque(maxlen=_MEMORY)
    while np.abs(g).max() > _GTOL:
        step, used = _wolfe_step(fun, x, f, g, _two_loop(g, pairs),
                                 1.0 if pairs else 1 / np.linalg.norm(g),
                                 min(_MAX_LINE_EVALS, _MAX_EVALS - nfev))
        nfev += used
        if step is None:
            return SearchResult(x, f, nfev, False)
        s, y = step[0] - x, step[2] - g
        if s @ y > np.finfo(float).eps * -(s @ g):
            pairs.append((s, y, 1 / (s @ y)))
        f_old, (x, f, g) = f, step
        if f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            break
    return SearchResult(x, f, nfev, True)


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """−H·g for the L-BFGS inverse Hessian H of ``pairs`` (s, y, 1/s·y), oldest
    first, H₀ = s·y/y·y of the newest (Nocedal & Wright, Alg. 7.4)."""
    d, alphas = -g, []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ d))
        d = d - alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        d = d / (rho * (y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d = d + (alpha - rho * (y @ d)) * s
    return d


def _wolfe_step(fun, x, f, g, d, alpha: float, budget: int):
    """((x + α·d, φ(α), ∇f there), evaluations) for an α, tried first at
    ``alpha``, with φ(α) ≤ φ(0) + c1·α·φ′(0) and |φ′(α)| ≤ c2·|φ′(0)|, where
    φ(α) = f(x + α·d); no point if d is no descent direction or ``budget``
    evaluations find none (Nocedal & Wright, Numerical Optimization, Alg. 3.5
    and 3.6).  ``lo`` = (α, φ, φ′) is the best trial with sufficient decrease
    and ``hi`` the far end of a bracket around such an α.  The next trial is
    the cubic minimizer through two of them, 1.1 to 4 times the last growth
    beyond lo while there is no bracket (``dcsrch``'s bounds), else a tenth
    of the bracket away from its ends."""
    slope = g @ d
    if slope >= 0:
        return None, 0
    lo, hi = (0.0, f, slope), None
    for used in range(1, budget + 1):
        x_new = x + alpha * d
        f_new, g_new = fun(x_new)
        trial = (alpha, f_new, g_new @ d)
        if f_new > f + _C1 * alpha * slope or f_new >= lo[1]:
            hi = trial
        elif abs(trial[2]) <= -_C2 * slope:
            return (x_new, f_new, g_new), used
        else:
            # φ′ points away from hi (at +∞ while there is no bracket):
            # the bracket is then [lo, trial].
            if trial[2] * ((math.inf if hi is None else hi[0]) - alpha) >= 0:
                hi = lo
            prev, lo = lo, trial
        if hi is None:
            grow = alpha - prev[0]
            alpha = _cubic_min(prev, lo, alpha + 1.1 * grow, alpha + 4 * grow)
        else:
            alpha = _cubic_min(lo, hi, 0.9 * lo[0] + 0.1 * hi[0], 0.1 * lo[0] + 0.9 * hi[0])
    return None, budget


def _cubic_min(p, q, a: float, b: float) -> float:
    """Minimizer of the cubic through the (α, φ, φ′) of ``p`` and ``q`` (Nocedal
    & Wright, eq. 3.59) clipped to [a, b] in either order, else (a + b)/2."""
    (a0, f0, s0), (a1, f1, s1) = p, q
    with np.errstate(divide="ignore", invalid="ignore"):
        t = s0 + s1 - 3 * (f0 - f1) / np.float64(a0 - a1)
        r = np.copysign(np.sqrt(t * t - s0 * s1), a1 - a0)
        x = a1 - (a1 - a0) * (s1 + r - t) / (s1 - s0 + 2 * r)
    return float(np.clip(x, min(a, b), max(a, b))) if np.isfinite(x) else 0.5 * (a + b)


def _tilt_objective(query: FidelityBoundQuery):
    """The outer search's objective: flattened tilt angles ω ↦ (L, ∂L/∂ω).

    L is the exact dual of ``_lower_bound_fixed`` for the witness tilted by
    ω, one eigensolve per call.  ∂L/∂ω is the envelope gradient
    −λ*·tr(ρ*·∂W_ε/∂ω): W_ε is linear in each party's letter map, so it
    needs the Pauli expectations of ρ* and the derivatives of the tilted
    rows only.
    """
    spec = ideal(query.witness)
    ghz = ghz_state(spec.n, +1)
    coeffs = coefficient_tensor(spec.terms, spec.constant_offset, spec.n)
    table = tilt_table(spec.tilt_plane, query.budget)

    def objective(x):
        omegas = x.reshape(spec.n, len(spec.tilt_plane))
        maps, d_maps = table(np.cos(omegas), np.sin(omegas))
        stages = contract(coeffs, maps)
        value, lam, factor = _lower_bound_fixed(expand(stages[-1]), ghz, query.observed_value)
        grads = letter_map_gradients(stages, maps, pauli_expectations(factor, spec.n))
        return value, -lam * np.einsum("jab,jkab->jk", grads, d_maps).ravel()

    return objective


def ideal_l0(witness: str, w: float) -> float:
    """Ideal-measurement fidelity bound L0: the exact dual of
    ``_lower_bound_fixed`` at zero tilt, one eigensolve.  It is w/8 for
    mermin4 and (w−3)/8 for stabilizer4 where those are ≥ 0, and 0 below."""
    spec = ideal(witness)
    return _lower_bound_fixed(spec.matrix, ghz_state(spec.n, +1), w)[0]


def numeric_l_eps(query: FidelityBoundQuery) -> float:
    """Smallest GHZ fidelity compatible with the observed witness value.

    Inner step: the exact λ-dual of ``_lower_bound_fixed``, a valid lower
    bound for each tilt configuration it is given, from one eigensolve of
    the tilted witness per evaluation (a rank-one secular equation in its
    eigenbasis serves every λ).  Outer step: L-BFGS (``minimize``) over the
    continuous perpendicular tilt directions of every party/basis, from
    random starts, on the envelope gradient of the dual (``_tilt_objective``),
    each restart until L falls by a relative 1e7·ε_mach or less.  The outer
    minimum is a local heuristic: a local minimum reports a value that is
    too high, the unsafe side for a certificate.
    """
    if query.budget.is_ideal():             # every tilt is then the untilted witness
        return ideal_l0(query.witness, query.observed_value)
    spec = ideal(query.witness)
    angles = spec.n * len(spec.tilt_plane)
    objective = _tilt_objective(query)
    rng = np.random.default_rng(query.seed)
    return min(float(minimize(objective, rng.uniform(0, 2 * np.pi, angles)).fun)
               for _ in range(query.tilt_restarts))


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
                     "L0": ideal_l0(witness, w),
                     "L_eps": float(numeric_l_eps(query))})
    return rows
