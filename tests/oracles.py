"""Reference constructions used only by the tests: explicit Pauli strings,
the recursive Mermin pair, the product state |χ(θ)⟩^⊗n, spectral
projectors, Born-rule probability tables, the visibility-threshold and L0
closed forms, the GHZ fidelity, the device-independent Mermin value, the earlier
Nelder–Mead and L-BFGS-B L_ε searches, the Newton and the bracket-and-Brent
λ-duals, the per-restart see-saw, party 1's reduced operator read from the
full tilted matrix and the ``minimize_scalar`` θ-sweep on it, and I₄₃'s GHZ
value from its sign table with the compass search for its maximum."""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np
import scipy.linalg
from scipy.optimize import brentq, minimize, minimize_scalar

from gmewit.bounds import THETA_GRID, BoundResult, PartitionSpec, family_bounds
from gmewit.fidelity import LAMBDA_CAP, _tilt_objective
from gmewit.linalg import PAULI, assert_hermitian, expectation, kron
from gmewit.measurement import ImprecisionBudget, q_of, u_of
from gmewit.robustness import threshold_visibility
from gmewit.states import ghz_state
from gmewit.tolerances import tol
from gmewit.witnesses import (BUILDERS, WitnessSpec, coefficient_tensor, contract, expand,
                              ideal, inm_signs, tilt_table)


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


def tilted_kron(spec: WitnessSpec, budget) -> np.ndarray:
    """offset·𝟙 + Σ c·⊗ⱼ(q·σ_b + u·σ_partner(b)) of a witness tilted in its
    plane by the per-party ``budget``, with (q, u) of party j's ε_b, summed
    term by term with ``np.kron``; letters outside the plane stay exact."""
    def observable(j, b):
        if b not in spec.tilt_plane:
            return PAULI[b]
        eps = budget.eps(j, b)
        return q_of(eps) * PAULI[b] + u_of(eps) * PAULI[spec.tilt_plane[b]]

    mat = spec.constant_offset * np.eye(2 ** spec.n, dtype=complex)
    for c, letters in spec.terms:
        mat = mat + c * reduce(np.kron, [observable(j, b) for j, b in enumerate(letters)])
    return mat


def chi_product_state(plane: dict, theta: float, n: int) -> np.ndarray:
    """|χ(θ)⟩^⊗n by ``np.kron``, for the qubit whose Bloch vector is
    sin 2θ·e_a + cos 2θ·e_b, with (a, b) the plane's letters in order."""
    a, b = (np.eye(3)["XYZ".index(c)] for c in plane)
    bloch = np.sin(2 * theta) * a + np.cos(2 * theta) * b
    polar, azimuth = np.arccos(np.clip(bloch[2], -1, 1)), np.arctan2(bloch[1], bloch[0])
    qubit = np.array([np.cos(polar / 2), np.exp(1j * azimuth) * np.sin(polar / 2)])
    return reduce(np.kron, [qubit] * n)


def projectors(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral ± projectors of a dichotomic 2×2 Hermitian observable."""
    assert_hermitian(obs)
    vecs = np.linalg.eigh(obs)[1]
    plus, minus = vecs[:, 1], vecs[:, 0]
    return np.outer(plus, plus.conj()), np.outer(minus, minus.conj())


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


def closed_form_l0(witness: str, w: float) -> float:
    """Ideal-measurement fidelity bound: w/8 (Mermin) or (w−3)/8 (stabilizer),
    the zero-tilt dual wherever it is ≥ 0."""
    return w / 8.0 if witness == "mermin4" else (w - 3.0) / 8.0


def nelder_mead_l_eps(query) -> float:
    """L_ε by the earlier outer search: Nelder–Mead (``maxfev`` 400) over the
    tilt angles from the same seeded starts, on ``dual_newton`` warm-started
    at the previous evaluation's λ*."""
    spec = BUILDERS[query.witness]()
    bases = spec.tilt_plane
    ghz = ghz_state(spec.n, +1)
    p_ghz = np.outer(ghz, ghz.conj())
    w = query.observed_value
    coeffs = coefficient_tensor(spec.terms, spec.constant_offset, spec.n)
    table = tilt_table(bases, query.budget)
    lam = None

    def objective(x):
        nonlocal lam
        omegas = x.reshape(spec.n, len(bases))
        maps, _ = table(np.cos(omegas), np.sin(omegas))
        value, lam, _ = dual_newton(expand(contract(coeffs, maps)[-1]), p_ghz, w, lam)
        return value

    rng = np.random.default_rng(query.seed)
    best = np.inf
    for _ in range(query.tilt_restarts):
        x0 = rng.uniform(0, 2 * np.pi, spec.n * len(bases))
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": 400, "xatol": 1e-3, "fatol": 1e-6})
        best = min(best, float(res.fun))
    return best


def lbfgsb_l_eps(query) -> float:
    """L_ε by the earlier outer search: scipy's L-BFGS-B on
    ``fidelity._tilt_objective`` from the same seeded starts; ``maxfun`` is
    checked only between iterations, and an iteration makes at most two line
    searches of ``maxls`` evaluations, so a restart makes at most 400."""
    spec = ideal(query.witness)
    objective = _tilt_objective(query)
    rng = np.random.default_rng(query.seed)
    best = np.inf
    for _ in range(query.tilt_restarts):
        x0 = rng.uniform(0, 2 * np.pi, spec.n * len(spec.tilt_plane))
        res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                       options={"maxfun": 400 - 2 * 20, "maxls": 20, "gtol": 1e-12})
        best = min(best, float(res.fun))
    return best


def dual_newton(w_matrix: np.ndarray, p_ghz: np.ndarray, w: float,
                start: float | None = None) -> tuple[float, float, np.ndarray]:
    """max_λ [λ_min(P_ghz − λ·W_ε) + λ·w] by the earlier Newton search, with
    λ* and a factor F of the primal optimum ρ* = F·F†: one full ``eigh`` of
    P_ghz − λ·W_ε per λ gives g, the Hellmann–Feynman slope and the exact
    curvature.  From ``start`` (or 0) it keeps a sign-checked bracket within
    ±LAMBDA_CAP, takes the Newton step when it lands inside the bracket and
    is at most half the step before last, and stops once that step is below
    1e-12.  At a degenerate ground level (a kink, or λ = 0) or a poor step it
    goes to the bracket's unvisited end or to where the tangents at its ends
    cross, and stops once those tangents leave no gain beyond 1e-15.  ρ*
    mixes the ground vectors at the bracket's ends to tr(W_ε ρ*) = w."""
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
        if gaps[0] > 1e-12 * (evals[-1] - evals[0]):
            curvature = 2 * np.sum(np.abs(coupling[1:]) ** 2 / gaps)     # −g″
            if abs(slope) <= 1e-12 * curvature:
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
                if not lo < nxt < hi or g_lo + s_lo * (nxt - lo) <= best + 1e-15:
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


def dual_brentq(w_matrix: np.ndarray, p_ghz: np.ndarray, w: float,
                start: float | None = None) -> float:
    """max_λ [λ_min(P_ghz − λ·W_ε) + λ·w] by the earlier inner solver: the
    Hellmann–Feynman slope's sign change bracketed by doubling out from
    ``start`` ± 1e-3 (or from ±1 without a start) within ±LAMBDA_CAP, then
    found by ``brentq`` (xtol 1e-12), one ground-pair ``scipy.linalg.eigh``
    per λ.  The largest g evaluated is returned, floored at g(0) = 0; at a
    kink g is also evaluated where the tangents at the final bracket's ends
    cross."""
    solved = {}

    def slope(lam):
        if lam not in solved:
            val, vec = scipy.linalg.eigh(p_ghz - lam * w_matrix, subset_by_index=[0, 0])
            solved[lam] = (val[0] + lam * w, w - float(np.real(np.vdot(vec, w_matrix @ vec))))
        return solved[lam][1]

    origin, step = (0.0, 1.0) if start is None else (start, 1e-3)
    _brentq_argmax(slope, origin, step)
    value = max(g for g, _ in solved.values())
    below = [x for x, (_, s) in solved.items() if s >= 0]
    above = [x for x, (_, s) in solved.items() if s < 0]
    if below and above:
        lo, hi = max(below), min(above)
        (g_lo, s_lo), (g_hi, s_hi) = solved[lo], solved[hi]
        cross = min(max((g_hi - g_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi), lo), hi)
        if g_lo + s_lo * (cross - lo) > value + 1e-15:
            kink = scipy.linalg.eigh(p_ghz - cross * w_matrix, subset_by_index=[0, 0],
                                     eigvals_only=True)
            value = max(value, kink[0] + cross * w)
    return max(value, 0.0)


def _brentq_argmax(slope, start: float, step: float) -> float:
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


def worst_case_thresholds(witness: str, eps: float, noise_kind: str,
                          bound: float | None = None) -> dict:
    """Worst-case-tilted threshold: printed closed form plus the direct oracle.

    The oracle evaluates the explicit worst tilt configuration by direct
    trace and solves the affine crossing; any disagreement beyond 1e−6 is
    flagged in the returned dict rather than silently patched.
    """
    if bound is None:
        spec = ideal(witness)
        bound = family_bounds(spec.family, spec.n, eps)["biseparable"].value
    q = q_of(eps)
    if witness == "mermin4":
        factor = 1 - 8 * q ** 2 + 8 * q ** 4
        if noise_kind == "depolarizing":
            closed = bound / (8 * factor)
        else:
            closed = bound / (16 * factor) + 0.5
    else:
        if noise_kind == "depolarizing":
            closed = bound / (3 - 24 * q ** 2 + 32 * q ** 4)
        else:
            closed = (bound + 3 * (1 - 12 * q ** 2 + 10 * q ** 4)) / (
                2 * (3 - 30 * q ** 2 + 31 * q ** 4))
    oracle = threshold_visibility(witness, noise_kind, bound, "worst-case-tilted", eps)
    return {"closed_form": float(closed), "oracle": float(oracle),
            "agrees": bool(abs(closed - oracle) <= 1e-6)}


def ghz_fidelity(rho: np.ndarray, n: int = 4) -> float:
    """⟨ghz_n|ρ|ghz_n⟩ for a density matrix (or overlap² for a vector)."""
    ghz = ghz_state(n, +1)
    if rho.ndim == 1:
        return float(abs(np.vdot(ghz, rho)) ** 2)
    proj = np.outer(ghz, ghz.conj())
    return expectation(proj, rho)


def mermin_di_bound(n: int) -> BoundResult:
    """Device-independent Mermin value 2^{n−3/2}."""
    if n < 3:
        raise ValueError("n must be at least 3")
    return BoundResult(float(2 ** (n - 1.5)), "closed-form")


def seesaw_per_restart(spec: WitnessSpec, partition: PartitionSpec,
                       restarts: int = 20, iterations: int = 100,
                       seed: int = 42, merge: bool = True) -> tuple[float, float]:
    """The see-saw run one restart at a time, with ``einsum`` half-steps:
    the same start vectors, stopping test and best-of-restarts value as
    ``bounds.bisep_brute_force``.

    Each restart's trajectory runs to its own stop.  With ``merge``, restart
    j is then cut at the first iteration t where an earlier restart, still
    active at t, holds a product state within 1 − ``tol("seesaw_duplicate")``
    of j's in both blocks; j keeps its value from t.

    Returns that value and the smallest gap between the top two eigenvalues
    of any effective operator met on the way: where it is about zero, the
    top vector was not unique and rounding chose it."""
    n = partition.n
    rng = np.random.default_rng(seed)
    w = spec.matrix
    order = list(partition.block_a) + list(partition.block_b)
    perm = np.array(
        [int("".join(str((idx >> (n - 1 - q)) & 1) for q in order), 2)
         for idx in range(2 ** n)])
    w_perm = np.zeros_like(w)
    w_perm[np.ix_(perm, perm)] = w
    da, db = 2 ** len(partition.block_a), 2 ** len(partition.block_b)
    w4 = w_perm.reshape(da, db, da, db)
    # Per restart, per iteration: (|a⟩, |b⟩, value, top gap of both operators).
    paths = []
    for _ in range(restarts):
        vb = rng.normal(size=db) + 1j * rng.normal(size=db)
        vb /= np.linalg.norm(vb)
        value, path = -np.inf, []
        for _ in range(iterations):
            rho_b = np.outer(vb, vb.conj())
            eff_a = np.einsum("ikjl,kl->ij", w4, rho_b.conj())
            evals_a, evecs_a = np.linalg.eigh(eff_a)
            va = evecs_a[:, -1]
            rho_a = np.outer(va, va.conj())
            eff_b = np.einsum("ikjl,ij->kl", w4, rho_a.conj())
            evals, evecs = np.linalg.eigh(eff_b)
            vb = evecs[:, -1]
            new = float(evals[-1])
            path.append((va, vb, new, min(evals_a[-1] - evals_a[-2], evals[-1] - evals[-2])))
            if abs(new - value) < 1e-12:
                break
            value = new
        paths.append(path)
    same = 1.0 - tol("seesaw_duplicate")
    stops = []              # iterations each restart runs, after merging
    for j, path in enumerate(paths):
        stop = len(path)
        if merge:
            stop = next((t + 1 for t in range(stop)
                         if any(stops[i] > t
                                and abs(np.vdot(paths[i][t][0], path[t][0])) ** 2 > same
                                and abs(np.vdot(paths[i][t][1], path[t][1])) ** 2 > same
                                for i in range(j))), stop)
        stops.append(stop)
    best = max(path[stop - 1][2] for path, stop in zip(paths, stops))
    gap = min(step[3] for path, stop in zip(paths, stops) for step in path[:stop])
    return float(best), float(gap)


def chi_reduced_operator(spec: WitnessSpec, eps: float):
    """θ ↦ ⟨χ(θ)|W_ε|χ(θ)⟩ over party 1, the parties-2..n operator of the
    witness with every party tilted by the uniform budget ε, read from its
    full ``tilted_kron`` matrix by ``einsum``; |χ(θ)⟩ is
    ``chi_product_state``'s qubit (in the X–Z plane cos θ|0⟩ + sin θ|1⟩ up to
    sign).  No letter map is involved."""
    full = tilted_kron(spec, ImprecisionBudget.uniform(eps, spec.n))
    d = 2 ** (spec.n - 1)
    blocks = full.reshape(2, d, 2, d)

    def reduced(theta):
        chi = chi_product_state(spec.tilt_plane, theta, 1)
        return np.einsum("i,ikjl,j->kl", chi.conj(), blocks, chi)

    return reduced


def reduced_sweep_minimize_scalar(spec: WitnessSpec, eps: float):
    """The θ-sweep's (value, θ) with the grid maximum of the top eigenvalue of
    ``chi_reduced_operator`` refined by a bounded ``minimize_scalar`` (xatol
    1e-10) over ±one grid spacing."""
    reduced = chi_reduced_operator(spec, eps)

    def top(theta):
        return np.linalg.eigvalsh(reduced(theta))[-1]

    thetas = np.linspace(0, np.pi, THETA_GRID, endpoint=False)
    best = thetas[int(np.argmax([top(t) for t in thetas]))]
    step = np.pi / THETA_GRID
    res = minimize_scalar(lambda t: -top(t), bounds=(best - step, best + step),
                          method="bounded", options={"xatol": 1e-10})
    return float(-res.fun), float(res.x)


#: Input vectors of I₄₃ and their signs; the vectors of sum s ≡ 2 (mod 3) have sign 0.
_I43_INDEX, _I43_SIGNS = inm_signs(4, 3)


def i43_ghz_value(phis: np.ndarray, visibility: float = 1.0) -> float:
    """I₄₃ on ρ_deph(p) with X–Y-plane settings (angles ``phis``, shape (4, 3)).

    The GHZ correlator for A(φ) = cos φ·X + sin φ·Y per party is
    (2p−1)·cos(Σφ_j), so the functional is affine in the visibility.
    """
    phis = np.asarray(phis, dtype=float).reshape(4, 3)
    angle_sums = phis[np.arange(4)[None, :], _I43_INDEX].sum(axis=1)
    return float((2 * visibility - 1) * np.sum(_I43_SIGNS * np.cos(angle_sums)))


def compass_max_i43(restarts: int = 50, seed: int = 42) -> tuple[float, np.ndarray]:
    """Maximal GHZ value of I₄₃ by compass search over the 12 setting angles,
    from ``restarts`` uniformly drawn starts."""
    rng = np.random.default_rng(seed)
    best, best_x = -np.inf, None
    for _ in range(restarts):
        x = rng.uniform(0, 2 * np.pi, 12)
        step = 0.5
        value = i43_ghz_value(x)
        while step > 1e-7:
            improved = False
            for i in range(12):
                for delta in (step, -step):
                    cand = x.copy()
                    cand[i] += delta
                    v = i43_ghz_value(cand)
                    if v > value:
                        x, value, improved = cand, v, True
            if not improved:
                step /= 2
        if value > best:
            best, best_x = value, x
    return float(best), best_x.reshape(4, 3)
