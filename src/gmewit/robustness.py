"""Noise-robustness analysis: visibility thresholds for witness-based GME
detection under white and dephasing noise, device-independent comparisons,
and the normalization used for cross-witness plots."""

from __future__ import annotations

import itertools

import numpy as np

from .bounds import family_bounds
from .linalg import expectation
from .measurement import ImprecisionBudget
from .states import NoiseModel, apply_noise, ghz_state
from .witnesses import assemble, ideal, inm_sign, tilt_table

#: Explicit worst-case tilt configurations: per party and tilt-plane letter,
#: the (cos, sin) of the direction d = ±e₁ of the tilted observable
#: q·σ + u·(d·σ), with e₁ the first other axis in XYZ order (``tilt_table``).
#: Mermin tilts X toward +Y and Y toward −X; the stabilizer tilts X toward +Y
#: and Z toward +X, −X on the last party.  These reproduce the printed
#: worst-case trace formulas exactly and are used as the direct-computation
#: oracle.
WORST_CONFIGS = {
    "mermin4": [[(1, 0), (-1, 0)]] * 4,
    "stabilizer4": [[(1, 0), (1, 0)]] * 3 + [[(1, 0), (-1, 0)]],
}


def noisy_witness_value(witness: str, noise_kind: str, p: float,
                        measurement_case: str = "best-case-exact",
                        eps: float = 0.0) -> float:
    """Direct trace of the exact (``best-case-exact``) or worst-case-tilted
    (``worst-case-tilted``, ``WORST_CONFIGS`` at ε) witness on the noisy state."""
    spec = ideal(witness)
    if measurement_case == "best-case-exact":
        mat = spec.matrix
    elif measurement_case == "worst-case-tilted":
        cos, sin = np.moveaxis(np.array(WORST_CONFIGS[witness], dtype=float), -1, 0)
        maps, _ = tilt_table(spec.tilt_plane, ImprecisionBudget.uniform(eps, spec.n))(cos, sin)
        mat = assemble(spec.terms, spec.constant_offset, maps)
    else:
        raise ValueError(f"unknown measurement case {measurement_case!r}")
    rho = apply_noise(ghz_state(spec.n, +1), NoiseModel(noise_kind, p))
    return expectation(mat, rho)


def threshold_visibility(witness: str, noise_kind: str, bound: float,
                         measurement_case: str = "best-case-exact", eps: float = 0.0) -> float:
    """Visibility p at which the witness value meets the biseparable ``bound``.

    The witness value is affine in p, so the crossing (B − v₀)/(v₁ − v₀) from
    the values at p = 0 and p = 1 is exact; raises if it lies outside
    p ∈ [0, 1].
    """
    v0, v1 = (noisy_witness_value(witness, noise_kind, p, measurement_case, eps)
              for p in (0.0, 1.0))
    p = (bound - v0) / (v1 - v0)
    if not 0.0 <= p <= 1.0:
        raise ValueError("witness value never crosses the bound on p ∈ [0, 1]")
    return p


# ---------------------------------------------------------------------------
# Device-independent thresholds (I_nm)
# ---------------------------------------------------------------------------

#: Input vectors and signs of I₄₃ over the residue classes s ≡ 0, 1 (mod 3).
_I43_INDEX = np.array([sv for sv in itertools.product(range(3), repeat=4)
                       if inm_sign(sum(sv), 3)])
_I43_SIGNS = np.array([inm_sign(int(s), 3) for s in _I43_INDEX.sum(axis=1)], dtype=float)


def i43_ghz_value(phis: np.ndarray, visibility: float = 1.0) -> float:
    """I₄₃ on ρ_deph(p) with X–Y-plane settings (angles ``phis``, shape (4, 3)).

    The GHZ correlator for A(φ) = cos φ·X + sin φ·Y per party is
    (2p−1)·cos(Σφ_j), so the functional is affine in the visibility.
    """
    phis = np.asarray(phis, dtype=float).reshape(4, 3)
    angle_sums = phis[np.arange(4)[None, :], _I43_INDEX].sum(axis=1)
    return float((2 * visibility - 1) * np.sum(_I43_SIGNS * np.cos(angle_sums)))


def max_i43(restarts: int = 50, seed: int = 42) -> tuple[float, np.ndarray]:
    """Maximal GHZ value of I₄₃ by compass search over the 12 setting angles.

    Reference search only: it recovers ``I43_QUANTUM`` = 27√3 to ~1e−14.
    """
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


#: Maximal GHZ value of I₄₃ over X–Y-plane settings, 27√3.
I43_QUANTUM = 27 * np.sqrt(3)

#: Default I₄₃ biseparable bound: external literature constant, reconstructed
#: from the published 83.4 % visibility threshold as (2·0.834−1)·27√3.
DEFAULT_I43_BISEP_BOUND = (2 * 0.834 - 1) * I43_QUANTUM


def di_thresholds(m: int, bisep_bound_i43: float | None = None) -> float:
    """Visibility threshold of the device-independent I₄ₘ witness.

    m=2: closed form (8 + 2^{5/2})/16 from the DI Mermin bound.  m=3: I₄₃ on
    ρ_deph(p) is (2p−1)·S with S = ``I43_QUANTUM``, so the threshold against
    the externally supplied biseparable bound B is (1 + B/S)/2.
    """
    if m == 2:
        return (8 + 2 ** 2.5) / 16
    if m != 3:
        raise ValueError("only m = 2 and m = 3 are supported")
    if bisep_bound_i43 is None:
        raise ValueError("the I₄₃ biseparable bound constant must be supplied")
    if I43_QUANTUM <= bisep_bound_i43:
        raise ValueError("the supplied bound is never violated at full visibility")
    return (1 + bisep_bound_i43 / I43_QUANTUM) / 2


# ---------------------------------------------------------------------------
# Normalization and sweep table
# ---------------------------------------------------------------------------

def normalize_witness_value(value: float, bisep: float, quantum: float) -> float:
    """Affine rescale: 0 at the biseparable bound, 1 at the quantum bound."""
    if quantum <= bisep:
        raise ValueError("quantum bound must exceed the biseparable bound")
    return (value - bisep) / (quantum - bisep)


def robustness_sweep(witness: str, eps: float, noise_kind: str, p_grid,
                     measurement_case: str = "best-case-exact") -> list[dict]:
    """Fig.-5-style table of witness values and violation flags over p."""
    spec = ideal(witness)
    bounds = family_bounds(spec.family, spec.n, eps)
    bound, quantum = bounds["biseparable"].value, bounds["quantum"].value
    rows = []
    for p in p_grid:
        value = noisy_witness_value(witness, noise_kind, p, measurement_case, eps)
        rows.append({
            "p": float(p),
            "witness_value": value,
            "normalized_value": normalize_witness_value(value, bound, quantum),
            "bound": bound,
            "violation_flag": int(value > bound),
        })
    return rows
