"""Noise-robustness analysis: visibility thresholds for witness-based GME
detection under white and dephasing noise, device-independent comparisons,
and the normalization used for cross-witness plots."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import BoundResult, mermin_bisep_bound, stabilizer_bisep_bound_numeric
from .linalg import expectation
from .measurement import AXIS_VECTORS, q_of, tilt_vector
from .states import NoiseModel, apply_noise, ghz_state
from .witnesses import BUILDERS, assemble

_E = AXIS_VECTORS

#: Explicit worst-case tilt configurations: per party, letter → signed unit
#: partner d of the tilted observable q·σ + u·(d·σ).  These reproduce the
#: printed worst-case trace formulas exactly and are used as the
#: direct-computation oracle.
WORST_CONFIGS = {
    "mermin4": [{"X": _E["Y"], "Y": -_E["X"]}] * 4,
    "stabilizer4": [{"X": _E["Y"], "Z": _E["X"]}] * 3 + [{"X": _E["Y"], "Z": -_E["X"]}],
}


@dataclass(frozen=True)
class ThresholdQuery:
    """Inputs of a visibility-threshold computation."""

    witness: str
    eps: float
    noise_kind: str
    measurement_case: str           # best-case-exact | worst-case-tilted
    bound: BoundResult | float

    def __post_init__(self):
        if self.measurement_case not in ("best-case-exact", "worst-case-tilted"):
            raise ValueError("unknown measurement case")

    @property
    def bound_value(self) -> float:
        return self.bound.value if isinstance(self.bound, BoundResult) else float(self.bound)


def default_bisep_bound(witness: str, eps: float) -> BoundResult:
    if witness == "mermin4":
        return mermin_bisep_bound(4, eps)
    if witness == "stabilizer4":
        return stabilizer_bisep_bound_numeric(4, eps)
    raise ValueError(f"no default bound for {witness!r}")


def noisy_witness_value(witness: str, noise_kind: str, p: float,
                        measurement_case: str = "best-case-exact",
                        eps: float = 0.0) -> float:
    """Direct trace of the (possibly worst-case-tilted) witness on the noisy state."""
    spec = BUILDERS[witness]()
    if measurement_case == "best-case-exact":
        mat = spec.matrix
    else:
        bloch = [{letter: tilt_vector(letter, eps, d) for letter, d in party.items()}
                 for party in WORST_CONFIGS[witness]]
        mat = assemble(spec.terms, spec.constant_offset, bloch)
    rho = apply_noise(ghz_state(4, +1), NoiseModel(noise_kind, p))
    return expectation(mat, rho)


def _affine_crossing(witness: str, noise_kind: str, measurement_case: str,
                     eps: float, bound: float) -> float:
    """Visibility at which the witness value, affine in p, meets ``bound``:
    (B − v₀)/(v₁ − v₀) from the values at p = 0 and p = 1."""
    v0 = noisy_witness_value(witness, noise_kind, 0.0, measurement_case, eps)
    v1 = noisy_witness_value(witness, noise_kind, 1.0, measurement_case, eps)
    return (bound - v0) / (v1 - v0)


def threshold_visibility(query: ThresholdQuery) -> float:
    """Visibility p at which the witness value meets the biseparable bound.

    The witness value is affine in p, so the crossing is exact; raises if it
    lies outside p ∈ [0, 1].
    """
    p = _affine_crossing(query.witness, query.noise_kind, query.measurement_case,
                         query.eps, query.bound_value)
    if not 0.0 <= p <= 1.0:
        raise ValueError("witness value never crosses the bound on p ∈ [0, 1]")
    return p


# ---------------------------------------------------------------------------
# Closed-form thresholds (Appendix-E style)
# ---------------------------------------------------------------------------

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


def worst_case_thresholds(witness: str, eps: float, noise_kind: str,
                          bound: float | None = None) -> dict:
    """Worst-case-tilted threshold: printed closed form plus the direct oracle.

    The oracle evaluates the explicit worst tilt configuration by direct
    trace and solves the affine crossing; any disagreement beyond 1e−6 is
    flagged in the returned dict rather than silently patched.
    """
    if bound is None:
        bound = default_bisep_bound(witness, eps).value
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
    oracle = _affine_crossing(witness, noise_kind, "worst-case-tilted", eps, bound)
    return {"closed_form": float(closed), "oracle": float(oracle),
            "agrees": bool(abs(closed - oracle) <= 1e-6)}


# ---------------------------------------------------------------------------
# Device-independent thresholds (I_nm)
# ---------------------------------------------------------------------------

#: Input vectors and signs of I₄₃ over the residue classes s ≡ 0, 1 (mod 3).
_I43_SVECS = []
for _svec in itertools.product(range(3), repeat=4):
    _s = sum(_svec)
    if _s % 3 == 0:
        _I43_SVECS.append((_svec, (-1) ** (_s // 3)))
    elif _s % 3 == 1:
        _I43_SVECS.append((_svec, (-1) ** ((_s - 1) // 3)))
_I43_INDEX = np.array([sv for sv, _ in _I43_SVECS])
_I43_SIGNS = np.array([sg for _, sg in _I43_SVECS], dtype=float)


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
    bound = default_bisep_bound(witness, eps).value
    quantum = 8.0 if witness == "mermin4" else 11.0
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
