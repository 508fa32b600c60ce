"""Noise-robustness analysis: visibility thresholds for witness-based GME
detection under white and dephasing noise, device-independent comparisons,
and the normalization used for cross-witness plots.

Only ``math`` is imported at module level: the device-independent thresholds
are closed forms on Python floats, and the functions that need numpy, or
trace a noisy state through the witness, state and measurement modules,
import them in their own bodies."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

    from .linalg import expectation
    from .measurement import ImprecisionBudget
    from .states import NoiseModel, apply_noise, ghz_state
    from .witnesses import assemble, ideal, tilt_table
    spec = ideal(witness)
    if measurement_case == "best-case-exact":
        mat = spec.matrix
    elif measurement_case == "worst-case-tilted":
        cos, sin = np.moveaxis(np.array(WORST_CONFIGS[witness], dtype=float), -1, 0)
        maps, _ = tilt_table(spec.tilt_plane, ImprecisionBudget.uniform(eps, spec.n))(cos, sin)
        mat = assemble(spec.terms, maps)
    else:
        raise ValueError(f"unknown measurement case {measurement_case!r}")
    rho = apply_noise(ghz_state(spec.n, +1), NoiseModel(noise_kind, p))
    return expectation(mat, rho)


def _crossing(bound: float, v0: float, v1: float) -> float:
    """Visibility p at which the affine value v₀ + p·(v₁ − v₀) meets ``bound``, above
    which it detects; raises unless v₁ > v₀ and p ∈ [0, 1] (a NaN never passes)."""
    if not v1 > v0:
        raise ValueError(f"the value does not rise with p ({v0:.6g} at p = 0, {v1:.6g} at "
                         "p = 1), so no visibility threshold exists")
    p = (bound - v0) / (v1 - v0)
    if not 0.0 <= p <= 1.0:
        raise ValueError("the value never crosses the bound on p ∈ [0, 1]")
    return p


def _endpoints(witness: str, noise_kind: str, case: str, eps: float) -> tuple[float, float]:
    """The witness values (v₀, v₁) at p = 0 and p = 1; the value is affine in p."""
    return tuple(noisy_witness_value(witness, noise_kind, p, case, eps) for p in (0.0, 1.0))


def threshold_visibility(witness: str, noise_kind: str, bound: float,
                         measurement_case: str = "best-case-exact", eps: float = 0.0) -> float:
    """Visibility p at which the witness value meets the biseparable ``bound``:
    the exact crossing of the line through its values at p = 0 and p = 1."""
    return _crossing(bound, *_endpoints(witness, noise_kind, measurement_case, eps))


# ---------------------------------------------------------------------------
# Device-independent thresholds (I_nm)
# ---------------------------------------------------------------------------

#: Maximal GHZ value of I₄₃ over X–Y-plane settings, 27√3.
I43_QUANTUM = 27 * math.sqrt(3)

#: Default I₄₃ biseparable bound: external literature constant, reconstructed
#: from the published 83.4 % visibility threshold as (2·0.834−1)·27√3.
DEFAULT_I43_BISEP_BOUND = (2 * 0.834 - 1) * I43_QUANTUM


def max_i43() -> tuple[float, np.ndarray]:
    """Maximal GHZ value of I₄₃ and its settings φ_jk = kπ/3 − π/24 (k = 0, 1, 2):
    each of the 54 terms with a non-zero sign reads cos(π/6), 27√3 in all."""
    import numpy as np
    return float(I43_QUANTUM), np.tile(np.arange(3) * np.pi / 3 - np.pi / 24, (4, 1))


def di_thresholds(m: int, bisep_bound_i43: float | None = None) -> float:
    """Visibility threshold of the device-independent I₄ₘ witness on ρ_deph(p): for
    m=2 the DI Mermin plateau 2^{n−3/2} = 2^{5/2} against the GHZ line (2p−1)·8, for
    m=3 the supplied biseparable bound B against (2p−1)·S, S = ``I43_QUANTUM``."""
    if m == 2:
        return _crossing(2 ** 2.5, -8.0, 8.0)
    if m != 3:
        raise ValueError("only m = 2 and m = 3 are supported")
    if bisep_bound_i43 is None:
        raise ValueError("the I₄₃ biseparable bound constant must be supplied")
    return _crossing(bisep_bound_i43, -I43_QUANTUM, I43_QUANTUM)


# ---------------------------------------------------------------------------
# Normalization and sweep table
# ---------------------------------------------------------------------------

def normalize_witness_value(value: float, bisep: float, quantum: float) -> float:
    """Affine rescale: 0 at the biseparable bound, 1 at the quantum bound."""
    if quantum <= bisep:
        raise ValueError("quantum bound must exceed the biseparable bound")
    return (value - bisep) / (quantum - bisep)


def robustness_sweep(witness: str, noise_kind: str, p_grid, bound: float, quantum: float,
                     measurement_case: str = "best-case-exact", eps: float = 0.0) -> list[dict]:
    """Fig.-5-style table of witness values and violation flags against the
    biseparable ``bound`` (normalized up to ``quantum``), read off the line over p."""
    from .states import NoiseModel
    v0, v1 = _endpoints(witness, noise_kind, measurement_case, eps)
    rows = []
    for p in p_grid:
        p = NoiseModel(noise_kind, float(p)).p      # rejects p ∉ [0, 1]
        value = v0 + p * (v1 - v0)
        rows.append({
            "p": p,
            "witness_value": value,
            "normalized_value": normalize_witness_value(value, bound, quantum),
            "bound": bound,
            "violation_flag": int(value > bound),
        })
    return rows
