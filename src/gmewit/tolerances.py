"""Central numerical tolerance table.

All comparison thresholds used across the package live here so they can be
inspected in one place.
"""

_TOLERANCES = {
    "hermitian": 1e-12,
    "state_norm": 1e-12,
    "expectation_imag": 1e-10,
    "povm_completeness": 1e-10,
    "prob_norm": 1e-9,
    "regime_tie": 1e-12,
    "dual_gap": 1e-15,
    "dual_weight": 1e-40,
    "dual_root": 1e-12,
    "seesaw_duplicate": 1e-6,
}


def tol(name: str) -> float:
    """Return the tolerance ``name``."""
    return _TOLERANCES[name]
