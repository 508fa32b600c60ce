"""Central numerical tolerance table.

All comparison thresholds used across the package live here so they can be
inspected and, when running on unusual floating-point hardware, rescaled in
one place through the ``GME_LAB_TOL_SCALE`` environment variable.
"""

import os

_DEFAULTS = {
    "hermitian": 1e-12,
    "state_norm": 1e-12,
    "density_trace": 1e-12,
    "density_psd": -1e-10,
    "expectation_imag": 1e-10,
    "povm_completeness": 1e-10,
    "prob_norm": 1e-9,
}


def tol(name: str) -> float:
    """Return the tolerance ``name``, scaled by GME_LAB_TOL_SCALE if set."""
    scale = float(os.environ.get("GME_LAB_TOL_SCALE", "1.0"))
    return _DEFAULTS[name] * scale
