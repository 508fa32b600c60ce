"""One-shot verification suite: every acceptance check as a data record.

Shared by the ``verify`` CLI command and the test suite so the two can never
drift apart.  Each check compares a computed value against its reference
within a pinned tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixture_path
from .bounds import (EPS_STAR, all_bipartitions, bisep_brute_force,
                     mermin_bisep_bound, multi_qubit_partition_bound,
                     spoofing_curve, stabilizer_bisep_bound_numeric,
                     stabilizer_single_party_bound, cluster_witness_bounds,
                     w_witness_bounds)
from .linalg import PAULI, expectation, kron
from .measurement import (REFERENCE_BUDGET, CountTable, ImprecisionBudget,
                          WaveplateErrorSpec, fidelity_from_counts, waveplate_povm)
from .robustness import di_thresholds, threshold_visibility
from .states import cluster_state_4, ghz_state, w_state
from .witnesses import (eval_from_correlators, ideal, load_correlator_fixture,
                        stabilizer_witness)

#: Waveplate error model of the reference experiment.
REFERENCE_WAVEPLATE_SPEC = WaveplateErrorSpec(
    d_alpha=0.4 * np.pi / 180, d_beta=0.4 * np.pi / 180,
    d_eta_q=np.pi / 100, d_eta_h=np.pi / 100, gamma=0.999)

#: ``check_uffink``'s product-state samples and seed; the tilt restarts of each
#: L_ε query of ``check_fidelity_bounds``.
_UFFINK_SAMPLES, _UFFINK_SEED, _TILT_RESTARTS = 10_000, 42, 8

#: Reference projector fidelities of the tomography table.
REFERENCE_TOMO_FIDELITIES = {"D": 0.9994, "A": 0.9994, "R": 0.9976,
                             "L": 0.9977, "H": 0.9997, "V": 0.9998}


@dataclass
class CheckResult:
    name: str
    expected: float
    actual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.actual - self.expected) <= self.tolerance


def _check(name, expected, actual, tolerance) -> CheckResult:
    return CheckResult(name, float(expected), float(actual), float(tolerance))


def check_theorem1_closed_form() -> list[CheckResult]:
    return [_check("theorem1-closed-form", 4.3795,
                   mermin_bisep_bound(4, 0.0025).value, 0.005)]


def check_theorem1_saturation() -> list[CheckResult]:
    out = []
    for eps in np.linspace(0.0, EPS_STAR, 10):
        row = spoofing_curve([eps])[0]
        out.append(_check(f"theorem1-saturation-eps={eps:.4f}",
                          row["bound_corrected"], row["predicted"], 1e-9))
    return out


def check_uffink() -> list[CheckResult]:
    """⟨M₄⟩² + ⟨N₄⟩² ≤ 2⁶ for random product states and observables.

    For product states the recursion factorizes through the single-qubit
    expectations, so the check runs on scalars: each party draws a pure
    state s and two dichotomic observables a₀, a₁ as Bloch vectors, and
    reads ⟨aₖ⟩ = aₖ·s/|aₖ||s|.
    """
    n = 4
    draws = np.random.default_rng(_UFFINK_SEED).normal(size=(_UFFINK_SAMPLES, n, 3, 3))
    s, a = draws[:, :, :1], draws[:, :, 1:]            # state; observables a₀, a₁
    ea = np.sum(a * s, axis=-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(s, axis=-1))
    m_val, n_val = ea[:, 0, 0], ea[:, 0, 1]
    for j in range(1, n):
        m_val, n_val = (m_val * ea[:, j, 0] - n_val * ea[:, j, 1],
                        m_val * ea[:, j, 1] + n_val * ea[:, j, 0])
    excess = max(float(np.max(m_val ** 2 + n_val ** 2)) - 2 ** (2 * n - 2), 0.0)
    return [_check("uffink-product-states-excess", 0.0, excess, 1e-9)]


def check_stabilizer_bounds() -> list[CheckResult]:
    return [
        _check("stabilizer-single-party-eps=6e-4", 7.19,
               stabilizer_single_party_bound(4, 6e-4).value, 0.01),
        _check("stabilizer-numeric-eps=0", 7.0,
               stabilizer_bisep_bound_numeric(4, 0.0).value, 1e-7),
        _check("stabilizer-numeric-eps=eps*", 11.0,
               stabilizer_bisep_bound_numeric(4, EPS_STAR).value, 0.02),
    ]


def check_partition_bound() -> list[CheckResult]:
    """One-sided check of the 2|2-partition constant 9·2^{n−4}−1.

    The excess of the see-saw maximum over the constant should be zero.  For
    mutually-tilted observables the constant is in fact exceeded at ε > 0 —
    explicit 2|2 product states reach ≈9.44 at ε = 0.05 — so the ε > 0 cases
    below report a genuine, reproducible failure (see README, Known
    discrepancies).
    """
    out = []
    limit = multi_qubit_partition_bound(4).value
    partitions = [p for p in all_bipartitions(4) if len(p.block_a) == 2]
    for eps in (0.0, 0.05, 0.14):
        spec = stabilizer_witness(4, ImprecisionBudget.uniform(eps, 4))
        found = max(bisep_brute_force(spec, part) for part in partitions)
        out.append(_check(f"partition-2|2-eps={eps}", 0.0,
                          max(found - limit, 0.0), 1e-6))
    return out


def check_witness_values() -> list[CheckResult]:
    ghz3 = ghz_state(3, +1)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    bisep = np.kron(plus, ghz3)
    return [
        _check("mermin4-on-ghz4", 8.0,
               expectation(ideal("mermin4").matrix, ghz_state(4, +1)), 1e-10),
        _check("stabilizer4-on-ghz4", 11.0,
               expectation(ideal("stabilizer4").matrix, ghz_state(4, +1)), 1e-10),
        _check("d3-on-wstate", 4.0,
               expectation(ideal("d3").matrix, w_state()), 1e-10),
        _check("c4-on-cluster", 6.0,
               expectation(ideal("c4").matrix, cluster_state_4()), 1e-10),
        _check("stabilizer4-on-plus-ghz3", 7.0,
               expectation(ideal("stabilizer4").matrix, bisep), 1e-10),
    ]


def check_fixture_totals() -> list[CheckResult]:
    out = []
    for name, reference in (("fig4_mermin.json", 7.4665), ("fig4_stabilizer.json", 10.5168)):
        witness, records = load_correlator_fixture(fixture_path(name))
        value, _std = eval_from_correlators(ideal(witness), records)
        out.append(_check(f"fixture-total-{name}", reference, value, 0.002))
    return out


def check_fidelity_bounds() -> list[CheckResult]:
    # Imported here: a cold child spends about 6 ms loading it, and only ``verify`` needs it.
    from .fidelity import FidelityBoundQuery, ideal_l0, numeric_l_eps
    out = [_check("l0-stabilizer", 0.9396,
                  ideal_l0("stabilizer4", 10.5168), 1e-12)]
    for witness, w, reference in (("mermin4", 7.4665, 0.866),
                                  ("stabilizer4", 10.5168, 0.881)):
        query = FidelityBoundQuery(witness, w, REFERENCE_BUDGET,
                                   tilt_restarts=_TILT_RESTARTS)
        out.append(_check(f"l-eps-{witness}", reference,
                          numeric_l_eps(query), 0.01))
    return out


def check_robustness_thresholds() -> list[CheckResult]:
    deph = threshold_visibility("mermin4", "dephasing", mermin_bisep_bound(4, 0.005).value)
    white_m = threshold_visibility("mermin4", "depolarizing", mermin_bisep_bound(4, 0.0).value)
    white_s = threshold_visibility("stabilizer4", "depolarizing",
                                   stabilizer_bisep_bound_numeric(4, 0.0).value)
    return [
        _check("dephasing-mermin-eps=0.005", 0.783, deph, 0.002),
        _check("di-m=2", 0.8536, di_thresholds(2), 1e-4),
        _check("white-mermin-eps=0", 0.5, white_m, 1e-9),
        _check("white-stabilizer-eps=0", 7 / 11, white_s, 1e-9),
    ]


def check_w_cluster_bounds() -> list[CheckResult]:
    lo, hi = 1e-6, 0.05                 # the D3 bound crosses 4 once in between
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if w_witness_bounds(mid)["biseparable"].value < 4.0 else (lo, mid)
    crossing = 0.5 * (lo + hi)
    cluster0 = cluster_witness_bounds(0.0)["biseparable"].value
    return [
        _check("d3-bisep-crosses-4", 0.006, crossing, 0.001),
        _check("c4-bisep-eps=0", 4.0, cluster0, 1e-7),
    ]


def check_waveplate_and_tomography() -> list[CheckResult]:
    out = []
    for basis, reference in (("Z", 0.9989), ("X", 0.9982), ("Y", 0.9978)):
        _, _, info = waveplate_povm(basis, REFERENCE_WAVEPLATE_SPEC)
        out.append(_check(f"waveplate-fidelity-{basis}", reference,
                          info["fidelity"], 0.0005))
    table = CountTable.from_csv(fixture_path("table_a1.csv"))
    fids = fidelity_from_counts(table)
    for label, reference in REFERENCE_TOMO_FIDELITIES.items():
        out.append(_check(f"tomo-fidelity-{label}", reference,
                          fids[label]["symmetric"], 0.0005))
    return out


def check_property_samples() -> list[CheckResult]:
    """Cheap representatives of the module property suites."""
    out = []
    anti = PAULI["X"] @ PAULI["Y"] - 1j * PAULI["Z"]
    out.append(_check("pauli-algebra-xy=iz", 0.0, np.max(np.abs(anti)), 1e-15))
    a = kron(kron(PAULI["X"], PAULI["Y"]), PAULI["Z"])
    b = kron(PAULI["X"], kron(PAULI["Y"], PAULI["Z"]))
    out.append(_check("kron-associativity", 0.0, np.max(np.abs(a - b)), 1e-15))
    grid = np.linspace(0, 0.5, 51)
    bounds = [mermin_bisep_bound(4, e).value for e in grid]
    worst_drop = min(np.diff(bounds).min(), 0.0)
    out.append(_check("mermin-bound-monotone", 0.0, worst_drop, 1e-12))
    return out


CHECK_GROUPS = [
    ("theorem1-closed-form", check_theorem1_closed_form),
    ("theorem1-saturation", check_theorem1_saturation),
    ("uffink", check_uffink),
    ("stabilizer-bounds", check_stabilizer_bounds),
    ("partition-bound", check_partition_bound),
    ("witness-values", check_witness_values),
    ("fixture-totals", check_fixture_totals),
    ("fidelity-bounds", check_fidelity_bounds),
    ("robustness-thresholds", check_robustness_thresholds),
    ("w-cluster-bounds", check_w_cluster_bounds),
    ("waveplate-tomography", check_waveplate_and_tomography),
    ("property-samples", check_property_samples),
]


def run_checks() -> list[CheckResult]:
    results = []
    for _name, fn in CHECK_GROUPS:
        results.extend(fn())
    return results
