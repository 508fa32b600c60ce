"""gmewit — multiqubit entanglement witnesses with imprecision-corrected
separability bounds, fidelity estimation and noise-robustness analysis."""

from importlib import resources

__version__ = "0.1.0"

from .linalg import I2, PAULI, X, Y, Z, expectation, kron
from .states import (NoiseModel, apply_noise, cluster_state_4, ghz_state,
                     spoof_state, w_state)
from .measurement import (CountTable, ImprecisionBudget, WaveplateErrorSpec,
                          fidelity_from_counts, measurement_fidelity,
                          waveplate_povm)
from .witnesses import (CorrelatorRecord, WitnessSpec, cluster_witness_c4,
                        eval_from_correlators, inm_value, mermin_witness,
                        stabilizer_witness, w_witness_d3)
from .bounds import (BoundResult, PartitionSpec, bisep_brute_force,
                     cluster_witness_bounds, mermin_bisep_bound,
                     mermin_di_bound, multi_qubit_partition_bound,
                     spoofing_curve, stabilizer_bisep_bound_numeric,
                     stabilizer_fully_sep_bound, stabilizer_single_party_bound,
                     w_witness_bounds)
from .fidelity import (FidelityBoundQuery, closed_form_l0, fidelity_curve,
                       ghz_fidelity, numeric_l_eps)
from .robustness import (ThresholdQuery, di_thresholds,
                         normalize_witness_value, threshold_visibility,
                         worst_case_thresholds)


def fixture_path(name: str):
    """Filesystem path of a bundled fixture file."""
    return resources.files("gmewit.fixtures").joinpath(name)
