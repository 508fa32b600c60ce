import itertools

import numpy as np
import pytest

from gmewit import fixture_path
from gmewit.linalg import I2, PAULI
from gmewit.measurement import (AXIS_VECTORS, WAVEPLATE_SETTINGS, CountTable,
                                ImprecisionBudget, WaveplateErrorSpec, _povm_plus,
                                fidelity_from_counts,
                                measurement_fidelity, q_of, u_of, waveplate,
                                waveplate_povm)
from gmewit.witnesses import assemble, partner_maps, stabilizer_witness
from oracles import projectors


def _tilted(intended, partner, eps):
    """Extremal imprecise observable for ``intended``, tilted toward ``partner``."""
    maps = partner_maps({intended: partner}, ImprecisionBudget.uniform(eps, 1))
    return assemble([(1.0, intended)], 0.0, maps)


def test_q_u_unit_circle():
    for eps in np.linspace(0, 0.5, 51):
        assert q_of(eps) ** 2 + u_of(eps) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_tilted_observable_eigenvalues_and_angle():
    for eps in np.linspace(0, 0.5, 11):
        obs = _tilted("X", "Y", eps)
        evals = np.linalg.eigvalsh(obs)
        assert np.allclose(evals, [-1.0, 1.0], atol=1e-12)
        # Bloch angle to the intended axis is arccos(1 − 2ε).
        cos_angle = 0.5 * np.trace(obs @ PAULI["X"]).real
        assert cos_angle == pytest.approx(1 - 2 * eps, abs=1e-12)


def test_tilted_observable_ideal_limit():
    assert np.max(np.abs(_tilted("Z", "X", 0.0) - PAULI["Z"])) <= 1e-12


def test_imprecision_budget_constructors():
    b = ImprecisionBudget.per_basis(0.1, 0.2, 0.3, 3)
    assert b.n == 3
    assert b.eps(1, "Y") == 0.2
    assert not b.is_ideal()
    assert ImprecisionBudget.ideal(4).is_ideal()
    s = ImprecisionBudget.single_party(0.05, 4)
    assert s.eps(0, "X") == 0.05 and s.eps(1, "X") == 0.0
    with pytest.raises(ValueError):
        ImprecisionBudget.uniform(0.7, 2)


@pytest.mark.parametrize("triple", [(0.1, 0.1), (0.1, 0.1, 0.1, 0.1)])
def test_imprecision_budget_needs_three_eps_per_party(triple):
    # Two ε per party once ended in an IndexError inside a witness build; a
    # fourth ε was silently ignored.
    with pytest.raises(ValueError, match="exactly three"):
        ImprecisionBudget((triple,) * 3)
    with pytest.raises(ValueError, match="exactly three"):
        stabilizer_witness(3, ImprecisionBudget(((0.1, 0.1, 0.1), triple, (0.1, 0.1, 0.1))))


def test_tilted_projector_fidelity_equals_one_minus_eps():
    # The ± projectors of the tilted observable form a projective POVM with
    # average fidelity exactly 1 − ε against the intended axis.
    for eps in np.linspace(0, 0.5, 50):
        p_plus, p_minus = projectors(_tilted("X", "Z", eps))
        f = measurement_fidelity(p_plus, p_minus, AXIS_VECTORS["X"])
        assert f == pytest.approx(1 - eps, abs=1e-10)


def test_measurement_fidelity_completeness_check():
    p_plus, _ = projectors(PAULI["Z"])
    with pytest.raises(ValueError):
        measurement_fidelity(p_plus, p_plus, AXIS_VECTORS["Z"])


def test_waveplate_unitary():
    u = waveplate(0.3, np.pi / 2)
    assert np.max(np.abs(u @ u.conj().T - I2)) <= 1e-12


def test_waveplate_povm_ideal_spec():
    spec = WaveplateErrorSpec()
    for basis in ("X", "Y", "Z"):
        p_plus, p_minus, info = waveplate_povm(basis, spec)
        assert info["fidelity"] == pytest.approx(1.0, abs=1e-12)
        ideal_plus, _ = projectors(PAULI[basis])
        assert np.max(np.abs(p_plus - ideal_plus)) <= 1e-9
        assert np.max(np.abs(p_plus + p_minus - I2)) <= 1e-12


def test_waveplate_povm_is_the_worst_sign_combination():
    # The returned POVM and fidelity are those of the error-sign combination
    # with the lowest fidelity, scored here by the spectral projectors of
    # the intended Pauli.
    spec = WaveplateErrorSpec(d_alpha=0.01, d_beta=0.01,
                              d_eta_q=0.02, d_eta_h=0.02, gamma=0.999)
    for basis in ("X", "Y", "Z"):
        plus, minus = projectors(PAULI[basis])
        alpha, beta = WAVEPLATE_SETTINGS[basis]
        every = [_povm_plus(alpha + sa * spec.d_alpha, beta + sb * spec.d_beta,
                            np.pi / 2 + sq * spec.d_eta_q, np.pi + sh * spec.d_eta_h,
                            spec.gamma)
                 for sa, sb, sq, sh in itertools.product((1, -1), repeat=4)]
        scores = [0.5 * np.trace(p @ plus).real + 0.5 * np.trace((I2 - p) @ minus).real
                  for p in every]
        p_plus, p_minus, info = waveplate_povm(basis, spec)
        assert info["fidelity"] == pytest.approx(min(scores), abs=1e-12)
        assert info["fidelity"] < max(scores)
        returned = 0.5 * np.trace(p_plus @ plus).real + 0.5 * np.trace(p_minus @ minus).real
        assert returned == pytest.approx(min(scores), abs=1e-12)
        assert np.max(np.abs(p_plus + p_minus - I2)) <= 1e-12


def test_waveplate_spec_validation():
    with pytest.raises(ValueError):
        WaveplateErrorSpec(d_alpha=-0.1)
    with pytest.raises(ValueError):
        WaveplateErrorSpec(gamma=0.3)


def test_count_table_missing_entry():
    with pytest.raises(ValueError):
        CountTable({("D", "H"): 5})


def test_fidelity_from_counts_structure():
    table = CountTable.from_csv(fixture_path("table_a1.csv"))
    fids = fidelity_from_counts(table)
    assert set(fids) == {"D", "A", "R", "L", "H", "V"}
    for label, d in fids.items():
        assert 0.9 <= d["pass_fail"] <= 1.0
        assert d["symmetric"] == pytest.approx((1 + d["pass_fail"]) / 2, abs=1e-12)
        assert 0.9 <= d["tomography"] <= 1.0
