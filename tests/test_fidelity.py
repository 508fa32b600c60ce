import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from gmewit.fidelity import (LAMBDA_CAP, TILT_BASES, FidelityBoundQuery, _lower_bound_fixed,
                             _tilt_table, closed_form_l0, fidelity_curve,
                             ghz_fidelity, numeric_l_eps)
from gmewit.linalg import expectation
from gmewit.measurement import ImprecisionBudget
from gmewit.states import ghz_state
from gmewit.witnesses import BUILDERS, assemble

GHZ = ghz_state(4, +1)
P_GHZ = np.outer(GHZ, GHZ.conj())


def _grid_scan_lower_bound(w_matrix, p_ghz, w, grid=80):
    """Reference λ-dual: signed log grid on 1e−4 ≤ |λ| ≤ 10 plus bounded
    refinement around the best grid point (the earlier inner solver)."""
    def g(lam):
        return np.linalg.eigvalsh(p_ghz - lam * w_matrix)[0] + lam * w

    lams = np.concatenate([np.geomspace(1e-4, 10, grid),
                           -np.geomspace(1e-4, 10, grid), [0.0]])
    vals = [g(lam) for lam in lams]
    i = int(np.argmax(vals))
    lb = lams[i]
    span = max(abs(lb), 1e-3)
    res = minimize_scalar(lambda lam: -g(lam), bounds=(lb - span, lb + span),
                          method="bounded", options={"xatol": 1e-9})
    return float(max(vals[i], g(res.x)))


def _tilted_witness(witness, eps, omegas):
    spec = BUILDERS[witness]()
    budget = ImprecisionBudget.uniform(eps, 4)
    return assemble(spec.terms, spec.constant_offset,
                    _tilt_table(TILT_BASES[witness], budget, omegas))


_tilts = st.tuples(
    st.sampled_from(sorted(TILT_BASES)),
    st.floats(-8.0, -2.0),
    st.lists(st.floats(0.0, 2 * np.pi), min_size=8, max_size=8),
    st.floats(0.0, 1.0),
)


def test_closed_form_l0():
    assert closed_form_l0("mermin4", 8.0) == pytest.approx(1.0)
    assert closed_form_l0("mermin4", 4.0) == pytest.approx(0.5)
    assert closed_form_l0("stabilizer4", 11.0) == pytest.approx(1.0)
    assert closed_form_l0("stabilizer4", 7.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        closed_form_l0("d3", 4.0)


def test_ghz_fidelity():
    psi = ghz_state(4, +1)
    assert ghz_fidelity(psi) == pytest.approx(1.0)
    rho = np.outer(psi, psi.conj())
    assert ghz_fidelity(rho) == pytest.approx(1.0)
    assert ghz_fidelity(ghz_state(4, -1)) == pytest.approx(0.0, abs=1e-12)


def test_query_rejects_out_of_range_value():
    with pytest.raises(ValueError):
        FidelityBoundQuery("mermin4", 9.5, ImprecisionBudget.ideal(4))


def test_ideal_l_eps_matches_closed_form():
    for witness in ("mermin4", "stabilizer4"):
        for w in (6.0, 7.4664, 10.0):
            try:
                query = FidelityBoundQuery(witness, w, ImprecisionBudget.ideal(4))
            except ValueError:
                continue
            assert numeric_l_eps(query) == pytest.approx(
                closed_form_l0(witness, w), abs=1e-9)


def test_l_eps_soundness_on_random_states():
    # The ideal bound is sound: every state's GHZ fidelity is at least the
    # bound computed from its own witness value.
    rng = np.random.default_rng(7)
    mat = BUILDERS["mermin4"]().matrix
    budget = ImprecisionBudget.ideal(4)
    for _ in range(20):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        w = expectation(mat, v)
        bound = numeric_l_eps(FidelityBoundQuery("mermin4", w, budget))
        assert ghz_fidelity(v) >= bound - 1e-7


@settings(max_examples=40, deadline=None)
@given(_tilts)
def test_exact_dual_matches_grid_scan_oracle(case):
    # The exact dual is never below the grid scan (it maximizes the same
    # concave function) and only above it by the scan's refinement error.
    # w stays 1 % of the spectral width inside the spectrum, where λ* lies
    # well within both solvers' λ ranges.
    witness, log_eps, omegas, t = case
    mat = _tilted_witness(witness, 10 ** log_eps, np.reshape(omegas, (4, 2)))
    lo, hi = np.linalg.eigvalsh(mat)[[0, -1]]
    w = lo + (0.01 + 0.98 * t) * (hi - lo)
    oracle = _grid_scan_lower_bound(mat, P_GHZ, w)
    assert oracle - 1e-12 <= _lower_bound_fixed(mat, P_GHZ, w) <= oracle + 1e-8


def test_exact_dual_infeasible_value_is_capped():
    # No state reaches w above λ_max(W_ε); the search stops at λ = LAMBDA_CAP
    # and returns the finite dual value there.
    mat = _tilted_witness("stabilizer4", 0.01, np.full((4, 2), 0.3))
    w = np.linalg.eigvalsh(mat)[-1] + 0.5
    at_cap = np.linalg.eigvalsh(P_GHZ - LAMBDA_CAP * mat)[0] + LAMBDA_CAP * w
    assert _lower_bound_fixed(mat, P_GHZ, w) == pytest.approx(at_cap, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(_tilts, st.integers(0, 2 ** 32 - 1))
def test_exact_dual_sound_for_tilted_witness(case, state_seed):
    # Weak duality: any pure ψ with ⟨ψ|W_ε|ψ⟩ = w has GHZ fidelity at least
    # the bound computed from w for that same tilted W_ε.
    witness, log_eps, omegas, _ = case
    mat = _tilted_witness(witness, 10 ** log_eps, np.reshape(omegas, (4, 2)))
    rng = np.random.default_rng(state_seed)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    assert ghz_fidelity(v) >= _lower_bound_fixed(mat, P_GHZ, expectation(mat, v)) - 1e-10


def test_l_eps_never_exceeds_l0():
    budget = ImprecisionBudget.uniform(0.002, 4)
    for w in (6.5, 7.0, 7.5):
        query = FidelityBoundQuery("mermin4", w, budget, tilt_restarts=2, seed=1)
        assert numeric_l_eps(query) <= closed_form_l0("mermin4", w) + 1e-6


def test_l_eps_small_eps_limit():
    # The correction is first order in the transverse coefficient 2√(ε(1−ε)),
    # so ε must be tiny for L_ε to sit within 1e−3 of L0.
    budget = ImprecisionBudget.uniform(1e-8, 4)
    query = FidelityBoundQuery("stabilizer4", 10.5, budget, tilt_restarts=2, seed=1)
    assert numeric_l_eps(query) == pytest.approx(
        closed_form_l0("stabilizer4", 10.5), abs=1e-3)


def test_numeric_l_eps_details():
    query = FidelityBoundQuery("mermin4", 7.0, ImprecisionBudget.ideal(4))
    res = numeric_l_eps(query, return_details=True)
    assert res.value == pytest.approx(closed_form_l0("mermin4", 7.0), abs=1e-9)
    assert res.witness_matrix.shape == (16, 16)


def test_fidelity_curve_shape():
    budget = ImprecisionBudget.ideal(4)
    rows = fidelity_curve("mermin4", budget, [0.8, 0.9], tilt_restarts=1)
    assert [r["w_fraction"] for r in rows] == [0.8, 0.9]
    for r in rows:
        assert r["L_eps"] == pytest.approx(r["L0"], abs=1e-9)
