import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmewit import bounds
from gmewit.bounds import (EPS_STAR, PartitionSpec, _cut_maps, _reduced_sweep,
                           all_bipartitions, bisep_brute_force, cluster_witness_bounds,
                           family_bounds, mermin_bisep_bound,
                           multi_qubit_partition_bound, spoofing_curve,
                           stabilizer_bisep_bound_numeric,
                           stabilizer_fully_sep_bound, stabilizer_single_party_bound,
                           w_witness_bounds)
from gmewit.linalg import PAULI, expectation
from gmewit.measurement import ImprecisionBudget, q_of
from gmewit.states import spoof_state
from gmewit.witnesses import (BUILDERS, WitnessSpec, cluster_witness_c4, ideal,
                              mermin_witness, stabilizer_witness)
from oracles import (chi_product_state, chi_reduced_operator, mermin_di_bound,
                     reduced_sweep_minimize_scalar, seesaw_per_restart)

SEESAW_WITNESSES = {
    "stabilizer4": lambda budget: stabilizer_witness(4, budget),
    "mermin4": lambda budget: mermin_witness(4, budget),
    "c4": cluster_witness_c4,
}

#: The θ-swept witnesses with an X–Z tilt plane, read through ``ideal``.
SWEEPS = ("c4", "stabilizer3", "stabilizer4")

#: Every θ-swept witness → its ``family_bounds`` family and n.
NUMERIC_ROWS = {"stabilizer3": ("stabilizer", 3), "stabilizer4": ("stabilizer", 4),
                "c4": ("cluster", None), "d3": ("wstate", None)}

#: Smallest top-level gap of the see-saw's effective operators above which the
#: stacked and per-restart runs pick the same top vectors.  Over 3,000 random
#: draws (all three witnesses, all 7 cuts, ε up to ε*) the two values agreed to
#: 6e-14 wherever the gap exceeded 1e-9; they differed only at gaps of rounding
#: size, where the top level is degenerate.
SEESAW_TOP_GAP = 1e-9


def tilted(witness: str, eps: float) -> WitnessSpec:
    """The witness with every party tilted by the uniform budget ε."""
    return BUILDERS[witness](ImprecisionBudget.uniform(eps, ideal(witness).n))


def test_mermin_bisep_closed_form_endpoints():
    assert mermin_bisep_bound(4, 0.0).value == pytest.approx(4.0)
    assert mermin_bisep_bound(4, 0.5).value == pytest.approx(2 ** 2.5)
    assert mermin_di_bound(4).value == pytest.approx(2 ** 2.5)
    assert family_bounds("mermin", 4, 0.0)["quantum"].value == pytest.approx(8.0)


def test_mermin_bound_monotone_and_continuous():
    grid = np.linspace(0, 0.5, 200)
    values = [mermin_bisep_bound(4, e).value for e in grid]
    assert min(np.diff(values)) >= -1e-12
    below = mermin_bisep_bound(4, EPS_STAR - 1e-13).value
    above = mermin_bisep_bound(4, EPS_STAR + 1e-13).value
    assert abs(below - above) <= 1e-12


def test_theorem1_saturation_multiple_n():
    # Tilting only the split-off party, the spoof state meets the corrected
    # bound exactly for every ε in the pre-plateau regime.
    for n in (3, 4, 5):
        for eps in np.linspace(0, EPS_STAR, 10):
            spec = mermin_witness(n, ImprecisionBudget.single_party(eps, n))
            psi = spoof_state(n)
            predicted = float(np.real(np.vdot(psi, spec.matrix @ psi)))
            assert predicted == pytest.approx(mermin_bisep_bound(n, eps).value,
                                              abs=1e-9)


def test_spoofing_curve_rows():
    rows = spoofing_curve(np.linspace(0, 0.1, 5))
    assert len(rows) == 5
    for row in rows:
        assert row["predicted"] == pytest.approx(row["bound_corrected"], abs=1e-9)
        assert row["bound_ideal"] == pytest.approx(4.0)
    assert rows[-1]["predicted"] > rows[0]["predicted"]


def test_stabilizer_closed_forms_at_zero():
    assert stabilizer_single_party_bound(4, 0.0).value == pytest.approx(7.0)
    assert stabilizer_single_party_bound(3, 0.0).value == pytest.approx(3.0)
    assert stabilizer_fully_sep_bound(4, 0.0).value == pytest.approx(17 / 4)
    assert family_bounds("stabilizer", 4, 0.0)["quantum"].value == pytest.approx(11.0)
    assert multi_qubit_partition_bound(4).value == pytest.approx(8.0)


def test_stabilizer_numeric_dominates_closed_forms():
    for eps in [6e-4, 2e-3, *np.linspace(0.0, EPS_STAR, 8)]:
        numeric = stabilizer_bisep_bound_numeric(4, eps).value
        single = stabilizer_single_party_bound(4, eps).value
        fully = stabilizer_fully_sep_bound(4, eps).value
        assert numeric >= max(single, fully) - 1e-7


def test_cluster_numeric_dominates_closed_forms():
    for eps in [6e-4, 2e-3, 6e-3, *np.linspace(0.0, EPS_STAR, 8)]:
        b = cluster_witness_bounds(eps)
        assert b["biseparable"].value >= max(b["single_party"].value,
                                             b["fully_separable"].value) - 1e-7


def test_bisep_regime_names_the_returned_value():
    # At the reference ε_X the θ-sweep lies below the single-party closed
    # form, which is then returned; at larger ε the sweep wins.
    low = stabilizer_bisep_bound_numeric(4, 6e-4)
    assert low.regime == "single-party-closed-form"
    assert low.value == stabilizer_single_party_bound(4, 6e-4).value
    assert stabilizer_bisep_bound_numeric(4, 0.1).regime == "numeric-theta-sweep"
    low = cluster_witness_bounds(6e-4)
    assert low["biseparable"].regime == "single-party-closed-form"
    assert low["biseparable"].value == low["single_party"].value
    assert cluster_witness_bounds(0.1)["biseparable"].regime == "numeric-theta-sweep"


def test_bisep_regime_tie_is_the_closed_form():
    # At ε = 0 the θ-sweep and the single-party closed form are both exactly
    # the ideal biseparable value; rounding must not decide the label.
    for result, exact in ((cluster_witness_bounds(0.0)["biseparable"], 4.0),
                          (stabilizer_bisep_bound_numeric(4, 0.0), 7.0),
                          (w_witness_bounds(0.0)["biseparable"], 1 + np.sqrt(5))):
        assert result.regime == "single-party-closed-form"
        assert result.value == pytest.approx(exact, abs=1e-12)
        assert result.value >= exact


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="C4 2|2 excess, README Known discrepancies")
def test_cluster_bisep_bound_covers_the_2v2_cut():
    # The C4 bound sweeps only the cut that splits off party 1; product
    # states on {0,1}|{2,3} exceed it (5.38761 against 5.38231 at ε = 0.06).
    eps = 0.06
    spec = cluster_witness_c4(ImprecisionBudget.uniform(eps, 4))
    found = bisep_brute_force(spec, PartitionSpec((0, 1), (2, 3)))
    assert cluster_witness_bounds(eps)["biseparable"].value >= found - 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fully-separable ansatz beaten, README Known discrepancies")
@pytest.mark.parametrize("name, eps, party_states", [
    # Every party at Bloch angle 0.1949π from Z toward X: 7.665512 against 7.568067.
    ("stabilizer4", 0.02, [[np.cos(0.1949 * np.pi / 2), np.sin(0.1949 * np.pi / 2)]] * 4),
    # |1⟩|−⟩|0⟩|+⟩: 3 against 1 + √2.
    ("c4", 0.0, [[0, 1], [1 / np.sqrt(2), -1 / np.sqrt(2)], [1, 0],
                 [1 / np.sqrt(2), 1 / np.sqrt(2)]]),
])
def test_fully_separable_bound_covers_product_states(name, eps, party_states):
    # The fully-separable column is the symmetric product ansatz's value, a
    # lower estimate of the maximum over product states; these beat it.
    spec = BUILDERS[name](ImprecisionBudget.uniform(eps, 4))
    product = functools.reduce(np.kron, [np.asarray(q, dtype=complex) for q in party_states])
    found = expectation(spec.matrix, product)
    assert family_bounds(*NUMERIC_ROWS[name], eps)["fully_separable"].value >= found - 1e-9


def test_stabilizer_numeric_endpoints():
    assert stabilizer_bisep_bound_numeric(4, 0.0).value == pytest.approx(7.0)
    assert stabilizer_bisep_bound_numeric(4, EPS_STAR).value == pytest.approx(
        11.0, abs=0.02)
    assert stabilizer_bisep_bound_numeric(3, 0.0).value == pytest.approx(3.0)


def test_w_witness_bounds_at_zero():
    b = w_witness_bounds(0.0)
    assert b["biseparable"].value == pytest.approx(1 + np.sqrt(5), abs=1e-7)
    assert b["single_party"].value == pytest.approx(1 + np.sqrt(5), abs=1e-12)
    assert b["fully_separable"].value == pytest.approx(3.0)
    assert b["quantum"].value == pytest.approx(4.0)


def test_cluster_witness_bounds_at_zero():
    b = cluster_witness_bounds(0.0)
    assert b["biseparable"].value == pytest.approx(4.0, abs=1e-7)
    assert b["single_party"].value == pytest.approx(4.0)
    assert b["fully_separable"].value == pytest.approx(1 + np.sqrt(2), abs=1e-12)


def test_cluster_bisep_reaches_quantum_at_eps_star():
    b = cluster_witness_bounds(EPS_STAR)
    assert b["biseparable"].value == pytest.approx(6.0, abs=1e-6)


@pytest.mark.parametrize("witness", sorted(NUMERIC_ROWS))
def test_numeric_bisep_rises_to_the_quantum_value_at_eps_star(witness):
    # Each numeric row grows with ε and meets its quantum bound at ε*: a
    # budget beyond ε* holds that tilt, so no smaller bound is sound there.
    family, n = NUMERIC_ROWS[witness]
    values = [family_bounds(family, n, eps)["biseparable"].value
              for eps in np.linspace(0.0, EPS_STAR, 41)]
    assert min(np.diff(values)) >= 0.0
    top = family_bounds(family, n, EPS_STAR)
    assert top["biseparable"].value == pytest.approx(top["quantum"].value, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NUMERIC_ROWS)), st.floats(0.0, EPS_STAR))
@example("d3", 0.0)
def test_family_bounds_is_the_one_bound_path(witness, eps):
    family, n = NUMERIC_ROWS[witness]
    rows = family_bounds(family, n, eps)
    if family == "stabilizer":
        assert stabilizer_bisep_bound_numeric(n, eps) == rows["biseparable"]
        assert stabilizer_single_party_bound(n, eps) == rows["single_party"]
        assert stabilizer_fully_sep_bound(n, eps) == rows["fully_separable"]
    else:
        read = {"cluster": cluster_witness_bounds, "wstate": w_witness_bounds}[family]
        assert read(eps) == rows
    bisep, single = rows["biseparable"], rows["single_party"]
    assert bisep.value >= single.value
    swept = bisep.value > single.value
    assert (bisep.regime == "numeric-theta-sweep") == swept


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NUMERIC_ROWS)), st.floats(0.0, EPS_STAR))
@example("stabilizer3", EPS_STAR)
def test_closed_forms_equal_the_product_state_oracle(witness, eps):
    # The fully-separable value is the tilted witness on |χ(π/8)⟩^⊗n; the
    # stabilizer single-party form is 2^{n−2}(1 + √(1+4qs)) − 1, written out.
    family, n = NUMERIC_ROWS[witness]
    spec = ideal(witness)
    rows = family_bounds(family, n, eps)
    tilted = BUILDERS[witness](ImprecisionBudget.uniform(eps, spec.n)).matrix
    chi = chi_product_state(spec.tilt_plane, np.pi / 8, spec.n)
    assert rows["fully_separable"].value == pytest.approx(np.vdot(chi, tilted @ chi).real,
                                                          abs=1e-12)
    if family == "stabilizer":
        root = np.sqrt(1 + 4 * q_of(eps) * np.sqrt(eps * (1 - eps)))
        literal = {3: 1 + 2 * root, 4: 3 + 4 * root}[spec.n]
        assert rows["single_party"].value == pytest.approx(literal, abs=1e-12)


def test_eps_validation():
    with pytest.raises(ValueError):
        mermin_bisep_bound(4, -0.01)
    with pytest.raises(ValueError):
        stabilizer_single_party_bound(4, EPS_STAR + 0.01)
    with pytest.raises(ValueError):
        stabilizer_bisep_bound_numeric(4, EPS_STAR + 0.01)
    with pytest.raises(ValueError):
        stabilizer_fully_sep_bound(5, 0.0)


def test_partition_spec_validation():
    PartitionSpec((0,), (1, 2, 3))
    with pytest.raises(ValueError):
        PartitionSpec((0, 1), (1, 2))
    with pytest.raises(ValueError):
        PartitionSpec((), (0, 1))
    with pytest.raises(ValueError):
        PartitionSpec((0,), (2, 3))
    with pytest.raises(ValueError, match="more than once"):
        PartitionSpec((0, 0), (1,))


def test_all_bipartitions_count():
    parts = all_bipartitions(4)
    assert len(parts) == 7          # four 1|3 splits plus three 2|2 splits
    assert len(all_bipartitions(3)) == 3


def test_brute_force_mermin_1v234_tight():
    spec = mermin_witness(4)
    found = bisep_brute_force(spec, PartitionSpec((0,), (1, 2, 3)))
    assert found <= 4.0 + 1e-6
    assert found >= 4.0 - 1e-4


def test_brute_force_one_sided_against_closed_forms():
    # The see-saw lower bound never exceeds the closed-form biseparable
    # bound, across partitions and a coarse ε grid.
    for eps in np.linspace(0.0, EPS_STAR, 5):
        spec = mermin_witness(4, ImprecisionBudget.uniform(eps, 4))
        bound = mermin_bisep_bound(4, eps).value
        for part in all_bipartitions(4):
            assert bisep_brute_force(spec, part, restarts=6) <= bound + 1e-6


def test_brute_force_stabilizer_below_numeric():
    for eps in (0.0, 0.05, 0.14):
        spec = stabilizer_witness(4, ImprecisionBudget.uniform(eps, 4))
        bound = stabilizer_bisep_bound_numeric(4, eps).value
        for part in all_bipartitions(4):
            assert bisep_brute_force(spec, part, restarts=6) <= bound + 1e-6


def test_brute_force_validation():
    spec = mermin_witness(3)
    with pytest.raises(ValueError):
        bisep_brute_force(spec, PartitionSpec((0,), (1, 2, 3)))
    for budget in ({"restarts": 0}, {"iterations": 0}):
        with pytest.raises(ValueError, match="at least 1"):
            bisep_brute_force(spec, PartitionSpec((0,), (1, 2)), **budget)


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.05])
def test_brute_force_mermin5_below_closed_form(eps):
    # Five parties, all 15 bipartitions: the see-saw stays below Theorem 1's
    # bound and reaches the ideal value 2^{n−2} = 8 at ε = 0.
    spec = mermin_witness(5, ImprecisionBudget.uniform(eps, 5))
    parts = all_bipartitions(5)
    assert len(parts) == 15
    found = max(bisep_brute_force(spec, part) for part in parts)
    assert found <= mermin_bisep_bound(5, eps).value + 1e-9
    if eps == 0.0:
        assert found == pytest.approx(8.0, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SEESAW_WITNESSES)), st.sampled_from(all_bipartitions(4)),
       st.floats(0.0, EPS_STAR, exclude_min=True), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 6), st.integers(1, 30))
# At ε* the C4 operator's top level on this cut is threefold (spectrum −2, 2,
# 2, 2): the batched run ends at 6, the per-restart run at 2.
@example("c4", PartitionSpec((0, 1), (2, 3)), EPS_STAR, 20, 4, 2)
# The untilted stabilizer4, which the see-saw runs in real arithmetic.
@example("stabilizer4", PartitionSpec((0, 1), (2, 3)), 0.0, 7, 6, 30)
def test_batched_seesaw_equals_per_restart_oracle(witness, part, eps, seed, restarts,
                                                  iterations):
    spec = SEESAW_WITNESSES[witness](ImprecisionBudget.uniform(eps, 4))
    kwargs = dict(restarts=restarts, iterations=iterations, seed=seed)
    batched = bisep_brute_force(spec, part, **kwargs)
    oracle, gap = seesaw_per_restart(spec, part, **kwargs)
    if gap > SEESAW_TOP_GAP:
        assert batched == pytest.approx(oracle, abs=1e-12)
    else:
        # A degenerate top level lets rounding pick either run's vectors; both
        # are still see-saw values, never above the quantum maximum.
        quantum = np.linalg.eigvalsh(spec.matrix)[-1]
        assert max(batched, oracle) <= quantum + 1e-9


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_merging_restarts_moves_no_converged_value(name):
    # At the default budget every restart runs to its stop.  One frozen where
    # it meets an earlier restart leaves that restart to finish the shared
    # search, so the best value is the run without merging, on every cut.
    for eps in (0.0, 0.02, 0.05, 0.1, EPS_STAR):
        spec = tilted(name, eps)
        for part in all_bipartitions(spec.n):
            for seed in (42, 7):
                unmerged, _ = seesaw_per_restart(spec, part, seed=seed, merge=False)
                assert bisep_brute_force(spec, part, seed=seed) == pytest.approx(
                    unmerged, abs=1e-12), (eps, part, seed)


def test_seesaw_keeps_y_tensor_y_complex():
    # Y⊗Y is real but changes sign under the partial transpose; real product
    # states only reach 0 on it, complex ones reach 1 (both parties in |+i⟩).
    spec = WitnessSpec("mermin", 2, (), np.kron(PAULI["Y"], PAULI["Y"]))
    assert not spec.matrix.imag.any()
    assert bisep_brute_force(spec, PartitionSpec((0,), (1,))) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("witness, eps, real", [
    *[(w, eps, True) for w in ("stabilizer4", "c4") for eps in (0.0, 0.05, EPS_STAR)],
    ("mermin4", 0.0, False), ("mermin4", 0.05, False)])
def test_seesaw_runs_x_z_witnesses_in_float64(monkeypatch, witness, eps, real):
    # Every stacked eigensolve of an X–Z witness is float64 on every cut;
    # mermin4 carries σ_Y (and at ε = 0 is real through Y⊗Y pairs), so its
    # solves stay complex.
    dtypes = set()

    def recorded(a, *args, _eigh=np.linalg.eigh, **kwargs):
        dtypes.add(a.dtype)
        return _eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", recorded)
    spec = SEESAW_WITNESSES[witness](ImprecisionBudget.uniform(eps, 4))
    for part in all_bipartitions(4):
        bisep_brute_force(spec, part, restarts=4, iterations=10)
    assert dtypes == {np.dtype(np.float64 if real else np.complex128)}


@pytest.mark.parametrize("witness, real", [("stabilizer3", True), ("stabilizer4", True),
                                           ("c4", True), ("d3", False)])
def test_theta_sweep_eigensolver_dtypes(monkeypatch, witness, real):
    # The sweep's reduced operators are cast to real only when all of them
    # are: a complex X–Z stack costs time, a real D3 one drops σ_Y's part.
    dtypes = set()

    def recorded(a, *args, _eigvalsh=np.linalg.eigvalsh, **kwargs):
        dtypes.add(a.dtype)
        return _eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    for eps in (0.01, 0.05, EPS_STAR):
        family_bounds(*NUMERIC_ROWS[witness], eps)
    assert dtypes == {np.dtype(np.float64 if real else np.complex128)}


def _permuted_by_kron(matrix: np.ndarray, order) -> np.ndarray:
    """P·W·Pᵀ for the permutation matrix P that moves party order[k] to
    position k, built from basis vectors with ``np.kron``."""
    n = len(order)
    basis = np.eye(2)
    perm = np.zeros((2 ** n, 2 ** n))
    for bits in itertools.product((0, 1), repeat=n):
        old = functools.reduce(np.kron, [basis[b] for b in bits])
        new = functools.reduce(np.kron, [basis[bits[q]] for q in order])
        perm += np.outer(new, old)
    return perm @ matrix @ perm.T


def _partial_trace_by_kron(matrix: np.ndarray, da: int, db: int, keep: str) -> np.ndarray:
    """tr_A (``keep="B"``) or tr_B (``keep="A"``) of a (da·db)-square matrix,
    summed over basis vectors e_i ⊗ 𝟙 or 𝟙 ⊗ e_i built with ``np.kron``."""
    if keep == "B":
        sides = [np.kron(np.eye(da)[:, [i]], np.eye(db)) for i in range(da)]
    else:
        sides = [np.kron(np.eye(da), np.eye(db)[:, [i]]) for i in range(db)]
    return sum(side.T @ matrix @ side for side in sides)


@st.composite
def cut_cases(draw):
    """A Hermitian W on n = 2..5 qubits, either complex or a real combination
    of {I, X, Z} strings (``xz``: real and partial-transpose invariant on
    every cut), with one bipartition of its parties, either block leading."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xz = draw(st.booleans())
    if xz:
        matrix = sum(rng.normal() * functools.reduce(np.kron, [PAULI[c] for c in letters])
                     for letters in itertools.product("IXZ", repeat=n))
    else:
        g = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        matrix = g + g.conj().T
    block_a = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))))
    block_b = tuple(q for q in range(n) if q not in block_a)
    return matrix, xz, PartitionSpec(block_a, block_b), rng


@settings(max_examples=60, deadline=None)
@given(cut_cases())
def test_cut_maps_equal_kron_oracle(case):
    matrix, xz, part, rng = case
    da, db = 2 ** len(part.block_a), 2 ** len(part.block_b)
    to_a, to_b, real = _cut_maps(matrix, part)
    w_perm = _permuted_by_kron(matrix, part.block_a + part.block_b)
    # Block operators that need not be Hermitian or positive.
    x = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
    y = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
    want_b = _partial_trace_by_kron(np.kron(x, np.eye(db)) @ w_perm, da, db, keep="B")
    want_a = _partial_trace_by_kron(np.kron(np.eye(da), y) @ w_perm, da, db, keep="A")
    assert np.allclose((x.T.reshape(-1) @ to_b).reshape(db, db), want_b, rtol=0, atol=1e-10)
    assert np.allclose((y.T.reshape(-1) @ to_a).reshape(da, da), want_a, rtol=0, atol=1e-10)
    # A product vector's value through the block-B operator of |a⟩⟨a|.
    a = rng.normal(size=da) + 1j * rng.normal(size=da)
    b = rng.normal(size=db) + 1j * rng.normal(size=db)
    op_b = (np.outer(a.conj(), a).reshape(-1) @ to_b).reshape(db, db)
    ab = np.kron(a, b)
    assert np.vdot(b, op_b @ b) == pytest.approx(np.vdot(ab, w_perm @ ab), abs=1e-10)
    # A random complex W fails the exact test; every {I, X, Z} combination passes.
    assert real == xz
    if real:
        op_b = (np.outer(a.real, a.real).reshape(-1) @ to_b).reshape(db, db)
        assert op_b.dtype == np.float64
        assert np.allclose(op_b, op_b.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("witness", SWEEPS)
def test_theta_sweep_equals_minimize_scalar_oracle(witness):
    spec = ideal(witness)
    for eps in np.linspace(EPS_STAR / 20, EPS_STAR, 20):
        value, _ = _reduced_sweep(tilted(witness, eps))
        expected, _ = reduced_sweep_minimize_scalar(spec, eps)
        assert value == pytest.approx(expected, abs=1e-12), eps


@pytest.mark.parametrize("witness", sorted(NUMERIC_ROWS))
def test_swept_value_is_attained_at_the_saturating_theta(witness):
    # Party 1 in |χ(θ*)⟩, every party tilted: the top eigenvalue of the
    # reduced operator read from the full tilted matrix is the row's value.
    swept = 0
    for eps in np.linspace(EPS_STAR / 50, EPS_STAR, 50):
        bisep = family_bounds(*NUMERIC_ROWS[witness], eps)["biseparable"]
        if bisep.regime == "numeric-theta-sweep":
            swept += 1
            reduced = chi_reduced_operator(ideal(witness), eps)
            top = np.linalg.eigvalsh(reduced(bisep.saturating_theta))[-1]
            assert top == pytest.approx(bisep.value, abs=1e-12), eps
    assert swept


@pytest.mark.parametrize("witness", sorted(NUMERIC_ROWS))
def test_theta_grid_finds_the_721_point_maximum(monkeypatch, witness):
    grid = np.linspace(0.0, EPS_STAR, 41)
    values = [_reduced_sweep(tilted(witness, eps))[0] for eps in grid]
    monkeypatch.setattr(bounds, "THETA_GRID", 721)
    for eps, value in zip(grid, values):
        assert value == pytest.approx(_reduced_sweep(tilted(witness, eps))[0], abs=1e-12), eps


@pytest.mark.parametrize("eps", [0.0, *np.linspace(EPS_STAR / 10, EPS_STAR, 10)])
def test_d3_sweep_equals_the_fixed_theta_evaluation(eps):
    # The X–Y plane makes some reduced operators complex (at ε = 0 only
    # some); the sweep's maximum is the single evaluation with party 1 in
    # |χ(π/8)⟩ (Bloch azimuth π/4), where σ_X and σ_Y both average to 1/√2.
    # At ε = 0 every θ attains it: the untilted D3 is invariant
    # under joint rotations about Z.  Elsewhere Z on every party maps the
    # witness to itself and party 1's Bloch vector to its opposite, so θ and
    # θ + π/2 tie and the grid picks one (5π/8 with 181 points).  The top
    # eigenvalue is smooth at its maximum, so values equal to rounding fix θ
    # only to about √(machine ε): 1.2e-8 at worst over 40 ε in (0, ε*].
    expected = np.linalg.eigvalsh(chi_reduced_operator(ideal("d3"), eps)(np.pi / 8))[-1]
    bisep = w_witness_bounds(eps)["biseparable"]
    assert bisep.value == pytest.approx(expected, abs=1e-12)
    if eps > 0:
        offset = (bisep.saturating_theta - np.pi / 8 + np.pi / 4) % (np.pi / 2) - np.pi / 4
        assert abs(offset) <= 1e-7


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts ``np.linalg.eigh`` and ``eigvalsh`` calls (one per stacked call)
    and, as the benchmark's ``linalg.eigensolve.matrices`` does, the matrices
    they solve (the leading dimensions of each stacked input)."""
    count = [0, 0]
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            count[0] += 1
            count[1] += int(np.prod(a.shape[:-2]))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return count


@pytest.mark.parametrize("iterations", [10, 100])
def test_seesaw_makes_one_stacked_eigensolve_per_half_step(eigensolves, iterations):
    spec = stabilizer_witness(4, ImprecisionBudget.uniform(0.05, 4))
    for part in all_bipartitions(4):
        eigensolves[0] = 0
        bisep_brute_force(spec, part, iterations=iterations)
        assert 0 < eigensolves[0] <= 2 * iterations


#: Ceiling on the matrices that the see-saw eigensolves over all 7 cuts of
#: tilted stabilizer4 and mermin4 at ε = 0.02, 0.05 and 0.1 (seed 42).  Run
#: until each restart's own 1e-12 stop, with no merging, they took 15,706;
#: merging restarts that meet takes 8,424.
SEESAW_MATRICES = int(0.65 * 15706)


def test_seesaw_merging_cuts_the_eigensolved_matrices(eigensolves):
    for name in ("stabilizer4", "mermin4"):
        for eps in (0.02, 0.05, 0.1):
            spec = tilted(name, eps)
            for part in all_bipartitions(4):
                bisep_brute_force(spec, part, seed=42)
    assert eigensolves[1] <= SEESAW_MATRICES


def test_theta_sweep_row_eigensolve_count(eigensolves):
    # One 181-point grid plus seven 33-point zoom levels: 8 stacked eigvalsh
    # calls over 181 + 7·33 = 412 matrices per swept row.
    for eps in (0.01, 0.1):
        for row in (lambda: stabilizer_bisep_bound_numeric(3, eps),
                    lambda: stabilizer_bisep_bound_numeric(4, eps),
                    lambda: cluster_witness_bounds(eps),
                    lambda: w_witness_bounds(eps)):
            eigensolves[:] = [0, 0]
            row()
            assert eigensolves == [8, 412]
