import collections
import dataclasses
import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmewit import fixture_path
from gmewit.bounds import cluster_witness_bounds, stabilizer_bisep_bound_numeric
from gmewit.linalg import PAULI, expectation
from gmewit.measurement import ImprecisionBudget
from gmewit.robustness import noisy_witness_value, threshold_visibility
from gmewit.states import NoiseModel, apply_noise, cluster_state_4, ghz_state, w_state
from gmewit.witnesses import (BUILDERS, LETTERS, CorrelatorRecord, WitnessSpec, assemble,
                              cluster_witness_c4, contract, eval_from_correlators, expand,
                              ideal, inm_value, letter_map_gradients, load_correlator_fixture,
                              mermin_terms, mermin_witness, pauli_expectations,
                              stabilizer_terms, stabilizer_witness, w_witness_d3)
from oracles import born_probabilities, i43_ghz_value, mermin_recursive, pauli_string, tilted_kron


def test_mermin_terms_structure():
    for n in (3, 4, 5):
        terms = mermin_terms(n)
        assert len(terms) == 2 ** (n - 1)
        for sign, letters in terms:
            y = letters.count("Y")
            assert y % 2 == 0
            assert sign == (-1) ** (y // 2)
            assert set(letters) <= {"X", "Y"}


def test_mermin_ghz_value():
    for n in (3, 4, 5, 6):
        spec = mermin_witness(n)
        assert expectation(spec.matrix, ghz_state(n, +1)) == pytest.approx(
            2 ** (n - 1), abs=1e-9)


def test_mermin_recursion_matches_assembly():
    for n in (2, 3, 4, 5, 6):
        pairs = [(PAULI["X"], PAULI["Y"])] * n
        m, _ = mermin_recursive(n, pairs)
        if n >= 2:
            direct = sum(s * pauli_string(letters) for s, letters in mermin_terms(n))
            assert np.max(np.abs(m - direct)) <= 1e-12


def test_mermin_split_identity():
    # M4 = M2⊗M2 − N2⊗N2 for any observables.
    rng = np.random.default_rng(3)

    def rand_obs():
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        return v[0] * PAULI["X"] + v[1] * PAULI["Y"] + v[2] * PAULI["Z"]

    pairs = [(rand_obs(), rand_obs()) for _ in range(4)]
    m4, _ = mermin_recursive(4, pairs)
    m2a, n2a = mermin_recursive(2, pairs[:2])
    m2b, n2b = mermin_recursive(2, pairs[2:])
    split = np.kron(m2a, m2b) - np.kron(n2a, n2b)
    assert np.max(np.abs(m4 - split)) <= 1e-12


def test_mermin_recursive_validation():
    with pytest.raises(ValueError):
        mermin_recursive(3, [(PAULI["X"], PAULI["Y"])] * 2)
    with pytest.raises(ValueError):
        mermin_recursive(1, [(2 * PAULI["X"], PAULI["Y"])])


def test_stabilizer_terms_and_ghz_value():
    for n in (3, 4):
        terms = stabilizer_terms(n)
        assert len(terms) == 2 ** (n - 1)
        spec = stabilizer_witness(n)
        assert expectation(spec.matrix, ghz_state(n, +1)) == pytest.approx(
            3 * 2 ** (n - 2) - 1, abs=1e-9)


def test_stabilizer4_z_strings():
    letters = {t[1] for t in stabilizer_terms(4)}
    assert letters == {"XXXX", "ZZII", "IZZI", "IIZZ", "ZIZI", "IZIZ", "ZIIZ", "ZZZZ"}


def test_a_witness_is_its_terms():
    # No field besides the terms states a constant, and no builder needs one.
    assert [f.name for f in dataclasses.fields(WitnessSpec)] == ["family", "n", "terms", "matrix"]
    for name in BUILDERS:
        assert all(set(letters) != {"I"} for _, letters in ideal(name).terms), name


def test_w_and_cluster_witness_target_values():
    assert expectation(w_witness_d3().matrix, w_state()) == pytest.approx(4.0, abs=1e-10)
    assert expectation(cluster_witness_c4().matrix, cluster_state_4()) == pytest.approx(
        6.0, abs=1e-10)


def test_tilted_witness_ideal_limit():
    for name, builder in BUILDERS.items():
        ideal = builder()
        zero = builder(ImprecisionBudget.ideal(ideal.n))
        assert np.max(np.abs(ideal.matrix - zero.matrix)) <= 1e-12


def test_tilted_witness_is_hermitian():
    budget = ImprecisionBudget.uniform(0.03, 4)
    spec = stabilizer_witness(4, budget)
    assert np.max(np.abs(spec.matrix - spec.matrix.conj().T)) <= 1e-12


def test_correlator_record_validation():
    with pytest.raises(ValueError):
        CorrelatorRecord("XXXX", 1.5, 0.01)
    with pytest.raises(ValueError):
        CorrelatorRecord("XXXX", 0.5, -0.01)
    CorrelatorRecord("XXXX", 1.01, 0.01)  # within 3σ of the physical range
    # json reads NaN and Infinity; neither may pass the physical-range check.
    for value, std in ((np.nan, 0.01), (0.5, np.inf), (-np.inf, 0.01), (0.5, np.nan)):
        with pytest.raises(ValueError, match="value and std must be finite"):
            CorrelatorRecord("XXXX", value, std)


def test_eval_from_correlators_born_consistency():
    # Records built from exact GHZ correlators reproduce the matrix
    # expectation, also of a witness with a constant (all-identity) term,
    # which needs no record.
    spec = stabilizer_witness(4)
    shifted = WitnessSpec(spec.family, 4, spec.terms + ((-1.0, "IIII"),),
                          spec.matrix - np.eye(16))
    psi = ghz_state(4, +1)
    records = [CorrelatorRecord(letters, expectation(pauli_string(letters), psi), 0.0)
               for _, letters in spec.terms]
    for witness in (spec, shifted):
        value, std = eval_from_correlators(witness, records)
        assert value == pytest.approx(expectation(witness.matrix, psi), abs=1e-9)
        assert std == 0.0


def test_eval_from_correlators_errors():
    spec = mermin_witness(3)
    records = [CorrelatorRecord(letters, 0.9, 0.01) for _, letters in spec.terms]
    with pytest.raises(ValueError):
        eval_from_correlators(spec, records[:-1])
    with pytest.raises(ValueError):
        eval_from_correlators(spec, records + [records[0]])


def test_fixture_evaluation():
    name, records = load_correlator_fixture(fixture_path("fig4_mermin.json"))
    value, std = eval_from_correlators(BUILDERS[name](), records)
    assert value == pytest.approx(7.4664, abs=1e-4)
    assert std == pytest.approx(0.0204, abs=1e-3)
    name, records = load_correlator_fixture(fixture_path("fig4_stabilizer.json"))
    value, std = eval_from_correlators(BUILDERS[name](), records)
    assert value == pytest.approx(10.5168, abs=1e-4)
    assert std == pytest.approx(0.0412, abs=1e-3)


def inm_enumerated(n: int, m: int, table: np.ndarray) -> float:
    """I_nm by direct enumeration over all (s⃗, r⃗), one term at a time."""
    total = 0.0
    for svec in itertools.product(range(m), repeat=n):
        s = sum(svec)
        if s % m == 0:
            sign = (-1) ** (s // m)
        elif s % m == 1:
            sign = (-1) ** ((s - 1) // m)
        else:
            continue
        for rvec in itertools.product(range(2), repeat=n):
            total += sign * (-1) ** sum(rvec) * table[svec + rvec]
    return total


def test_inm_deterministic_strategy():
    # All-outputs-0 strategy: every correlator is +1; compare against a direct
    # enumeration oracle over all (s, r).
    n, m = 4, 2
    table = np.zeros((m,) * n + (2,) * n)
    table[..., 0, 0, 0, 0] = 1.0
    value = inm_value(n, m, table)
    assert value == pytest.approx(inm_enumerated(n, m, table), abs=1e-12)
    assert value == pytest.approx(-4.0, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([(1, 2), (2, 3), (3, 2), (4, 2), (4, 3)]), st.integers(0, 2 ** 32 - 1))
def test_inm_value_equals_enumeration(nm, seed):
    # Random normalized tables: the sign-table contraction is the term-by-term sum.
    n, m = nm
    table = np.random.default_rng(seed).random((m ** n, 2 ** n))
    table = (table / table.sum(axis=1, keepdims=True)).reshape((m,) * n + (2,) * n)
    assert inm_value(n, m, table) == pytest.approx(inm_enumerated(n, m, table), abs=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.floats(0.0, 2 * np.pi), min_size=12, max_size=12), st.floats(0.0, 1.0))
def test_i43_ghz_value_equals_the_table_path(phis, p):
    # The closed-form GHZ correlators (2p−1)·cos(Σφ_j) and the Born-rule table
    # of the dephased GHZ state meet in the one I_nm sign table.
    phis = np.reshape(phis, (4, 3))
    settings_ = [[np.cos(phi) * PAULI["X"] + np.sin(phi) * PAULI["Y"] for phi in party]
                 for party in phis]
    rho = apply_noise(ghz_state(4, +1), NoiseModel("dephasing", p))
    table = born_probabilities(rho, settings_)
    assert i43_ghz_value(phis, p) == pytest.approx(inm_value(4, 3, table), abs=1e-10)


def test_inm_i42_matches_mermin_on_ghz():
    settings = [[PAULI["X"], PAULI["Y"]]] * 4
    table = born_probabilities(ghz_state(4, +1), settings)
    assert inm_value(4, 2, table) == pytest.approx(8.0, abs=1e-9)


def test_inm_validation():
    with pytest.raises(ValueError):
        inm_value(2, 2, np.zeros((2, 2, 2)))       # wrong shape
    for n, m in ((0, 2), (1, 0), (1, 1)):          # no parties, or fewer than two settings
        with pytest.raises(ValueError, match="n must be at least 1 and m at least 2"):
            inm_value(n, m, np.ones(1))
    bad = np.full((2, 2, 2, 2), 0.3)               # not normalized
    with pytest.raises(ValueError):
        inm_value(2, 2, bad)
    for entry in (np.nan, np.inf, -0.1):           # normalized, but not a probability
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0, 0, :2] = entry, 0.5 - entry
        with pytest.raises(ValueError, match="finite and non-negative"):
            inm_value(2, 2, table)


# ---------------------------------------------------------------------------
# Properties of the letter-map builder
# ---------------------------------------------------------------------------

unit_vectors = (st.tuples(*[st.floats(-1, 1)] * 3)
                .map(np.array)
                .filter(lambda v: np.linalg.norm(v) > 0.1)
                .map(lambda v: v / np.linalg.norm(v)))


def as_maps(table):
    """(n, 4, 4) letter maps from per-party letter → Bloch vector dicts: the
    identity, except that a letter in the dict has row (0, v)."""
    maps = np.tile(np.eye(4), (len(table), 1, 1))
    for j, row in enumerate(table):
        for letter, v in row.items():
            maps[j, LETTERS.index(letter)] = (0.0, *v)
    return maps


def letter_maps(n):
    return st.lists(st.dictionaries(st.sampled_from("XYZ"), unit_vectors),
                    min_size=n, max_size=n).map(as_maps)


def term_lists(n):
    return st.lists(st.tuples(st.floats(-4, 4), st.text("IXYZ", min_size=n, max_size=n)),
                    max_size=6)


def explicit_2x2(letter_map, letter):
    row = letter_map[LETTERS.index(letter)]
    return sum(c * PAULI[b] for c, b in zip(row, LETTERS))


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(letter_maps))
def test_assembled_single_party_observables_have_spectrum_pm1(maps):
    for letter_map in maps:
        for letter in "XYZ":
            evals = np.linalg.eigvalsh(assemble([(1.0, letter)], letter_map[None]))
            assert np.allclose(evals, [-1.0, 1.0], atol=1e-12)


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(letter_maps(n), term_lists(n), st.floats(-4, 4))))
def test_assemble_equals_explicit_kron_sum(case):
    # A constant is the all-identity term, which every letter map keeps.
    maps, terms, constant = case
    terms = [(constant, "I" * len(maps))] + terms
    expected = np.zeros((2 ** len(maps), 2 ** len(maps)), dtype=complex)
    for coeff, letters in terms:
        expected = expected + coeff * reduce(
            np.kron, [explicit_2x2(m, c) for m, c in zip(maps, letters)])
    assert np.allclose(assemble(terms, maps), expected, rtol=0, atol=1e-12)


def budgets(n):
    """Per-party (ε_X, ε_Y, ε_Z) budgets of n parties."""
    eps = st.floats(0.0, 0.5)
    return st.tuples(*[st.tuples(eps, eps, eps)] * n).map(ImprecisionBudget)


@settings(deadline=None)
@given(st.sampled_from(sorted(BUILDERS)).flatmap(
    lambda name: st.tuples(st.just(name), budgets(ideal(name).n))))
def test_family_tilts_equal_kron_oracle(case):
    # Every plane letter is tilted toward its in-plane partner by its party's ε.
    name, budget = case
    got = BUILDERS[name](budget).matrix
    assert np.allclose(got, tilted_kron(ideal(name), budget), rtol=0, atol=1e-12)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_letter_map_gradients_are_the_adjoint_of_expand(n, rank, seed):
    # tr(ρ·W) is linear in each party's letter map, so contracting party
    # j's gradient with its own map gives tr(ρ·W) back, for every j.
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(4,) * n)
    maps = rng.normal(size=(n, 4, 4))
    factor = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
    stages = contract(coeffs, maps)
    value = np.trace(factor.conj().T @ expand(stages[-1]) @ factor).real
    grads = letter_map_gradients(stages, maps, pauli_expectations(factor, n))
    assert np.allclose(np.einsum("jab,jab->j", grads, maps), value, rtol=1e-12, atol=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_letter_map_gradient_entries_match_unit_map_expansions(n, seed):
    # Entry (j, a, b) is tr(ρ·W) with party j's letter map replaced by the
    # unit matrix e_a·e_bᵀ, evaluated here through ``expand`` alone.
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(4,) * n)
    maps = rng.normal(size=(n, 4, 4))
    factor = rng.normal(size=(2 ** n, 2)) + 1j * rng.normal(size=(2 ** n, 2))
    grads = letter_map_gradients(contract(coeffs, maps), maps, pauli_expectations(factor, n))
    for j, a, b in itertools.product(range(n), range(4), range(4)):
        unit = maps.copy()
        unit[j] = 0.0
        unit[j, a, b] = 1.0
        want = np.trace(factor.conj().T @ expand(contract(coeffs, unit)[-1]) @ factor).real
        assert grads[j, a, b] == pytest.approx(want, rel=1e-10, abs=1e-9)


def test_assemble_makes_no_kron_calls_after_first_build(monkeypatch):
    # The Pauli tables are built once per size; a witness matrix is then a
    # tensor contraction, without a Kronecker product.
    budgets = {name: ImprecisionBudget.uniform(0.01, ideal(name).n) for name in BUILDERS}
    for name, build in BUILDERS.items():
        build(budgets[name])
    calls = []
    kron = np.kron
    monkeypatch.setattr(np, "kron", lambda *args: calls.append(1) or kron(*args))
    for name, build in BUILDERS.items():
        build(budgets[name])
    assert calls == []


@pytest.mark.parametrize("name, n", [("stabilizer3", 4), ("stabilizer4", 3),
                                     ("mermin4", 5), ("d3", 2), ("c4", 3)])
def test_budget_of_another_party_count_is_rejected(name, n):
    # More parties would silently tilt by the first ones' ε, fewer would fail
    # on an index: both are a one-line error that names both counts.
    message = f"the budget has {n} parties, {name} has {ideal(name).n}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        BUILDERS[name](ImprecisionBudget.uniform(0.01, n))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_ideal_is_one_read_only_record(name):
    spec = ideal(name)
    assert ideal(name) is spec
    np.testing.assert_array_equal(spec.matrix, BUILDERS[name]().matrix)
    with pytest.raises(ValueError):
        spec.matrix[0, 0] = 1.0


def test_ideal_builds_each_witness_once(monkeypatch):
    builds = collections.Counter()
    for name, build in list(BUILDERS.items()):
        def counted(budget=None, _name=name, _build=build):
            builds[_name, budget is None] += 1
            return _build(budget)
        monkeypatch.setitem(BUILDERS, name, counted)
    ideal.cache_clear()
    try:
        for _ in range(3):
            cluster_witness_bounds(0.05)
            for n in (3, 4):
                stabilizer_bisep_bound_numeric(n, 0.05)
            noisy_witness_value("mermin4", "dephasing", 0.9)
            noisy_witness_value("stabilizer4", "depolarizing", 0.9, "worst-case-tilted", 0.01)
            threshold_visibility("stabilizer4", "depolarizing", 7.0)
        # Each swept row also builds its tilted witness, once, through ``BUILDERS``.
        assert builds == {("c4", True): 1, ("stabilizer3", True): 1,
                          ("stabilizer4", True): 1, ("mermin4", True): 1,
                          ("c4", False): 3, ("stabilizer3", False): 3, ("stabilizer4", False): 3}
    finally:
        ideal.cache_clear()
