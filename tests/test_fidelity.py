import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from gmewit import fidelity
from gmewit.fidelity import (LAMBDA_CAP, FidelityBoundQuery, _lower_bound_fixed,
                             _tilt_objective, fidelity_curve, ideal_l0, numeric_l_eps)
from gmewit.linalg import expectation
from gmewit.measurement import REFERENCE_BUDGET, ImprecisionBudget
from gmewit.states import ghz_state
from gmewit.witnesses import BUILDERS, assemble, tilt_table
import oracles
from oracles import (closed_form_l0, dual_brentq, dual_newton, ghz_fidelity, lbfgsb_l_eps,
                     nelder_mead_l_eps)

GHZ = ghz_state(4, +1)
P_GHZ = np.outer(GHZ, GHZ.conj())

#: The witnesses the ``fidelity`` command bounds.
TILTED = ["mermin4", "stabilizer4"]


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
    maps, _ = tilt_table(spec.tilt_plane, budget)(np.cos(omegas), np.sin(omegas))
    return assemble(spec.terms, maps)


_tilts = st.tuples(
    st.sampled_from(TILTED),
    st.floats(-8.0, -2.0),
    st.lists(st.floats(0.0, 2 * np.pi), min_size=8, max_size=8),
    st.floats(0.0, 1.0),
)


def test_closed_form_l0():
    # L0, the dual at zero tilt, is the closed form wherever that is ≥ 0 and
    # the trivial floor 0 below it, over the whole range of each witness.
    assert ideal_l0("mermin4", 8.0) == pytest.approx(1.0)
    assert ideal_l0("stabilizer4", 7.0) == pytest.approx(0.5)
    assert ideal_l0("stabilizer4", 1.0) == 0.0
    for witness in TILTED:
        evals = np.linalg.eigvalsh(BUILDERS[witness]().matrix)
        for w in np.linspace(evals[0], evals[-1], 401):
            assert ideal_l0(witness, w) == pytest.approx(
                max(closed_form_l0(witness, w), 0.0), abs=1e-12)


def test_ghz_fidelity():
    psi = ghz_state(4, +1)
    assert ghz_fidelity(psi) == pytest.approx(1.0)
    rho = np.outer(psi, psi.conj())
    assert ghz_fidelity(rho) == pytest.approx(1.0)
    assert ghz_fidelity(ghz_state(4, -1)) == pytest.approx(0.0, abs=1e-12)


def test_query_rejects_out_of_range_value():
    with pytest.raises(ValueError):
        FidelityBoundQuery("mermin4", 9.5, ImprecisionBudget.ideal(4))
    # No restart of the tilt search: no bound (the search's minimum is +∞).
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restart"):
            FidelityBoundQuery("mermin4", 7.4, ImprecisionBudget.uniform(0.01, 4),
                               tilt_restarts=restarts)
    # A negative seed, which numpy's generator would reject only once the
    # search starts.
    with pytest.raises(ValueError, match="seed.*-1"):
        FidelityBoundQuery("mermin4", 7.4, ImprecisionBudget.uniform(0.01, 4), seed=-1)
    # A budget for another party count than the witness's.
    for witness, w, budget in (("mermin4", 7.4, ImprecisionBudget.uniform(0.01, 3)),
                               ("mermin3", 3.0, ImprecisionBudget.uniform(0.01, 4))):
        with pytest.raises(ValueError, match="parties"):
            FidelityBoundQuery(witness, w, budget)


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
    for witness in ("mermin4", "mermin3"):
        spec = BUILDERS[witness]()
        budget = ImprecisionBudget.ideal(spec.n)
        for _ in range(20):
            v = rng.normal(size=2 ** spec.n) + 1j * rng.normal(size=2 ** spec.n)
            v /= np.linalg.norm(v)
            w = expectation(spec.matrix, v)
            bound = numeric_l_eps(FidelityBoundQuery(witness, w, budget))
            assert ghz_fidelity(v, n=spec.n) >= bound - 1e-7


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
    assert oracle - 1e-12 <= _lower_bound_fixed(mat, GHZ, w)[0] <= oracle + 1e-8


def test_exact_dual_infeasible_value_is_capped():
    # No state reaches w above λ_max(W_ε); the search stops at λ = LAMBDA_CAP
    # and returns the finite dual value there.
    mat = _tilted_witness("stabilizer4", 0.01, np.full((4, 2), 0.3))
    w = np.linalg.eigvalsh(mat)[-1] + 0.5
    at_cap = np.linalg.eigvalsh(P_GHZ - LAMBDA_CAP * mat)[0] + LAMBDA_CAP * w
    assert _lower_bound_fixed(mat, GHZ, w)[0] == pytest.approx(at_cap, abs=1e-12)


@pytest.mark.parametrize("budget", [ImprecisionBudget.ideal(4),
                                    ImprecisionBudget.uniform(1e-16, 4)])
def test_fidelity_bound_is_at_most_one_above_the_algebraic_maximum(budget):
    # A query accepts w up to 1e-9 above mermin4's maximum 8, where the
    # capped infeasible dual is 1 + 16·(w − 8); a fidelity is still at most 1.
    w = 8.0000000001
    assert ideal_l0("mermin4", w) == 1.0
    query = FidelityBoundQuery("mermin4", w, budget, tilt_restarts=1, seed=0)
    assert numeric_l_eps(query) == 1.0


def _dual_case(case, where, untilted):
    """Tilted witness matrix and observed value w of a dual test case: w
    inside the spectrum of W_ε, above λ_max (the capped case) or below λ_min."""
    witness, log_eps, omegas, t = case
    mat = _tilted_witness(witness, 0.0 if untilted else 10 ** log_eps, np.reshape(omegas, (4, 2)))
    lo, hi = np.linalg.eigvalsh(mat)[[0, -1]]
    w = {"inside": lo + (0.01 + 0.98 * t) * (hi - lo), "above": hi + 0.5, "below": lo - 0.5}[where]
    return mat, w


_DUAL_CASES = (_tilts, st.none() | st.floats(-LAMBDA_CAP, LAMBDA_CAP),
               st.sampled_from(("inside", "above", "below")), st.booleans())
#: A capped case started at or within 1e-37 of λ = 0, where the ground
#: level of P_ghz − λ·W_ε is degenerate to rounding.
_PINNED_DUAL_CASES = [(("mermin4", -2.0, [0.0] * 7 + [1.0], 0.0), start, "above", False)
                      for start in (1.1754943508222875e-38, 0.0)]


def _pin(test):
    for args in _PINNED_DUAL_CASES:
        test = example(*args)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(*_DUAL_CASES)
@_pin
def test_warm_started_dual_equals_cold_start(case, start, where, untilted):
    # The secular dual has no start; it equals the Newton search it replaced
    # (one eigensolve per λ) started cold and warm-started anywhere in
    # ±LAMBDA_CAP.  w above λ_max(W_ε) is the capped case; the untilted
    # witness (ε = 0) gives g true kinks, which the search meets from either
    # side.
    mat, w = _dual_case(case, where, untilted)
    value = _lower_bound_fixed(mat, GHZ, w)[0]
    assert value == pytest.approx(dual_newton(mat, P_GHZ, w)[0], abs=1e-12)
    assert value == pytest.approx(dual_newton(mat, P_GHZ, w, start)[0], abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(*_DUAL_CASES)
@_pin
@example(("mermin4", -7.0, [0.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0], 0.75), None, "inside", False)
def test_newton_dual_equals_brentq_oracle(case, start, where, untilted):
    # The secular dual (a safeguarded Newton search in the secular variable)
    # against the bracket-and-Brent solver, cold and warm: tilted witnesses
    # with ε in [1e-8, 1e-2], untilted ones (true kinks), w above λ_max
    # (capped at λ = LAMBDA_CAP) or below λ_min.  In the example the level
    # below the top has GHZ weight 2.8e-22, yet at the near-kink maximum of
    # g its 1.7e-11 amplitude moves g by 8e-12, to first order: that level
    # must keep its pole.
    mat, w = _dual_case(case, where, untilted)
    value = _lower_bound_fixed(mat, GHZ, w)[0]
    assert value == pytest.approx(dual_brentq(mat, P_GHZ, w), abs=1e-12)
    assert value == pytest.approx(dual_brentq(mat, P_GHZ, w, start), abs=1e-12)


def _assert_certificate(mat, w, result):
    """(value, λ*, F) certifies itself: ρ* = F·F† is a pure ground state of
    P_ghz − λ*·W_ε and value = tr((P_ghz − λ*·W_ε)·ρ*) + λ*·w = g(λ*).  The
    floor g(0) = 0 has F = 0."""
    value, lam, factor = result
    assert factor.shape == (len(mat), 1)
    rho = factor @ factor.conj().T
    if value == 0:
        assert lam == 0 and not rho.any()
        return
    lagrangian = P_GHZ - lam * mat
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert expectation(lagrangian, rho) == pytest.approx(np.linalg.eigvalsh(lagrangian)[0],
                                                         abs=1e-9)
    assert expectation(lagrangian, rho) + lam * w == pytest.approx(value, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_tilts, st.sampled_from(("inside", "above", "below")), st.booleans())
@example(("mermin4", -5.0, [0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], 0.625), "inside", False)
def test_dual_primal_optimum_attains_the_bound(case, where, untilted):
    # For w inside the spectrum ρ* is also primal feasible, tr(W_ε ρ*) = w,
    # so its GHZ fidelity is the bound, at a kink too: the envelope
    # gradient is only as good as ρ*.  The example's root lies 1.3e-7 below
    # the pole of a level of GHZ weight 2e-16, where one unit in the last
    # place of x moves tr(W_ε ρ*) by 6e-9.
    mat, w = _dual_case(case, where, untilted)
    result = _lower_bound_fixed(mat, GHZ, w)
    _assert_certificate(mat, w, result)
    value, _, factor = result
    if where == "inside" and value > 0:
        rho = factor @ factor.conj().T
        assert expectation(mat, rho) == pytest.approx(w, abs=1e-9)
        assert ghz_fidelity(rho) == pytest.approx(value, abs=1e-9)


def _spectral_case(levels, amps, seed):
    """Hermitian W with eigenvalues ``levels`` whose eigenvectors have the
    GHZ amplitudes ``amps`` (normalised here)."""
    rng = np.random.default_rng(seed)

    def unitary_from(first):            # a random unitary with this first column
        q, r = np.linalg.qr(np.column_stack(
            [first, rng.normal(size=(16, 15)) + 1j * rng.normal(size=(16, 15))]))
        q[:, 0] *= r[0, 0]
        return q

    amps = np.asarray(amps, dtype=complex) / np.linalg.norm(amps)
    basis = unitary_from(GHZ) @ unitary_from(amps).conj().T     # ⟨basisᵢ|ghz⟩ = ampsᵢ
    mat = basis @ np.diag(levels) @ basis.conj().T
    return (mat + mat.conj().T) / 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("zero-weight top", "degenerate top", "zero-weight next",
                        "split next", "integer levels", "ghz eigenvector")),
       st.integers(0, 2 ** 32 - 1), st.floats(-0.2, 1.2))
def test_dual_equals_brentq_on_degenerate_spectra(kind, seed, t):
    # The level structures a tilted witness rarely shows: the top level
    # without GHZ weight or degenerate, the next level without weight
    # (alone, or beside a weighted copy of its eigenvalue), integer
    # spectra with many degeneracies, ghz an eigenvector.  w runs from
    # below λ_min to above λ_max.  The value is the oracle's and (λ*, ρ*)
    # certify it.
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.normal(size=16) * 3)[::-1]
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    if kind == "zero-weight top":
        amps[0] = 0
    elif kind == "degenerate top":
        levels[1] = levels[0]
    elif kind == "zero-weight next":
        amps[1] = 0
    elif kind == "split next":
        levels[2], amps[1] = levels[1], 0
    elif kind == "integer levels":
        levels = np.sort(rng.integers(-4, 5, 16)).astype(float)[::-1]
    else:
        amps = np.eye(16)[rng.integers(16)]
    mat = _spectral_case(levels, amps, seed)
    w = levels[-1] + t * (levels[0] - levels[-1])
    result = _lower_bound_fixed(mat, GHZ, w)
    assert result[0] == pytest.approx(dual_brentq(mat, P_GHZ, w), abs=1e-12)
    _assert_certificate(mat, w, result)


@pytest.mark.parametrize("w", [0.991, 0.995, 0.9999])
def test_dual_equals_brentq_at_a_capped_kink(w):
    # The top level lies 0.01 above a level without GHZ weight, and S is still
    # above LAMBDA_CAP there: every λ′ ≤ LAMBDA_CAP lies on the branch
    # g = λ′·(w − 0.99) of that level's vector, so g(LAMBDA_CAP) = 16·(w − 0.99).
    levels = np.concatenate([[1.0, 0.99], np.linspace(0.5, -1.0, 14)])
    mat = _spectral_case(levels, np.concatenate([[1.0, 0.0], np.full(14, 0.3)]), 0)
    result = _lower_bound_fixed(mat, GHZ, w)
    assert result[:2] == (pytest.approx(LAMBDA_CAP * (w - 0.99), abs=1e-12), LAMBDA_CAP)
    assert result[0] == pytest.approx(dual_brentq(mat, P_GHZ, w), abs=1e-12)
    _assert_certificate(mat, w, result)


def _count_eigensolves(monkeypatch):
    """Count every numpy/scipy eigensolver call, as the benchmark tracer does,
    and keep the outer search's results; returns (calls, results)."""
    calls, results = [], []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(1) or fn(*args, **kwargs)

    def observed(fn):
        return lambda *args, **kwargs: results.append(fn(*args, **kwargs)) or results[-1]

    for owner in (np.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    monkeypatch.setattr(fidelity, "minimize", observed(fidelity.minimize))
    return calls, results


def test_tilt_evaluation_eigensolve_budget(monkeypatch):
    # Each tilt evaluation makes exactly one eigensolve the counters see (an
    # uncounted solver would slip past the benchmark tracer), the first
    # evaluation included.  The query is built first: its range check makes
    # one cached eigensolve of its own.
    query = FidelityBoundQuery("mermin4", 7.4665, REFERENCE_BUDGET, tilt_restarts=1, seed=0)
    calls, results = _count_eigensolves(monkeypatch)
    numeric_l_eps(query)
    evaluations = sum(r.nfev for r in results)
    assert 0 < evaluations == len(calls)


def test_outer_search_evaluation_budget(monkeypatch):
    # One seeded restart of the L-BFGS search converges in 17 tilt
    # evaluations and 17 eigensolves, as scipy's L-BFGS-B did (the
    # Nelder–Mead search before it made 400 and about 2700; the
    # bracket-and-Brent dual made 130 and the Newton dual 73); the ceilings
    # are twice the measured counts.  Every eigensolver the
    # fidelity layer can reach is counted, and the outer search's results
    # are observed as the benchmark tracer observes them.
    query = FidelityBoundQuery("mermin4", 7.4665, REFERENCE_BUDGET, tilt_restarts=1, seed=0)
    calls, results = _count_eigensolves(monkeypatch)
    numeric_l_eps(query)
    assert [r.success for r in results] == [True]
    assert 0 < sum(r.nfev for r in results) <= 2 * 17
    assert 0 < len(calls) <= 2 * 17


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TILTED), st.floats(-6.0, -2.0),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_envelope_gradient_matches_central_differences(witness, log_eps, tilt_seed, t):
    # ∂L/∂ω = −λ*·tr(ρ*·∂W_ε/∂ω) against central differences of L itself,
    # with w inside the spectrum and L > 0.05.  The tilts are random: at
    # special ones, such as ω = 0 on six of the eight angles, the ground
    # level at λ* is degenerate and L has a kink in ω, where the analytic
    # value is one supergradient and central differences are no derivative.
    omegas = np.random.default_rng(tilt_seed).uniform(0.0, 2 * np.pi, 8)
    budget = ImprecisionBudget.uniform(10 ** log_eps, 4)
    mat = _tilted_witness(witness, 10 ** log_eps, omegas.reshape(4, 2))
    lo, hi = np.linalg.eigvalsh(mat)[[0, -1]]
    query = FidelityBoundQuery(witness, lo + (0.6 + 0.39 * t) * (hi - lo), budget)
    objective = _tilt_objective(query)
    value, grad = objective(omegas)
    assume(value > 0.05)
    h = 1e-5
    central = np.array([(objective(omegas + h * e)[0] - objective(omegas - h * e)[0]) / (2 * h)
                        for e in np.eye(8)])
    # 1e-9 absolute: rounding in L (~1e-15) gives central differences at
    # h = 1e-5 an error of ~1e-11, which dominates where ∂L/∂ω = 0.
    assert np.linalg.norm(grad - central) <= 1e-5 * np.linalg.norm(central) + 1e-9


#: Leps-style queries (2 restarts, seed = position): the per-basis budget
#: (ε_X, ε_Y, ε_Z) at the reference budget, halfway to and at uniform 0.01,
#: plus uniform 1e-6; w is set by L0 = w/8 (Mermin) or (w − 3)/8.
_QUALITY_QUERIES = [
    ("mermin4", (6e-4, 2.3e-3, 3e-4), 0.9),
    ("mermin4", (5.3e-3, 6.15e-3, 5.15e-3), 0.8),
    ("mermin4", (0.01, 0.01, 0.01), 0.7),
    ("stabilizer4", (6e-4, 2.3e-3, 3e-4), 0.9),
    ("stabilizer4", (5.3e-3, 6.15e-3, 5.15e-3), 0.8),
    ("stabilizer4", (0.01, 0.01, 0.01), 0.7),
    ("mermin4", (1e-6, 1e-6, 1e-6), 0.8),
]


#: The Nelder–Mead values of ``_QUALITY_QUERIES``, pinned so that the
#: quality test does not rerun 7 Nelder–Mead queries.  Regenerate it only
#: for an intended change of ``oracles.nelder_mead_l_eps``:
#:
#:     PYTHONPATH=src python tests/test_fidelity.py > tests/golden_nelder_mead.json
GOLDEN_NELDER_MEAD = Path(__file__).with_name("golden_nelder_mead.json")


def _quality_query(seed, witness, eps, l0):
    w = 8.0 * l0 if witness == "mermin4" else 3.0 + 8.0 * l0
    return FidelityBoundQuery(witness, w, ImprecisionBudget.per_basis(*eps, 4),
                              tilt_restarts=2, seed=seed)


def nelder_mead_rows() -> list[dict]:
    return [{"witness": witness, "eps": list(eps), "l0": l0, "seed": seed,
             "l_eps": nelder_mead_l_eps(_quality_query(seed, witness, eps, l0))}
            for seed, (witness, eps, l0) in enumerate(_QUALITY_QUERIES)]


def test_outer_search_not_worse_than_nelder_mead():
    # Lower is the safe side.  Both searches are local, so a single query
    # may end in a different basin; on average the gradient search is lower.
    golden = json.loads(GOLDEN_NELDER_MEAD.read_text())
    assert [(r["witness"], tuple(r["eps"]), r["l0"], r["seed"]) for r in golden] == \
        [(witness, eps, l0, seed) for seed, (witness, eps, l0) in enumerate(_QUALITY_QUERIES)]
    diffs = [numeric_l_eps(_quality_query(r["seed"], r["witness"], r["eps"], r["l0"])) - r["l_eps"]
             for r in golden]
    assert max(diffs) <= 2e-3
    assert np.mean(diffs) < 0


def _leps_style_queries(count, seed):
    """``count`` seeded queries drawn as the benchmark's ``leps`` workload
    draws them: mermin4 and stabilizer4 in turn, the per-basis budget on the
    segment from the reference budget to uniform ε = 0.01, L0 in [0.6, 0.95]."""
    rng = np.random.default_rng(seed)
    for r in range(count):
        t = rng.random()
        eps = tuple(ref + t * (0.01 - ref) for ref in (6e-4, 2.3e-3, 3e-4))
        yield _quality_query(int(rng.integers(2 ** 31)), TILTED[r % 2], eps,
                             rng.uniform(0.6, 0.95))


def test_outer_search_not_worse_than_lbfgsb(monkeypatch):
    # The numpy L-BFGS against the scipy L-BFGS-B it replaced, from the same
    # seeded starts: both are local, so a query may end in another basin,
    # but never more than 2e-3 higher (the unsafe side), and all queries
    # together take no more tilt evaluations (measured 1496 against 1520; a
    # zoom that bisects instead of fitting a cubic takes 1566).
    evals = {fidelity: [], oracles: []}

    def counted(search, counts):
        return lambda *args, **kwargs: counts.append(search(*args, **kwargs)) or counts[-1]

    for module, counts in evals.items():
        monkeypatch.setattr(module, "minimize", counted(module.minimize, counts))
    queries = [_quality_query(seed, *q) for seed, q in enumerate(_QUALITY_QUERIES)]
    queries += _leps_style_queries(40, seed=15)
    diffs = [numeric_l_eps(q) - lbfgsb_l_eps(q) for q in queries]
    assert max(diffs) <= 2e-3
    assert sum(r.nfev for r in evals[fidelity]) <= sum(r.nfev for r in evals[oracles])


def _rosenbrock(x):
    f = np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)
    g = np.zeros_like(x)
    g[:-1] = -400 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2 * (1 - x[:-1])
    g[1:] += 200 * (x[1:] - x[:-1] ** 2)
    return f, g


def _quadratic(seed):
    """½xᵀAx − bᵀx with condition number 100 in 8 dimensions, and its minimizer."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    a = q @ np.diag(np.geomspace(1, 100, 8)) @ q.T
    b = rng.normal(size=8)
    return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)), np.linalg.solve(a, b)


@pytest.mark.parametrize("seed", range(3))
def test_outer_search_converges_on_smooth_functions(seed):
    fun, x_min = _quadratic(seed)
    res = fidelity.minimize(fun, np.zeros(8))
    assert res.success and res.fun - fun(x_min)[0] <= 1e-7
    assert np.abs(res.x - x_min).max() <= 1e-3
    x0 = np.random.default_rng(seed).uniform(-2, 2, 8)
    res = fidelity.minimize(_rosenbrock, x0)
    assert res.success and res.fun <= 1e-8
    assert np.abs(res.x - 1).max() <= 1e-3


def test_outer_search_out_of_evaluations_is_unsuccessful(monkeypatch):
    # f = −x has no minimum: the line search grows its step for all its 20
    # evaluations without meeting the curvature condition.
    res = fidelity.minimize(lambda x: (-x[0], np.array([-1.0])), np.zeros(1))
    assert not res.success and res.nfev == 1 + 20 and res.fun == 0
    # Rosenbrock needs more than 30 evaluations: the last line search gets
    # only what is left of the budget.
    monkeypatch.setattr(fidelity, "_MAX_EVALS", 30)
    res = fidelity.minimize(_rosenbrock, np.full(8, -1.5))
    assert not res.success and res.nfev == 30 and res.fun == _rosenbrock(res.x)[0]


def test_every_accepted_step_meets_the_strong_wolfe_conditions(monkeypatch):
    # On L_ε searches and on Rosenbrock; some accepted steps are the first
    # trial, others come from the cubic extrapolation or zoom.
    line_search, checked = fidelity._wolfe_step, []

    def observed(fun, x, f, g, d, alpha, budget):
        step, used = line_search(fun, x, f, g, d, alpha, budget)
        if step is not None:
            x_new, f_new, g_new = step
            t = (x_new - x) @ d / (d @ d)
            checked.append((abs(t - alpha) <= 1e-12 * alpha,
                            f_new <= f + fidelity._C1 * t * (g @ d) + 1e-15 * abs(f),
                            abs(g_new @ d) <= fidelity._C2 * abs(g @ d)))
        return step, used

    monkeypatch.setattr(fidelity, "_wolfe_step", observed)
    for query in _leps_style_queries(6, seed=16):
        numeric_l_eps(query)
    fidelity.minimize(_rosenbrock, np.full(8, -1.5))
    # f = −x + ax² + bx³ meets the curvature condition at the first trial
    # x = 1 but falls there only by δ < c1: that trial is rejected.
    delta = 1e-5
    a, b = 2 - 3 * delta, 2 * delta - 1
    fidelity.minimize(lambda x: (-x[0] + a * x[0] ** 2 + b * x[0] ** 3,
                                 -1 + 2 * a * x + 3 * b * x ** 2), np.zeros(1))
    first_trial, decrease, curvature = zip(*checked)
    assert all(decrease) and all(curvature)
    assert any(first_trial) and not all(first_trial)


def test_search_result_is_the_value_at_its_point():
    # The fields the benchmark tracer and ``_count_eigensolves`` read.
    query = FidelityBoundQuery("stabilizer4", 10.5168, REFERENCE_BUDGET)
    objective = _tilt_objective(query)
    res = fidelity.minimize(objective, np.random.default_rng(3).uniform(0, 2 * np.pi, 8))
    assert res.success and 0 < res.nfev <= 360
    assert res.fun == objective(res.x)[0]


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
    assert ghz_fidelity(v) >= _lower_bound_fixed(mat, GHZ, expectation(mat, v))[0] - 1e-10


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


def test_fidelity_curve_shape():
    budget = ImprecisionBudget.ideal(4)
    rows = fidelity_curve("mermin4", budget, [0.8, 0.9], tilt_restarts=1, seed=0)
    assert [r["w_fraction"] for r in rows] == [0.8, 0.9]
    for r in rows:
        assert r["L_eps"] == pytest.approx(r["L0"], abs=1e-9)


if __name__ == "__main__":
    print(json.dumps(nelder_mead_rows(), indent=1))
