import numpy as np
import pytest

from gmewit.bounds import family_bounds, mermin_bisep_bound, stabilizer_bisep_bound_numeric
from gmewit.robustness import (DEFAULT_I43_BISEP_BOUND, I43_QUANTUM,
                               di_thresholds, max_i43,
                               noisy_witness_value, normalize_witness_value,
                               robustness_sweep, threshold_visibility)
from gmewit.witnesses import ideal
from oracles import (best_case_threshold_closed_form, compass_max_i43, i43_ghz_value,
                     worst_case_thresholds)


def bisep_and_quantum(witness: str, eps: float) -> tuple[float, float]:
    """The biseparable and quantum values of the witness's ``family_bounds`` row."""
    spec = ideal(witness)
    row = family_bounds(spec.family, spec.n, eps)
    return row["biseparable"].value, row["quantum"].value


def test_noisy_witness_affine_in_p():
    for witness in ("mermin4", "stabilizer4"):
        for kind in ("depolarizing", "dephasing"):
            v0 = noisy_witness_value(witness, kind, 0.0)
            v1 = noisy_witness_value(witness, kind, 1.0)
            for p in (0.25, 0.6, 0.9):
                direct = noisy_witness_value(witness, kind, p)
                assert direct == pytest.approx(v0 + p * (v1 - v0), abs=1e-12)


def test_best_case_closed_forms_match_bisection():
    cases = [
        ("mermin4", "depolarizing", mermin_bisep_bound(4, 0.0).value),
        ("mermin4", "dephasing", mermin_bisep_bound(4, 0.0).value),
        ("stabilizer4", "depolarizing", stabilizer_bisep_bound_numeric(4, 0.0).value),
        ("stabilizer4", "dephasing", stabilizer_bisep_bound_numeric(4, 0.0).value),
    ]
    for witness, kind, bound in cases:
        closed = best_case_threshold_closed_form(witness, kind, bound)
        numeric = threshold_visibility(witness, kind, bound)
        assert numeric == pytest.approx(closed, abs=1e-12)


def test_white_noise_thresholds_are_exact():
    # The GHZ projector is normalized by its trace, so the full-visibility
    # witness values are exactly 8 and 11 and the crossings exactly 1/2, 7/11.
    assert noisy_witness_value("mermin4", "depolarizing", 1.0) == 8.0
    assert noisy_witness_value("stabilizer4", "depolarizing", 1.0) == 11.0
    white_m = threshold_visibility("mermin4", "depolarizing", mermin_bisep_bound(4, 0.0).value)
    white_s = threshold_visibility("stabilizer4", "depolarizing",
                                   stabilizer_bisep_bound_numeric(4, 0.0).value)
    assert white_m == 0.5
    assert white_s == 7 / 11


def test_best_case_reference_thresholds():
    assert best_case_threshold_closed_form(
        "mermin4", "depolarizing", 4.0) == pytest.approx(0.5)
    assert best_case_threshold_closed_form(
        "stabilizer4", "depolarizing", 7.0) == pytest.approx(7 / 11)
    assert best_case_threshold_closed_form(
        "mermin4", "dephasing", 4.0) == pytest.approx(0.75)
    assert best_case_threshold_closed_form(
        "stabilizer4", "dephasing", 7.0) == pytest.approx(0.5)


def test_worst_case_closed_form_agrees_with_oracle():
    for witness in ("mermin4", "stabilizer4"):
        for kind in ("depolarizing", "dephasing"):
            for eps in (0.0025, 0.01):
                res = worst_case_thresholds(witness, eps, kind)
                assert res["agrees"], (witness, kind, eps, res)
                assert res["closed_form"] == pytest.approx(res["oracle"], abs=1e-6)


def test_worst_case_threshold_above_best_case():
    for witness, bound0 in (("mermin4", mermin_bisep_bound(4, 0.005).value),
                            ("stabilizer4", stabilizer_bisep_bound_numeric(4, 0.005).value)):
        for kind in ("depolarizing", "dephasing"):
            best = best_case_threshold_closed_form(witness, kind, bound0)
            worst = worst_case_thresholds(witness, 0.005, kind, bound=bound0)
            assert worst["closed_form"] >= best - 1e-9


def test_threshold_visibility_no_crossing():
    with pytest.raises(ValueError):
        threshold_visibility("mermin4", "depolarizing", 100.0)


@pytest.mark.parametrize("eps", [0.1, 0.2])
def test_no_threshold_for_a_falling_witness_line(eps):
    # Tilted at this ε, the Mermin witness reads +v at p = 0 and −v at p = 1
    # under dephasing, so it detects only *below* its crossing with the bound:
    # no visibility above which it detects exists, and none is printed.
    v0 = noisy_witness_value("mermin4", "dephasing", 0.0, "worst-case-tilted", eps)
    v1 = noisy_witness_value("mermin4", "dephasing", 1.0, "worst-case-tilted", eps)
    bound = mermin_bisep_bound(4, eps).value
    assert v1 == pytest.approx(-v0) and v1 < bound < v0
    with pytest.raises(ValueError, match="the value does not rise with p"):
        threshold_visibility("mermin4", "dephasing", bound, "worst-case-tilted", eps)


@pytest.mark.parametrize("case", ["best-case", "worst-case", ""])
def test_unknown_measurement_case_is_rejected(case):
    with pytest.raises(ValueError, match="unknown measurement case"):
        noisy_witness_value("mermin4", "depolarizing", 0.9, case, 0.01)
    with pytest.raises(ValueError, match="unknown measurement case"):
        robustness_sweep("mermin4", "depolarizing", [0.9], *bisep_and_quantum("mermin4", 0.01),
                         case, 0.01)


def test_max_i43():
    value, phis = max_i43()
    assert value == float(I43_QUANTUM)
    assert phis.shape == (4, 3)
    # The sign-table oracle reads 27√3 at the closed form's settings.
    assert abs(i43_ghz_value(phis) - I43_QUANTUM) <= 1e-12
    # The compass search finds the closed form's value and never beats it.
    searched, _ = compass_max_i43(restarts=20, seed=0)
    assert abs(searched - I43_QUANTUM) <= 1e-9
    assert searched <= I43_QUANTUM + 1e-12
    # Affinity in the visibility.
    assert i43_ghz_value(phis, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_di_thresholds():
    assert di_thresholds(2) == (8 + 2 ** 2.5) / 16
    p3 = di_thresholds(3, bisep_bound_i43=DEFAULT_I43_BISEP_BOUND)
    assert p3 == pytest.approx(0.834, abs=5e-4)
    with pytest.raises(ValueError):
        di_thresholds(4)
    with pytest.raises(ValueError):
        di_thresholds(3)
    for bound in (float("nan"), -100.0, 100.0):
        with pytest.raises(ValueError, match="never crosses the bound"):
            di_thresholds(3, bisep_bound_i43=bound)


def test_normalize_witness_value():
    assert normalize_witness_value(4.0, 4.0, 8.0) == pytest.approx(0.0)
    assert normalize_witness_value(8.0, 4.0, 8.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize_witness_value(5.0, 8.0, 4.0)


def test_robustness_sweep_flags():
    rows = robustness_sweep("mermin4", "depolarizing", [0.4, 0.6, 1.0], 4.0, 8.0)
    assert [r["violation_flag"] for r in rows] == [0, 1, 1]
    assert rows[-1]["witness_value"] == pytest.approx(8.0, abs=1e-9)
    assert rows[-1]["normalized_value"] == pytest.approx(1.0, abs=1e-9)
    # Every row read off the line equals a direct trace on the noisy state.
    grid = np.linspace(0.0, 1.0, 9)
    for witness in ("mermin4", "stabilizer4"):
        for kind in ("depolarizing", "dephasing"):
            for case in ("best-case-exact", "worst-case-tilted"):
                bound, quantum = bisep_and_quantum(witness, 0.01)
                rows = robustness_sweep(witness, kind, grid, bound, quantum, case, 0.01)
                for p, row in zip(grid, rows):
                    direct = noisy_witness_value(witness, kind, p, case, 0.01)
                    assert abs(row["witness_value"] - direct) <= 1e-12
                    assert row["bound"] == bound
                    assert row["violation_flag"] == int(direct > bound)


def test_sweep_rejects_a_visibility_outside_the_unit_interval():
    with pytest.raises(ValueError, match="visibility p must lie in"):
        robustness_sweep("mermin4", "depolarizing", [0.5, 1.5], 4.0, 8.0)
