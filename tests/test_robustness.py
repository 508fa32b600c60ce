import numpy as np
import pytest

from gmewit.bounds import mermin_bisep_bound, stabilizer_bisep_bound_numeric
from gmewit.robustness import (DEFAULT_I43_BISEP_BOUND, I43_QUANTUM, ThresholdQuery,
                               best_case_threshold_closed_form, di_thresholds,
                               i43_ghz_value, max_i43, noisy_witness_value,
                               normalize_witness_value, robustness_sweep,
                               threshold_visibility, worst_case_thresholds)


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
        numeric = threshold_visibility(
            ThresholdQuery(witness, 0.0, kind, "best-case-exact", bound))
        assert numeric == pytest.approx(closed, abs=1e-12)


def test_white_noise_thresholds_are_exact():
    # The GHZ projector is normalized by its trace, so the full-visibility
    # witness values are exactly 8 and 11 and the crossings exactly 1/2, 7/11.
    assert noisy_witness_value("mermin4", "depolarizing", 1.0) == 8.0
    assert noisy_witness_value("stabilizer4", "depolarizing", 1.0) == 11.0
    white_m = threshold_visibility(ThresholdQuery(
        "mermin4", 0.0, "depolarizing", "best-case-exact", mermin_bisep_bound(4, 0.0)))
    white_s = threshold_visibility(ThresholdQuery(
        "stabilizer4", 0.0, "depolarizing", "best-case-exact",
        stabilizer_bisep_bound_numeric(4, 0.0)))
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
        threshold_visibility(ThresholdQuery(
            "mermin4", 0.0, "depolarizing", "best-case-exact", 100.0))


def test_max_i43():
    value, phis = max_i43(restarts=20, seed=0)
    assert value == pytest.approx(I43_QUANTUM, abs=1e-12)
    assert phis.shape == (4, 3)
    # Affinity in the visibility.
    assert i43_ghz_value(phis, 0.5) == pytest.approx(0.0, abs=1e-9)


def test_di_thresholds():
    assert di_thresholds(2) == pytest.approx((8 + 2 ** 2.5) / 16)
    p3 = di_thresholds(3, bisep_bound_i43=DEFAULT_I43_BISEP_BOUND)
    assert p3 == pytest.approx(0.834, abs=5e-4)
    with pytest.raises(ValueError):
        di_thresholds(4)
    with pytest.raises(ValueError):
        di_thresholds(3)
    with pytest.raises(ValueError):
        di_thresholds(3, bisep_bound_i43=100.0)


def test_normalize_witness_value():
    assert normalize_witness_value(4.0, 4.0, 8.0) == pytest.approx(0.0)
    assert normalize_witness_value(8.0, 4.0, 8.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize_witness_value(5.0, 8.0, 4.0)


def test_robustness_sweep_flags():
    rows = robustness_sweep("mermin4", 0.0, "depolarizing", [0.4, 0.6, 1.0])
    assert [r["violation_flag"] for r in rows] == [0, 1, 1]
    assert rows[-1]["witness_value"] == pytest.approx(8.0, abs=1e-9)
    assert rows[-1]["normalized_value"] == pytest.approx(1.0, abs=1e-9)
