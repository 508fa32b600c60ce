import pytest

from gmewit.tolerances import tol


def test_defaults():
    assert tol("hermitian") == 1e-12
    assert tol("prob_norm") == 1e-9


def test_unknown_name():
    with pytest.raises(KeyError):
        tol("nope")


def test_env_scaling(monkeypatch):
    monkeypatch.setenv("GME_LAB_TOL_SCALE", "10")
    assert tol("hermitian") == pytest.approx(1e-11)
    monkeypatch.delenv("GME_LAB_TOL_SCALE")
    assert tol("hermitian") == 1e-12
