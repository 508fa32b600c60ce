import pytest

from gmewit.tolerances import tol


def test_defaults():
    assert tol("hermitian") == 1e-12
    assert tol("prob_norm") == 1e-9
    assert tol("seesaw_duplicate") == 1e-6


def test_unknown_name():
    with pytest.raises(KeyError):
        tol("nope")

