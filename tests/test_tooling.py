"""The benchmark reads gmewit names by string; each must still resolve."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("gmewit_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in TRACER.SPANS + TRACER.OBSERVERS + TRACER.LEAVES])
def test_tracer_targets_resolve(module, attr):
    _, _, target = TRACER._resolve(module, attr)
    assert callable(target)


@pytest.mark.parametrize("name", ["restarts", "iterations"])
def test_seesaw_budget_defaults_stay_integers(name):
    # benchmarks/layers.py reads these defaults to size the see-saw's
    # iteration budget in traced bounds runs.
    from gmewit.bounds import bisep_brute_force
    default = inspect.signature(bisep_brute_force).parameters[name].default
    assert isinstance(default, int) and not isinstance(default, bool)
