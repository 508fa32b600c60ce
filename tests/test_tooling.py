"""The benchmark tracer wraps gmewit names by string; each must still resolve."""

import importlib.util
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
