"""The benchmark's span tracer resolves reslab functions by name; a refactor
that deletes or reshapes one of them must fail here rather than in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted(tracing.SPANS))
def test_traced_name_resolves(name):
    fn, namespaces = tracing.resolve(name)
    assert callable(fn)
    assert any(vars(ns).get(name.rpartition(".")[2]) is fn for ns in namespaces)
