"""The benchmark's tracer wraps package functions by name; every name must exist."""

import importlib.util
from pathlib import Path

import pytest

from bellnoise import cli, correlations, evolve, linalg, scenarios

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets(cli, scenarios, evolve, correlations, linalg)
    return [(module.__name__, attr) for module, attr, _, _ in targets]


@pytest.mark.parametrize("module, attr", _traced_names())
def test_every_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
