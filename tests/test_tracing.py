"""The benchmark's traced names must exist in nclp: a renamed or deleted
traced function fails here instead of crashing a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name, module, attr", tracing.FUNCTIONS)
def test_traced_function_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name, module, cls, method", tracing.METHODS)
def test_traced_method_resolves(name, module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


@pytest.mark.parametrize("name, attr", tracing.KERNELS)
def test_traced_kernel_resolves(name, attr):
    assert callable(getattr(np.linalg, attr))
