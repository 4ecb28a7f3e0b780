"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name and reads ``potential.DEFAULT_CONFIG``.  A rename or deletion there
would otherwise show only when a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in tracing.WRAPS.items()
    for name in names])
def test_wrapped_name_resolves(module, name):
    owner = importlib.import_module(f"pacgreen.{module}")
    for attr in name.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
    # the tracer files the span under the defining module, a reported layer
    assert owner.__module__.rsplit(".", 1)[-1] in tracing.LAYERS


def test_default_config_resolves():
    cfg = importlib.import_module("pacgreen.potential").DEFAULT_CONFIG
    assert cfg.asymptotic_cutoff_radius > 0
