"""Guard for names that other code relies on: every name a module exports in
``__all__`` exists, and every (owner, attribute) the benchmark's traced run
wraps (``perfbench/layers.py``'s ``WRAPPED``) resolves. A removal that would
break either fails here rather than in the benchmark."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import collapse_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(collapse_lab.__path__))
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"collapse_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_benchmark_layer_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPPED
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.WRAPPED if not callable(getattr(owner, attr, None))]
    assert missing == []
