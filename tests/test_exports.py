"""Every exported name must resolve: tools that walk `__all__` (the benchmark's
tracer wraps each public function by name) crash on a stale entry."""
import importlib

import pytest

MODULES = ["effosc"] + [f"effosc.{m}" for m in ("model", "gap", "spectrum", "ipt", "oracle", "vacuum", "susy")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
