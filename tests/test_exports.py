"""Every exported name must resolve: tools that walk `__all__` (the benchmark's
tracer wraps each public function by name) crash on a stale entry.  The
package re-exports its modules' `__all__` lists and declares nothing else."""
import importlib

import pytest

import effosc

MODULES = ["effosc"] + [
    f"effosc.{m}" for m in ("errors", "model", "gap", "spectrum", "ipt", "oracle", "vacuum", "susy")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def test_package_exports_exactly_the_module_lists():
    want = ["__version__"] + [n for m in MODULES[1:] for n in importlib.import_module(m).__all__]
    assert effosc.__all__ == want
    assert len(set(want)) == len(want)
    for name in want[1:]:
        owner = next(m for m in MODULES[1:] if name in importlib.import_module(m).__all__)
        assert getattr(effosc, name) is getattr(importlib.import_module(owner), name), name
