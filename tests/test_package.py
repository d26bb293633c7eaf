"""The package surface: every exported name resolves."""

import importlib

import otmbench


def test_every_all_entry_resolves():
    # the benchmark tracer wraps each name in a module's __all__ by getattr
    for module in otmbench.__all__:
        mod = importlib.import_module(f"otmbench.{module}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"otmbench.{module}.__all__ lists missing {missing}"
