import importlib
import pkgutil

import plemelj


def test_every_exported_name_resolves():
    # a deleted function cannot leave a stale __all__ entry behind
    for info in pkgutil.iter_modules(plemelj.__path__):
        module = importlib.import_module(f"plemelj.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
