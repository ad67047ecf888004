import importlib
import pkgutil

import stabcert


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"stabcert.{info.name}")
               for info in pkgutil.iter_modules(stabcert.__path__)]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) >= 8
    for module in exported:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
