import importlib
import inspect
import pkgutil

import pagaudit


def _modules():
    return [
        importlib.import_module(f"pagaudit.{info.name}")
        for info in pkgutil.iter_modules(pagaudit.__path__)
    ]


def test_every_declared_export_exists():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_the_package_reexports_only_declared_names():
    # each name the package namespace offers is in its defining module's
    # __all__, and every module it takes names from declares one
    for name, value in vars(pagaudit).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        module = importlib.import_module(value.__module__)
        assert name in getattr(module, "__all__", ()), f"{module.__name__}.__all__ lacks {name!r}"
