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


def test_the_search_module_holds_no_array_code():
    # the CI deciders and their kernels live in citests; fci walks, caches
    # and counts
    from pagaudit import fci

    assert not any(
        inspect.ismodule(value) and value.__name__.split(".")[0] == "numpy"
        for value in vars(fci).values()
    )
    assert not {"chi_square_batch", "fisher_z_columns", "bayes_ball_separated"} & set(vars(fci))
