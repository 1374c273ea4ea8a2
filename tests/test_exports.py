import ast
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


def test_one_function_checks_every_ci_query():
    # the fronts chi_square_test, fisher_z_test, oracle_test and d_separated
    # share citests' query check; none words it again
    raisers = set()
    for module in _modules():
        for func in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(func, ast.FunctionDef):
                raisers.update(
                    f"{module.__name__}.{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Raise)
                    and any(
                        isinstance(arg, ast.Constant) and arg.value == "x and y must be distinct"
                        for arg in ast.walk(node)
                    )
                )
    assert raisers == {"pagaudit.citests._query"}


def test_d_separated_is_the_oracle_front():
    from pagaudit import citests, graph

    assert not hasattr(graph, "d_separated")
    assert pagaudit.d_separated is citests.d_separated
