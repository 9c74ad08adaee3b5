import ast
import importlib
import inspect
import pkgutil

import pikdom
from pikdom import cli


def _public_callables():
    """Every name ``pikdom`` exports, ``cli.main``, and every other public
    function or class a ``pikdom`` module defines."""
    yield from ((f"pikdom.{name}", getattr(pikdom, name)) for name in dir(pikdom))
    yield "pikdom.cli.main", cli.main
    for info in pkgutil.iter_modules(pikdom.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"pikdom.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_public_callables_take_no_underscore_parameters():
    # A leading underscore marks a test hook or a diagnostic toggle; the
    # public API carries neither.
    hooks, checked = {}, set()
    for qualname, obj in _public_callables():
        if qualname.rsplit(".", 1)[1].startswith("_") or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # an exception class: builtin (*args)
            assert issubclass(obj, BaseException), qualname
            continue
        checked.add(qualname)
        underscored = [p for p in params if p.startswith("_")]
        if underscored:
            hooks[qualname] = underscored
    assert hooks == {}
    assert len(checked) > 50


def test_cli_imports_no_private_name():
    # The CLI drives the package through its public phases only.
    tree = ast.parse(inspect.getsource(cli))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and (node.level or node.module.startswith("pikdom"))
    ]
    assert private == []
