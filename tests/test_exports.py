"""Every exported name resolves: ``ddopt.__all__`` and the ``__all__`` of
each ``ddopt`` module name only what the module defines or imports.  Every
parameter of an exported function or public method is read."""

import ast
import importlib
import inspect
import pkgutil
import textwrap

import pytest

import ddopt

MODULES = ["ddopt"] + sorted(
    "ddopt." + m.name for m in pkgutil.iter_modules(ddopt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def _public_functions(module):
    """(name, function) of every exported function and of every public
    method (``__init__`` included) of an exported class, written in
    ``module``."""
    for name in module.__all__:
        obj = getattr(module, name)
        members = {name: obj} if inspect.isfunction(obj) else {}
        if inspect.isclass(obj):
            members = {name + "." + attr: getattr(m, "__func__", m)
                       for attr, m in vars(obj).items()
                       if not attr.startswith("_") or attr == "__init__"}
        for qualname, fn in members.items():
            if inspect.isfunction(fn) \
                    and fn.__code__.co_filename == module.__file__:
                yield qualname, fn


@pytest.mark.parametrize("name", MODULES)
def test_every_parameter_is_read(name):
    module = importlib.import_module(name)
    unread = []
    for qualname, fn in _public_functions(module):
        node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        # a method need not read its instance or class
        unread += ["{}({})".format(qualname, p) for p in params
                   if p not in read and p not in ("self", "cls")]
    assert not unread
