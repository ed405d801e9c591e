"""The package's public names are exactly what its modules declare."""

from __future__ import annotations

import importlib
import pkgutil

import exactbell

SUBMODULES = {info.name for info in pkgutil.iter_modules(exactbell.__path__)}
# Every submodule but the command-line front end declares library API.
LIBRARY = sorted(SUBMODULES - {"cli"})


def _declared() -> list[tuple[object, str]]:
    return [
        (module, name)
        for module in (importlib.import_module(f"exactbell.{m}") for m in LIBRARY)
        for name in module.__all__
    ]


def test_package_exports_exactly_the_union_of_the_modules_all():
    public = {name for name in vars(exactbell) if not name.startswith("_")}
    assert public - SUBMODULES == {name for _, name in _declared()}
    assert isinstance(exactbell.__version__, str)


def test_every_declared_name_resolves_to_the_package_binding():
    for module, name in _declared():
        assert getattr(exactbell, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_no_name_is_declared_twice():
    names = [name for _, name in _declared()]
    assert len(names) == len(set(names))
