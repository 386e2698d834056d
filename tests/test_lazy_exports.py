"""The contract of the packages whose ``__init__`` re-exports lazily (PEP 562)."""

from __future__ import annotations

import importlib
import pkgutil
import sys
import types

import pytest

import repro
from repro._lazy import lazy_exports


def _lazy_packages():
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    return [pkg.__name__ for pkg in packages if "__getattr__" in vars(pkg)]


LAZY_PACKAGES = _lazy_packages()


def test_the_lazy_packages():
    assert LAZY_PACKAGES == ["repro", "repro.core", "repro.hw", "repro.isa", "repro.nn"]


@pytest.fixture(params=LAZY_PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_export_resolves_and_is_listed(package):
    listing = dir(package)
    for name in package.__all__:
        getattr(package, name)
        assert name in listing


def test_star_import_binds_all_exports(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= namespace.keys()


def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")
    assert not hasattr(package, "no_such_export")


def test_no_export_shadows_a_submodule(package):
    # importing the submodule would bind the module object over the name
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    assert not submodules & set(package.__all__)


def test_exports_missing_from_all_are_rejected(monkeypatch):
    module = types.ModuleType("lazy_probe")
    module.__all__ = ["listed"]
    monkeypatch.setitem(sys.modules, "lazy_probe", module)
    with pytest.raises(ValueError, match="unlisted"):
        lazy_exports("lazy_probe", {".part": ("listed", "unlisted")})
