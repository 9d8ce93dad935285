import importlib
import pkgutil

import pytest

import cswlp

_MODULES = sorted(info.name for info in pkgutil.iter_modules(cswlp.__path__))


@pytest.mark.parametrize("name", ["cswlp"] + [f"cswlp.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
