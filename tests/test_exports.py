import importlib
import pkgutil

import pytest

import blocksolve

MODULES = [blocksolve] + [
    importlib.import_module(f"blocksolve.{info.name}")
    for info in pkgutil.iter_modules(blocksolve.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_export_resolves_once(module):
    names = module.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(module, n)] == []
