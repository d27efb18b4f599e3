"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import phaseuq

MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(phaseuq.__path__, "phaseuq.")
    if hasattr(importlib.import_module(name), "__all__")
]


def test_modules_with_exports_are_found():
    assert {"phaseuq.grid", "phaseuq.optics", "phaseuq.recon", "phaseuq.uqstats"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
