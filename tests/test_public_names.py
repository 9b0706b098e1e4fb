"""Every name a package exports in ``__all__`` is an attribute of it."""

from __future__ import annotations

import importlib

import pytest

MODULES = ("asslkit", "asslkit.runtime", "asslkit.verifier", "asslkit.names")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported and len(set(exported)) == len(exported), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], (name, missing)
