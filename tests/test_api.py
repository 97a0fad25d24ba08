"""The public API: every name a module exports exists."""

import importlib

import pytest

import congruence_workbench

MODULES = ["arith", "congruence", "forms", "intexpr", "qseries"]  # cli is a front end and exports nothing


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_every_exported_name_resolves(name):
    module = congruence_workbench if name == "__init__" else importlib.import_module(f"congruence_workbench.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], (name, missing)


def test_star_import():
    namespace = {}
    exec("from congruence_workbench import *", namespace)
    assert set(congruence_workbench.__all__) <= set(namespace)
