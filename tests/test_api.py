"""The public API: every name a module exports exists, and the package re-exports exactly those."""

import importlib
import subprocess
import sys

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


def test_package_exports_each_module_all():
    modules = [importlib.import_module(f"congruence_workbench.{name}") for name in MODULES]
    declared = ["__version__", *(attr for module in modules for attr in module.__all__)]
    assert len(declared) == len(set(declared))  # no name is declared by two modules
    assert sorted(congruence_workbench.__all__) == sorted(declared)
    for module in modules:
        for attr in module.__all__:
            assert getattr(congruence_workbench, attr) is getattr(module, attr), (module.__name__, attr)


def test_package_import_leaves_cli_out():
    code = "import sys, congruence_workbench; print('congruence_workbench.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_star_import():
    namespace = {}
    exec("from congruence_workbench import *", namespace)
    assert set(congruence_workbench.__all__) <= set(namespace)
