"""Every kronred name the benchmark tracer wraps or lists must still exist.

``perfbench/tracer.py`` finds the functions it times by name; a rename in
kronred would silently drop them from the traced counts.
"""

import importlib

import pytest

import kronred.reduction

from conftest import load_perfbench

tracer = load_perfbench("tracer")

NAMES = sorted({*tracer.STAGES, *tracer.INFO, *tracer.NETFILE_DUMP,
                "solver.cho_factor", "solver.cho_solve"})


@pytest.mark.parametrize("name", NAMES)
def test_traced_function_exists(name):
    layer, attr = name.split(".")
    assert layer in tracer.LAYERS
    assert callable(getattr(importlib.import_module(f"kronred.{layer}"), attr))


@pytest.mark.parametrize("method", [*tracer.LEAF_METHODS, "cocontent"])
def test_traced_table_method_exists(method):
    assert callable(getattr(kronred.reduction.TableLaw, method))
