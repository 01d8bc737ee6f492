"""The benchmark tracer's function table names only functions that exist."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# read and run from source, so no bytecode is written next to it
FUNCTIONS = runpy.run_path(str(TRACER))["FUNCTIONS"]


@pytest.mark.parametrize("module,names", sorted(FUNCTIONS.items()))
def test_traced_functions_exist(module, names):
    # traced() reads each name with owner.__dict__[name]: a missing one
    # breaks every trace run
    owner = importlib.import_module(f"countproc.{module}")
    assert sorted(set(names) - set(vars(owner))) == []
